"""Batch command-line front-end.

Subcommands: sweep | field | universality | oned | oracle-compare, each for
the hard-wall wire of unit width.
Parameters come from a ``key = value`` config file (``--config``) and/or
command-line flags, which override it.  The flags are the config keys with
dashes for underscores (``--omega-grid`` sets ``omega_grid``), exact names
only, each followed by its value or written ``--key=value``; ``--oracle`` and
``--with-complex`` take no value.  One table of keys gives each key's type,
default, help and choices and checks both sources alike; a subcommand accepts
only the keys it reads, and ``-h``/``--help`` prints their flags.  Tables
are emitted as CSV or JSON lines with full round-trip float precision, so
identical configs give byte-identical outputs.

Exit codes: 0 success (and after --help), 1 partial numerical failure (a
sweep with more than 10% failed points), 2 configuration or domain error
(the message names the violated constraint: a missing or unknown
subcommand, an unknown flag, a bad value, an --out path that cannot be
opened for writing), 3 numerical failure (a sum or limit that did not
converge: ConvergenceError).
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from types import SimpleNamespace

import numpy as np

from . import oracle as oracle_mod
from .errors import (
    ConfigurationError,
    ConvergenceError,
    WirescatError,
)
from .scatter import (
    Impurity,
    OneDBarrier,
    cutoff_scan,
    reflection_1d,
    scattered_field_grid,
    solve_scattering,
    threshold_field,
    threshold_field_grid,
)
from .specfun import (
    _check_incident,
    _check_size,
    _index,
    longitudinal_wavenumber,
    threshold_energy,
)
from .transport import sweep as transport_sweep

FMT = "%.17g"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return FMT % value
    return str(value)


def parse_config_file(path: str) -> dict:
    """The raw ``key = value`` pairs of a config file, keys with dashes
    read as underscores; :func:`build_config` checks each one."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            values[key] = val.strip()
    return values


def _coerce(key: str, val: str):
    """The value of config key ``key`` read from its text, alike for a
    config-file line and a flag; ConfigurationError naming the key when the
    text is not of the key's type or when the value is not one of the key's
    choices."""
    kind, _, _, choices = _KEYS[key]
    if kind is bool:
        if val.lower() in ("1", "true", "yes", "on"):
            return True
        if val.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigurationError(f"config key {key!r} expects a boolean, got {val!r}")
    try:
        value = kind(val)
    except ValueError as exc:
        raise ConfigurationError(f"config key {key!r}: {exc}") from None
    if choices and value not in choices:
        raise ConfigurationError(
            f"config key {key!r} must be one of {', '.join(choices)}, got {val!r}")
    return value


def _parse_grid(spec: str, scale: float = math.pi**2) -> np.ndarray:
    """'lo:hi:count' -> energies; lo/hi are in units of ``scale``.  The
    count passes through :func:`_index` before the grid is built."""
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ConfigurationError(
            f"omega_grid must be 'lo:hi:count', got {spec!r}"
        ) from None
    for name, value in (("lo", lo), ("hi", hi)):
        if not math.isfinite(value):
            raise ConfigurationError(f"omega_grid needs a finite {name}, got {value}")
    count = _index(count, "omega_grid count")
    if count == 1:
        return np.array([lo * scale])
    return np.linspace(lo, hi, count) * scale


def _parse_list(spec: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ConfigurationError(f"{what} must be comma-separated numbers, got {spec!r}") from None
    if not values:
        raise ConfigurationError(f"{what} must not be empty")
    return values


def _require(cfg: SimpleNamespace, *keys: str) -> None:
    """ConfigurationError naming the flag of the first of ``keys`` that is
    not set."""
    for key in keys:
        if getattr(cfg, key) is None:
            raise ConfigurationError(f"{_invocation(key)} is required")


def _oracle_wire(cfg: SimpleNamespace, eps: float) -> oracle_mod.DiscreteWire:
    """The oracle lattice of grid_ny rows and lead_modes lead modes; its
    ConfigurationError names grid_ny, the key that sets ny."""
    try:
        return oracle_mod.DiscreteWire(eps, ny=cfg.grid_ny, lead_modes=cfg.lead_modes)
    except ConfigurationError as exc:
        raise ConfigurationError(f"oracle grid_ny = {cfg.grid_ny}: {exc}") from None


def _output(cfg: SimpleNamespace):
    """A context manager of the --out file opened for writing, or of stdout,
    which it leaves open; ConfigurationError naming the path when the file
    cannot be opened."""
    if not cfg.out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(cfg.out, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot write --out {cfg.out!r}: {exc.strerror}") from None


def _write_table(cfg: SimpleNamespace, header: list[str], rows: list[list]) -> None:
    with _output(cfg) as fh:
        if cfg.format == "json":
            for row in rows:
                fh.write(json.dumps({k: v for k, v in zip(header, row)}) + "\n")
        else:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")


# a forked block prints at least this many numbers.  A field-map CSV line
# costs 150-220 ns per number it prints (250-370 ns per number it formats:
# x and y cells are shared), so 2**16 numbers take 10-15 ms; one fork of the
# ~40 MiB CLI process, its exit and the copy of its 1.4 MB of text through a
# pipe take ~6 ms (2-CPU Xeon, shared host)
_MIN_BLOCK_NUMBERS = 1 << 16
_PIPE_CHUNK = 1 << 20
# numbers that one call of the numpy '%.17g' kernel formats: the kernel's
# arrays for 2**14 numbers raise the CLI's peak RSS by ~1 MiB, and 2**12
# are slower by the cost of a numpy call per step
_CHUNK_NUMBERS = 1 << 13


def _worker_count(n_rows: int, numbers_per_row: int) -> int:
    """Blocks to format in parallel: one per usable CPU, as far as the rows
    fill blocks of _MIN_BLOCK_NUMBERS printed numbers; 1 (no fork) without
    ``os.sched_getaffinity`` or when other Python threads run, as forking a
    threaded process may copy a lock that another thread holds."""
    import os
    import threading

    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(cpus, n_rows, n_rows * numbers_per_row // _MIN_BLOCK_NUMBERS))


def _write_rows(fh, n_rows: int, numbers_per_row: int, format_rows) -> None:
    """Write the rows of ``format_rows(0, n_rows)`` to ``fh``;
    ``format_rows(lo, hi)`` yields the ASCII text of rows lo..hi-1.

    The rows are split into contiguous blocks, one per worker of
    :func:`_worker_count`.  Forked workers format every block but the first
    and send it back through a pipe; the parent writes the first block, then
    copies the pipes into ``fh`` in order, so the bytes do not depend on the
    number of workers.  A worker writes only its pipe (no inherited buffer
    is flushed) and leaves by ``os._exit``.  Raises RuntimeError when a
    worker fails; every pipe is closed and every worker reaped on any exit.
    """
    import os

    workers = _worker_count(n_rows, numbers_per_row)
    bounds = [n_rows * i // workers for i in range(workers + 1)]
    pids, fds = [], []  # fds: the workers' read ends, and a write end until forked
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            fds += os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    for fd in fds[:-1]:
                        os.close(fd)
                    # format the whole block before the parent starts reading
                    for text in [row.encode("ascii") for row in format_rows(lo, hi)]:
                        view = memoryview(text)
                        while view:
                            view = view[os.write(fds[-1], view):]
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
            os.close(fds.pop())
        fh.writelines(format_rows(bounds[0], bounds[1]))
        for fd in fds:
            while chunk := os.read(fd, _PIPE_CHUNK):
                fh.write(chunk.decode("ascii"))
    finally:
        for fd in fds:
            os.close(fd)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for code in codes:
        if code:
            raise RuntimeError(f"a field row worker exited with status {code}; "
                               "the output is incomplete")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_sweep(cfg: SimpleNamespace) -> int:
    _require(cfg, "omega_grid", "epsilon", "rho0")
    omegas = _parse_grid(cfg.omega_grid)
    points = transport_sweep(Impurity(cfg.epsilon, cfg.rho0), omegas)
    p_max = max((pt.result.num_propagating for pt in points if pt.ok), default=0)
    header = ["omega", "m", "num_propagating"]
    header += [f"T_{n}_{l}" for n in range(1, p_max + 1) for l in range(1, p_max + 1)]
    header += [f"R_{n}_{l}" for n in range(1, p_max + 1) for l in range(1, p_max + 1)]
    header += ["conductance", "unitarity_defect"]
    rows = []
    failures = 0
    for pt in points:
        if not pt.ok:
            failures += 1
            print(f"sweep point omega={pt.omega:.6g} failed: {pt.error}", file=sys.stderr)
            continue
        res = pt.result
        p = res.num_propagating
        row = [pt.omega, res.threshold_index, p]
        for mat in (res.transmission, res.reflection):
            for n in range(p_max):
                for l in range(p_max):
                    row.append(float(mat[n, l]) if (n < p and l < p) else None)
        row += [res.conductance, res.unitarity_defect]
        rows.append(row)
    _write_table(cfg, header, rows)
    return 0 if failures <= 0.1 * len(points) else 1


def run_field(cfg: SimpleNamespace) -> int:
    """Write psi on the (x, y) lattice as one line per point: x, y, density
    = |psi|^2 and, with --with-complex, re and im.

    ``clean`` is the bare incident mode (a finite energy at which mode n
    propagates, else DomainError), ``defect`` comes from
    :func:`scattered_field_grid` and ``threshold`` from
    :func:`threshold_field_grid`, before ``--out`` is opened; a grid of
    more than ``_MAX_INDEX`` points is refused first (DomainError).  The
    CSV numbers come from the numpy kernel of :mod:`wirescat._fmt17`,
    whose text is ``FMT % v`` for every float.  A few rows at a time (or
    part of one long row) are laid out as NUL-padded cells, and the NULs
    dropped; the x and y cells are formatted once.  JSON is one
    ``json.dumps`` per point.  :func:`_write_rows` builds the numbers of
    the y-row blocks of a large map and formats them in forked workers, one
    per usable CPU (Linux only), and writes the same bytes as one process.
    """
    _require(cfg, "field_mode")
    _check_size(cfg.nx * cfg.ny, "field grid of nx * ny = {} * {} = {} points", cfg.nx,
                cfg.ny, cfg.nx * cfg.ny)
    nx, ny = _index(cfg.nx, "nx"), _index(cfg.ny, "ny")
    for name in ("x_min", "x_max"):
        value = getattr(cfg, name)
        if not math.isfinite(value):
            raise ConfigurationError(f"field grid needs a finite {name}, got {value}")
    if not cfg.x_max > cfg.x_min:
        raise ConfigurationError("field grid needs x_max > x_min")
    n = cfg.mode_n
    xs = np.linspace(cfg.x_min, cfg.x_max, nx)
    ys = np.linspace(0.0, 1.0, ny + 2)[1:-1]  # interior lattice

    if cfg.field_mode == "clean":
        _require(cfg, "omega")
        _check_incident(n, cfg.omega)
        k_n = longitudinal_wavenumber(n, cfg.omega)
        psi = np.outer(np.sin(n * np.pi * ys), np.exp(1j * k_n * xs))
    elif cfg.field_mode == "defect":
        _require(cfg, "omega", "epsilon", "rho0")
        psi = scattered_field_grid(Impurity(cfg.epsilon, cfg.rho0), n, cfg.omega, xs, ys)
    else:
        _require(cfg, "threshold_m", "epsilon", "rho0")
        psi = threshold_field_grid(Impurity(cfg.epsilon, cfg.rho0), n, cfg.threshold_m, xs, ys)

    header = ["x", "y", "density"] + (["re", "im"] if cfg.with_complex else [])
    n_col = len(header) - 2

    def values(block):
        """The density (and re, im) of a block of psi, one number per
        column on the last axis."""
        # float(abs(v) ** 2) of a numpy complex scalar is pow(hypot(re, im), 2)
        # in libm; np.abs and ``** 2`` on arrays take SIMD loops that round
        # differently, float_power and hypot do not
        columns = [np.float_power(np.hypot(block.real, block.imag), 2.0)]
        if cfg.with_complex:
            columns += [block.real, block.imag]
        return np.stack(columns, axis=-1)

    if cfg.format == "json":
        x_list, y_list = xs.tolist(), ys.tolist()

        def format_row(y, row):
            return "".join(json.dumps(dict(zip(header, [x, y, *row[i:i + n_col]]))) + "\n"
                           for x, i in zip(x_list, range(0, len(row), n_col)))

        def format_rows(lo, hi):
            rows = values(psi[lo:hi]).reshape(hi - lo, -1)
            return map(format_row, y_list[lo:hi], map(np.ndarray.tolist, rows))
    else:
        from . import _fmt17

        x_cells, y_cells = _fmt17.cells(xs), _fmt17.cells(ys)
        comma, newline = np.frombuffer(b",", np.uint8), np.frombuffer(b"\n", np.uint8)
        # blocks of whole rows, or of one row's columns when a row is longer
        rows_per = max(1, _CHUNK_NUMBERS // (len(xs) * n_col))
        cols_per = max(1, _CHUNK_NUMBERS // n_col)

        def format_rows(lo, hi):
            # each line is laid out in NUL-padded cells of one width per
            # column, and the NULs are dropped
            for r0 in range(lo, hi, rows_per):
                for c0 in range(0, len(xs), cols_per):
                    rows, cols = slice(r0, min(r0 + rows_per, hi)), slice(c0, c0 + cols_per)
                    numbers = values(psi[rows, cols])
                    number_cells = _fmt17.cells(numbers).reshape(*numbers.shape, -1)
                    cells = [x_cells[cols], y_cells[rows, None], *np.moveaxis(number_cells, 2, 0)]
                    parts = [part for cell in cells for part in (cell, comma)]
                    parts[-1] = newline
                    shape = numbers.shape[:2]
                    line = np.concatenate([np.broadcast_to(p, (*shape, p.shape[-1]))
                                           for p in parts], axis=-1)
                    yield line.tobytes().translate(None, b"\0").decode("ascii")

    with _output(cfg) as fh:
        if cfg.format != "json":
            fh.write(",".join(header) + "\n")
        _write_rows(fh, len(ys), len(xs) * len(header), format_rows)
    return 0


def run_universality(cfg: SimpleNamespace) -> int:
    _require(cfg, "threshold_m", "epsilon", "rho0_list")
    m = cfg.threshold_m
    n = cfg.mode_n
    rho0s = _parse_list(cfg.rho0_list, "rho0_list")
    offset_scales = _parse_list(cfg.offsets, "offsets")

    scan = cutoff_scan(cfg.epsilon, rho0s, n, m, offset_scales)
    limits = list(scan.limits)
    target = math.sin(n * math.pi * cfg.epsilon) / math.sin(m * math.pi * cfg.epsilon)
    mean_limit = np.mean(limits)
    threshold_spread = (
        max(abs(a - b) for a in limits for b in limits) / abs(mean_limit)
        if len(limits) > 1 else 0.0
    )
    # the cut-off field itself never reads the strength: spread is 0 by
    # construction, and reported as such
    field_samples = [
        threshold_field(Impurity(cfg.epsilon, r0), n, m, (0.37, 0.53))
        for r0 in rho0s
    ]
    field_spread = max(abs(a - b) for a in field_samples for b in field_samples) \
        if len(field_samples) > 1 else 0.0

    near = []
    for scale, omega, coefs in zip(offset_scales, scan.offset_energies, scan.offset_amplitudes):
        spread = (
            max(abs(a - b) for a in coefs for b in coefs) / abs(np.mean(coefs))
            if len(coefs) > 1 else 0.0
        )
        near.append({"offset_scale": scale, "omega": omega, "spread": spread})

    report = {
        "mode_n": n,
        "threshold_m": m,
        "epsilon": cfg.epsilon,
        "rho0_list": rho0s,
        "target_coefficient": target,
        "threshold_limits": [[c.real, c.imag] for c in limits],
        "threshold_spread": threshold_spread,
        "threshold_field_spread": field_spread,
        "threshold_deviation": abs(mean_limit - target) / abs(target),
        "near_threshold": near,
    }
    verdict = threshold_spread < 1e-8 and report["threshold_deviation"] < 1e-6
    if cfg.oracle:
        probe = oracle_mod.universality_probe(_oracle_wire(cfg, cfg.epsilon), n, m, rho0s)
        report["oracle"] = {
            "lattice_cutoff": probe.lattice_cutoff,
            "continuum_cutoff": threshold_energy(m),
            "offset": probe.offset,
            "coefficients": [[c.real, c.imag] for c in probe.coefficients],
            "spread": probe.spread,
            "mean_deviation": probe.mean_deviation,
        }
        verdict = verdict and probe.verdict == "PASS"
    report["verdict"] = "PASS" if verdict else "FAIL"
    with _output(cfg) as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


def run_oned(cfg: SimpleNamespace) -> int:
    _require(cfg, "omega_grid")
    omegas = _parse_grid(cfg.omega_grid, scale=1.0)  # 1D energies given directly
    have_delta = cfg.alpha is not None
    have_weak = cfg.delta_v is not None and cfg.barrier_width is not None
    if not (have_delta or have_weak):
        raise ConfigurationError(
            "oned requires --alpha (delta barrier) and/or --delta-v with --barrier-width"
        )
    header = ["omega"]
    barriers = []
    if have_delta:
        barriers.append(("R_delta", OneDBarrier(kind="delta", alpha=cfg.alpha)))
        header.append("R_delta")
    if have_weak:
        barriers.append(("R_weak", OneDBarrier(kind="weak-finite", delta_v=cfg.delta_v,
                                               width=cfg.barrier_width)))
        header.append("R_weak")
    rows = []
    for omega in omegas:
        row = [float(omega)]
        for _, barrier in barriers:
            row.append(reflection_1d(barrier, float(omega)))
        rows.append(row)
    _write_table(cfg, header, rows)
    return 0


def run_oracle_compare(cfg: SimpleNamespace) -> int:
    _require(cfg, "omega", "epsilon", "rho0")
    impurity = Impurity(cfg.epsilon, cfg.rho0)
    rhos = _parse_list(cfg.rho_ladder, "rho_ladder")
    wire = _oracle_wire(cfg, impurity.epsilon)
    ladder = oracle_mod.solve_ladder(wire, cfg.mode_n, cfg.omega, rhos, impurity.rho0)
    ext = oracle_mod.extrapolate_to_zero_width(ladder)
    sol = solve_scattering(impurity, cfg.mode_n, cfg.omega, l_max=cfg.lead_modes)
    comparison = []
    for l in range(1, cfg.lead_modes + 1):
        analytic = sol.amplitudes[l]
        num = ext.amplitude[l - 1]
        rel = abs(num - analytic) / abs(analytic) if analytic != 0 else None
        comparison.append({
            "l": l,
            "analytic_re": analytic.real, "analytic_im": analytic.imag,
            "oracle_re": float(num.real), "oracle_im": float(num.imag),
            "rel_err": rel,
        })
    with _output(cfg) as fh:
        for item in [*ladder, ext]:
            for rec in oracle_mod.amplitude_records(item):
                fh.write(json.dumps(rec) + "\n")
        fh.write(json.dumps({"type": "comparison", "n": cfg.mode_n,
                             "omega": cfg.omega, "rows": comparison}) + "\n")
    return 0


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

#: every config key -> (type, default, help text, choices or None).  The
#: flag of a key is --key-with-dashes; ``oracle`` and ``with_complex`` take
#: no value.  None as a default means "not set".
_KEYS = {
    "out": (str, "", "output path (default stdout)", None),
    "format": (str, "csv", "table format", ("csv", "json")),
    "epsilon": (float, None, "impurity transverse position in (0,1)", None),
    "rho0": (float, None, "impurity strength length scale", None),
    "mode_n": (int, 1, "incident mode index", None),
    "threshold_m": (int, None, "cut-off index m", None),
    "omega": (float, None, "energy (units 1/width^2)", None),
    "omega_grid": (str, None, "lo:hi:count, in units of pi^2 (oned: plain energies)", None),
    "oracle": (bool, False, "also run the finite-difference probe", None),
    "field_mode": (str, None, "", ("clean", "defect", "threshold")),
    "nx": (int, 81, "grid points along x", None),
    "ny": (int, 41, "interior grid points along y", None),
    "x_min": (float, -2.0, "", None),
    "x_max": (float, 2.0, "", None),
    "with_complex": (bool, False, "emit re/im columns next to the density", None),
    "rho0_list": (str, None, "comma-separated strength scales", None),
    "offsets": (str, "0.01,0.0001,1e-06", "comma-separated offsets in units of |Delta_m|",
                None),
    "alpha": (float, None, "delta-barrier strength", None),
    "delta_v": (float, None, "weak-barrier height", None),
    "barrier_width": (float, None, "", None),
    "rho_ladder": (str, "0.04,0.02,0.01", "comma-separated widths", None),
    "grid_ny": (int, 400, "", None),
    "lead_modes": (int, 12, "", None),
}

#: subcommand -> (runner, help text, the config keys the runner reads)
_SUBCOMMANDS = {
    "sweep": (run_sweep, "transport matrices over an energy grid",
              ("out", "format", "epsilon", "rho0", "omega_grid")),
    "field": (run_field, "wavefunction / density on an (x, y) lattice",
              ("out", "format", "epsilon", "rho0", "mode_n", "threshold_m", "omega",
               "field_mode", "nx", "ny", "x_min", "x_max", "with_complex")),
    "universality": (run_universality, "strength-independence experiment at a cut-off",
                     ("out", "epsilon", "mode_n", "threshold_m", "rho0_list", "offsets",
                      "oracle", "grid_ny", "lead_modes")),
    "oned": (run_oned, "1D reference reflection curves",
             ("out", "format", "omega_grid", "alpha", "delta_v", "barrier_width")),
    "oracle-compare": (run_oracle_compare, "finite-difference ladder vs analytic amplitudes",
                       ("out", "epsilon", "rho0", "mode_n", "omega", "rho_ladder", "grid_ny",
                        "lead_modes")),
}

_USAGE = "usage: wirescat SUBCOMMAND [-h] [--config CONFIG] [--KEY VALUE ...]"


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _invocation(key: str) -> str:
    """The flag of ``key`` with its value: KEY, its choices or none."""
    kind, _, _, choices = _KEYS[key]
    if kind is bool:
        return _flag(key)
    if choices:
        return f"{_flag(key)} {{{','.join(choices)}}}"
    return f"{_flag(key)} {key.upper()}"


def build_config(subcommand: str, args: list[str]) -> SimpleNamespace:
    """The run parameters of ``wirescat SUBCOMMAND ARGS``: one attribute per
    key that ``subcommand`` reads, from the ``--config`` file, overridden by
    the flags, of which the last of a repeated one wins, else the default of
    ``_KEYS``.  A flag is the exact ``--key-with-dashes`` of such a key,
    followed by its value as the next argument (even one with a leading
    minus) or after ``=``; every value goes through :func:`_coerce`.
    Raises ConfigurationError naming the flag or key at fault, and the
    subcommand when it does not read that key, from either source."""
    keys = _SUBCOMMANDS[subcommand][2]

    def accept(key, source, name):
        if key not in keys:
            raise ConfigurationError(f"unknown {source} {name!r} for wirescat {subcommand}")
        return key

    flag_keys = {_flag(key): key for key in keys}
    config, flags = None, {}
    rest = iter(args)
    for arg in rest:
        flag, eq, value = arg.partition("=")
        key = None if flag == "--config" else accept(flag_keys.get(flag), "flag", flag)
        if key is not None and _KEYS[key][0] is bool:
            if eq:
                raise ConfigurationError(f"flag {flag} takes no value")
            value = "true"
        elif not eq:
            value = next(rest, None)
            if value is None:
                raise ConfigurationError(f"flag {flag} expects a value")
        if key is None:
            config = value
        else:
            flags[key] = value
    values = {key: _KEYS[key][1] for key in keys}
    file_values = parse_config_file(config) if config else {}
    for key in file_values:
        accept(key, "config key", key)
    for key, val in [*file_values.items(), *flags.items()]:
        values[key] = _coerce(key, val)
    return SimpleNamespace(**values)


def _help_line(invocation: str, text: str) -> str:
    """One entry of a help list; the text starts at column 24, on a line
    of its own after a long invocation."""
    if not text:
        return f"  {invocation}\n"
    if len(invocation) > 20:
        return f"  {invocation}\n{'':24}{text}\n"
    return f"  {invocation:20}  {text}\n"


def _help(subcommand: str | None) -> str:
    """The --help text of ``subcommand``, or of wirescat itself for None."""
    options = [_help_line("-h, --help", "show this help message and exit")]
    if subcommand is None:
        return (f"{_USAGE}\n\nScattering of waveguide modes off a single point impurity "
                "in a quasi-1D wire.\n\nsubcommands:\n"
                + "".join(_help_line(name, text) for name, (_, text, _) in _SUBCOMMANDS.items())
                + "\noptions:\n" + options[0]
                + "\n'wirescat SUBCOMMAND --help' lists the flags of SUBCOMMAND.\n")
    _, text, keys = _SUBCOMMANDS[subcommand]
    options.append(_help_line("--config CONFIG", "key = value config file; flags override it"))
    for key in keys:
        options.append(_help_line(_invocation(key), _KEYS[key][2]))
    return (f"{_USAGE.replace('SUBCOMMAND', subcommand)}\n\n{text}\n\n"
            "Flag --key-name sets config key key_name and overrides the --config\n"
            "file; its value is the next argument or follows '='.  Flag names are\n"
            "exact: no abbreviation is accepted.\n\n"
            "options:\n" + "".join(options))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    subcommand, args = (argv[0], argv[1:]) if argv else (None, [])
    try:
        if subcommand not in _SUBCOMMANDS:
            if subcommand in ("-h", "--help"):
                print(_help(None), end="")
                return 0
            print(_USAGE, file=sys.stderr)
            raise ConfigurationError(f"unknown subcommand {subcommand!r}" if subcommand
                                     else "a subcommand is required")
        if "-h" in args or "--help" in args:
            print(_help(subcommand), end="")
            return 0
        cfg = build_config(subcommand, args)
        return _SUBCOMMANDS[subcommand][0](cfg)
    except ConvergenceError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except WirescatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
