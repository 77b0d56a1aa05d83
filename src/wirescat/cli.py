"""Batch command-line front-end.

Subcommands: sweep | field | universality | oned | oracle-compare, each for
the hard-wall wire of unit width.
Parameters come from ``key = value`` config files and/or command-line flags
(flags win).  Tables are emitted as CSV or JSON lines with full round-trip
float precision, so identical configs give byte-identical outputs.

Exit codes: 0 success, 1 partial numerical failure (a sweep with more than
10% failed points), 2 configuration or domain error (the message names the
violated constraint; an --out path that cannot be opened for writing is
one), 3 numerical failure (a sum or limit that did not converge:
ConvergenceError).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import oracle as oracle_mod
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DomainError,
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
from .specfun import longitudinal_wavenumber, threshold_energy
from .transport import sweep as transport_sweep

FMT = "%.17g"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return FMT % value
    return str(value)


@dataclass
class RunConfig:
    """Flat bag of run parameters; None means 'not set'."""

    subcommand: str = ""
    out: str = ""
    format: str = "csv"
    epsilon: float | None = None
    rho0: float | None = None
    mode_n: int = 1
    threshold_m: int | None = None
    omega: float | None = None
    omega_grid: str | None = None       # "lo:hi:count", energies in units of pi^2
    oracle: bool = False
    field_mode: str | None = None        # clean | defect | threshold
    nx: int = 81
    ny: int = 41
    x_min: float = -2.0
    x_max: float = 2.0
    with_complex: bool = False
    rho0_list: str | None = None         # comma separated
    offsets: str | None = None           # comma separated multiples of |Delta_m|
    alpha: float | None = None
    delta_v: float | None = None
    barrier_width: float | None = None
    rho_ladder: str = "0.04,0.02,0.01"
    grid_ny: int = 400
    lead_modes: int = 12

    def to_text(self) -> str:
        """Serialize as a config file; parsing it back is lossless."""
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None or v == "":
                continue
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = FMT % v
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"


_BOOL_KEYS = {"oracle", "with_complex"}
_INT_KEYS = {"mode_n", "threshold_m", "nx", "ny", "grid_ny", "lead_modes"}
_FLOAT_KEYS = {"epsilon", "rho0", "omega", "x_min", "x_max", "alpha", "delta_v",
               "barrier_width"}


def parse_config_file(path: str) -> dict:
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


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    file_values = parse_config_file(args.config) if args.config else {}
    valid = {f.name for f in fields(RunConfig)}
    for key, val in file_values.items():
        if key not in valid:
            raise ConfigurationError(f"unknown config key {key!r}")
        setattr(cfg, key, _coerce(key, val))
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None and flag != "" and f.name != "subcommand":
            setattr(cfg, f.name, flag)
    cfg.subcommand = args.subcommand
    return cfg


def _coerce(key: str, val: str):
    if key in _BOOL_KEYS:
        if val.lower() in ("1", "true", "yes", "on"):
            return True
        if val.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigurationError(f"config key {key!r} expects a boolean, got {val!r}")
    try:
        if key in _INT_KEYS:
            return int(val)
        if key in _FLOAT_KEYS:
            return float(val)
    except ValueError as exc:
        raise ConfigurationError(f"config key {key!r}: {exc}") from None
    return val


def _parse_grid(spec: str, scale: float = math.pi**2) -> np.ndarray:
    """'lo:hi:count' -> energies; lo/hi are in units of ``scale``."""
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ConfigurationError(
            f"omega grid must be 'lo:hi:count', got {spec!r}"
        ) from None
    for name, value in (("lo", lo), ("hi", hi)):
        if not math.isfinite(value):
            raise ConfigurationError(f"omega grid needs a finite {name}, got {value}")
    if count < 1:
        raise ConfigurationError("omega grid needs at least one point")
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


def _impurity(cfg: RunConfig) -> Impurity:
    if cfg.epsilon is None:
        raise ConfigurationError("impurity position --epsilon is required")
    if cfg.rho0 is None:
        raise ConfigurationError("impurity strength scale --rho0 is required")
    return Impurity(epsilon=cfg.epsilon, rho0=cfg.rho0)


def _grid_step(cfg: RunConfig) -> float:
    """Oracle lattice spacing 1/grid_ny, in both directions."""
    if cfg.grid_ny < 1:
        raise ConfigurationError(f"oracle grid needs grid_ny >= 1, got {cfg.grid_ny}")
    return 1.0 / cfg.grid_ny


def _open_out(cfg: RunConfig):
    """The --out file opened for writing, or stdout; ConfigurationError
    naming the path when it cannot be opened."""
    if not cfg.out:
        return sys.stdout
    try:
        return open(cfg.out, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot write --out {cfg.out!r}: {exc.strerror}") from None


def _write_table(cfg: RunConfig, header: list[str], rows: list[list]) -> None:
    fh = _open_out(cfg)
    try:
        if cfg.format == "json":
            for row in rows:
                fh.write(json.dumps({k: v for k, v in zip(header, row)}) + "\n")
        else:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    finally:
        if fh is not sys.stdout:
            fh.close()


# a forked block prints at least this many numbers.  A field-map CSV line
# costs 280-450 ns per number it prints (450-750 ns per number it formats:
# x and y cells are shared), so 2**16 numbers take 18-30 ms; one fork of the
# ~40 MiB CLI process, its exit and the copy of its 1.4 MB of text through a
# pipe take 4-6 ms (2-CPU Xeon)
_MIN_BLOCK_NUMBERS = 1 << 16
_PIPE_CHUNK = 1 << 20


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

def run_sweep(cfg: RunConfig) -> int:
    if not cfg.omega_grid:
        raise ConfigurationError("sweep requires --omega-grid lo:hi:count")
    omegas = _parse_grid(cfg.omega_grid)
    impurity = _impurity(cfg)
    points = transport_sweep(impurity, omegas)
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


def run_field(cfg: RunConfig) -> int:
    """Write psi on the (x, y) lattice as one line per point: x, y, density
    = |psi|^2 and, with --with-complex, re and im.

    ``clean`` is the bare incident mode (a finite energy at which mode n
    propagates, else DomainError), ``defect`` comes from
    :func:`scattered_field_grid` and ``threshold`` from
    :func:`threshold_field_grid`, before ``--out`` is opened.  The CSV is
    formatted one y-row at a time: the x cells are formatted once, and each
    row is a single ``%`` format of its values with ``FMT``; JSON is one
    ``json.dumps`` per point.  :func:`_write_rows` builds the numbers of
    the y-row blocks of a large map and formats them in forked workers, one
    per usable CPU (Linux only), and writes the same bytes as one process.
    """
    if cfg.field_mode not in ("clean", "defect", "threshold"):
        raise ConfigurationError("field requires --field-mode clean|defect|threshold")
    if cfg.nx < 1 or cfg.ny < 1:
        raise ConfigurationError("field grid needs nx >= 1 and ny >= 1")
    for name in ("x_min", "x_max"):
        value = getattr(cfg, name)
        if not math.isfinite(value):
            raise ConfigurationError(f"field grid needs a finite {name}, got {value}")
    if not cfg.x_max > cfg.x_min:
        raise ConfigurationError("field grid needs x_max > x_min")
    n = cfg.mode_n
    xs = np.linspace(cfg.x_min, cfg.x_max, cfg.nx)
    ys = np.linspace(0.0, 1.0, cfg.ny + 2)[1:-1]  # interior lattice

    if cfg.field_mode == "clean":
        if cfg.omega is None:
            raise ConfigurationError("clean field requires --omega")
        if not math.isfinite(cfg.omega):
            raise DomainError(f"energy must be finite, got {cfg.omega}")
        if cfg.omega <= threshold_energy(n):
            raise DomainError(f"incident mode {n} does not propagate at omega={cfg.omega}")
        k_n = longitudinal_wavenumber(n, cfg.omega)
        psi = np.outer(np.sin(n * np.pi * ys), np.exp(1j * k_n * xs))
    elif cfg.field_mode == "defect":
        if cfg.omega is None:
            raise ConfigurationError("defect field requires --omega")
        impurity = _impurity(cfg)
        psi = scattered_field_grid(impurity, n, cfg.omega, xs, ys)
    else:
        if cfg.threshold_m is None:
            raise ConfigurationError("threshold field requires --threshold-m")
        impurity = _impurity(cfg)
        psi = threshold_field_grid(impurity, n, cfg.threshold_m, xs, ys)

    header = ["x", "y", "density"] + (["re", "im"] if cfg.with_complex else [])
    x_list, y_list = xs.tolist(), ys.tolist()
    n_col = len(header) - 2
    if cfg.format == "json":
        def format_row(y, row):
            return "".join(json.dumps(dict(zip(header, [x, y, *row[i:i + n_col]]))) + "\n"
                           for x, i in zip(x_list, range(0, len(row), n_col)))
    else:
        cells = ",".join([FMT] * n_col)
        # the row template with the x cells baked in, split at each y cell
        pieces = "".join(f"{FMT % x},%s,{cells}\n" for x in x_list).split("%s")

        def format_row(y, row):
            return (FMT % y).join(pieces) % tuple(row)

    def format_rows(lo, hi):
        block = psi[lo:hi]
        # float(abs(v) ** 2) of a numpy complex scalar is pow(hypot(re, im), 2)
        # in libm; np.abs and ``** 2`` on arrays take SIMD loops that round
        # differently, float_power and hypot do not
        columns = [np.float_power(np.hypot(block.real, block.imag), 2.0)]
        if cfg.with_complex:
            columns += [block.real, block.imag]
        values = np.stack(columns, axis=-1).reshape(hi - lo, -1)
        return map(format_row, y_list[lo:hi], map(np.ndarray.tolist, values))

    fh = _open_out(cfg)
    try:
        if cfg.format != "json":
            fh.write(",".join(header) + "\n")
        _write_rows(fh, len(y_list), len(x_list) * len(header), format_rows)
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def run_universality(cfg: RunConfig) -> int:
    if cfg.threshold_m is None:
        raise ConfigurationError("universality requires --threshold-m")
    if cfg.epsilon is None:
        raise ConfigurationError("universality requires --epsilon")
    if not cfg.rho0_list:
        raise ConfigurationError("universality requires --rho0-list r1,r2,...")
    m = cfg.threshold_m
    n = cfg.mode_n
    rho0s = _parse_list(cfg.rho0_list, "rho0 list")
    offset_scales = _parse_list(cfg.offsets, "offsets") if cfg.offsets else [1e-2, 1e-4, 1e-6]

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
        h = _grid_step(cfg)
        wire = oracle_mod.DiscreteWire(
            eps=cfg.epsilon, rho=0.04, rho0=rho0s[0],
            h_y=h, h_x=h, lead_modes=cfg.lead_modes,
        )
        probe = oracle_mod.universality_probe(wire, n, m, rho0s)
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
    fh = _open_out(cfg)
    try:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def run_oned(cfg: RunConfig) -> int:
    if not cfg.omega_grid:
        raise ConfigurationError("oned requires --omega-grid lo:hi:count")
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


def run_oracle_compare(cfg: RunConfig) -> int:
    if cfg.omega is None:
        raise ConfigurationError("oracle-compare requires --omega")
    impurity = _impurity(cfg)
    rhos = _parse_list(cfg.rho_ladder, "rho ladder")
    h = _grid_step(cfg)
    wire = oracle_mod.DiscreteWire(
        eps=impurity.epsilon, rho=rhos[0], rho0=impurity.rho0,
        h_x=h, h_y=h, lead_modes=cfg.lead_modes,
    )
    ladder = oracle_mod.solve_ladder(wire, cfg.mode_n, cfg.omega, rhos)
    ext = oracle_mod.extrapolate_to_zero_width(ladder)
    sol = solve_scattering(impurity, cfg.mode_n, cfg.omega, l_max=cfg.lead_modes)
    fh = _open_out(cfg)
    try:
        for item in ladder:
            for rec in oracle_mod.amplitude_records(item):
                fh.write(json.dumps(rec) + "\n")
        for rec in oracle_mod.amplitude_records(ext):
            fh.write(json.dumps(rec) + "\n")
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
        fh.write(json.dumps({"type": "comparison", "n": cfg.mode_n,
                             "omega": cfg.omega, "rows": comparison}) + "\n")
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _common_arguments(p):
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), help="table format")
    p.add_argument("--epsilon", type=float, help="impurity transverse position in (0,1)")
    p.add_argument("--rho0", type=float, help="impurity strength length scale")
    p.add_argument("--mode-n", type=int, dest="mode_n", help="incident mode index")
    p.add_argument("--threshold-m", type=int, dest="threshold_m", help="cut-off index m")
    p.add_argument("--omega", type=float, help="energy (units 1/width^2)")
    p.add_argument("--omega-grid", dest="omega_grid",
                   help="lo:hi:count in units of pi^2")


def _field_arguments(p):
    p.add_argument("--field-mode", dest="field_mode",
                   choices=("clean", "defect", "threshold"))
    p.add_argument("--nx", type=int, help="grid points along x")
    p.add_argument("--ny", type=int, help="interior grid points along y")
    p.add_argument("--x-min", type=float, dest="x_min")
    p.add_argument("--x-max", type=float, dest="x_max")
    p.add_argument("--with-complex", dest="with_complex", action="store_const", const=True,
                   help="emit re/im columns next to the density")


def _universality_arguments(p):
    p.add_argument("--rho0-list", dest="rho0_list", help="comma-separated strength scales")
    p.add_argument("--offsets", help="comma-separated offsets in units of |Delta_m|")
    p.add_argument("--oracle", action="store_const", const=True,
                   help="also run the finite-difference probe")
    p.add_argument("--grid-ny", type=int, dest="grid_ny")
    p.add_argument("--lead-modes", type=int, dest="lead_modes")


def _oned_arguments(p):
    p.add_argument("--alpha", type=float, help="delta-barrier strength")
    p.add_argument("--delta-v", type=float, dest="delta_v", help="weak-barrier height")
    p.add_argument("--barrier-width", type=float, dest="barrier_width")


def _oracle_compare_arguments(p):
    p.add_argument("--rho-ladder", dest="rho_ladder", help="comma-separated widths")
    p.add_argument("--grid-ny", type=int, dest="grid_ny")
    p.add_argument("--lead-modes", type=int, dest="lead_modes")


#: subcommand -> (runner, help, adder of the arguments beyond the common ones)
_SUBCOMMANDS = {
    "sweep": (run_sweep, "transport matrices over an energy grid", None),
    "field": (run_field, "wavefunction / density on an (x, y) lattice", _field_arguments),
    "universality": (run_universality, "strength-independence experiment at a cut-off",
                     _universality_arguments),
    "oned": (run_oned, "1D reference reflection curves", _oned_arguments),
    "oracle-compare": (run_oracle_compare, "finite-difference ladder vs analytic amplitudes",
                       _oracle_compare_arguments),
}


def _build_parser(subcommand: str | None = None) -> argparse.ArgumentParser:
    """The argument parser with every subcommand registered and its help,
    and the arguments of ``subcommand`` alone: argparse builds a help
    formatter per argument, so arguments no run reads are not built."""
    parser = argparse.ArgumentParser(
        prog="wirescat",
        description="Scattering of waveguide modes off a single point impurity "
                    "in a quasi-1D wire.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, text, add_arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        if name == subcommand:
            _common_arguments(p)
            if add_arguments is not None:
                add_arguments(p)
    return parser


_PARSERS: dict = {}


def _parser(subcommand: str | None) -> argparse.ArgumentParser:
    """The argument parser for ``subcommand``, built once per process: every
    flag defaults to None and parsing leaves the parser unchanged, so calls
    share it safely."""
    if subcommand not in _PARSERS:
        _PARSERS[subcommand] = _build_parser(subcommand)
    return _PARSERS[subcommand]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the subcommand is the first argument; anything else is argparse's to report
    subcommand = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = _parser(subcommand).parse_args(argv)
    try:
        cfg = build_config(args)
        return _SUBCOMMANDS[args.subcommand][0](cfg)
    except ConvergenceError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except WirescatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
