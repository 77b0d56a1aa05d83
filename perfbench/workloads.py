"""Seeded benchmark workloads: the CLI jobs one process runs, and the checks
of their outputs against references computed outside the timed region.

Inputs are drawn from a ``random.Random`` seeded with the workload name and
the benchmark seed.  The only inputs ever redrawn are the domain exclusions
the library itself defines:

* an impurity on a node of the mode a job resonates with
  (|sin(m pi eps)| <= 1e-8, where the library reports a decoupled mode);
* a grid energy exactly on a cut-off (qpi)^2, which the sweep rejects in
  favour of ``threshold_transport``.

Impurity positions are drawn from [0.05, 0.95], the range of acceptance
criterion 11: closer to a wall the rho-bar ladder starts on a finer rung,
which changes the per-call cost rather than the code path measured.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from wirescat.scatter import nearest_threshold_index, regularized_scale_tail_subtraction

PI = math.pi
PI2 = PI * PI

# 50 energies over the README's 1.1:8.9 span keep several fresh processes
# in one run, so that run_s is a median over more than a couple of samples
SWEEP_POINTS = 50
FIELD_NX, FIELD_NY = 401, 201
ORACLE_NY = 1600

# tolerances of the acceptance suite (tests/test_acceptance.py)
UNITARITY_TOL = 1e-8        # criterion 6
RHO_BAR_ROUTE_TOL = 1e-7    # criterion 11: ladder vs tail subtraction
FIELD_TOL = 1e-10           # criterion 10
ORACLE_TOL = 0.02           # criterion 7
LIMIT_SPREAD_TOL = 1e-8     # criterion 1
LIMIT_DEVIATION_TOL = 1e-6  # criterion 1
PROBE_TOL = 0.05            # criterion 8


@dataclass(frozen=True)
class Call:
    """One ``wirescat`` invocation: subcommand, config keys (without ``out``),
    output suffix and the number of operations it attempts."""

    subcommand: str
    config: dict
    suffix: str
    ops: int

    def config_text(self, out: str) -> str:
        lines = []
        for key, value in {**self.config, "out": out}.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"


@dataclass
class Outcome:
    """Check result of one output.  ``wrong`` marks a failure other than a
    FAIL verdict the program itself reported."""

    failed: int = 0
    wrong: bool = False
    notes: list = field(default_factory=list)

    def fail(self, note: str, wrong: bool = True) -> None:
        self.failed += 1
        self.wrong = self.wrong or wrong
        self.notes.append(note)


def _position(rng, resonant=(), lo=0.05, hi=0.95):
    while True:
        eps = rng.uniform(lo, hi)
        if all(abs(math.sin(m * PI * eps)) > 1e-8 for m in resonant):
            return eps


def _strength(rng):
    return 10.0 ** rng.uniform(-5.0, -1.0)


def _wavenumbers(omega, q):
    gap = omega - (q * PI) ** 2
    return np.where(gap >= 0.0, np.sqrt(np.abs(gap)) + 0j, 1j * np.sqrt(np.abs(gap)))


def _reference_amplitudes(eps, rho0, omega):
    """Window index m, propagating k_l and the table A_nl over propagating
    n, l, with rho-bar from the tail-subtraction route (independent of the
    ladder the CLI uses)."""
    m = nearest_threshold_index(omega)
    rho_bar = regularized_scale_tail_subtraction(eps, omega, m)
    q = np.arange(1, m + 1)
    k = _wavenumbers(omega, q)
    s = np.sin(q * PI * eps)
    bracket = math.log(rho0 / rho_bar) / (2.0 * PI) + np.sum(s * s / (1j * k))
    p = int(np.count_nonzero(omega > (q * PI) ** 2))
    kp = k[:p].real
    amp = np.outer(s[:p], s[:p]) / (1j * kp[None, :] * bracket)
    return m, kp, amp


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_calls(rng):
    eps, rho0 = _position(rng), _strength(rng)
    cutoffs = [(q * PI) ** 2 for q in range(1, 4)]
    while True:
        lo, hi = rng.uniform(1.05, 1.15), rng.uniform(8.85, 8.95)
        grid = np.linspace(lo, hi, SWEEP_POINTS) * PI2
        if not any(float(o) == c for o in grid for c in cutoffs):
            break
    cfg = {"epsilon": eps, "rho0": rho0, "omega_grid": f"{lo!r}:{hi!r}:{SWEEP_POINTS}"}
    return [Call("sweep", cfg, ".csv", SWEEP_POINTS)]


def check_sweep(call, path):
    """Every point present, unitarity defect <= 1e-8, 0 <= G <= p to the same
    tolerance, and G within 1e-7 of a recomputation through
    ``regularized_scale_tail_subtraction``."""
    out = Outcome()
    cfg = call.config
    lo, hi, count = cfg["omega_grid"].split(":")
    grid = np.linspace(float(lo), float(hi), int(count)) * PI2
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    col = {name: i for i, name in enumerate(header)}
    rows = {float(r.split(",")[0]): r.split(",") for r in lines[1:]}
    for omega in grid.tolist():
        row = rows.get(omega)
        if row is None:
            out.fail(f"omega={omega!r}: point missing")
            continue
        m, k, amp = _reference_amplitudes(cfg["epsilon"], cfg["rho0"], omega)
        p = len(k)
        trans = (k[None, :] / k[:, None]) * np.abs(np.eye(p) - amp) ** 2
        g_ref = float(trans.sum())
        g = float(row[col["conductance"]])
        defect = float(row[col["unitarity_defect"]])
        problems = []
        if int(row[col["m"]]) != m or int(row[col["num_propagating"]]) != p:
            problems.append(f"window/channels {row[1]}/{row[2]} != {m}/{p}")
        if not defect <= UNITARITY_TOL:
            problems.append(f"unitarity defect {defect:.3g}")
        if not -UNITARITY_TOL <= g <= p * (1.0 + UNITARITY_TOL):
            problems.append(f"G={g!r} outside [0, {p}]")
        if not abs(g - g_ref) <= RHO_BAR_ROUTE_TOL:
            problems.append(f"G off the tail-subtraction recomputation by {abs(g - g_ref):.3g}")
        if problems:
            out.fail(f"omega={omega!r}: " + "; ".join(problems))
    return out


# ---------------------------------------------------------------------------
# cutoff-universality
# ---------------------------------------------------------------------------

def universality_calls(rng):
    calls = []
    for m in (2, 3):
        eps = _position(rng, resonant=(m,))
        rho0s = ",".join(repr(_strength(rng)) for _ in range(3))
        cfg = {"mode_n": 1, "threshold_m": m, "epsilon": eps, "rho0_list": rho0s,
               "oracle": True}
        calls.append(Call("universality", cfg, ".json", 1))
    return calls


def check_universality(call, path):
    """The report's ``verdict`` decides whether the operation passed.  The
    verdict itself is checked: it must be PASS exactly when the closed-form
    limits match sin(n pi eps)/sin(m pi eps) at the criterion-1 tolerances,
    recomputed here from the reported limits, and the lattice-oracle probe's
    spread and mean deviation are both below its 5% gate (criterion 8).  A
    FAIL the program reports is a failed operation; a verdict that
    contradicts the checks is a wrong output."""
    out = Outcome()
    cfg = call.config
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    n, m, eps = cfg["mode_n"], cfg["threshold_m"], cfg["epsilon"]
    target = math.sin(n * PI * eps) / math.sin(m * PI * eps)
    limits = [complex(re, im) for re, im in report["threshold_limits"]]
    mean = sum(limits) / len(limits)
    spread = max(abs(a - b) for a in limits for b in limits) / abs(mean)
    deviation = abs(mean - target) / abs(target)
    probe = report["oracle"]
    closed_ok = spread < LIMIT_SPREAD_TOL and deviation < LIMIT_DEVIATION_TOL
    probe_ok = probe["spread"] < PROBE_TOL and probe["mean_deviation"] < PROBE_TOL
    note = (f"eps={eps!r}, m={m}: closed-form limit spread {spread:.3g}, deviation "
            f"{deviation:.3g}; oracle spread {probe['spread']:.3g}, mean deviation "
            f"{probe['mean_deviation']:.3g}")
    expected = "PASS" if closed_ok and probe_ok else "FAIL"
    if report["verdict"] != expected:
        out.fail(f"verdict {report['verdict']} should be {expected} at {note}")
    elif expected == "FAIL":
        out.fail(f"verdict FAIL at {note}", wrong=False)
    return out


# ---------------------------------------------------------------------------
# field-map
# ---------------------------------------------------------------------------

def field_calls(rng):
    grid = {"mode_n": 1, "nx": FIELD_NX, "ny": FIELD_NY, "with_complex": True}
    defect = {"field_mode": "defect", "epsilon": _position(rng), "rho0": _strength(rng),
              # two open channels, inside the m = 2 window
              "omega": rng.uniform(4.2, 5.4) * PI2, **grid}
    threshold = {"field_mode": "threshold", "threshold_m": 2,
                 "epsilon": _position(rng, resonant=(2,)), "rho0": _strength(rng), **grid}
    return [Call("field", defect, ".csv", 1), Call("field", threshold, ".csv", 1)]


def check_field(call, path):
    """Grid complete and finite, density = re^2 + im^2, and for the cut-off map
    density within 1e-10 of the closed form (acceptance criterion 10)."""
    out = Outcome()
    cfg = call.config
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (FIELD_NX * FIELD_NY, 5) or not np.all(np.isfinite(data)):
        out.fail(f"{cfg['field_mode']} map: shape {data.shape} or non-finite values")
        return out
    x, y, density, re, im = data.T
    if np.max(np.abs(density - (re * re + im * im)) / np.maximum(1.0, density)) > 1e-12:
        out.fail(f"{cfg['field_mode']} map: density != re^2 + im^2")
    if cfg["field_mode"] == "threshold":
        eps, m = cfg["epsilon"], cfg["threshold_m"]
        coef = math.sin(PI * eps) / math.sin(m * PI * eps)
        k = PI * math.sqrt(m * m - 1)
        ref = np.abs(np.sin(PI * y) * np.exp(1j * k * x) - coef * np.sin(m * PI * y)) ** 2
        worst = float(np.max(np.abs(density - ref)))
        if not worst < FIELD_TOL:
            out.fail(f"threshold map off the closed form by {worst:.3g}")
    return out


# ---------------------------------------------------------------------------
# oracle-compare
# ---------------------------------------------------------------------------

def oracle_calls(rng):
    # one impurity in each third of [0.05, 0.95]: the defect column's support,
    # and with it the solve's cost and memory, shrinks near a wall
    calls = []
    for lo in (0.05, 0.35, 0.65):
        cfg = {"epsilon": _position(rng, resonant=(2,), lo=lo, hi=lo + 0.3),
               "rho0": _strength(rng), "mode_n": 1,
               "omega": rng.uniform(1.02, 1.5) * 4.0 * PI2, "grid_ny": ORACLE_NY}
        calls.append(Call("oracle-compare", cfg, ".jsonl", 1))
    return calls


def check_oracle(call, path):
    """Extrapolated lattice A_11, A_12 within 2% of the closed form
    (criterion 7), and the CLI's own closed-form values within 1e-7 of the
    tail-subtraction recomputation."""
    out = Outcome()
    cfg = call.config
    with open(path, encoding="utf-8") as fh:
        summary = json.loads(fh.read().splitlines()[-1])
    _, _, amp = _reference_amplitudes(cfg["epsilon"], cfg["rho0"], cfg["omega"])
    rows = {row["l"]: row for row in summary["rows"]}
    problems = []
    for l in (1, 2):
        ref = complex(amp[0, l - 1])
        row = rows[l]
        analytic = complex(row["analytic_re"], row["analytic_im"])
        lattice = complex(row["oracle_re"], row["oracle_im"])
        if not abs(analytic - ref) <= RHO_BAR_ROUTE_TOL * abs(ref):
            problems.append(f"A_1{l} closed form off the recomputation by "
                            f"{abs(analytic - ref) / abs(ref):.3g}")
        elif not (abs(lattice - ref) < ORACLE_TOL * abs(ref) and row["rel_err"] < ORACLE_TOL):
            problems.append(f"A_1{l} lattice off the closed form by "
                            f"{abs(lattice - ref) / abs(ref):.3%}")
    if problems:
        out.fail("; ".join(problems))  # one comparison is one operation
    return out


WORKLOADS = {
    "sweep": (sweep_calls, check_sweep),
    "cutoff-universality": (universality_calls, check_universality),
    "field-map": (field_calls, check_field),
    "oracle-compare": (oracle_calls, check_oracle),
}
