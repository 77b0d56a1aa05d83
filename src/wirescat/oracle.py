"""Independent finite-difference frequency-domain oracle.

Solves the discrete Helmholtz problem for the wire with a finite-width
defect column

    (Laplacian_h + omega) psi = V psi,
    V(x, y) = g delta_col(x) exp(-(y - eps)^2 / rho^2),
    g = 2 sqrt(pi) / (rho ln(rho/rho0)),

with Dirichlet walls and exact outgoing boundary conditions: the lead
matching is done against the discrete operator's own propagating and
evanescent modes through the lattice Green's function

    G(r, r') = sum_j phi_j(y) phi_j(y') * h_x e^{i k~_j h_x |p - p'|}
               / (2 i sin(k~_j h_x)),
    cos(k~_j h_x) = 1 - (omega - mu_j) h_x^2 / 2,

where phi_j are the exact discrete transverse eigenvectors and mu_j their
eigenvalues.  Because the defect occupies a single column, the scattering
problem reduces to a dense linear solve on the column's Gaussian support;
the leads are effectively infinite, so amplitude extraction by transverse
mode overlap is exact for the discrete operator (no absorbing-layer error).

The defect couples in one of two ways:

* ``coupling="point"`` (default): the zero-range prescription V psi ->
  V(r) psi(r0), the regime in which the defect is characterized by rho0
  alone.  The solved system is linear in the single unknown psi(r0).  Flux
  conservation then holds only up to O(rho^2), vanishing in the
  zero-width extrapolation.
* ``coupling="local"``: the plain local potential V(r) psi(r).  Exactly
  flux conserving, but the bare coupling g runs through a pole at
  rho = rho0 (the well becomes infinitely deep), so width ladders that
  straddle rho0 do not extrapolate to the zero-range limit.

Both modes are parametrized internally by the inverse coupling
1/g = rho ln(rho/rho0) / (2 sqrt(pi)), which is regular through rho = rho0;
the infinitely-strong well is a regular point of the solve.

Every sum over the transverse modes phi_j(y_i) = sqrt(2) sin(j pi i h_y)
at the lattice rows is a DST-I or DCT-I and is taken by one FFT of length
2/h_y (:func:`_fft_extension`); no sine matrix is formed.  A point-coupling
solve therefore costs O(ny log ny) whatever the width; a local-coupling
solve adds one dense LU on the column's support.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError
from .numerics import neville_diagonal
from .scatter import nearest_threshold_index, resonance_parameter, Impurity
from .specfun import threshold_energy
from .wire import WireGeometry

__all__ = [
    "DiscreteWire",
    "OracleSolution",
    "ExtrapolatedAmplitudes",
    "UniversalityReport",
    "solve",
    "solve_ladder",
    "extrapolate_to_zero_width",
    "universality_probe",
    "amplitude_records",
    "write_amplitude_records",
]


@dataclass(frozen=True)
class DiscreteWire:
    """Discretization and defect data for one oracle solve.

    The impurity column must be resolved (rho/h_y >= 4) and the nominal
    domain half-length x_extent must cover the decay of every retained
    evanescent lead mode; both are enforced at solve time.  Leaving eps,
    rho and rho0 unset describes the clean wire (defect strength zero).
    """

    eps: float | None = None
    rho: float | None = None
    rho0: float | None = None
    h_x: float = 1.0 / 200.0
    h_y: float = 1.0 / 200.0
    x_extent: float = 4.0
    lead_modes: int = 12
    coupling: str = "point"

    def __post_init__(self):
        for name in ("eps", "rho", "rho0", "h_x", "h_y", "x_extent"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.lead_modes < 1:
            raise ConfigurationError(f"lead_modes must be at least 1, got {self.lead_modes}")
        defect_fields = (self.eps, self.rho, self.rho0)
        if any(v is None for v in defect_fields) and any(v is not None for v in defect_fields):
            raise ConfigurationError("set eps, rho and rho0 together, or none of them")
        if self.eps is not None:
            if not (0.0 < self.eps < 1.0):
                raise ConfigurationError(
                    f"defect position must be inside the wire, got {self.eps}"
                )
            if self.rho <= 0.0 or self.rho0 <= 0.0:
                raise ConfigurationError("defect widths rho and rho0 must be positive")
        if self.h_x <= 0.0 or self.h_y <= 0.0:
            raise ConfigurationError("grid spacings must be positive")
        if abs(round(1.0 / self.h_y) - 1.0 / self.h_y) > 1e-9:
            raise ConfigurationError("1/h_y must be an integer so the walls sit on the grid")
        if self.lead_modes >= round(1.0 / self.h_y):
            raise ConfigurationError(
                f"lead_modes={self.lead_modes} exceeds the {round(1.0 / self.h_y) - 1} "
                "transverse modes of the grid"
            )
        if self.coupling not in ("point", "local"):
            raise ConfigurationError(f"coupling must be 'point' or 'local', got {self.coupling!r}")

    @property
    def has_defect(self) -> bool:
        return self.eps is not None

    @property
    def inverse_strength(self) -> float:
        """1/g = rho ln(rho/rho0)/(2 sqrt(pi)); zero at the infinitely
        attractive well rho = rho0, which the solver handles exactly."""
        if not self.has_defect:
            raise ConfigurationError("clean wire has no defect strength")
        return self.rho * math.log(self.rho / self.rho0) / (2.0 * math.sqrt(math.pi))


@dataclass(frozen=True)
class OracleSolution:
    """Amplitude table of one discrete solve.

    ``transmitted[l-1]`` and ``reflected[l-1]`` are the coefficients of
    sin(l pi y) e^{i k~_l |x|} on the far side / near side for l up to
    lead_modes; ``amplitude[l-1] = -reflected[l-1]`` matches the analytic
    A_nl convention.  ``flux_defect`` is the discrete-flux unitarity
    violation and ``residual`` the max norm of the discrete Helmholtz
    equation evaluated on the columns around the defect.
    """

    wire: DiscreteWire
    incident_mode: int
    energy: float
    transmitted: np.ndarray = field(repr=False)
    reflected: np.ndarray = field(repr=False)
    flux_defect: float = 0.0
    residual: float = 0.0

    @property
    def amplitude(self) -> np.ndarray:
        return -self.reflected


def _transverse_eigenvalues(ny: int) -> np.ndarray:
    """Eigenvalues mu_j = (2 - 2 cos(j pi / ny)) ny^2, j = 1..ny-1, of the
    discrete transverse operator: the lattice cut-offs.  Each lies below its
    continuum cut-off (j pi)^2 by about (j pi)^4 / (12 ny^2)."""
    h_y = 1.0 / ny
    return (2.0 - 2.0 * np.cos(np.arange(1, ny) * np.pi * h_y)) / h_y**2


def _lattice_modes(ny: int, h_x: float, omega: float):
    """Discrete transverse spectrum and per-mode longitudinal factors."""
    mu = _transverse_eigenvalues(ny)
    c = 1.0 - (omega - mu) * h_x * h_x / 2.0
    if np.any(c < -1.0):
        raise ConfigurationError(
            "omega exceeds the discrete band edge of a retained mode; refine h_x"
        )
    sin_kh = np.empty(ny - 1, dtype=complex)
    exp_kh = np.empty(ny - 1, dtype=complex)
    prop = np.abs(c) <= 1.0
    kh = np.arccos(c[prop])
    sin_kh[prop] = np.sin(kh)
    exp_kh[prop] = np.exp(1j * kh)
    ch = np.arccosh(c[~prop])
    sin_kh[~prop] = 1j * np.sinh(ch)
    exp_kh[~prop] = np.exp(-ch)
    return mu, sin_kh, exp_kh, prop


def _fft_extension(c, parity: float) -> np.ndarray:
    """The one FFT behind every mode sum over the lattice rows.

    For coefficients c_1..c_{ny-1} along axis 0, the length-2 ny FFT of the
    extension [0, c, 0, parity c[::-1]]: entry d = 0..2ny-1 is
    sum_j c_j (e^{-i pi j d/ny} + parity e^{i pi j d/ny}), that is
    -2i sum_j c_j sin(j pi d/ny) for parity -1 (DST-I) and
    2 sum_j c_j cos(j pi d/ny) for parity +1 (DCT-I).  ``np.fft`` is reached
    here, not at import, so importing the CLI does not load it.
    """
    ny = c.shape[0] + 1
    ext = np.zeros((2 * ny,) + c.shape[1:], dtype=complex)
    ext[1:ny] = c
    ext[ny + 1:] = parity * c[::-1]
    return np.fft.fft(ext, axis=0)


def _dst(c) -> np.ndarray:
    """sum_j c_j phi_j(y_i) = sum_j c_j sqrt(2) sin(j pi i/ny) at the rows
    i = 1..ny-1, along axis 0.  The kernel is symmetric in (i, j), so the
    same call projects a column of row values onto the modes."""
    return _fft_extension(c, -1.0)[1:len(c) + 1] * (0.5j * math.sqrt(2.0))


def _column_green(g_col, rows) -> np.ndarray:
    """G(y_i, y_k) = sum_j g_j phi_j(y_i) phi_j(y_k) for i, k in ``rows``.

    With 2 sin(a) sin(b) = cos(a - b) - cos(a + b) this is
    C(|i - k|) - C(i + k), C(d) = sum_j g_j cos(j pi d/ny): one FFT and a
    Toeplitz-minus-Hankel gather, with no sine matrix.
    """
    cos_sum = 0.5 * _fft_extension(g_col, 1.0)
    return cos_sum[np.abs(rows[:, None] - rows)] - cos_sum[rows[:, None] + rows]


def solve(wire: DiscreteWire, n: int, omega: float) -> OracleSolution:
    """Scatter lattice mode n off the defect column at energy omega."""
    ny = int(round(1.0 / wire.h_y))
    if n < 1 or n > wire.lead_modes:
        raise DomainError(f"incident mode must lie in 1..{wire.lead_modes}")
    m = nearest_threshold_index(omega)
    decay = math.sqrt(max(threshold_energy(m + 1) - omega, 0.0))
    if decay > 0.0 and wire.x_extent < 10.0 / decay:
        raise ConfigurationError(
            f"x_extent={wire.x_extent} too short: slowest retained evanescent mode "
            f"needs at least {10.0 / decay:.2f} to decay below 1e-10 at the leads"
        )
    if omega <= threshold_energy(n):
        raise DomainError(f"incident mode {n} does not propagate at omega={omega}")

    if not wire.has_defect:
        # clean wire: psi = psi_inc exactly on the lattice
        transmitted = np.zeros(wire.lead_modes, dtype=complex)
        transmitted[n - 1] = 1.0
        return OracleSolution(
            wire=wire, incident_mode=n, energy=omega,
            transmitted=transmitted,
            reflected=np.zeros(wire.lead_modes, dtype=complex),
            flux_defect=0.0, residual=0.0,
        )

    if wire.rho / wire.h_y < 4.0:
        raise ConfigurationError(
            f"impurity width under-resolved: rho/h_y = {wire.rho / wire.h_y:.2f} < 4"
        )

    h = wire.h_y
    rows = np.arange(1, ny)
    yi = rows * h
    mu, sin_kh, exp_kh, prop = _lattice_modes(ny, wire.h_x, omega)
    g_col = wire.h_x / (2j * sin_kh)  # same-column 1D lattice Green per mode

    w = np.exp(-(((yi - wire.eps) / wire.rho) ** 2))
    support = w >= 1e-14
    ws = w[support]
    if len(ws) < 4:
        raise ConfigurationError("defect column support too small on this grid")
    ginv = wire.inverse_strength

    if wire.coupling == "point":
        # unknown tau = g psi(r0): tau (1/g - h sum_i G(r0, y_i) w_i) = psi_inc(r0)
        phi_eps = math.sqrt(2.0) * np.sin(rows * np.pi * wire.eps)
        g_eps = _dst(phi_eps * g_col)[support]  # G(r0, y_i)
        tau = math.sin(n * math.pi * wire.eps) / (ginv - h * np.dot(g_eps, ws))
        u = ws * tau  # u_i = V psi(r0) column values (times h_x)
    else:
        # unknowns u_i = g w_i psi(0, y_i): (g^{-1} I - h W G) u = W psi_inc
        g_cc = _column_green(g_col, rows[support])
        mat = ginv * np.eye(len(ws)) - h * (ws[:, None] * g_cc)
        u = np.linalg.solve(mat, ws * np.sin(n * math.pi * yi[support]))
        g_eps = tau = None

    u_col = np.zeros(ny - 1, dtype=complex)
    u_col[support] = u
    ls = np.arange(1, wire.lead_modes + 1)
    proj = _dst(u_col)[:wire.lead_modes] / math.sqrt(2.0)  # sum_i sin(l pi y_i) u_i
    scattered = wire.h_x * h * proj / (1j * sin_kh[ls - 1])
    transmitted = scattered.copy()
    transmitted[n - 1] += 1.0
    reflected = scattered

    # discrete flux: group velocity per mode ~ sin(k~ h)/h for propagating modes
    vel = np.real(sin_kh[ls - 1]) / wire.h_x
    live = vel > 0.0
    flux = float(
        np.sum(vel[live] * (np.abs(transmitted[live]) ** 2 + np.abs(reflected[live]) ** 2))
        / vel[n - 1]
    )
    residual = _residual(wire, n, omega, mu, sin_kh, exp_kh, support, u, ws, tau, g_eps)
    return OracleSolution(
        wire=wire,
        incident_mode=n,
        energy=omega,
        transmitted=transmitted,
        reflected=reflected,
        flux_defect=abs(flux - 1.0),
        residual=residual,
    )


def _residual(wire, n, omega, mu, sin_kh, exp_kh, support, u, ws, tau, g_eps):
    """Larger of two normalized residuals of the solve.

    Helmholtz: psi is reconstructed from the lattice Green's function; the
    residual checks (Laplacian_h + omega) psi - V psi(.) = 0 row by row on
    columns p = -1, 0, 1 (the stencil needs p = -2..2), normalized by
    omega |psi|.  This holds for any source, so it alone cannot tell a
    wrong defect strength.

    Defect equation: point coupling tau/g = psi(r0), with
    psi(r0) = sin(n pi eps) + h sum_i G(r0, y_i) u_i; local coupling
    (1/g) u_i = w_i psi(0, y_i) on the support rows.  Normalized by the
    largest term it balances.

    It reuses what :func:`solve` already built: the lattice spectrum ``mu``,
    ``sin_kh``, ``exp_kh``, the defect rows ``support`` with their weights
    ``ws``, and the source ``u`` (and ``tau`` and ``g_eps`` = G(r0, y_i)
    for point coupling, None for local).  The mode sums are its own: one
    :func:`_dst` projects ``u`` onto the modes, and one more rebuilds the
    five columns on all ny - 1 rows, so a wrong ``u`` is not hidden by
    sums that came from it.
    """
    ny = len(mu) + 1
    h = wire.h_y
    yi = np.arange(1, ny) * h
    u_col = np.zeros(ny - 1, dtype=complex)
    u_col[support] = u
    mode_src = _dst(u_col)  # sum_i phi_j(y_i) u_i per mode j
    # incident discrete wavenumber for mode n
    kh_n = math.acos(1.0 - (omega - mu[n - 1]) * wire.h_x**2 / 2.0)
    ps = np.arange(-2, 3)
    coef = (wire.h_x * h * mode_src / (2j * sin_kh))[:, None] * exp_kh[:, None] ** np.abs(ps)
    psi_sc = _dst(coef)
    inc = np.sin(n * math.pi * yi)
    cols = inc[:, None] * np.exp(1j * kh_n * ps) + psi_sc

    psi = cols[:, 1:-1]  # p = -1, 0, 1
    lap_x = (cols[:, :-2] - 2.0 * psi + cols[:, 2:]) / wire.h_x**2
    walls = np.pad(psi, ((1, 1), (0, 0)))  # Dirichlet rows above and below
    lap_y = (walls[:-2] - 2.0 * psi + walls[2:]) / h**2
    rhs = np.zeros_like(psi)
    rhs[support, 1] = (ws * tau if tau is not None else u) / wire.h_x
    res = lap_x + lap_y + omega * psi - rhs
    scale = omega * max(np.max(np.abs(cols[:, 2])), 1e-30)
    helmholtz = float(np.max(np.abs(res))) / scale

    ginv = wire.inverse_strength
    if tau is not None:  # tau/g = sin(n pi eps) + h sum_i G(r0, y_i) u_i
        terms = (tau * ginv, math.sin(n * math.pi * wire.eps), h * np.dot(g_eps, u))
    else:  # u_i/g = w_i psi_inc(0, y_i) + w_i psi_sc(0, y_i) on the support rows
        terms = (ginv * u, ws * inc[support], ws * psi_sc[support, 2])
    gap = float(np.max(np.abs(terms[0] - terms[1] - terms[2])))
    size = max(float(np.max(np.abs(t))) for t in terms)
    return max(helmholtz, gap / max(size, 1e-30))


def solve_ladder(wire: DiscreteWire, n: int, omega: float, rhos) -> list[OracleSolution]:
    """Solve the same configuration over a decreasing ladder of widths."""
    out = []
    for rho in rhos:
        out.append(solve(DiscreteWire(
            eps=wire.eps, rho=float(rho), rho0=wire.rho0, h_x=wire.h_x, h_y=wire.h_y,
            x_extent=wire.x_extent, lead_modes=wire.lead_modes, coupling=wire.coupling,
        ), n, omega))
    return out


@dataclass(frozen=True)
class ExtrapolatedAmplitudes:
    """Zero-width limit of an amplitude ladder with self-error estimates."""

    incident_mode: int
    energy: float
    rhos: tuple
    transmitted: np.ndarray = field(repr=False)
    reflected: np.ndarray = field(repr=False)
    transmitted_err: np.ndarray = field(repr=False)
    reflected_err: np.ndarray = field(repr=False)
    warnings: tuple = ()

    @property
    def amplitude(self) -> np.ndarray:
        return -self.reflected


def extrapolate_to_zero_width(solutions) -> ExtrapolatedAmplitudes:
    """Richardson-extrapolate a width ladder to rho = 0, amplitude by
    amplitude, in the variable rho^2 (exact on tables of the form
    a + b rho^2).  The error estimate is the difference of the last two
    extrapolation orders; non-monotone ladders are flagged, not rejected.
    """
    sols = sorted(solutions, key=lambda s: -s.wire.rho)
    if len(sols) < 3:
        raise DomainError("need at least three ladder points to extrapolate")
    rhos = np.array([s.wire.rho for s in sols])
    if np.any(np.diff(rhos) >= 0):
        raise DomainError("width ladder must be strictly decreasing")
    x = rhos**2
    notes = []
    nl = len(sols[0].transmitted)
    t_ext = np.empty(nl, dtype=complex)
    r_ext = np.empty(nl, dtype=complex)
    t_err = np.empty(nl)
    r_err = np.empty(nl)

    def _extrap(series, label, idx):
        diag = neville_diagonal(x, series)
        steps = np.diff(np.asarray(series, dtype=complex))
        sizes = np.abs(steps)
        flips = np.real(steps[1:] * np.conj(steps[:-1])) < 0.0
        growth = sizes[1:] > sizes[:-1]
        if np.any((flips | growth) & (sizes[1:] > 1e-12)):
            notes.append(f"non-monotone ladder for {label}[{idx}]")
        return diag[-1], abs(diag[-1] - diag[-2])

    for i in range(nl):
        t_ext[i], t_err[i] = _extrap([s.transmitted[i] for s in sols], "t", i + 1)
        r_ext[i], r_err[i] = _extrap([s.reflected[i] for s in sols], "r", i + 1)
    return ExtrapolatedAmplitudes(
        incident_mode=sols[0].incident_mode,
        energy=sols[0].energy,
        rhos=tuple(rhos),
        transmitted=t_ext,
        reflected=r_ext,
        transmitted_err=t_err,
        reflected_err=r_err,
        warnings=tuple(notes),
    )


@dataclass(frozen=True)
class UniversalityReport:
    """Spread of the resonant-mode coefficient across impurity strengths."""

    incident_mode: int
    threshold_index: int
    energy: float
    offset: float
    lattice_cutoff: float
    rho0_values: tuple
    coefficients: tuple
    target: float
    spread: float
    mean_deviation: float

    @property
    def verdict(self) -> str:
        return "PASS" if (self.spread < 0.05 and self.mean_deviation < 0.05) else "FAIL"


def universality_probe(wire: DiscreteWire, n: int, m: int, rho0_list,
                       offset_scale: float = 1e-4,
                       rhos=(0.04, 0.02, 0.01)) -> UniversalityReport:
    """Measure how the resonant coefficient varies with the defect strength
    just above the m-th cut-off.

    The energy is the lattice's own m-th cut-off
    mu_m = (2 - 2 cos(m pi h_y)) / h_y^2 plus an offset of offset_scale
    times the smallest |Delta_m| over the strength list (estimated from the
    analytic resonance parameter), which keeps every run inside the
    universal window.  mu_m lies about (m pi)^4 h_y^2 / 12 below the
    continuum cut-off (m pi)^2 (8e-4 for m = 2 at h_y = 1/400), far more
    than the offset, so an energy referenced to (m pi)^2 would leave that
    window.  Each strength is solved on the width ladder and extrapolated
    to zero width; the report carries the spread across strengths and the
    deviation of the mean from the zero-range prediction
    sin(n pi eps)/sin(m pi eps).
    """
    if len(rho0_list) < 1:
        raise DomainError("need at least one impurity strength")
    if not 1 <= m <= wire.lead_modes:
        raise DomainError(f"threshold index m must lie in 1..{wire.lead_modes}, got {m}")
    geometry = WireGeometry.hard_wall()
    delta_mag = []
    for r0 in rho0_list:
        d = resonance_parameter(geometry, Impurity(epsilon=wire.eps, rho0=float(r0)), m)
        delta_mag.append(1.0 / abs(d) ** 2)
    offset = offset_scale * min(delta_mag)
    lattice_cutoff = float(_transverse_eigenvalues(int(round(1.0 / wire.h_y)))[m - 1])
    omega = lattice_cutoff + offset
    coefficients = []
    for r0 in rho0_list:
        base = DiscreteWire(
            eps=wire.eps, rho=rhos[0], rho0=float(r0), h_x=wire.h_x, h_y=wire.h_y,
            x_extent=wire.x_extent, lead_modes=wire.lead_modes, coupling=wire.coupling,
        )
        ladder = solve_ladder(base, n, omega, rhos)
        ext = extrapolate_to_zero_width(ladder)
        coefficients.append(complex(ext.amplitude[m - 1]))
    target = math.sin(n * math.pi * wire.eps) / math.sin(m * math.pi * wire.eps)
    mean = np.mean(coefficients)
    if len(coefficients) > 1:
        spread = max(abs(a - b) for a in coefficients for b in coefficients) / abs(mean)
    else:
        spread = 0.0
    return UniversalityReport(
        incident_mode=n,
        threshold_index=m,
        energy=omega,
        offset=offset,
        lattice_cutoff=lattice_cutoff,
        rho0_values=tuple(float(r) for r in rho0_list),
        coefficients=tuple(coefficients),
        target=target,
        spread=float(spread),
        mean_deviation=float(abs(mean - target) / abs(target)),
    )


def amplitude_records(solution_or_table, err=None) -> list[dict]:
    """Flatten amplitudes to JSON records {rho, n, l, re, im, err}.

    ``rho`` is null for zero-width extrapolations, whose own error estimates
    are embedded per record.
    """
    records = []
    if isinstance(solution_or_table, OracleSolution):
        sol = solution_or_table
        for l in range(1, len(sol.reflected) + 1):
            a = -sol.reflected[l - 1]
            records.append({
                "rho": sol.wire.rho, "n": sol.incident_mode, "l": l,
                "re": float(a.real), "im": float(a.imag),
                "err": float(err) if err is not None else None,
            })
    elif isinstance(solution_or_table, ExtrapolatedAmplitudes):
        ext = solution_or_table
        for l in range(1, len(ext.reflected) + 1):
            a = -ext.reflected[l - 1]
            records.append({
                "rho": None, "n": ext.incident_mode, "l": l,
                "re": float(a.real), "im": float(a.imag),
                "err": float(ext.reflected_err[l - 1]),
            })
    else:
        raise DomainError("expected an OracleSolution or ExtrapolatedAmplitudes")
    return records


def write_amplitude_records(path, items) -> None:
    """Write amplitude tables as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            for rec in amplitude_records(item):
                fh.write(json.dumps(rec) + "\n")
