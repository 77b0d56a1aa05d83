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
eigenvalues.  The leads are effectively infinite, so amplitude extraction
by transverse mode overlap is exact for the discrete operator (no
absorbing-layer error).

The defect couples point-like, by the zero-range prescription
V psi -> V(r) psi(r0), the regime in which the defect is characterized by
rho0 alone.  Because the defect occupies a single column, the scattering
problem reduces to one linear equation in the single unknown psi(r0).
Flux conservation then holds only up to O(rho^2), vanishing in the
zero-width extrapolation.  The solve is parametrized by the inverse
coupling 1/g = rho ln(rho/rho0) / (2 sqrt(pi)), which is regular through
rho = rho0 (where the bare coupling g has its pole); the infinitely-strong
well is a regular point of the solve.

Every sum over the transverse modes phi_j(y_i) = sqrt(2) sin(j pi i h_y)
at the lattice rows is a DST-I or DCT-I and is taken by one FFT of length
2/h_y (:func:`_fft_extension`); no sine matrix is formed.  A solve
therefore costs O(ny log ny) whatever the width.  :func:`solve_table`
solves a whole (width x strength) table at one energy, sharing everything
but the strength term between its cells; :func:`solve` is its 1 x 1 call.
The Helmholtz residual of a solution, a diagnostic no amplitude reads, is
computed on its first read (:attr:`OracleSolution.residual`), not by the
solve: at ny = 1600 it costs more than the solve itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError
from .numerics import neville_diagonal
from .scatter import nearest_threshold_index, resonance_parameters
from .specfun import _index, threshold_energy

__all__ = [
    "DiscreteWire",
    "OracleSolution",
    "ExtrapolatedAmplitudes",
    "UniversalityReport",
    "solve",
    "solve_table",
    "solve_ladder",
    "extrapolate_to_zero_width",
    "universality_probe",
    "amplitude_records",
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

    def __post_init__(self):
        for name in ("eps", "rho", "rho0", "h_x", "h_y", "x_extent"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
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
        try:  # at most the transverse modes of the grid
            _index(self.lead_modes, "lead_modes", hi=round(1.0 / self.h_y) - 1)
        except DomainError as exc:
            raise ConfigurationError(str(exc)) from None

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


def _transmitted(reflected: np.ndarray, n: int) -> np.ndarray:
    """The far-side amplitudes reflected + delta_nl of incident mode n."""
    transmitted = reflected.copy()
    transmitted[n - 1] += 1.0
    return transmitted


class _ReflectedAmplitudes:
    """What a lattice result derives from its stored ``reflected``."""

    @property
    def transmitted(self) -> np.ndarray:
        return _transmitted(self.reflected, self.incident_mode)

    @property
    def amplitude(self) -> np.ndarray:
        return -self.reflected


@dataclass(frozen=True)
class OracleSolution(_ReflectedAmplitudes):
    """Amplitude table of one discrete solve.

    ``reflected[l-1]`` is the coefficient of sin(l pi y) e^{i k~_l |x|} on
    the near side for l up to lead_modes; ``transmitted`` (far side) is
    reflected + delta_nl and ``amplitude`` = -reflected matches the analytic
    A_nl convention.  ``flux_defect`` is the discrete-flux unitarity
    violation.  ``residual`` (:func:`_residual`) is computed on first read
    from the solved cell ``_cell`` and the lattice spectrum ``_spectrum``
    (mu, sin_kh, exp_kh) that :func:`solve_table` hands over; a solution
    without them (the clean wire) reads 0.0.
    """

    wire: DiscreteWire
    incident_mode: int
    energy: float
    reflected: np.ndarray = field(repr=False)
    flux_defect: float = 0.0
    _cell: _Cell | None = field(default=None, repr=False, compare=False)
    _spectrum: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def residual(self) -> float:
        """Max normalized residual of the discrete Helmholtz and defect
        equations around the defect (:func:`_residual`)."""
        if self._cell is None:
            return 0.0
        [residual] = _residual(self.incident_mode, self.energy, *self._spectrum, [self._cell])
        return residual


def _transverse_eigenvalues(ny: int) -> np.ndarray:
    """Eigenvalues mu_j = (2 - 2 cos(j pi / ny)) ny^2, j = 1..ny-1, of the
    discrete transverse operator: the lattice cut-offs.  Each lies below its
    continuum cut-off (j pi)^2 by about (j pi)^4 / (12 ny^2)."""
    h_y = 1.0 / ny
    return (2.0 - 2.0 * np.cos(np.arange(1, ny) * np.pi * h_y)) / h_y**2


def _lattice_modes(ny: int, h_x: float, omega: float):
    """Discrete transverse spectrum mu and per-mode longitudinal factors
    sin(k~ h_x) and e^{i k~ h_x}.

    They are taken in half-angle form, with t = (omega - mu) h_x^2 / 2 =
    1 - cos(k~ h_x): sin(k~ h_x) = sqrt(t (2 - t)) as a complex root, so
    i sinh(kappa h_x) for an evanescent mode (t < 0), and
    e^{i k~ h_x} = (1 - t) + i sin(k~ h_x).  sin(k~ h_x) keeps the relative
    precision of t however close omega is to mu, where 1 - t rounds to 1.
    """
    mu = _transverse_eigenvalues(ny)
    t = (omega - mu) * h_x * h_x / 2.0
    if np.any(t > 2.0):
        raise ConfigurationError(
            "omega exceeds the discrete band edge of a retained mode; refine h_x"
        )
    sin_kh = np.sqrt((t * (2.0 - t)).astype(complex))
    return mu, sin_kh, (1.0 - t) + 1j * sin_kh


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


def _check_energy(wire: DiscreteWire, n: int, omega: float) -> int:
    """The checks of a solve that read neither width nor strength: the
    incident mode index, the domain length against the slowest retained
    evanescent mode, and a propagating incident mode.  Returns the index."""
    n = _index(n, "incident mode", hi=wire.lead_modes)
    m = nearest_threshold_index(omega)
    decay = math.sqrt(max(threshold_energy(m + 1) - omega, 0.0))
    if decay > 0.0 and wire.x_extent < 10.0 / decay:
        raise ConfigurationError(
            f"x_extent={wire.x_extent} too short: slowest retained evanescent mode "
            f"needs at least {10.0 / decay:.2f} to decay below 1e-10 at the leads"
        )
    if omega <= threshold_energy(n):
        raise DomainError(f"incident mode {n} does not propagate at omega={omega}")
    return n


def solve(wire: DiscreteWire, n: int, omega: float) -> OracleSolution:
    """Scatter lattice mode n off the defect column at energy omega.

    The 1 x 1 call of :func:`solve_table`.  A clean wire (no defect)
    transmits the incident mode unchanged.
    """
    if wire.has_defect:
        return solve_table(wire, n, omega, [wire.rho], [wire.rho0])[0][0]
    n = _check_energy(wire, n, omega)
    # clean wire: psi = psi_inc exactly on the lattice
    return OracleSolution(wire=wire, incident_mode=n, energy=omega,
                          reflected=np.zeros(wire.lead_modes, dtype=complex))


class _Cell(NamedTuple):
    """One solved cell of a table: its wire, the defect rows ``support``,
    the source u_i = g w_i psi(r0) h_x on those rows, tau = g psi(r0) and
    ``g_eps`` = G(r0, y_i) on the support."""

    wire: DiscreteWire
    support: np.ndarray
    u: np.ndarray
    tau: complex
    g_eps: np.ndarray


def solve_table(wire: DiscreteWire, n: int, omega: float, rhos,
                rho0s) -> list[list[OracleSolution]]:
    """Solve every (width, strength) cell of a table at one energy:
    ``table[i][j]`` is the solve of ``wire`` with rho = rhos[i] and
    rho0 = rho0s[j].

    What the cells share is built once: the lattice modes and the
    same-column Green's function per mode, G(r0, .) on every row (it reads
    neither width nor strength), and per width the defect rows, their
    weights and the Green's function on them.  Only the strength term 1/g
    is per cell.  The cells' mode projections are one FFT over stacked
    columns.
    Each solution keeps its cell and the shared lattice spectrum for its
    residual, which is computed on first read.  Each cell gets the bits of
    its own 1 x 1 table, and an invalid cell raises the error its 1 x 1
    table would, the first in row-major order.
    """
    if not len(rhos) or not len(rho0s):
        return [[] for _ in rhos]
    ny = int(round(1.0 / wire.h_y))
    h = wire.h_y
    rows = np.arange(1, ny)
    yi = rows * h
    rho0s = list(rho0s)
    modes = None
    solved = []
    for rho in rhos:
        # each check comes where the row-major sequence of 1 x 1 solves
        # meets it: the row's first wire, then the checks, then the others
        row = [replace(wire, rho=rho, rho0=rho0s[0])]
        if modes is None:
            n = _check_energy(wire, n, omega)
        if rho / h < 4.0:
            raise ConfigurationError(
                f"impurity width under-resolved: rho/h_y = {rho / h:.2f} < 4"
            )
        if modes is None:
            modes = _lattice_modes(ny, wire.h_x, omega)
            sin_kh = modes[1]
            s_n = math.sin(n * math.pi * wire.eps)
            g_col = wire.h_x / (2j * sin_kh)  # same-column 1D lattice Green per mode
            phi_eps = math.sqrt(2.0) * np.sin(rows * np.pi * wire.eps)
            green_eps = _dst(phi_eps * g_col)  # G(r0, y_i) on every row
        w = np.exp(-(((yi - wire.eps) / rho) ** 2))
        support = w >= 1e-14
        ws = w[support]
        if len(ws) < 4:
            raise ConfigurationError("defect column support too small on this grid")
        row += [replace(wire, rho=rho, rho0=rho0) for rho0 in rho0s[1:]]
        # unknown tau = g psi(r0): tau (1/g - h sum_i G(r0, y_i) w_i) = psi_inc(r0)
        g_eps = green_eps[support]
        coupled = h * np.dot(g_eps, ws)
        for cell in row:
            tau = s_n / (cell.inverse_strength - coupled)
            # u_i = V psi(r0) column values (times h_x)
            solved.append(_Cell(cell, support, ws * tau, tau, g_eps))

    u_cols = _source_columns(ny, solved)
    lead = wire.lead_modes
    proj = _dst(u_cols)[:lead] / math.sqrt(2.0)  # sum_i sin(l pi y_i) u_i per cell
    scattered = wire.h_x * h * proj / (1j * sin_kh[:lead, None])
    # discrete flux: group velocity per mode ~ sin(k~ h)/h for propagating modes
    vel = np.real(sin_kh[:lead]) / wire.h_x
    live = vel > 0.0
    out = []
    for k, cell in enumerate(solved):
        reflected = scattered[:, k].copy()
        transmitted = _transmitted(reflected, n)
        flux = float(
            np.sum(vel[live] * (np.abs(transmitted[live]) ** 2 + np.abs(reflected[live]) ** 2))
            / vel[n - 1]
        )
        out.append(OracleSolution(
            wire=cell.wire,
            incident_mode=n,
            energy=omega,
            reflected=reflected,
            flux_defect=abs(flux - 1.0),
            _cell=cell,
            _spectrum=modes,
        ))
    return [out[i:i + len(rho0s)] for i in range(0, len(out), len(rho0s))]


def _source_columns(ny: int, cells) -> np.ndarray:
    """The cells' sources on all ny - 1 rows of the defect column, one
    column per cell, zero off each support."""
    u_cols = np.zeros((ny - 1, len(cells)), dtype=complex)
    for k, cell in enumerate(cells):
        u_cols[cell.support, k] = cell.u
    return u_cols


def _residual(n, omega, mu, sin_kh, exp_kh, cells) -> list[float]:
    """Per cell, the larger of two normalized residuals of the solve.

    Helmholtz: psi is reconstructed from the lattice Green's function; the
    residual checks (Laplacian_h + omega) psi - V psi(.) = 0 row by row on
    columns p = -1, 0, 1 (the stencil needs p = -2..2), normalized by
    omega |psi|.  This holds for any source, so it alone cannot tell a
    wrong defect strength.

    Defect equation: tau/g = psi(r0), with
    psi(r0) = sin(n pi eps) + h sum_i G(r0, y_i) u_i.  Normalized by the
    largest term it balances.

    It reads what :func:`solve_table` built and each solution keeps: the
    lattice spectrum ``mu``, ``sin_kh``, ``exp_kh`` and the solved ``cells``
    (:class:`_Cell`), which share one grid, energy and incident mode n;
    :attr:`OracleSolution.residual` passes its own cell.  The mode sums are
    its own: one :func:`_dst` projects every cell's ``u`` onto the modes,
    and one more rebuilds the scattered wave of every cell on all ny - 1
    rows (it is even in p, so columns |p| = 0, 1, 2 serve the five), so a
    wrong ``u`` is not hidden by sums that came from it.
    """
    wire = cells[0].wire
    ny = len(mu) + 1
    h = wire.h_y
    yi = np.arange(1, ny) * h
    u_cols = _source_columns(ny, cells)
    mode_src = _dst(u_cols)  # sum_i phi_j(y_i) u_i per mode j, per cell
    ps = np.arange(-2, 3)
    # e^{i k~ h_x |p|} per mode, |p| = 0, 1, 2
    hops = np.stack((np.ones_like(exp_kh), exp_kh, exp_kh * exp_kh), axis=1)
    coef = (wire.h_x * h * mode_src / (2j * sin_kh[:, None]))[:, None, :] * hops[:, :, None]
    psi_sc = _dst(coef)  # [row, |p|, cell]
    inc = np.sin(n * math.pi * yi)
    cols = (inc[:, None] * exp_kh[n - 1] ** ps)[:, :, None] + psi_sc[:, np.abs(ps)]

    psi = cols[:, 1:-1]  # p = -1, 0, 1
    res = cols[:, :-2] + cols[:, 2:]  # h_x^2 Laplacian_x psi + 2 psi
    res *= 1.0 / wire.h_x**2
    res[1:] += psi[:-1] * (1.0 / h**2)  # h_y^2 Laplacian_y psi + 2 psi, Dirichlet walls
    res[:-1] += psi[1:] * (1.0 / h**2)
    res += psi * (omega - 2.0 / wire.h_x**2 - 2.0 / h**2)
    res[:, 1] -= u_cols * (1.0 / wire.h_x)
    scale = omega * np.maximum(np.max(np.abs(cols[:, 2]), axis=0), 1e-30)
    helmholtz = (np.max(np.abs(res), axis=(0, 1)) / scale).tolist()

    out = []
    for k, cell in enumerate(cells):
        # tau/g = sin(n pi eps) + h sum_i G(r0, y_i) u_i
        terms = (cell.tau * cell.wire.inverse_strength, math.sin(n * math.pi * cell.wire.eps),
                 h * np.dot(cell.g_eps, cell.u))
        gap = np.max(np.abs(terms[0] - terms[1] - terms[2]))
        size = max(np.max(np.abs(t)) for t in terms)
        out.append(max(helmholtz[k], float(gap / max(size, 1e-30))))
    return out


def solve_ladder(wire: DiscreteWire, n: int, omega: float, rhos) -> list[OracleSolution]:
    """Solve the same configuration over a decreasing ladder of widths: the
    one-strength column of :func:`solve_table`."""
    table = solve_table(wire, n, omega, [float(rho) for rho in rhos], [wire.rho0])
    return [row[0] for row in table]


@dataclass(frozen=True)
class ExtrapolatedAmplitudes(_ReflectedAmplitudes):
    """Zero-width limit ``reflected`` of an amplitude ladder with its
    self-error estimates ``reflected_err``."""

    incident_mode: int
    energy: float
    rhos: tuple
    reflected: np.ndarray = field(repr=False)
    reflected_err: np.ndarray = field(repr=False)
    warnings: tuple = ()


def extrapolate_to_zero_width(solutions) -> ExtrapolatedAmplitudes:
    """Richardson-extrapolate a width ladder to rho = 0, amplitude by
    amplitude, in the variable rho^2 (exact on tables of the form
    a + b rho^2).  The error estimate is the difference of the last two
    extrapolation orders; non-monotone ladders are flagged, not rejected,
    with one note per outgoing mode.  The reflected amplitudes of the
    ladder go through one array Neville tableau (rungs x lead_modes); the
    transmitted ones differ from them by the constant delta_nl.
    """
    sols = sorted(solutions, key=lambda s: -s.wire.rho)
    if len(sols) < 3:
        raise DomainError("need at least three ladder points to extrapolate")
    rhos = np.array([s.wire.rho for s in sols])
    if np.any(np.diff(rhos) >= 0):
        raise DomainError("width ladder must be strictly decreasing")
    series = np.array([s.reflected for s in sols], dtype=complex)
    diag = neville_diagonal(rhos**2, series)
    gap = diag[-1] - diag[-2]
    err = np.hypot(gap.real, gap.imag)  # libm's hypot, as abs() of one complex
    # a ladder is non-monotone where a step turns back or grows
    steps = np.diff(series, axis=0)
    sizes = np.abs(steps)
    flips = np.real(steps[1:] * np.conj(steps[:-1])) < 0.0
    growth = sizes[1:] > sizes[:-1]
    bad = np.any((flips | growth) & (sizes[1:] > 1e-12), axis=0).tolist()
    notes = [f"non-monotone ladder for r[{l}]" for l, flag in enumerate(bad, start=1) if flag]
    return ExtrapolatedAmplitudes(
        incident_mode=sols[0].incident_mode,
        energy=sols[0].energy,
        rhos=tuple(rhos),
        reflected=diag[-1],
        reflected_err=err,
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
    window.  The |Delta_m| come from one rho_bar evaluation
    (:func:`~wirescat.scatter.resonance_parameters`), and the whole
    (width x strength) table is one :func:`solve_table` call at that
    energy; each strength's width ladder is then extrapolated to zero
    width.  The report carries the spread across strengths and the
    deviation of the mean from the zero-range prediction
    sin(n pi eps)/sin(m pi eps).
    """
    if len(rho0_list) < 1:
        raise DomainError("need at least one impurity strength")
    m = _index(m, "threshold index m", hi=wire.lead_modes)
    if not 0.0 < offset_scale < math.inf:
        raise DomainError(f"offset_scale must be positive and finite, got {offset_scale}")
    d_inv_sqrt = resonance_parameters(wire.eps, rho0_list, m)
    offset = offset_scale * min(1.0 / abs(d) ** 2 for d in d_inv_sqrt)
    lattice_cutoff = float(_transverse_eigenvalues(int(round(1.0 / wire.h_y)))[m - 1])
    omega = lattice_cutoff + offset
    table = solve_table(wire, n, omega, [float(rho) for rho in rhos],
                        [float(r0) for r0 in rho0_list])
    coefficients = [complex(extrapolate_to_zero_width(ladder).amplitude[m - 1])
                    for ladder in zip(*table)]
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


def amplitude_records(result) -> list[dict]:
    """Flatten the amplitudes A_nl = -reflected of an :class:`OracleSolution`
    or :class:`ExtrapolatedAmplitudes` to JSON records
    {rho, n, l, re, im, err}.

    ``rho`` is the solve's width and ``err`` null for a solution; for a
    zero-width extrapolation ``rho`` is null and ``err`` is its own error
    estimate ``reflected_err``.
    """
    if isinstance(result, OracleSolution):
        rho, errs = result.wire.rho, [None] * len(result.reflected)
    elif isinstance(result, ExtrapolatedAmplitudes):
        rho, errs = None, result.reflected_err.tolist()
    else:
        raise DomainError("expected an OracleSolution or ExtrapolatedAmplitudes")
    records = []
    for l, (a, err) in enumerate(zip(result.amplitude, errs), start=1):
        records.append({"rho": rho, "n": result.incident_mode, "l": l,
                        "re": float(a.real), "im": float(a.imag), "err": err})
    return records
