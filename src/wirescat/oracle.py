"""Independent finite-difference frequency-domain oracle.

Solves the discrete Helmholtz problem for the wire with a finite-width
defect column

    (Laplacian_h + omega) psi = V psi,
    V(x, y) = g delta_col(x) exp(-(y - eps)^2 / rho^2),
    g = 2 sqrt(pi) / (rho ln(rho/rho0)),

on the square lattice of spacing h = 1/ny (:class:`DiscreteWire`), with
Dirichlet walls and exact outgoing boundary conditions: the lead matching
is done against the discrete operator's own propagating and evanescent
modes through the lattice Green's function

    G(r, r') = sum_j phi_j(y) phi_j(y') * h e^{i k~_j h |p - p'|}
               / (2 i sin(k~_j h)),
    cos(k~_j h) = 1 - (omega - mu_j) h^2 / 2,

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
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError
from .numerics import neville_diagonal, relative_spread
from .scatter import resonance_parameters
from .specfun import _check_incident, _index

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
    """The lattice of an oracle solve and the defect's position on it.

    The square lattice has spacing h_y = 1/ny in both directions, with the
    walls on rows 0 and ny; the defect column is centred at y = eps, and a
    solve returns the amplitudes of the first lead_modes lead modes (at
    most ny - 1, the transverse modes of the grid).  The defect's width rho
    and strength rho0 are inputs of the solve (:func:`solve_table`).
    """

    eps: float
    ny: int = 200
    lead_modes: int = 12

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ConfigurationError(
                f"defect position eps must be inside the wire, got {self.eps}")
        try:
            object.__setattr__(self, "ny", _index(self.ny, "ny", lo=2))
            # at most the transverse modes of the grid
            object.__setattr__(self, "lead_modes",
                               _index(self.lead_modes, "lead_modes", hi=self.ny - 1))
        except DomainError as exc:
            raise ConfigurationError(str(exc)) from None

    @property
    def h_y(self) -> float:
        """The lattice spacing 1/ny, across and along the wire."""
        return 1.0 / self.ny


def _inverse_strength(rho: float, rho0: float) -> float:
    """1/g = rho ln(rho/rho0)/(2 sqrt(pi)) of a defect of width rho and
    strength rho0, each positive and finite; zero at the infinitely
    attractive well rho = rho0, which the solve handles exactly."""
    for name, value in (("rho", rho), ("rho0", rho0)):
        if not 0.0 < value < math.inf:
            raise ConfigurationError(f"defect {name} must be positive and finite, got {value}")
    return rho * math.log(rho / rho0) / (2.0 * math.sqrt(math.pi))


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

    ``rho`` and ``rho0`` are the defect's width and strength on ``wire``.
    ``reflected[l-1]`` is the coefficient of sin(l pi y) e^{i k~_l |x|} on
    the near side for l up to lead_modes; ``transmitted`` (far side) is
    reflected + delta_nl and ``amplitude`` = -reflected matches the analytic
    A_nl convention.  ``flux_defect`` is the discrete-flux unitarity
    violation.  ``residual`` (:func:`_residual`) is computed on first read
    from the solved cell ``_cell`` and the lattice spectrum ``_spectrum``
    (mu, sin_kh, exp_kh) that :func:`solve_table` hands over; a solution
    built without them reads 0.0.
    """

    wire: DiscreteWire
    rho: float
    rho0: float
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
        [residual] = _residual(self.wire, self.incident_mode, self.energy, *self._spectrum,
                               [self._cell])
        return residual


def _transverse_eigenvalues(ny: int) -> np.ndarray:
    """Eigenvalues mu_j = (2 - 2 cos(j pi / ny)) ny^2, j = 1..ny-1, of the
    discrete transverse operator: the lattice cut-offs.  Each lies below its
    continuum cut-off (j pi)^2 by about (j pi)^4 / (12 ny^2)."""
    h_y = 1.0 / ny
    return (2.0 - 2.0 * np.cos(np.arange(1, ny) * np.pi * h_y)) / h_y**2


def _lattice_modes(ny: int, omega: float):
    """Discrete transverse spectrum mu and per-mode longitudinal factors
    sin(k~ h) and e^{i k~ h} of the lattice of spacing h = 1/ny.

    They are taken in half-angle form, with t = (omega - mu) h^2 / 2 =
    1 - cos(k~ h): sin(k~ h) = sqrt(t (2 - t)) as a complex root, so
    i sinh(kappa h) for an evanescent mode (t < 0), and
    e^{i k~ h} = (1 - t) + i sin(k~ h).  sin(k~ h) keeps the relative
    precision of t however close omega is to mu, where 1 - t rounds to 1.
    """
    mu = _transverse_eigenvalues(ny)
    h = 1.0 / ny
    t = (omega - mu) * h * h / 2.0
    if np.any(t > 2.0):
        raise ConfigurationError(
            "omega exceeds the discrete band edge of a retained mode; raise ny"
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


def solve(wire: DiscreteWire, n: int, omega: float, rho: float, rho0: float) -> OracleSolution:
    """Scatter lattice mode n off a defect column of width rho and strength
    rho0 at energy omega: the 1 x 1 call of :func:`solve_table`."""
    return solve_table(wire, n, omega, [rho], [rho0])[0][0]


class _Cell(NamedTuple):
    """One solved cell of a table: its width and strength, the defect rows
    ``support``, the source u_i = g w_i psi(r0) h on those rows,
    tau = g psi(r0) and ``g_eps`` = G(r0, y_i) on the support."""

    rho: float
    rho0: float
    support: np.ndarray
    u: np.ndarray
    tau: complex
    g_eps: np.ndarray


def solve_table(wire: DiscreteWire, n: int, omega: float, rhos,
                rho0s) -> list[list[OracleSolution]]:
    """Solve every (width, strength) cell of a table at one energy:
    ``table[i][j]`` is the solve on ``wire`` of the defect of width
    rho = rhos[i] and strength rho0 = rho0s[j].

    What the cells share is built once: the lattice modes and the
    same-column Green's function per mode, G(r0, .) on every row (it reads
    neither width nor strength), and per width the defect rows, their
    weights and the Green's function on them.  Only the strength term 1/g
    is per cell.  The cells' mode projections are one FFT over stacked
    columns.
    Each solution keeps its cell and the shared lattice spectrum for its
    residual, which is computed on first read.  Each cell gets the bits of
    its own 1 x 1 table.  Every input is checked before the lattice is
    built, in stages over the whole table: every cell's strength, the
    incident mode, the energy, every width's resolution; building the
    lattice checks the band edge, and each width's defect support is
    checked as its row is solved.  A table with several bad inputs names
    the first in this order.
    """
    if not len(rhos) or not len(rho0s):
        return [[] for _ in rhos]
    ny = wire.ny
    h = wire.h_y
    rho0s = list(rho0s)
    inverse_strengths = [[_inverse_strength(rho, rho0) for rho0 in rho0s] for rho in rhos]
    n = _index(n, "incident mode", hi=wire.lead_modes)
    _check_incident(n, omega)
    for rho in rhos:
        if rho / h < 4.0:
            raise ConfigurationError(
                f"impurity width under-resolved: rho/h_y = {rho / h:.2f} < 4"
            )
    modes = _lattice_modes(ny, omega)
    sin_kh = modes[1]
    s_n = math.sin(n * math.pi * wire.eps)
    g_col = h / (2j * sin_kh)  # same-column 1D lattice Green per mode
    rows = np.arange(1, ny)
    phi_eps = math.sqrt(2.0) * np.sin(rows * np.pi * wire.eps)
    green_eps = _dst(phi_eps * g_col)  # G(r0, y_i) on every row
    yi = rows * h
    solved = []
    for rho, row in zip(rhos, inverse_strengths):
        w = np.exp(-(((yi - wire.eps) / rho) ** 2))
        support = w >= 1e-14
        ws = w[support]
        if len(ws) < 4:
            raise ConfigurationError("defect column support too small on this grid")
        # unknown tau = g psi(r0): tau (1/g - h sum_i G(r0, y_i) w_i) = psi_inc(r0)
        g_eps = green_eps[support]
        coupled = h * np.dot(g_eps, ws)
        for rho0, inverse_strength in zip(rho0s, row):
            tau = s_n / (inverse_strength - coupled)
            # u_i = V psi(r0) column values (times h)
            solved.append(_Cell(rho, rho0, support, ws * tau, tau, g_eps))

    u_cols = _source_columns(ny, solved)
    lead = wire.lead_modes
    proj = _dst(u_cols)[:lead] / math.sqrt(2.0)  # sum_i sin(l pi y_i) u_i per cell
    scattered = h * h * proj / (1j * sin_kh[:lead, None])
    # discrete flux: group velocity per mode ~ sin(k~ h)/h for propagating modes
    vel = np.real(sin_kh[:lead]) / h
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
            wire=wire,
            rho=cell.rho,
            rho0=cell.rho0,
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


def _residual(wire, n, omega, mu, sin_kh, exp_kh, cells) -> list[float]:
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
    (:class:`_Cell`), which share one ``wire``, energy and incident mode n;
    :attr:`OracleSolution.residual` passes its own cell.  The mode sums are
    its own: one :func:`_dst` projects every cell's ``u`` onto the modes,
    and one more rebuilds the scattered wave of every cell on all ny - 1
    rows (it is even in p, so columns |p| = 0, 1, 2 serve the five), so a
    wrong ``u`` is not hidden by sums that came from it.
    """
    ny = wire.ny
    h = wire.h_y
    yi = np.arange(1, ny) * h
    u_cols = _source_columns(ny, cells)
    mode_src = _dst(u_cols)  # sum_i phi_j(y_i) u_i per mode j, per cell
    ps = np.arange(-2, 3)
    # e^{i k~ h |p|} per mode, |p| = 0, 1, 2
    hops = np.stack((np.ones_like(exp_kh), exp_kh, exp_kh * exp_kh), axis=1)
    coef = (h * h * mode_src / (2j * sin_kh[:, None]))[:, None, :] * hops[:, :, None]
    psi_sc = _dst(coef)  # [row, |p|, cell]
    inc = np.sin(n * math.pi * yi)
    cols = (inc[:, None] * exp_kh[n - 1] ** ps)[:, :, None] + psi_sc[:, np.abs(ps)]

    psi = cols[:, 1:-1]  # p = -1, 0, 1
    # h^2 (Laplacian_h + omega) psi on the five-point stencil, Dirichlet walls
    res = cols[:, :-2] + cols[:, 2:] + psi * (omega * h**2 - 4.0)
    res[1:] += psi[:-1]
    res[:-1] += psi[1:]
    res *= 1.0 / h**2
    res[:, 1] -= u_cols * (1.0 / h)
    scale = omega * np.maximum(np.max(np.abs(cols[:, 2]), axis=0), 1e-30)
    helmholtz = (np.max(np.abs(res), axis=(0, 1)) / scale).tolist()

    out = []
    for k, cell in enumerate(cells):
        # tau/g = sin(n pi eps) + h sum_i G(r0, y_i) u_i
        terms = (cell.tau * _inverse_strength(cell.rho, cell.rho0),
                 math.sin(n * math.pi * wire.eps), h * np.dot(cell.g_eps, cell.u))
        gap = np.max(np.abs(terms[0] - terms[1] - terms[2]))
        size = max(np.max(np.abs(t)) for t in terms)
        out.append(max(helmholtz[k], float(gap / max(size, 1e-30))))
    return out


def solve_ladder(wire: DiscreteWire, n: int, omega: float, rhos,
                 rho0: float) -> list[OracleSolution]:
    """Solve one strength rho0 over a decreasing ladder of widths: the
    one-strength column of :func:`solve_table`."""
    table = solve_table(wire, n, omega, [float(rho) for rho in rhos], [rho0])
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
    sols = sorted(solutions, key=lambda s: -s.rho)
    if len(sols) < 3:
        raise DomainError("need at least three ladder points to extrapolate")
    rhos = np.array([s.rho for s in sols])
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


#: the probe's energy sits this many times the smallest |Delta_m| of its
#: strengths above the lattice cut-off (:func:`universality_probe`)
PROBE_OFFSET_SCALE = 1e-4
#: the width ladder the probe extrapolates to zero width
PROBE_RHOS = (0.04, 0.02, 0.01)


def universality_probe(wire: DiscreteWire, n: int, m: int, rho0_list) -> UniversalityReport:
    """Measure how the resonant coefficient varies with the defect strength
    just above the m-th cut-off.

    The energy is the lattice's own m-th cut-off
    mu_m = (2 - 2 cos(m pi h_y)) / h_y^2 plus an offset of PROBE_OFFSET_SCALE
    times the smallest |Delta_m| over the strength list (estimated from the
    analytic resonance parameter), which keeps every run inside the
    universal window.  mu_m lies about (m pi)^4 h_y^2 / 12 below the
    continuum cut-off (m pi)^2 (8e-4 for m = 2 at h_y = 1/400), far more
    than the offset, so an energy referenced to (m pi)^2 would leave that
    window.  The |Delta_m| come from one rho_bar evaluation
    (:func:`~wirescat.scatter.resonance_parameters`), and the whole
    (width x strength) table, over the widths PROBE_RHOS, is one
    :func:`solve_table` call at that energy; each strength's width ladder
    is then extrapolated to zero width.  The report carries the spread
    across strengths and the deviation of the mean from the zero-range
    prediction sin(n pi eps)/sin(m pi eps).
    """
    if len(rho0_list) < 1:
        raise DomainError("need at least one impurity strength")
    m = _index(m, "threshold index m", hi=wire.lead_modes)
    d_inv_sqrt = resonance_parameters(wire.eps, rho0_list, m)
    offset = PROBE_OFFSET_SCALE * min(1.0 / abs(d) ** 2 for d in d_inv_sqrt)
    lattice_cutoff = float(_transverse_eigenvalues(wire.ny)[m - 1])
    omega = lattice_cutoff + offset
    table = solve_table(wire, n, omega, PROBE_RHOS, [float(r0) for r0 in rho0_list])
    coefficients = [complex(extrapolate_to_zero_width(ladder).amplitude[m - 1])
                    for ladder in zip(*table)]
    target = math.sin(n * math.pi * wire.eps) / math.sin(m * math.pi * wire.eps)
    mean = np.mean(coefficients)
    return UniversalityReport(
        incident_mode=n,
        threshold_index=m,
        energy=omega,
        offset=offset,
        lattice_cutoff=lattice_cutoff,
        rho0_values=tuple(float(r) for r in rho0_list),
        coefficients=tuple(coefficients),
        target=target,
        spread=relative_spread(coefficients),
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
        rho, errs = result.rho, [None] * len(result.reflected)
    elif isinstance(result, ExtrapolatedAmplitudes):
        rho, errs = None, result.reflected_err.tolist()
    else:
        raise DomainError("expected an OracleSolution or ExtrapolatedAmplitudes")
    records = []
    for l, (a, err) in enumerate(zip(result.amplitude, errs), start=1):
        records.append({"rho": rho, "n": result.incident_mode, "l": l,
                        "re": float(a.real), "im": float(a.imag), "err": err})
    return records
