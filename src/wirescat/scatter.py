"""Exact scattering of waveguide modes off a single point impurity.

Notation used throughout (energies in units 1/width^2, hbar = 2m = 1):

* ``eps``   - transverse impurity position, 0 < eps < 1;
* ``rho0``  - impurity strength length-scale (the only parameter of the
  regularized zero-range defect; its bound-state de Broglie wavelength is
  lambda_B = pi rho0 exp(gamma/2)/2);
* ``rho_bar`` - the regularized on-site length scale absorbing the
  logarithmic short-distance singularity of the wire Green's function,
  ln(rho_bar) = lim_{rho->0} [ln rho + S(rho)] with S the Gaussian-damped
  evanescent mode sum;
* ``m``     - index of the cut-off (m pi)^2 whose neighbourhood the energy
  omega lies in; all modes above m are treated as evanescent.

The scattered wave for incidence in mode n is

    psi(x, y) = sum_l (delta_nl - A_nl) sin(l pi y) exp(i k_l x),   x > 0,
    psi(x, y) = psi_inc - sum_l A_nl sin(l pi y) exp(i k_l |x|),    x < 0,

with amplitudes

    A_nl = sin(n pi eps) sin(l pi eps) /
           { i k_l [ ln(rho0/rho_bar)/(2 pi)
                     + sum_{q<=m} sin^2(q pi eps)/(i k_q) ] }.

Every amplitude the library reports (single amplitudes, solution tables,
transport matrices, field maps) comes from one private core,
``_amplitude_table``, which evaluates rho_bar once and is the only place
the bracket and the quotient are written.

Near a cut-off all impurity dependence funnels through the complex scale
Delta_m; exactly at the cut-off the resonant pattern loses every trace of
the impurity strength (and, for wall impurities, of its position).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (
    ConvergenceError,
    DecoupledModeError,
    DecoupledModeWarning,
    DomainError,
    ThresholdEnergyError,
    ValidityWarning,
)
from .numerics import neville_diagonal, neville_zero
from .specfun import (
    EULER_GAMMA,
    cosine_integral,
    evanescent_gaussian_sum,
    longitudinal_wavenumber,
    threshold_energy,
)
from .wire import HARD_WALL, WireGeometry, propagating_count

__all__ = [
    "Impurity",
    "OneDBarrier",
    "ScatteringSolution",
    "nearest_threshold_index",
    "regularized_scale",
    "regularized_scale_tail_subtraction",
    "scattering_amplitude",
    "solve_scattering",
    "scattered_field",
    "scattered_field_grid",
    "resonance_parameter",
    "near_threshold_field",
    "threshold_field",
    "threshold_field_grid",
    "surface_constant",
    "surface_resonance_parameter",
    "surface_threshold_field",
    "reflection_1d",
    "threshold_amplitude_limit",
]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Impurity:
    """Point impurity at transverse position eps with strength scale rho0."""

    epsilon: float
    rho0: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise DomainError(f"impurity position must satisfy 0 < eps < 1, got {self.epsilon}")
        if not 0.0 < self.rho0 < math.inf:
            raise DomainError(f"impurity scale rho0 must be positive and finite, got {self.rho0}")

    @property
    def lambda_b(self) -> float:
        """De Broglie wavelength of the impurity bound state,
        pi rho0 exp(gamma/2)/2 (carried as metadata only)."""
        return math.pi * self.rho0 * math.exp(EULER_GAMMA / 2.0) / 2.0


@dataclass(frozen=True)
class OneDBarrier:
    """1D reference barrier: a weak finite barrier (height delta_v, width
    width) or an ideal delta barrier of strength alpha."""

    kind: str  # "weak-finite" | "delta"
    delta_v: float = 0.0
    width: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in ("weak-finite", "delta"):
            raise DomainError(f"unknown barrier kind {self.kind!r}")
        for name in ("delta_v", "width", "alpha"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"barrier {name} must be finite, got {value}")
        if self.kind == "weak-finite":
            if self.delta_v <= 0 or self.width <= 0:
                raise DomainError("weak-finite barrier needs delta_v > 0 and width > 0")
            if math.sqrt(self.delta_v) * self.width >= 0.1:
                warnings.warn(
                    "sqrt(delta_v)*width >= 0.1: outside the weak-barrier regime",
                    ValidityWarning,
                    stacklevel=3,
                )
        elif self.alpha <= 0:
            raise DomainError("delta barrier needs alpha > 0")


@dataclass(frozen=True)
class ScatteringSolution:
    """Full single-energy solution: amplitude table and diagnostics.

    ``amplitudes[l]`` is A_nl for outgoing mode l (1-based keys).  The
    transmitted amplitude in mode l is delta_nl - A_nl, the reflected one is
    -A_nl.  ``resonance_inv_sqrt`` is None when the impurity decouples from
    mode m (sin(m pi eps) = 0).
    """

    incident_mode: int
    energy: float
    threshold_index: int
    amplitudes: dict = field(repr=False)
    rho_bar: float = 0.0
    resonance_inv_sqrt: complex | None = None
    unitarity_defect: float = 0.0

    def amplitude(self, l: int) -> complex:
        return self.amplitudes[l]

    def transmitted(self, l: int) -> complex:
        return (1.0 if l == self.incident_mode else 0.0) - self.amplitudes[l]

    def reflected(self, l: int) -> complex:
        return -self.amplitudes[l]


# ---------------------------------------------------------------------------
# energy-window bookkeeping
# ---------------------------------------------------------------------------

def nearest_threshold_index(omega: float) -> int:
    """Cut-off index m whose window contains omega.

    m is the largest integer with (m pi)^2 <= omega + w, half-width
    w = ((m+1)^2 - m^2) pi^2 / 2; equivalently the largest m with
    m^2 - m - 1/2 <= omega/pi^2.  The amplitude pipeline is independent of
    this labelling as long as every propagating mode is <= m and
    omega < ((m+1) pi)^2, which the rule guarantees.
    """
    if not math.isfinite(omega):
        raise DomainError(f"energy must be finite, got {omega}")
    if omega <= 0.0:
        raise DomainError(f"energy must be positive, got {omega}")
    ratio = omega / math.pi**2
    m = int(math.floor((1.0 + math.sqrt(3.0 + 4.0 * ratio)) / 2.0))
    while m > 1 and (m * m - m - 0.5) > ratio:
        m -= 1
    while ((m + 1) ** 2 - (m + 1) - 0.5) <= ratio:
        m += 1
    return max(m, 1)


def _validate_window(omega: float, m: int) -> None:
    if not math.isfinite(omega):
        raise DomainError(f"energy must be finite, got {omega}")
    if m < 1:
        raise DomainError(f"cut-off index must be >= 1, got {m}")
    if omega >= threshold_energy(m + 1):
        raise DomainError(
            f"omega={omega} lies above the cut-off of mode {m + 1}; "
            "the evanescent split requires omega < ((m+1) pi)^2"
        )
    if propagating_count(omega) > m:
        raise DomainError(
            f"all propagating modes must be included in the explicit sum: "
            f"{propagating_count(omega)} modes propagate at omega={omega} but m={m}"
        )


# ---------------------------------------------------------------------------
# regularized on-site scale
# ---------------------------------------------------------------------------

#: Most modes either rho_bar route may sum in one call: the ladder's deepest
#: rung and the tail-subtraction head both stop here.
_TERM_BUDGET = 3e7

#: B_2i / (2i)! for i = 1..5, the Euler-Maclaurin coefficients.
_EM_COEFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0, 1.0 / 47900160.0)

#: Most summation-by-parts terms the oscillating tail may take.
_SBP_TERMS = 8


def regularized_scale(eps: float, omega: float, m: int, *,
                      ladder_start: float = 1e-2,
                      stability: float = 1e-9,
                      max_levels: int = 14) -> float:
    """The regularized length scale rho_bar(eps, omega, m) from its defining
    limit; the library computes rho_bar with
    :func:`regularized_scale_tail_subtraction` and keeps this route as the
    independent cross-check:

        ln(rho_bar) = lim_{rho->0} [ ln rho + S(rho) ],
        S(rho) = 2 pi sum_{n>m} sin^2(n pi eps)/sqrt((n pi)^2 - omega)
                 e^{-(n pi rho/2)^2}.

    The limit is evaluated on the geometric ladder rho_k = ladder_start 2^-k
    with Neville extrapolation in rho^2, stopping once two successive
    extrapolation orders agree to ``stability``.  For impurities very close
    to a wall the ladder is started lower (the sum decorrelates only once
    the Gaussian cut-off passes ~1/eps modes).  Raises ConvergenceError if
    the ladder is exhausted first.

    Valid domain: S(rho) is not a series in rho^2 alone, so the gap between
    orders only quarters per rung and the returned value is off by about a
    third of the last gap.  That gap grows like |omega| (about
    1e-13 |omega| at the deepest rung for ladder_start = 1e-2), so at the
    default stability the ladder is a cross-check for |omega| up to about
    1e4, which covers the windows of m <= 30; beyond that it raises
    unless ``stability`` is loosened (or ``ladder_start`` lowered).
    """
    if not (0.0 < eps < 1.0):
        raise DomainError(f"impurity position must satisfy 0 < eps < 1, got {eps}")
    _validate_window(omega, m)
    edge = min(eps, 1.0 - eps)
    start = min(ladder_start, max(2.0 * edge, 1e-4))
    rhos, values = [], []
    gap = math.inf
    for k in range(max_levels + 1):
        rho = start * 0.5**k
        if 4.11 / rho > _TERM_BUDGET:  # term budget for the deepest ladder rung
            break
        rhos.append(rho)
        values.append(math.log(rho) + evanescent_gaussian_sum(eps, omega, m, rho))
        if k >= 3:
            limit, gap = neville_zero(np.array(rhos) ** 2, values)
            if gap < stability:
                return math.exp(limit)
    raise ConvergenceError(
        f"regularized-scale ladder did not stabilise to {stability:.1e} "
        f"(last gap {gap:.2e})"
    )


def regularized_scale_tail_subtraction(eps: float, omega: float, m: int) -> float:
    """rho_bar(eps, omega, m) in closed form; the production route behind
    every amplitude, transport matrix and resonance parameter.

    Subtracting the Gaussian-damped asymptotic tail
    sum_n e^{-(n pi rho/2)^2}/n analytically, with
    sum_{n>=1} e^{-a^2 n^2}/n = -ln a + gamma/2 + O(a^2) and
    sum_{n>=1} cos(2 pi eps n)/n = -ln(2 sin(pi eps)), collapses the
    rho -> 0 limit of :func:`regularized_scale` to

        ln(rho_bar) = ln(2/pi) + gamma/2 - H_m + ln(2 sin(pi eps))
                      + sum_{q<=m} cos(2 q pi eps)/q
                      + 2 pi sum_{n>m} sin^2(n pi eps) g(n),
        g(n) = 1/sqrt((n pi)^2 - omega) - 1/(n pi),

    where H_m is the m-th harmonic number.  The last sum runs exactly up to
    N0 = max(512, 64/min(eps, 1-eps), 8 sqrt|omega|/pi, m).  Above N0,
    sin^2 = (1 - cos(2 n pi eps))/2 splits it into a smooth tail, closed by
    a binomial series in omega with Euler-Maclaurin Hurwitz-zeta tails, and
    an oscillating tail, closed by summation by parts.  Raises
    ConvergenceError when N0 exceeds the term budget (an impurity within
    ~2e-6 of a wall).
    """
    if not (0.0 < eps < 1.0):
        raise DomainError(f"impurity position must satisfy 0 < eps < 1, got {eps}")
    _validate_window(omega, m)
    # sin^2(n pi eps) and cos(2 n pi eps) are symmetric under eps -> 1 - eps,
    # and 1 - eps is exact: the distance to the nearer wall keeps full
    # relative precision in sin(pi eps) for impurities at either wall
    edge = min(eps, 1.0 - eps)
    n0 = max(512, math.ceil(64.0 / edge), math.ceil(8.0 * math.sqrt(abs(omega)) / math.pi), m)
    if n0 > _TERM_BUDGET:
        raise ConvergenceError(
            f"tail subtraction needs {n0} exact terms at eps={eps}, omega={omega}, "
            f"above the {_TERM_BUDGET:.0e}-term budget"
        )
    harmonic = sum(1.0 / q for q in range(1, m + 1))
    cos_part = sum(math.cos(2.0 * q * math.pi * eps) / q for q in range(1, m + 1))
    rest = kernels.tail_sum(edge, float(omega), int(m), n0)
    rest += 0.5 * _smooth_tail(omega, n0) - 0.5 * _oscillating_tail(edge, omega, n0)
    ln_rb = (
        math.log(2.0 / math.pi)
        + EULER_GAMMA / 2.0
        - harmonic
        + math.log(2.0 * math.sin(math.pi * edge))
        + cos_part
        + 2.0 * math.pi * rest
    )
    return math.exp(ln_rb)


def _smooth_tail(omega: float, n0: int) -> float:
    """sum_{n>n0} g(n), g(n) = 1/sqrt((n pi)^2 - omega) - 1/(n pi).

    Expanding g in omega gives (1/pi) sum_{j>=1} a_j (omega/pi^2)^j
    zeta(2j+1, a), a_j = C(2j, j)/4^j, a = n0 + 1.  Each Hurwitz tail comes
    from Euler-Maclaurin in the scaled form
    a^s zeta(s, a) = a/(s-1) + 1/2 + sum_i B_2i/(2i)! (s)_{2i-1} a^{1-2i},
    whose first omitted term is negligible for a > 512.  With
    |omega| <= (n0 pi / 8)^2 the series in j shrinks 64-fold per term.
    """
    a = n0 + 1.0
    x = omega / (math.pi * a) ** 2
    inv_a2 = 1.0 / (a * a)
    total = 0.0
    coef = 1.0
    for j in range(1, 64):
        coef *= x * (2 * j - 1) / (2 * j)  # a_j x^j
        s = 2 * j + 1
        scaled = 1.0 / (s - 1) + 0.5 / a  # a^(s-1) zeta(s, a)
        rising, power = float(s), inv_a2  # (s)_{2i-1}, a^{-2i}
        for i, c in enumerate(_EM_COEFS, start=1):
            scaled += c * rising * power
            rising *= (s + 2 * i - 1) * (s + 2 * i)
            power *= inv_a2
        term = coef * scaled
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return total / math.pi


def _oscillating_tail(eps: float, omega: float, n0: int) -> float:
    """sum_{n>n0} cos(2 n pi eps) g(n) by repeated summation by parts,

        sum_{n>=N} z^n g(n) = sum_{k>=0} z^(N+k) Delta^k g(N) / (1-z)^(k+1),

    with z = e^{2 pi i eps}, N = n0 + 1 and forward differences Delta.  The
    series is asymptotic: true terms fall by ~N |1-z| / (k+3) >= 25 per
    order, while the roundoff in Delta^k g grows like |1-z|^-k.  Near a wall a
    fixed length would let that roundoff through, so the sum stops before
    its first term that does not shrink.
    """
    n = np.arange(n0 + 1, n0 + 1 + _SBP_TERMS, dtype=np.float64) * np.pi
    root = np.sqrt(n * n - omega)
    diffs = omega / (root * n * (n + root))  # g(n), cancellation-free
    # 1 - z = -2i sin(pi eps) e^{i pi eps} has no cancellation near a wall, so
    # z / (1 - z) = i e^{i pi eps} / (2 sin(pi eps)) and
    # z^N / (1 - z) = i e^{i pi (2 N eps - eps)} / (2 sin(pi eps))
    half = 0.5 / math.sin(math.pi * eps)
    ratio = complex(-math.sin(math.pi * eps), math.cos(math.pi * eps)) * half
    phase = math.pi * (2.0 * ((n0 + 1) * eps % 1.0) - eps)
    lead = complex(-math.sin(phase), math.cos(phase)) * half
    total = 0.0
    last = math.inf
    for _ in range(_SBP_TERMS):
        term = lead * diffs[0]
        if abs(term) >= last:
            break
        total += term
        last = abs(term)
        lead *= ratio
        diffs = np.diff(diffs)
    return total.real


# ---------------------------------------------------------------------------
# amplitudes and fields
# ---------------------------------------------------------------------------

def _require_hard_wall(geometry: WireGeometry) -> None:
    if geometry.kind != HARD_WALL:
        raise DomainError(
            "closed-form amplitudes hold for the hard-wall wire; general "
            "cross-sections are supported by the threshold-limit field only"
        )


def _amplitude_table(impurity: Impurity, omega: float, m: int, ns, ls):
    """The closed-form amplitudes of the module docstring for the incident
    modes ``ns`` and outgoing modes ``ls`` (sequences of mode indices): the
    one place the bracket and the quotient A_nl are written.

    Returns (rho_bar, k, amp): rho_bar from
    :func:`regularized_scale_tail_subtraction` (evaluated once),
    k[q-1] = k_q for q = 1..max(m, max(ls)) and amp[i, j] = A_{ns[i], ls[j]}.
    Raises DomainError for a mode index below 1, an energy outside the window
    of cut-off m or an incident mode that does not propagate, and
    ThresholdEnergyError when omega sits on the cut-off of a mode q <= m.
    """
    if min(ns) < 1 or min(ls) < 1:
        raise DomainError("mode indices must be >= 1")
    _validate_window(omega, m)
    if omega <= threshold_energy(max(ns)):
        raise DomainError(f"incident mode {max(ns)} does not propagate at omega={omega}")
    k = [longitudinal_wavenumber(q, omega).value for q in range(1, max(m, max(ls)) + 1)]
    if 0 in k[:m]:
        raise ThresholdEnergyError(
            f"omega sits exactly on the cut-off of mode {k.index(0) + 1}; "
            "use the threshold-limit operations"
        )
    eps = impurity.epsilon
    rho_bar = regularized_scale_tail_subtraction(eps, omega, m)
    s = np.sin(np.arange(1, len(k) + 1) * math.pi * eps)
    # the bracket is summed on Python scalars: CPython divides a complex
    # exactly where numpy multiplies by a reciprocal, and transport keeps the
    # bits of this scalar form
    bracket = math.log(impurity.rho0 / rho_bar) / (2.0 * math.pi)
    for s_q, k_q in zip(s[:m].tolist(), k):
        bracket += s_q ** 2 / (1j * k_q)
    k = np.array(k)
    cols = np.asarray(ls) - 1
    amp = np.outer(s[np.asarray(ns) - 1], s[cols]) / (1j * k[cols] * bracket)
    return rho_bar, k, amp


def scattering_amplitude(geometry: WireGeometry, impurity: Impurity,
                         n: int, l: int, omega: float,
                         m: int | None = None) -> complex:
    """Amplitude A_nl of the scattered wave in outgoing mode l for incidence
    in mode n at energy omega (see module docstring for the formula).

    Finite for every eps, including nodes of the resonant mode where the
    numerator vanishes together with the divergent bracket term.
    """
    _require_hard_wall(geometry)
    if m is None:
        m = nearest_threshold_index(omega)
    return complex(_amplitude_table(impurity, omega, m, [n], [l])[2][0, 0])


def solve_scattering(geometry: WireGeometry, impurity: Impurity,
                     n: int, omega: float, m: int | None = None,
                     l_max: int | None = None) -> ScatteringSolution:
    """Assemble the amplitude table A_nl for l = 1..l_max plus diagnostics.

    l_max defaults to m + 20 and must be >= 1.  The flux unitarity defect
    |1 - sum_l (k_l/k_n)(|delta - A|^2 + |A|^2)| runs over every propagating
    l, whatever l_max is, and is reported, never silently normalized away.
    """
    _require_hard_wall(geometry)
    if m is None:
        m = nearest_threshold_index(omega)
    if l_max is None:
        l_max = m + 20
    if l_max < 1:
        raise DomainError(f"mode truncation l_max must be >= 1, got {l_max}")
    p = propagating_count(omega)
    rho_bar, k, amp = _amplitude_table(impurity, omega, m, [n], range(1, max(l_max, p) + 1))
    row, k_p = amp[0], k[:p].real
    t = (np.arange(1, p + 1) == n) - row[:p]
    flux = np.sum(k_p / k_p[n - 1] * (np.abs(t) ** 2 + np.abs(row[:p]) ** 2))
    try:
        d_inv_sqrt = _resonance_inv_sqrt(impurity, m, rho_bar)
    except DecoupledModeError:
        d_inv_sqrt = None
    return ScatteringSolution(
        incident_mode=n,
        energy=omega,
        threshold_index=m,
        amplitudes=dict(enumerate(row[:l_max].tolist(), start=1)),
        rho_bar=rho_bar,
        resonance_inv_sqrt=d_inv_sqrt,
        unitarity_defect=float(abs(1.0 - flux)),
    )


def _finite_positions(xs, ys):
    """xs and ys as float arrays; DomainError naming the axis that holds a
    non-finite position."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    for name, values in (("x", xs), ("y", ys)):
        if not np.all(np.isfinite(values)):
            raise DomainError(f"field positions {name} must be finite")
    return xs, ys


def scattered_field(geometry: WireGeometry, impurity: Impurity,
                    n: int, omega: float, r, m: int | None = None,
                    l_max: int | None = None) -> complex:
    """Total wavefunction at r = (x, y): incident mode n plus the impurity
    wave, evanescent content included up to the mode truncation l_max."""
    x, y = r
    grid = scattered_field_grid(geometry, impurity, n, omega,
                                np.array([x]), np.array([y]), m=m, l_max=l_max)
    return complex(grid[0, 0])


def scattered_field_grid(geometry: WireGeometry, impurity: Impurity,
                         n: int, omega: float, xs, ys,
                         m: int | None = None,
                         l_max: int | None = None) -> np.ndarray:
    """Vectorized field on the tensor grid ys x xs; returns psi[iy, ix].

    The x > 0 side carries (delta_nl - A_nl) e^{i k_l x}; the x <= 0 side is
    the incident wave plus -A_nl e^{i k_l |x|}.  The evanescent truncation
    l_max defaults to m + 40 plus however many modes still reach the nearest
    sampled |x| above the 1e-12 level (hard cap 400: directly at the
    impurity cross-section the evanescent series converges only like the
    log-singular Green's function it resums).  An empty xs or ys gives an
    empty grid.  Raises DomainError on a non-finite position.
    """
    xs, ys = _finite_positions(xs, ys)
    _require_hard_wall(geometry)
    if m is None:
        m = nearest_threshold_index(omega)
    if l_max is None:
        dx_min = float(np.min(np.abs(xs), initial=math.inf))
        l_max = m + 40
        while l_max < 400 and math.pi * l_max * dx_min < 27.6:
            l_max += 20
    if l_max < 1:
        raise DomainError(f"mode truncation l_max must be >= 1, got {l_max}")
    _, k, amp = _amplitude_table(impurity, omega, m, [n], range(1, l_max + 1))
    amps, ks, k_n = amp[0], k[:l_max], k[n - 1]

    out = np.empty((len(ys), len(xs)), dtype=complex)
    pos = xs >= 0.0
    if np.any(pos):
        out[:, pos] = kernels.field_grid(xs[pos], ys, -amps, ks)
        out[:, pos] += np.outer(np.sin(n * np.pi * ys), np.exp(1j * k_n * xs[pos]))
    if np.any(~pos):
        out[:, ~pos] = kernels.field_grid(np.abs(xs[~pos]), ys, -amps, ks)
        out[:, ~pos] += np.outer(np.sin(n * np.pi * ys), np.exp(1j * k_n * xs[~pos]))
    return out


def resonance_parameter(geometry: WireGeometry, impurity: Impurity,
                        m: int, omega: float | None = None) -> complex:
    """Inverse square root of the complex resonance scale Delta_m that
    carries all impurity dependence of the near-cut-off pattern:

        Delta_m^(-1/2) = ln(rho0/rho_bar) / (2 pi sin^2(m pi eps))
                         - i sum_{q<m} sin^2(q pi eps)/sin^2(m pi eps)
                           / (pi sqrt(m^2 - q^2)).

    Stored and returned as the inverse square root; squaring and re-rooting
    would pick an arbitrary branch.  omega defaults to the cut-off (m pi)^2.
    """
    _require_hard_wall(geometry)
    if m < 1:
        raise DomainError(f"cut-off index must be >= 1, got {m}")
    if omega is None:
        omega = threshold_energy(m)
    rho_bar = regularized_scale_tail_subtraction(impurity.epsilon, omega, m)
    return _resonance_inv_sqrt(impurity, m, rho_bar)


def _resonance_inv_sqrt(impurity: Impurity, m: int, rho_bar: float) -> complex:
    """Delta_m^(-1/2) of :func:`resonance_parameter` from a rho_bar already
    evaluated; DecoupledModeError on a node of mode m."""
    eps = impurity.epsilon
    s_m = math.sin(m * math.pi * eps)
    if abs(s_m) <= 1e-8:
        raise DecoupledModeError(
            f"impurity sits on a node of mode {m} (sin(m pi eps) = {s_m:.1e}); "
            "the reduced near-threshold forms are 0/0 - use the full amplitudes"
        )
    value = complex(math.log(impurity.rho0 / rho_bar) / (2.0 * math.pi * s_m**2), 0.0)
    for q in range(1, m):
        value -= 1j * (math.sin(q * math.pi * eps) ** 2 / s_m**2
                       / (math.pi * math.sqrt(m * m - q * q)))
    return value


def near_threshold_field(geometry: WireGeometry, impurity: Impurity,
                         n: int, m: int, omega: float, r) -> complex:
    """Two-mode approximation of the field near the m-th cut-off:

        psi ~= psi_inc - [sin(n pi eps)/sin(m pi eps)]
               sin(m pi y) e^{i k_m |x|} / (1 + i k_m Delta_m^(-1/2)).

    Valid while |omega - (m pi)^2| |Delta_m^(-1)| << 1; outside that region
    the value is still computed but a ValidityWarning is emitted.  Below the
    cut-off k_m is the decaying imaginary branch, so the resonant term is a
    real evanescent dressing of the incident wave.  Raises DomainError on a
    non-finite position.
    """
    _require_hard_wall(geometry)
    x, y = r
    _finite_positions(x, y)
    eps = impurity.epsilon
    d_inv_sqrt = resonance_parameter(geometry, impurity, m, omega)
    k_m = longitudinal_wavenumber(m, omega).value
    ratio_sq = abs(k_m * d_inv_sqrt) ** 2
    if ratio_sq > 0.25:
        warnings.warn(
            f"|omega - (m pi)^2|/|Delta_m| = {ratio_sq:.3g} is not << 1; "
            "two-mode reduction evaluated outside its validity region",
            ValidityWarning,
            stacklevel=2,
        )
    k_n = longitudinal_wavenumber(n, omega).value
    inc = math.sin(n * math.pi * y) * np.exp(1j * k_n * x)
    ratio = math.sin(n * math.pi * eps) / math.sin(m * math.pi * eps)
    res = ratio * math.sin(m * math.pi * y) * np.exp(1j * k_m * abs(x)) \
        / (1.0 + 1j * k_m * d_inv_sqrt)
    return complex(inc - res)


def threshold_field(geometry: WireGeometry, impurity: Impurity,
                    n: int, m: int, r) -> complex:
    """Field exactly at the m-th cut-off energy at r = (x, y); the 1 x 1 case
    of :func:`threshold_field_grid`, which has the formulas."""
    x, y = r
    grid = threshold_field_grid(geometry, impurity, n, m, np.array([x]), np.array([y]))
    return complex(grid[0, 0])


def threshold_field_grid(geometry: WireGeometry, impurity: Impurity,
                         n: int, m: int, xs, ys) -> np.ndarray:
    """Field exactly at the m-th cut-off energy on the tensor grid ys x xs;
    returns psi[iy, ix].  Hard wall:

        psi = sin(n pi y) e^{i pi sqrt(m^2-n^2) x}
              - [sin(n pi eps)/sin(m pi eps)] sin(m pi y).

    General uniform cross-section (orthonormal transverse modes chi):

        psi = chi_n(y) e^{i sqrt(w_m - w_n) x} - [chi_n(eps)/chi_m(eps)] chi_m(y).

    The grid is one transverse factor per row times one plane wave per
    column, minus one resonant term per row.  The result carries no
    dependence on the impurity strength: only eps is read.  If the impurity
    sits on a node of mode m the wire is transparent at this order; the
    incident wave is returned and one DecoupledModeWarning is emitted for the
    whole grid.  Raises DomainError on a non-finite position.
    """
    xs, ys = _finite_positions(xs, ys)
    eps = impurity.epsilon
    if geometry.kind == HARD_WALL:
        if n >= m:
            raise DomainError(
                f"incidence must be in a propagating mode below the cut-off: n={n} >= m={m}"
            )
        # same evaluation path as the generic wavenumber so that the
        # near-threshold form at k_m = 0 matches this one bit for bit; for
        # the same reason the rows take the scalar math.sin that form uses
        k_inc = longitudinal_wavenumber(n, threshold_energy(m)).value.real
        rows = ys.tolist()
        chi_n_y = np.array([math.sin(n * math.pi * y) for y in rows])
        chi_m_y = np.array([math.sin(m * math.pi * y) for y in rows])
        chi_n_eps = math.sin(n * math.pi * eps)
        chi_m_eps = math.sin(m * math.pi * eps)
    else:
        mode_n = geometry.mode(n)
        mode_m = geometry.mode(m)
        if mode_m.threshold <= mode_n.threshold:
            raise DomainError("resonant mode must lie above the incident mode")
        k_inc = math.sqrt(mode_m.threshold - mode_n.threshold)
        chi_n_y = mode_n.profile(ys)
        chi_m_y = mode_m.profile(ys)
        chi_n_eps = mode_n.profile(eps)
        chi_m_eps = mode_m.profile(eps)
    psi = np.outer(chi_n_y, np.exp(1j * k_inc * xs))
    if abs(chi_m_eps) <= 1e-8:
        warnings.warn(
            "impurity decoupled from the resonant mode; no scattering at cut-off",
            DecoupledModeWarning,
            stacklevel=2,
        )
        return psi
    psi -= (chi_n_eps / chi_m_eps * chi_m_y)[:, None]
    return psi


# ---------------------------------------------------------------------------
# surface (wall) impurities
# ---------------------------------------------------------------------------

def surface_constant() -> float:
    """The wall-impurity constant C = 4 exp(gamma/2 - Ci(pi)) ~= 4.96."""
    return 4.0 * math.exp(EULER_GAMMA / 2.0 - cosine_integral(math.pi))


def surface_resonance_parameter(impurity: Impurity, m: int) -> complex:
    """Wall-impurity reduction of the resonance parameter,

        Delta_m^(-1/2) ~= ln(rho0 / (C eps)) / (2 pi (m pi eps)^2),

    for eps << 1/m (lower wall) with eps -> 1 - eps on the upper wall.
    """
    if m < 1:
        raise DomainError(f"cut-off index must be >= 1, got {m}")
    eps = impurity.epsilon
    eff = min(eps, 1.0 - eps)
    if m * eff >= 0.05:
        raise DomainError(
            f"surface formula needs m*eps < 0.05 near a wall, got m*eps = {m * eff:.3g}"
        )
    value = math.log(impurity.rho0 / (surface_constant() * eff)) \
        / (2.0 * math.pi * (m * math.pi * eff) ** 2)
    return complex(value, 0.0)


def surface_threshold_field(n: int, m: int, side: str, r) -> complex:
    """Cut-off field for a wall impurity: independent of both strength and
    position,

        psi = sin(n pi y) e^{i pi sqrt(m^2-n^2) x} -/+ (n/m) sin(m pi y),

    minus for the lower wall, plus for the upper."""
    if side not in ("lower", "upper"):
        raise DomainError(f"side must be 'lower' or 'upper', got {side!r}")
    if not 1 <= n < m:
        raise DomainError(
            f"incidence must propagate below the cut-off: need 1 <= n < m, got n={n}, m={m}"
        )
    x, y = r
    inc = math.sin(n * math.pi * y) * np.exp(1j * math.pi * math.sqrt(m * m - n * n) * x)
    sign = -1.0 if side == "lower" else 1.0
    return complex(inc + sign * (n / m) * math.sin(m * math.pi * y))


# ---------------------------------------------------------------------------
# 1D reference barriers
# ---------------------------------------------------------------------------

def reflection_1d(barrier: OneDBarrier, omega: float) -> float:
    """Reflection probability of the 1D reference barriers:

        weak finite barrier:  R ~= 1 / (1 + 4 omega / (delta_v * width)^2)
        delta barrier:        R  = 1 / (1 + 4 omega / alpha^2)

    Both tend to total reflection as omega -> 0 regardless of the barrier
    parameter - the 1D version of strength-independent scattering.
    """
    if not math.isfinite(omega):
        raise DomainError(f"energy must be finite, got {omega}")
    if omega < 0:
        raise DomainError(f"energy must be non-negative, got {omega}")
    if barrier.kind == "delta":
        strength = barrier.alpha
    else:
        strength = barrier.delta_v * barrier.width
    return 1.0 / (1.0 + 4.0 * omega / strength**2)


# ---------------------------------------------------------------------------
# threshold limit through the full pipeline
# ---------------------------------------------------------------------------

def threshold_amplitude_limit(geometry: WireGeometry, impurity: Impurity,
                              n: int, m: int, l: int | None = None,
                              k_start: float = 0.08, levels: int = 8) -> complex:
    """lim_{omega -> (m pi)^2+} A_nl computed through the full amplitude
    pipeline on a geometric ladder in k_m = sqrt(omega - (m pi)^2), with
    polynomial (Neville) extrapolation in k_m.

    A_nl is analytic in k_m near the cut-off, so the ladder converges at
    machine precision; for l = m the limit is sin(n pi eps)/sin(m pi eps)
    independent of rho0, for every other mode it is 0.
    """
    if l is None:
        l = m
    base = threshold_energy(m)
    ks = k_start * 0.5 ** np.arange(levels)
    vals = [
        scattering_amplitude(geometry, impurity, n, l, base + k * k, m=m)
        for k in ks
    ]
    diag = neville_diagonal(ks, vals)
    return diag[-1]
