"""The regularized on-site scale rho_bar(eps, omega, m) of a point impurity.

ln(rho_bar) = lim_{rho->0} [ln rho + S(rho)] absorbs the logarithmic
short-distance singularity of the wire Green's function, with S the
Gaussian-damped evanescent mode sum over the modes above the cut-off index
m (see :mod:`wirescat.scatter` for where it enters the amplitudes).
:func:`regularized_scales` is the production route, in closed form and
batched over energies; :func:`regularized_scale_tail_subtraction` is its
one-energy call, and :func:`regularized_scale` evaluates the defining limit
on a width ladder as the independent cross-check.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .errors import ConvergenceError, DomainError
from .numerics import neville_zero
from .specfun import (
    _TERM_BUDGET,
    EULER_GAMMA,
    _index,
    evanescent_gaussian_sum,
    threshold_energy,
)
from .wire import propagating_count

__all__ = [
    "regularized_scale",
    "regularized_scale_tail_subtraction",
    "regularized_scales",
]


def _validate_window(omega: float, m: int) -> None:
    if not math.isfinite(omega):
        raise DomainError(f"energy must be finite, got {omega}")
    m = _index(m, "cut-off index")
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


_LADDER_LEVELS = 14  # deepest rung k of the cross-check ladder rho_k = start 2^-k

#: B_2i / (2i)! for i = 1..5, the Euler-Maclaurin coefficients.
_EM_COEFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0, 1.0 / 47900160.0)

#: Orders j = 1..63 of the smooth tail's series in omega.
_ORDERS = range(1, 64)


def _em_table() -> np.ndarray:
    """B_2i/(2i)! (s)_{2i-1}, row i - 1 for i = 1..5, column j - 1 for the
    orders j (s = 2j + 1), built on Python floats as the series defines it."""
    table = []
    for j in _ORDERS:
        s = 2 * j + 1
        rising, row = float(s), []
        for i, c in enumerate(_EM_COEFS, start=1):
            row.append(c * rising)
            rising *= (s + 2 * i - 1) * (s + 2 * i)
        table.append(row)
    return np.array(table).T


_EM_TABLE = _em_table()
_ODD = np.array([2.0 * j - 1.0 for j in _ORDERS])   # 2j - 1
_EVEN = np.array([2.0 * j for j in _ORDERS])        # 2j = s - 1
_INV_EVEN = np.array([1.0 / (2 * j) for j in _ORDERS])

#: Most summation-by-parts terms the oscillating tail may take.
_SBP_TERMS = 8
_SBP_OFFSETS = np.array([[float(k)] for k in range(_SBP_TERMS)])  # column of k


def regularized_scale(eps: float, omega: float, m: int, *,
                      ladder_start: float = 1e-2,
                      stability: float = 1e-9) -> float:
    """The regularized length scale rho_bar(eps, omega, m) from its defining
    limit; the library computes rho_bar with
    :func:`regularized_scale_tail_subtraction` and keeps this route as the
    independent cross-check:

        ln(rho_bar) = lim_{rho->0} [ ln rho + S(rho) ],
        S(rho) = 2 pi sum_{n>m} sin^2(n pi eps)/sqrt((n pi)^2 - omega)
                 e^{-(n pi rho/2)^2}.

    The limit is evaluated on the geometric ladder rho_k = ladder_start 2^-k,
    k <= 14, with Neville extrapolation in rho^2, stopping once two successive
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
    for k in range(_LADDER_LEVELS + 1):
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
    every amplitude, transport matrix and resonance parameter.  This is the
    one-energy call of :func:`regularized_scales`, which has the formulas.
    """
    return float(regularized_scales(eps, [omega], [m])[0])


def regularized_scales(eps: float, omegas, ms) -> np.ndarray:
    """rho_bar(eps, omegas[i], ms[i]) in closed form for every energy at one
    impurity position, in one pass.

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
    an oscillating tail, closed by summation by parts.  The heads of energies
    that share (m, N0) are summed together by ``kernels.tail_sum``, and both
    tails are (energies x order) arrays that stop each energy at its own
    order, so no value depends on the other energies of the batch: each
    equals the one-energy call bit for bit.  Raises DomainError for a
    position outside (0, 1) or an energy outside the window of its cut-off,
    and ConvergenceError when N0 exceeds the term budget (an impurity within
    ~2e-6 of a wall); the first energy at fault is reported.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError(f"impurity position must satisfy 0 < eps < 1, got {eps}")
    n0s = []
    for omega, m in zip(omegas, ms, strict=True):
        _validate_window(omega, m)
        n0s.append(_head_terms(eps, omega, m))
    return _scales(eps, omegas, ms, n0s)


def _head_terms(eps: float, omega: float, m: int) -> int:
    """N0 of :func:`regularized_scales`; ConvergenceError above the term
    budget."""
    edge = min(eps, 1.0 - eps)
    n0 = max(512, math.ceil(64.0 / edge), math.ceil(8.0 * math.sqrt(abs(omega)) / math.pi), m)
    if n0 > _TERM_BUDGET:
        raise ConvergenceError(
            f"tail subtraction needs {n0} exact terms at eps={eps}, omega={omega}, "
            f"above the {_TERM_BUDGET:.0e}-term budget"
        )
    return n0


def _scales(eps: float, omegas, ms, n0s) -> np.ndarray:
    """rho_bar of :func:`regularized_scales` for energies already checked,
    with their N0 from :func:`_head_terms`."""
    # sin^2(n pi eps) and cos(2 n pi eps) are symmetric under eps -> 1 - eps,
    # and 1 - eps is exact: the distance to the nearer wall keeps full
    # relative precision in sin(pi eps) for impurities at either wall
    edge = min(eps, 1.0 - eps)
    omegas = np.asarray(omegas, dtype=np.float64)
    ms = [int(m) for m in ms]
    heads = np.empty(len(omegas))
    groups = {}
    for i, key in enumerate(zip(ms, n0s)):
        groups.setdefault(key, []).append(i)
    for (m, n0), idx in groups.items():
        heads[idx] = kernels.tail_sum(edge, omegas[idx], m, n0)
    first = np.asarray(n0s) + 1.0  # N = N0 + 1, the first term of both tails
    smooth = _smooth_tails(omegas, first).tolist()
    oscillating = _oscillating_tails(edge, omegas, first).tolist()
    fixed = {}  # m -> the terms of ln(rho_bar) before the mode sum, summed in order
    for m in set(ms):
        harmonic = sum(1.0 / q for q in range(1, m + 1))
        cos_part = sum(math.cos(2.0 * q * math.pi * eps) / q for q in range(1, m + 1))
        fixed[m] = (
            math.log(2.0 / math.pi)
            + EULER_GAMMA / 2.0
            - harmonic
            + math.log(2.0 * math.sin(math.pi * edge))
            + cos_part
        )
    # on Python floats; math.exp, as numpy's vector exp may round differently
    return np.array([
        math.exp(fixed[m] + 2.0 * math.pi * (head + (0.5 * s - 0.5 * o)))
        for m, head, s, o in zip(ms, heads.tolist(), smooth, oscillating)
    ])


def _smooth_tails(omegas: np.ndarray, first: np.ndarray) -> np.ndarray:
    """sum_{n>=N} g(n), g(n) = 1/sqrt((n pi)^2 - omega) - 1/(n pi), for each
    energy omega and its first term N.

    Expanding g in omega gives (1/pi) sum_{j>=1} a_j (omega/pi^2)^j
    zeta(2j+1, N), a_j = C(2j, j)/4^j.  Each Hurwitz tail comes from
    Euler-Maclaurin in the scaled form
    a^s zeta(s, a) = a/(s-1) + 1/2 + sum_i B_2i/(2i)! (s)_{2i-1} a^{1-2i},
    a = N, whose first omitted term is negligible for a > 512.  With
    |omega| <= (N0 pi / 8)^2 the terms shrink at least 64-fold per order.
    They are summed in order of j over all 63 orders.  That gives the bits
    of a sum that stops after its first term below 1e-17 of the running
    total: that term and every later one lie below half an ulp of the
    total, which they therefore leave unchanged.
    """
    a = first
    # (pi a)^2 on Python floats: float ** 2 is C pow, which need not round
    # as numpy's square does
    x = omegas / np.array([(math.pi * v) ** 2 for v in a.tolist()])
    coef = np.cumprod(x[:, None] * _ODD / _EVEN, axis=1)  # a_j x^j
    inv_a2 = (1.0 / (a * a))[:, None]
    scaled = _INV_EVEN + (0.5 / a)[:, None]  # a^(s-1) zeta(s, a)
    power = inv_a2  # a^{-2i}
    for em_term in _EM_TABLE:
        scaled = scaled + em_term * power
        power = power * inv_a2
    return (coef * scaled).cumsum(axis=1)[:, -1] / math.pi


def _oscillating_tails(eps: float, omegas: np.ndarray, first: np.ndarray) -> np.ndarray:
    """sum_{n>=N} cos(2 n pi eps) g(n) for each energy omega and its first
    term N, by repeated summation by parts,

        sum_{n>=N} z^n g(n) = sum_{k>=0} z^(N+k) Delta^k g(N) / (1-z)^(k+1),

    with z = e^{2 pi i eps} and forward differences Delta.  The series is
    asymptotic: true terms fall by ~N |1-z| / (k+3) >= 25 per order, while
    the roundoff in Delta^k g grows like |1-z|^-k.  Near a wall a fixed
    length would let that roundoff through, so each sum stops before its
    first term that does not shrink.
    """
    # one column per energy, one row per order k
    n = (first + _SBP_OFFSETS) * np.pi
    root = np.sqrt(n * n - omegas)
    delta = omegas / (root * n * (n + root))  # g(n), cancellation-free
    for k in range(1, _SBP_TERMS):  # then delta[k] = Delta^k g(N)
        np.subtract(delta[k:], delta[k - 1:-1], out=delta[k:])
    # 1 - z = -2i sin(pi eps) e^{i pi eps} has no cancellation near a wall, so
    # z / (1 - z) = i e^{i pi eps} / (2 sin(pi eps)) and
    # z^N / (1 - z) = i e^{i pi (2 N eps - eps)} / (2 sin(pi eps)); the
    # coefficients z^(N+k) / (1-z)^(k+1) depend on N alone and are built on
    # Python complexes, one product per order, for each distinct N
    half = 0.5 / math.sin(math.pi * eps)
    ratio = complex(-math.sin(math.pi * eps), math.cos(math.pi * eps)) * half
    columns = {}
    for big_n in first.tolist():
        columns.setdefault(big_n, len(columns))
    leads = np.empty((_SBP_TERMS, len(columns)), dtype=complex)
    for big_n, col in columns.items():
        phase = math.pi * (2.0 * (big_n * eps % 1.0) - eps)
        lead = complex(-math.sin(phase), math.cos(phase)) * half
        for k in range(_SBP_TERMS):
            leads[k, col] = lead
            lead *= ratio
    leads = leads[:, [columns[big_n] for big_n in first.tolist()]]
    # the terms lead * Delta^k g as two real parts; hypot is libm's, as in
    # abs() of a Python complex
    re = leads.real * delta
    size = np.hypot(re, leads.imag * delta)
    # a term after the stop is multiplied by 0 and leaves the sum unchanged
    re[1:] *= (size[1:] < size[:-1]).cumprod(axis=0)
    return re.cumsum(axis=0)[-1]
