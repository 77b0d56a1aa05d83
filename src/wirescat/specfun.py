"""Special functions and numeric primitives for the waveguide problem.

Everything here is a pure function of its arguments; no shared state.
Energies are measured in units of 1/width^2 with hbar = 2m = 1, so the
transverse cut-offs of a hard-wall wire of unit width sit at (l pi)^2.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .errors import DomainError

#: Euler-Mascheroni constant, gamma = lim (H_n - ln n).
EULER_GAMMA = 0.5772156649015329

_SERIES_CUTOFF = 4.0
_CF_MAXIT = 300

#: Most modes either rho_bar route may sum in one call: the ladder's deepest
#: rung and the tail-subtraction head both stop here.
_TERM_BUDGET = 3e7

#: Largest cut-off index m whose whole window fits the exact rho_bar head,
#: N0 >= 8 sqrt(omega)/pi, which nears 8 (m + 1) at the top of the window.
_MAX_INDEX = int(_TERM_BUDGET) // 8 - 1

#: From the cut-off of mode 2^52 up, floats no longer tell neighbouring
#: cut-offs apart.
_MAX_CUTOFF = 2**52


def _index(value, name: str = "mode index", lo: int = 1, hi: int = _MAX_INDEX) -> int:
    """int(value) for an integer value in lo..hi, else DomainError naming
    ``name`` and the value.  NaN and +-inf fail the range test.  Every mode
    index, cut-off index, truncation and mode count of the library passes
    here before it indexes, builds a range or allocates."""
    if not (lo <= value <= hi and value == int(value)):
        raise DomainError(f"{name} must be an integer in {lo}..{hi}, got {value}")
    return int(value)


def cosine_integral(x: float) -> float:
    """Cosine integral Ci(x) = gamma + ln x + int_0^x (cos t - 1)/t dt.

    For x <= 4 the defining power series is summed directly:

        Ci(x) = gamma + ln x + sum_{k>=1} (-1)^k x^(2k) / (2k (2k)!)

    Above that the series cancels catastrophically, so Ci is taken from the
    exponential integral of imaginary argument, Ci(x) = -Re E1(ix), with
    E1 evaluated by a modified-Lentz continued fraction.  Relative accuracy
    is ~1e-13 over (0, 100] away from the zeros of Ci.
    """
    x = float(x)
    if not 0.0 < x < math.inf:
        raise DomainError(f"cosine_integral requires finite x > 0, got x={x}")
    if x <= _SERIES_CUTOFF:
        total = 0.0
        term = 1.0
        x2 = x * x
        for k in range(1, 64):
            term *= -x2 / ((2 * k) * (2 * k - 1))  # (-1)^k x^(2k)/(2k)!
            contrib = term / (2 * k)
            total += contrib
            if abs(contrib) < 1e-18 * max(1.0, abs(total)):
                break
        return EULER_GAMMA + math.log(x) + total
    return -(_exp1(1j * x).real)


def _exp1(z: complex) -> complex:
    """E1(z) for Re z >= 0, |z| >~ 1, by the even continued fraction

        E1(z) = e^{-z} / (z + 1 - 1^2/(z + 3 - 2^2/(z + 5 - ...)))

    evaluated with the modified Lentz algorithm.
    """
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAXIT):
        a = -float(i * i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * np.exp(-z)


def longitudinal_wavenumber(l: int, omega: float) -> complex:
    """Longitudinal wavenumber k_l = sqrt(omega - (l pi)^2) of hard-wall mode
    l at energy omega, on the outgoing/decaying branch: real positive above
    the cut-off, i sqrt((l pi)^2 - omega) below it, so that exp(i k |x|)
    decays; exactly one component is nonzero unless omega sits on the
    cut-off."""
    l = _index(l)
    if not math.isfinite(omega):
        raise DomainError(f"energy must be finite, got {omega}")
    gap = omega - (l * math.pi) ** 2
    if gap >= 0.0:
        return complex(math.sqrt(gap), 0.0)
    return complex(0.0, math.sqrt(-gap))


def threshold_energy(m: int) -> float:
    """Cut-off energy of transverse mode m in a hard-wall wire: (m pi)^2."""
    return (_index(m, hi=_MAX_CUTOFF) * math.pi) ** 2


def evanescent_gaussian_sum(eps: float, omega: float, m: int, rho: float) -> float:
    """Gaussian-damped sum over the evanescent modes above the m-th cut-off:

        S(rho) = 2 pi sum_{n=m+1}^inf sin^2(n pi eps)/sqrt((n pi)^2 - omega)
                 * exp(-(n pi rho / 2)^2)

    The sum is truncated where the Gaussian factor drops below 1e-18, which
    leaves a remainder far below 1e-12 of the total.  S diverges like -ln rho
    as rho -> 0; the finite combination ln rho + S(rho) is what the
    regularized-scale limit consumes.
    """
    for name, value in (("eps", eps), ("omega", omega), ("rho", rho)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if rho <= 0.0:
        raise DomainError(f"gaussian width must be positive, got {rho}")
    m = _index(m, "cut-off index")
    if omega >= threshold_energy(m + 1):
        raise DomainError(
            f"omega={omega} is above the (m+1)-th cut-off; summed modes must all "
            "be evanescent"
        )
    # exp(-(n pi rho/2)^2) < 1e-18 once n > 2*sqrt(41.5)/(pi rho)
    n_max = max(m + 8, int(4.11 / rho) + m + 8)
    return 2.0 * math.pi * kernels.cut_sum(float(eps), float(omega), m, float(rho), n_max)
