"""Clean hard-wall wire: the energy bound and the open-channel count.

The wire occupies 0 < y < 1 (lengths normalized to the width) and extends to
x = +-infinity.  Its transverse modes are chi_n(y) = sin(n pi y) with
cut-offs (n pi)^2.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .specfun import _MAX_CUTOFF, threshold_energy

#: From (2^52 pi)^2 up, floats no longer tell neighbouring cut-offs apart.
_MAX_ENERGY = threshold_energy(_MAX_CUTOFF)


def _check_countable(omega: float) -> None:
    """DomainError for an energy that is not finite, or from ``_MAX_ENERGY``
    up, where no mode count can be resolved."""
    if not math.isfinite(omega):
        raise DomainError(f"energy must be finite, got {omega}")
    if omega >= _MAX_ENERGY:
        raise DomainError(f"energy {omega} is at or above {_MAX_ENERGY:.3g}, where "
                          "neighbouring cut-offs round together")


def propagating_count(omega: float) -> int:
    """Number of hard-wall modes with cut-off strictly below omega."""
    _check_countable(omega)
    if omega <= math.pi**2:
        return 0
    p = int(math.floor(math.sqrt(omega) / math.pi))
    while p >= 1 and threshold_energy(p) >= omega:
        p -= 1
    while threshold_energy(p + 1) < omega:
        p += 1
    return p
