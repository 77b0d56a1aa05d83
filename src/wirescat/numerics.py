"""Small shared numerical helpers (polynomial extrapolation to zero)."""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def _check_ladder(x):
    x = np.asarray(x, dtype=float)
    if len(x) < 2:
        raise DomainError("need at least two ladder points to extrapolate")
    if np.any(x <= 0) or np.any(np.diff(x) >= 0):
        raise DomainError("ladder abscissae must be positive and strictly decreasing")
    return x


def neville_diagonal(x, y):
    """All Neville extrapolants of y(x) to x = 0, by increasing order.

    Element k uses the first k+1 ladder points; the gap between successive
    elements is the usual self-estimate of the remaining extrapolation error.
    y is real or complex with the ladder on axis 0: a sequence of scalars,
    or an array of shape (len(x), ...) whose trailing entries are
    extrapolated independently, each element of the result then being an
    array of that trailing shape.  Every entry takes the scalar tableau's
    arithmetic, so it gets the bits of a one-series call.
    """
    x = _check_ladder(x)
    col = np.asarray(y)
    if len(col) != len(x):
        raise DomainError(f"need one value per ladder point, got {len(col)} for {len(x)}")
    x = x.reshape((-1,) + (1,) * (col.ndim - 1))  # broadcast along the trailing axes
    diag = [col[0]]
    # column `order` of the tableau, from the previous column
    for order in range(1, len(col)):
        col = (x[:-order] * col[1:] - x[order:] * col[:-1]) / (x[:-order] - x[order:])
        diag.append(col[0])
    return diag


def neville_zero(x, y):
    """Extrapolate samples y(x) to x = 0 by Neville's algorithm.

    x must be strictly decreasing positive abscissae (a geometric ladder in
    practice).  Returns ``(limit, stability)``; ``stability`` is the absolute
    difference between the last two extrapolation orders.
    """
    diag = neville_diagonal(x, y)
    return diag[-1], abs(diag[-1] - diag[-2])
