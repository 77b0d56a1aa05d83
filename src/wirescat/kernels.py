"""Numeric kernels: evanescent mode sums and field-grid evaluation, in numpy.

``tail_sum`` is the exact head of the production rho_bar route
(``scatter.regularized_scale_tail_subtraction``); ``cut_sum`` feeds only the
Neville-ladder cross-check ``scatter.regularized_scale``; ``field_grid``
synthesizes the fields of ``scatter.scattered_field_grid``.  They live in one
module so that the per-layer benchmark (``perfbench/spans.py``) can time
them as one layer under these names.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1 << 19  # bound temporary-array size


def cut_sum(eps, omega, m, rho, n_max):
    """sum_{n=m+1}^{n_max} sin^2(n pi eps)/sqrt((n pi)^2 - omega) * exp(-(n pi rho/2)^2)."""
    total = 0.0
    for lo in range(m + 1, n_max + 1, _CHUNK):
        n = np.arange(lo, min(lo + _CHUNK, n_max + 1), dtype=np.float64)
        npi = n * np.pi
        total += np.sum(
            np.sin(npi * eps) ** 2 / np.sqrt(npi * npi - omega)
            * np.exp(-(npi * rho / 2.0) ** 2)
        )
    return total


def tail_sum(eps, omega, m, n_max):
    """sum_{n=m+1}^{n_max} sin^2(n pi eps) * [1/sqrt((n pi)^2 - omega) - 1/(n pi)].

    The bracket is evaluated in the cancellation-free form
    omega / (sqrt(A - omega) sqrt(A) (sqrt(A) + sqrt(A - omega))), A = (n pi)^2.
    """
    total = 0.0
    for lo in range(m + 1, n_max + 1, _CHUNK):
        n = np.arange(lo, min(lo + _CHUNK, n_max + 1), dtype=np.float64)
        npi = n * np.pi
        root = np.sqrt(npi * npi - omega)
        total += np.sum(np.sin(npi * eps) ** 2 * omega / (root * npi * (npi + root)))
    return total


def field_grid(xs, ys, coefs, kxs):
    """psi[iy, ix] = sum_l coefs[l] sin((l+1) pi y) exp(i kxs[l] xs[ix]).

    xs are the (already folded, e.g. |x|) longitudinal offsets; kxs may be
    complex (evanescent modes decay through exp(i k x) with Im k > 0).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    coefs = np.asarray(coefs, dtype=np.complex128)
    kxs = np.asarray(kxs, dtype=np.complex128)
    ls = np.arange(1, len(coefs) + 1)
    siny = np.sin(np.outer(ys, ls) * np.pi)            # (ny, L)
    phase = np.exp(1j * np.outer(kxs, xs))             # (L, nx)
    return siny @ (coefs[:, None] * phase)             # (ny, nx)


def backend():
    """Name of the kernel backend; always 'numpy'."""
    return "numpy"
