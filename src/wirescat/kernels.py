"""Hot numeric kernels: evanescent mode sums and field-grid evaluation.

``tail_sum`` is the exact head of the production rho_bar route
(``scatter.regularized_scale_tail_subtraction``); ``cut_sum`` feeds only the
Neville-ladder cross-check ``scatter.regularized_scale``.

Each kernel exists in a pure-numpy version and, when numba is importable, a
compiled ``@njit`` version.  The compiled path is used by default; set the
environment variable ``WIRESCAT_NO_NUMBA=1`` (before import) to force the
numpy fallbacks.  ``backend()`` reports which path is active.
"""

from __future__ import annotations

import os

import numpy as np

_FORCE_NUMPY = os.environ.get("WIRESCAT_NO_NUMBA", "").strip() not in ("", "0")

_CHUNK = 1 << 19  # bound temporary-array size in the numpy paths


# ---------------------------------------------------------------------------
# numpy implementations
# ---------------------------------------------------------------------------

def cut_sum_numpy(eps, omega, m, rho, n_max):
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


def tail_sum_numpy(eps, omega, m, n_max):
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


def field_grid_numpy(xs, ys, coefs, kxs):
    """psi[iy, ix] = sum_l coefs[l] sin((l+1) pi y) exp(i kxs[l] xs[ix]).

    xs are the (already folded, e.g. |x|) longitudinal offsets; kxs may be
    complex (evanescent modes decay through exp(i k x) with Im k > 0).
    """
    ls = np.arange(1, len(coefs) + 1)
    siny = np.sin(np.outer(ys, ls) * np.pi)            # (ny, L)
    phase = np.exp(1j * np.outer(kxs, xs))             # (L, nx)
    return siny @ (coefs[:, None] * phase)             # (ny, nx)


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

_HAVE_NUMBA = False
if not _FORCE_NUMPY:
    try:
        from numba import njit, prange

        @njit(cache=True, fastmath=False)
        def _cut_sum_numba(eps, omega, m, rho, n_max):
            total = 0.0
            for n in range(m + 1, n_max + 1):
                npi = n * np.pi
                s = np.sin(npi * eps)
                total += s * s / np.sqrt(npi * npi - omega) * np.exp(-(npi * rho / 2.0) ** 2)
            return total

        @njit(cache=True, fastmath=False)
        def _tail_sum_numba(eps, omega, m, n_max):
            total = 0.0
            for n in range(m + 1, n_max + 1):
                npi = n * np.pi
                root = np.sqrt(npi * npi - omega)
                s = np.sin(npi * eps)
                total += s * s * omega / (root * npi * (npi + root))
            return total

        @njit(cache=True, parallel=True)
        def _field_grid_numba(xs, ys, coefs, kxs):
            ny = ys.shape[0]
            nx = xs.shape[0]
            nl = coefs.shape[0]
            phase = np.empty((nl, nx), dtype=np.complex128)
            for l in range(nl):
                for ix in range(nx):
                    phase[l, ix] = coefs[l] * np.exp(1j * kxs[l] * xs[ix])
            out = np.zeros((ny, nx), dtype=np.complex128)
            for iy in prange(ny):
                for l in range(nl):
                    sy = np.sin((l + 1) * np.pi * ys[iy])
                    if sy == 0.0:
                        continue
                    for ix in range(nx):
                        out[iy, ix] += sy * phase[l, ix]
            return out

        _HAVE_NUMBA = True
    except ImportError:
        _HAVE_NUMBA = False


def backend():
    """Name of the active kernel backend: 'numba' or 'numpy'."""
    return "numba" if _HAVE_NUMBA else "numpy"


if _HAVE_NUMBA:
    def cut_sum(eps, omega, m, rho, n_max):
        return _cut_sum_numba(float(eps), float(omega), int(m), float(rho), int(n_max))

    def tail_sum(eps, omega, m, n_max):
        return _tail_sum_numba(float(eps), float(omega), int(m), int(n_max))

    def field_grid(xs, ys, coefs, kxs):
        return _field_grid_numba(
            np.ascontiguousarray(xs, dtype=np.float64),
            np.ascontiguousarray(ys, dtype=np.float64),
            np.ascontiguousarray(coefs, dtype=np.complex128),
            np.ascontiguousarray(kxs, dtype=np.complex128),
        )
else:
    cut_sum = cut_sum_numpy
    tail_sum = tail_sum_numpy

    def field_grid(xs, ys, coefs, kxs):
        return field_grid_numpy(
            np.asarray(xs, dtype=np.float64),
            np.asarray(ys, dtype=np.float64),
            np.asarray(coefs, dtype=np.complex128),
            np.asarray(kxs, dtype=np.complex128),
        )
