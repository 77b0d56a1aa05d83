"""Numeric kernels: evanescent mode sums and field-grid evaluation, in numpy.

``tail_sum`` is the exact head of the production rho_bar route
(``rhobar.regularized_scales``); ``cut_sum`` feeds only the
Neville-ladder cross-check ``rhobar.regularized_scale``; ``field_grid``
synthesizes the fields of ``scatter.scattered_field_grid`` on the rows of
``lattice_rows`` by ``lattice_fft``, the sine transform the oracle's mode
sums also take.  They live in one module so that the per-layer benchmark
(``perfbench/spans.py``) can time them as one layer under these names.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_CHUNK = 1 << 19  # bound temporary-array size
# complex numbers in a column block of field_grid's work arrays: 2**13
# (128 KiB) keeps them under the size at which the C allocator maps fresh
# pages, so each block reuses the last one's memory; on the field-map grid
# the kernel took 17 ms at 2**13 and 23 ms at 2**14 in a fresh CLI process
_FIELD_BLOCK = 1 << 13


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


def tail_sum(eps, omegas, m, n_max):
    """sum_{n=m+1}^{n_max} sin^2(n pi eps) * [1/sqrt((n pi)^2 - omega) - 1/(n pi)]
    for each energy omega in ``omegas``; returns an array like ``omegas``.

    The bracket is evaluated in the cancellation-free form
    omega / (sqrt(A - omega) sqrt(A) (sqrt(A) + sqrt(A - omega))), A = (n pi)^2.
    The terms are taken in chunks of _CHUNK; sin^2 is computed once per chunk
    for all energies, and the energies go through it in blocks whose
    temporaries hold at most _CHUNK terms.  Each energy's chunk is summed as
    one contiguous row, so its sum does not depend on the other energies in
    the call.
    """
    omegas = np.asarray(omegas, dtype=np.float64)
    totals = np.zeros(len(omegas))
    for lo in range(m + 1, n_max + 1, _CHUNK):
        npi = np.arange(lo, min(lo + _CHUNK, n_max + 1), dtype=np.float64) * np.pi
        sin2 = np.square(np.sin(npi * eps))
        rows = max(1, _CHUNK // len(npi))
        for r in range(0, len(omegas), rows):
            totals[r:r + rows] += _tail_terms(npi, sin2, omegas[r:r + rows, None]).sum(axis=1)
        del npi, sin2  # freed before the next chunk is built
    return totals


def _tail_terms(npi, sin2, omega):
    """The terms of :func:`tail_sum`, one row per energy of the column ``omega``."""
    root = npi * npi - omega
    np.sqrt(root, out=root)
    den = root * npi
    root += npi
    den *= root
    terms = np.multiply(sin2, omega, out=root)  # root is spent
    terms /= den
    return terms


def lattice_rows(ny: int) -> np.ndarray:
    """The ny interior rows y_j = j/(ny+1), j = 1..ny, of a field map, as
    doubles: the rows on which :func:`field_grid` is a sine transform."""
    return np.linspace(0.0, 1.0, ny + 2)[1:-1]


def _row_offsets(ys) -> np.ndarray:
    """ys[j-1] - j/(ny+1), j = 1..ny: how far each double row of
    :func:`lattice_rows` lies from its lattice point.  y (ny+1) - j is
    exact once y is split into two halves of at most 27 bits (Veltkamp), as
    ny + 1 < 2**26 (any row count up to ``_MAX_INDEX``) makes each half's
    product with ny + 1 exact; the offset is then rounded once and divided
    by ny + 1."""
    rows = len(ys) + 1
    head = ys * 134217729.0  # 2**27 + 1
    head -= head - ys
    return ((head * rows - np.arange(1, rows)) + (ys - head) * rows) / rows


def field_grid(xs, ys, coefs, kxs):
    """psi[iy, ix] = sum_l coefs[l] sin((l+1) pi y) exp(i kxs[l] xs[ix]) on
    the rows ys = :func:`lattice_rows` (len(ys)); DomainError for any other ys.

    xs are the (already folded, e.g. |x|) longitudinal offsets; kxs may be
    complex (evanescent modes decay through exp(i k x) with Im k > 0).  At
    the lattice points y_j = j/(ny+1), sin(l pi y_j) and cos(l pi y_j) have
    period P = 2(ny+1) in l, so the terms of each column fold exactly onto
    l mod P, and one FFT of length P sums them.  The rows are the doubles
    y_j + d_j, d_j below an ulp (:func:`_row_offsets`), and the sum is taken
    there: the transform also gives d_j pi sum_l l c_l cos(l pi y_j), the
    first-order term of the offset (the next one is below 1e-26 of the
    terms).  Each column is transformed on its own, so its bits do not
    depend on the other columns; a few columns at a time
    (:func:`_lattice_sums`) keep the work arrays small enough to be reused
    rather than first touched.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    coefs = np.asarray(coefs, dtype=np.complex128)
    kxs = np.asarray(kxs, dtype=np.complex128)
    ny = len(ys)
    if not np.array_equal(ys, lattice_rows(ny)):
        raise DomainError(f"field rows must be the lattice y_j = j/(ny+1) of ny = {ny} rows")
    period = 2 * (ny + 1)
    padded = -(-(len(coefs) + 1) // period) * period  # modes 0..l_max in whole periods
    step = max(1, _FIELD_BLOCK // padded)
    # the cosine sum enters with weights l/L, L = len(coefs), so that both
    # sums have the size of the terms
    scale = max(len(coefs), 1)
    shift = (0.25 * np.pi * scale * _row_offsets(ys))[:, None]
    psi = np.empty((ny, len(xs)), dtype=np.complex128)
    for lo in range(0, len(xs), step):
        psi[:, lo:lo + step] = _lattice_sums(xs[lo:lo + step], coefs, kxs, padded, period,
                                             scale, shift)
    return psi


def _lattice_sums(xs, coefs, kxs, padded, period, scale, shift):
    """The columns xs of :func:`field_grid`, the modes padded with zeros to
    ``padded`` rows."""
    ny = period // 2 - 1
    terms = np.zeros((padded, len(xs)), dtype=np.complex128)  # row l: mode l
    modes = terms[1:len(coefs) + 1]
    np.exp(np.multiply.outer(1j * kxs, xs, out=modes), out=modes)
    modes *= coefs[:, None]
    blocks = terms.reshape(-1, period, len(xs))
    # row r gathers the modes l = r mod P, and in ``weighted`` each times
    # l/L: r/L plus P/L for each period that l lies past r
    folded = blocks[0]
    for block in blocks[1:]:
        folded += block
    weighted = folded * (np.arange(period) / scale)[:, None]
    for index, block in enumerate(blocks[1:], start=1):
        weighted += (index * period / scale) * block
    # the odd part of ``folded`` plus the even part of ``weighted``, from
    # u = folded + weighted and v = folded - weighted as u_r - v_(P-r): its
    # FFT is -2i times the sine sum at row j and +2i at row P - j, plus
    # twice the cosine sum at both
    folded += weighted
    weighted *= -2.0
    weighted += folded
    spectrum = lattice_fft(folded, weighted)
    ahead, behind = spectrum[1:ny + 1], spectrum[:ny + 1:-1]
    psi = ahead - behind
    psi *= 0.25j
    ahead += behind
    ahead *= shift
    psi += ahead
    return psi


def lattice_fft(u, v):
    """FFT along axis 0 of u_r - v_((P - r) mod P), P = len(u), taken in
    place in u (v may be u): entry d is sum_r (u_r - v_r) cos(2 pi r d/P) -
    i (u_r + v_r) sin(2 pi r d/P).  Every FFT of the library is taken here,
    so numpy loads its FFT module on the first call, not at import."""
    u[1:] -= v[:0:-1]
    u[0] -= v[0]
    return np.fft.fft(u, axis=0)


def backend():
    """Name of the kernel backend; always 'numpy'."""
    return "numpy"
