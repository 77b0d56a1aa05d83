"""Clean-wire model: geometry, transverse modes, and the mode-sum Green's
function.

The wire occupies 0 < y < 1 (lengths normalized to the width) and extends to
x = +-infinity.  A hard-wall wire has analytic modes chi_n(y) = sin(n pi y)
with cut-offs (n pi)^2; a 'general' wire carries an arbitrary uniform
transverse potential and gets its modes from a finite-difference eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    ResolutionError,
    SingularityError,
    ThresholdEnergyError,
)
from .specfun import longitudinal_wavenumber, threshold_energy

HARD_WALL = "hard-wall"
GENERAL = "general"


@dataclass(frozen=True)
class TransverseMode:
    """One transverse eigenstate of the wire cross-section.

    For a hard-wall wire the profile is the unit-amplitude sin(n pi y) that
    the scattering formulas use (its L2 norm is 1/sqrt(2)); eigensolver modes
    are orthonormal instead.  ``profile(y)`` evaluates the shape; Dirichlet
    walls force profile(0) = profile(1) = 0.
    """

    index: int
    threshold: float
    _samples: np.ndarray | None = field(default=None, repr=False)
    _grid: np.ndarray | None = field(default=None, repr=False)

    def profile(self, y):
        y = np.asarray(y, dtype=float)
        if self._samples is None:
            out = np.sin(self.index * np.pi * y)
        else:
            out = np.interp(y, self._grid, self._samples, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    def __call__(self, y):
        return self.profile(y)


class WireGeometry:
    """Normalized wire (width 1) with hard walls or a general uniform
    cross-section potential.

    Immutable after construction; a general geometry solves its transverse
    eigenproblem eagerly so that all later operations are read-only.  Every
    constructor goes through ``__init__`` and its checks.
    """

    def __init__(self, kind=HARD_WALL, num_modes=64, potential=None, grid_points=1024):
        if kind not in (HARD_WALL, GENERAL):
            raise DomainError(f"unknown geometry kind {kind!r}")
        if num_modes < 1:
            raise DomainError("num_modes must be >= 1")
        self.kind = kind
        self.num_modes = int(num_modes)
        self.grid_points = int(grid_points)
        self._potential = potential
        self._modes: list[TransverseMode] | None = None
        if kind == GENERAL:
            if potential is None:
                raise DomainError("general geometry requires a transverse potential")
            y, v = (np.asarray(a, dtype=float) for a in potential)
            if y.ndim != 1 or y.shape != v.shape or len(y) < 2:
                raise DomainError("potential samples must be two equal-length 1-d arrays")
            if np.any(np.diff(y) <= 0):
                raise DomainError("potential sample positions must increase strictly")
            self._potential = (y, v)
            self._modes = transverse_eigensolve(self, self.num_modes)

    # -- constructors -------------------------------------------------------

    @classmethod
    def hard_wall(cls, num_modes=64):
        return cls(kind=HARD_WALL, num_modes=num_modes)

    @classmethod
    def from_potential(cls, y, v, num_modes=8, grid_points=1024):
        """General cross-section from sampled potential values (y, v),
        linearly interpolated between samples."""
        return cls(kind=GENERAL, num_modes=num_modes, potential=(y, v), grid_points=grid_points)

    @classmethod
    def from_potential_file(cls, path, num_modes=8, grid_points=1024):
        """Read a two-column plain-text file of (y, V) samples."""
        data = np.loadtxt(path, ndmin=2)
        if data.shape[1] < 2:
            raise DomainError(f"{path}: expected two columns (y, V)")
        return cls.from_potential(data[:, 0], data[:, 1],
                                  num_modes=num_modes, grid_points=grid_points)

    # -- queries ------------------------------------------------------------

    def potential_on(self, y):
        """Transverse potential sampled at y (0 for hard walls)."""
        y = np.asarray(y, dtype=float)
        if self._potential is None:
            return np.zeros_like(y)
        ys, vs = self._potential
        return np.interp(y, ys, vs)

    def mode(self, n: int) -> TransverseMode:
        return mode(self, n)

    def thresholds(self, count: int) -> np.ndarray:
        """Cut-off energies of the lowest ``count`` modes."""
        if self.kind == HARD_WALL:
            return np.array([threshold_energy(n) for n in range(1, count + 1)])
        if count > len(self._modes):
            raise ResolutionError(
                f"geometry was built with {len(self._modes)} modes, asked for {count}"
            )
        return np.array([m.threshold for m in self._modes[:count]])


def mode(geometry: WireGeometry, n: int) -> TransverseMode:
    """The n-th transverse mode (1-based) of the wire."""
    if n < 1 or n > geometry.num_modes:
        raise DomainError(
            f"mode index {n} outside 1..{geometry.num_modes} for this geometry"
        )
    if geometry.kind == HARD_WALL:
        return TransverseMode(index=n, threshold=threshold_energy(n))
    return geometry._modes[n - 1]


def transverse_eigensolve(geometry: WireGeometry, count: int) -> list[TransverseMode]:
    """Lowest ``count`` Dirichlet eigenpairs of -d^2/dy^2 + V(y) on (0, 1).

    Second-order central differences on a uniform grid; eigenvalues are
    Richardson-refined from a half-resolution solve (leading h^2 error
    cancelled, leaving O(h^4)), eigenvectors come from the fine grid and are
    normalized to unit L2 norm.  Grid-refinement behaviour is exercised by
    the test suite against analytic spectra.
    """
    if geometry.kind != GENERAL:
        raise DomainError("eigensolver applies to general geometries only")
    if count < 1:
        raise DomainError("count must be >= 1")
    m_fine = max(geometry.grid_points, 512)
    if count > m_fine // 8:
        raise ResolutionError(
            f"grid of {m_fine} points cannot reliably resolve {count} modes"
        )
    vals_f, vecs_f, grid_f = _fd_eigensolve(geometry, m_fine, count)
    vals_c, _, _ = _fd_eigensolve(geometry, m_fine // 2, count)
    refined = vals_f + (vals_f - vals_c) / 3.0  # h^2 -> h^4
    modes = []
    for i in range(count):
        modes.append(
            TransverseMode(
                index=i + 1,
                threshold=float(refined[i]),
                _samples=vecs_f[:, i],
                _grid=grid_f,
            )
        )
    return modes


def _fd_eigensolve(geometry, m, count):
    h = 1.0 / m
    y = np.arange(1, m) * h
    v = geometry.potential_on(y)
    main = 2.0 / h**2 + v
    off = -1.0 / h**2 * np.ones(m - 2)
    mat = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(mat)
    vecs = vecs[:, :count]
    # unit L2 norm and a positive slope off the lower wall, endpoints exact zeros
    norms = np.sqrt(np.sum(vecs**2, axis=0) * h)
    vecs = vecs / norms
    for i in range(count):
        top = np.max(np.abs(vecs[:, i]))
        first = vecs[np.argmax(np.abs(vecs[:, i]) > 0.1 * top), i]
        if first < 0:
            vecs[:, i] = -vecs[:, i]
    grid = np.concatenate(([0.0], y, [1.0]))
    vecs_full = np.vstack([np.zeros(count), vecs, np.zeros(count)])
    return vals[:count], vecs_full, grid


def propagating_count(omega: float) -> int:
    """Number of hard-wall modes with cut-off strictly below omega."""
    if not math.isfinite(omega):
        raise DomainError(f"energy must be finite, got {omega}")
    if omega <= math.pi**2:
        return 0
    p = int(math.floor(math.sqrt(omega) / math.pi))
    while p >= 1 and threshold_energy(p) >= omega:
        p -= 1
    while threshold_energy(p + 1) < omega:
        p += 1
    return p


#: Negligible term size, relative to the running total, and the most modes
#: of a Green's-function sum.
_GREEN_RTOL, _GREEN_MAX_MODES = 1e-14, 2_000_000


def greens_function(geometry: WireGeometry, r, rp, omega: float) -> complex:
    """Outgoing mode-sum Green's function of the clean wire,

        G(r, r') = i sum_n chi_n(y) chi_n(y') / k_n * exp(i k_n |x - x'|),

    with k_n the branch-resolved longitudinal wavenumber.  The kernel
    inherits the profile normalization of the geometry: unit-amplitude
    sin(n pi y) for hard walls (the convention the scattering amplitudes are
    written in), orthonormal eigensolver modes otherwise.  For |x - x'| > 0
    the evanescent tail converges exponentially and the sum is truncated
    adaptively (three consecutive terms below 1e-14 of the running total,
    at least ten modes past the last propagating one, and at most 2e6
    modes).  On the same cross-section
    (x = x') the 1/n tail is summed in closed form; the coincident point has
    a logarithmic singularity and is refused.
    """
    (x, y), (xp, yp) = r, rp
    if not (0.0 < y < 1.0) or not (0.0 < yp < 1.0):
        if y in (0.0, 1.0) or yp in (0.0, 1.0):
            return 0.0 + 0.0j  # Dirichlet wall
        raise DomainError("points must lie inside the wire, 0 <= y <= 1")
    if x == xp and y == yp:
        raise SingularityError(
            "Green's function diverges logarithmically at coincident points"
        )
    dx = abs(x - xp)

    if geometry.kind == GENERAL:
        return _greens_general(geometry, x, y, xp, yp, omega)

    # pole guard: any propagating-range mode exactly at cut-off
    p = int(math.sqrt(max(omega, 0.0)) / math.pi) + 1
    for n in range(1, p + 1):
        if omega == threshold_energy(n):
            raise ThresholdEnergyError(
                f"omega sits exactly on the cut-off of mode {n}; the n-th term has k_n = 0"
            )

    if dx > 0.0:
        total = 0.0 + 0.0j
        n = 1
        n_floor = p + 10
        quiet = 0  # consecutive negligible terms, guards against sin() zeros
        while n <= _GREEN_MAX_MODES:
            k = longitudinal_wavenumber(n, omega).value
            term = 1j * math.sin(n * math.pi * y) * math.sin(n * math.pi * yp) / k \
                * np.exp(1j * k * dx)
            total += term
            quiet = quiet + 1 if abs(term) < _GREEN_RTOL * max(abs(total), 1e-300) else 0
            if n > n_floor and quiet >= 3:
                return complex(total)
            n += 1
        raise ResolutionError("Green's-function mode sum did not converge")

    # x == x': split off the 1/(n pi) tail and close it analytically:
    # sum_{n>N} sin sin/(n pi) = (1/2pi) ln[sin(pi(y+y')/2)/sin(pi|y-y'|/2)] - partial
    n_split = max(p + 10, 64)
    total = 0.0 + 0.0j
    partial_tail = 0.0
    for n in range(1, n_split + 1):
        k = longitudinal_wavenumber(n, omega).value
        sinsin = math.sin(n * math.pi * y) * math.sin(n * math.pi * yp)
        total += 1j * sinsin / k
        partial_tail += sinsin / (n * math.pi)
    closed = (math.log(2.0 * math.sin(math.pi * (y + yp) / 2.0))
              - math.log(2.0 * math.sin(math.pi * abs(y - yp) / 2.0))) / (2.0 * math.pi)
    total += closed - partial_tail
    # remaining correction sum_{n>N} sin sin (1/kappa_n - 1/(n pi)); terms are
    # O(omega/(2 pi^3 n^3)) and oscillate in n through both sine factors, so
    # the Abel-summed tail is bounded by the term envelope over the slower
    # oscillation scale
    osc = 1.0 / math.sin(math.pi * abs(y - yp) / 2.0) \
        + 1.0 / math.sin(math.pi * (y + yp) / 2.0)
    n = n_split + 1
    while n <= _GREEN_MAX_MODES:
        npi = n * math.pi
        kappa = math.sqrt(npi * npi - omega)
        total += math.sin(npi * y) * math.sin(npi * yp) * (1.0 / kappa - 1.0 / npi)
        if omega / (2.0 * math.pi**3 * n**3) * osc < _GREEN_RTOL * max(abs(total), 1e-300):
            return complex(total)
        n += 1
    raise ResolutionError("same-column Green's-function sum did not converge")


def _greens_general(geometry, x, y, xp, yp, omega):
    dx = abs(x - xp)
    if dx == 0.0:
        raise ResolutionError(
            "same-cross-section evaluation is supported for hard walls only"
        )
    total = 0.0 + 0.0j
    quiet = 0
    for tm in geometry._modes:
        gap = omega - tm.threshold
        if gap == 0.0:
            raise ThresholdEnergyError(
                f"omega sits exactly on the cut-off of mode {tm.index}"
            )
        k = complex(math.sqrt(gap), 0.0) if gap > 0 else complex(0.0, math.sqrt(-gap))
        term = 1j * tm.profile(y) * tm.profile(yp) / k * np.exp(1j * k * dx)
        total += term
        quiet = quiet + 1 if (gap < 0 and abs(term) < _GREEN_RTOL * max(abs(total), 1e-300)) else 0
        if quiet >= 3:
            return complex(total)
    raise ResolutionError(
        "geometry holds too few modes for a converged general-geometry Green's function"
    )
