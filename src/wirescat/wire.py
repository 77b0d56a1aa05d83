"""Clean-wire model: geometry and transverse modes.

The wire occupies 0 < y < 1 (lengths normalized to the width) and extends to
x = +-infinity.  A hard-wall wire has analytic modes chi_n(y) = sin(n pi y)
with cut-offs (n pi)^2; a 'general' wire carries an arbitrary uniform
transverse potential and gets its modes from a finite-difference eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResolutionError
from .specfun import threshold_energy

HARD_WALL = "hard-wall"
GENERAL = "general"

#: From (2^52 pi)^2 up, floats no longer tell neighbouring cut-offs apart.
_MAX_ENERGY = (2.0**52 * math.pi) ** 2


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
        if not (math.isfinite(num_modes) and num_modes >= 1):
            raise DomainError(f"num_modes must be a finite number >= 1, got {num_modes}")
        if not (math.isfinite(grid_points) and grid_points >= 1):
            raise DomainError(f"grid_points must be a finite number >= 1, got {grid_points}")
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
            for name, values in (("y", y), ("V", v)):
                if not np.all(np.isfinite(values)):
                    raise DomainError(f"potential samples {name} must be finite")
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
    if not 1 <= n <= geometry.num_modes:
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
