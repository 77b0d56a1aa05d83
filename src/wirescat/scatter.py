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
transport matrices, field maps, cut-off limits) comes from one private core,
``_amplitudes``, the only place the bracket and the quotient are written.
It takes any number of energies of one window with their rho_bar, which
:func:`~wirescat.rhobar.regularized_scales` evaluates for all of them in
one pass.  On the cut-off (m pi)^2 itself, k_m = 0, it returns the exact
limit there: A_nm = sin(n pi eps)/sin(m pi eps), every other A_nl = 0.  Only
the cut-off operations ask for that energy; single-energy calls refuse it.

Near a cut-off all impurity dependence funnels through the complex scale
Delta_m; exactly at the cut-off the resonant pattern loses every trace of
the impurity strength (and, for wall impurities, of its position).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import (
    DecoupledModeError,
    DecoupledModeWarning,
    DomainError,
    ThresholdEnergyError,
    ValidityWarning,
)
from .rhobar import (
    regularized_scale,
    regularized_scale_tail_subtraction,
    regularized_scales,
)
from .specfun import (
    EULER_GAMMA,
    _check_incident,
    _check_position,
    _check_size,
    _index,
    _window,
    cosine_integral,
    longitudinal_wavenumber,
    nearest_threshold_index,
    propagating_count,
    threshold_energy,
)

__all__ = [
    "Impurity",
    "OneDBarrier",
    "ScatteringSolution",
    "nearest_threshold_index",
    "regularized_scale",
    "regularized_scale_tail_subtraction",
    "regularized_scales",
    "scattering_amplitude",
    "solve_scattering",
    "scattered_field",
    "scattered_field_grid",
    "resonance_parameter",
    "resonance_parameters",
    "cutoff_scan",
    "CutoffScan",
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
        _check_position(self.epsilon)
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
            if self.delta_v <= 0 or not self.delta_v * self.width > 0:  # width > 0, no underflow
                raise DomainError("weak-finite barrier needs delta_v > 0 and width > 0 with a "
                                  f"nonzero product, got {self.delta_v} and {self.width}")
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

    def transmitted(self, l: int) -> complex:
        return (1.0 if l == self.incident_mode else 0.0) - self.amplitudes[l]

    def reflected(self, l: int) -> complex:
        return -self.amplitudes[l]


#: |sin(m pi eps)| at or below which the impurity, on a node, decouples from mode m.
_NODE = 1e-8


# ---------------------------------------------------------------------------
# amplitudes and fields
# ---------------------------------------------------------------------------

def _cutoff_wavenumbers(omega: float, m: int, ns, ls) -> list:
    """k_q for q = 1..max(m, max(ls)) as Python complexes, after the checks
    of an amplitude table at one energy whose mode indices ``ns`` and ``ls``
    are checked: DomainError for an energy outside the window of cut-off m
    or at or below the cut-off of an incident mode.  k_m = 0 on the cut-off
    of mode m."""
    _window(omega, m)
    _check_incident(max(ns), omega)
    return [longitudinal_wavenumber(q, omega) for q in range(1, max(m, max(ls)) + 1)]


def _wavenumbers(omega: float, m: int, ns, ls) -> list:
    """:func:`_cutoff_wavenumbers`, and ThresholdEnergyError when omega sits
    on the cut-off of a mode q <= m."""
    k = _cutoff_wavenumbers(omega, m, ns, ls)
    if 0 in k[:m]:
        raise ThresholdEnergyError(
            f"omega sits exactly on the cut-off of mode {k.index(0) + 1}; "
            "use the threshold-limit operations"
        )
    return k


def _amplitudes(impurity: Impurity, m: int, ns, ls, ks, rho_bars):
    """The closed-form amplitudes of the module docstring for the incident
    modes ``ns`` and outgoing modes ``ls`` at several energies of one window
    m, given each energy's wavenumbers ``ks[e]`` (from :func:`_wavenumbers`)
    and rho_bar: the one place the bracket and the quotient A_nl are
    written.  Returns (k, amp) with k[e] the array of ks[e] and
    amp[e, i, j] = A_{ns[i], ls[j]}.

    An energy with k_m = 0 (from :func:`_cutoff_wavenumbers`) gets the
    exact limit omega -> (m pi)^2.  Off a node of mode m that is
    A_nm = s_n/s_m and A_nl = 0 for l != m, s_q = sin(q pi eps).  On a node
    the resonant term leaves the bracket and A_nm = 0.
    """
    eps = impurity.epsilon
    s = np.sin(np.arange(1, len(ks[0]) + 1) * math.pi * eps)
    s_open = s[:m].tolist()
    # the bracket is summed on Python scalars: CPython divides a complex
    # exactly where numpy multiplies by a reciprocal, and transport keeps the
    # bits of this scalar form
    brackets = []
    for k_e, rho_bar in zip(ks, rho_bars):
        bracket = math.log(impurity.rho0 / rho_bar) / (2.0 * math.pi)
        for s_q, k_q in zip(s_open, k_e):
            if k_q:  # k_m = 0 on the cut-off: the resonant term leaves the bracket
                bracket += s_q ** 2 / (1j * k_q)
        brackets.append(bracket)
    k = np.array(ks)
    cols = np.asarray(ls) - 1
    quotient = 1j * k[:, cols] * np.array(brackets)[:, None]
    at_cutoff = [e for e, k_e in enumerate(ks) if not k_e[m - 1]]
    if at_cutoff:
        resonant = cols == m - 1
        quotient[np.ix_(at_cutoff, resonant)] = np.inf  # A_nm = 0; off a node the row is set below
    s_n = s[np.asarray(ns) - 1]
    amp = np.outer(s_n, s[cols]) / quotient[:, None, :]
    if at_cutoff and abs(s_open[-1]) > _NODE:
        amp[at_cutoff] = np.where(resonant, (s_n / s_open[-1])[:, None], 0.0)
    return k, amp


def _amplitude_table(impurity: Impurity, omega: float, m: int, ns, ls):
    """:func:`_amplitudes` at one energy, with the checks of
    :func:`_wavenumbers`.  Returns (rho_bar, k, amp): rho_bar from
    :func:`regularized_scale_tail_subtraction` (evaluated once),
    k[q-1] = k_q for q = 1..max(m, max(ls)) and amp[i, j] = A_{ns[i], ls[j]}.
    """
    k = _wavenumbers(omega, m, ns, ls)
    rho_bar = regularized_scale_tail_subtraction(impurity.epsilon, omega, m)
    k, amp = _amplitudes(impurity, m, ns, ls, [k], [rho_bar])
    return rho_bar, k[0], amp[0]


def scattering_amplitude(impurity: Impurity, n: int, l: int, omega: float,
                         m: int | None = None) -> complex:
    """Amplitude A_nl of the scattered wave in outgoing mode l for incidence
    in mode n at energy omega (see module docstring for the formula).

    Finite for every eps, including nodes of the resonant mode where the
    numerator vanishes together with the divergent bracket term.
    """
    n, l = _index(n, "incident mode"), _index(l, "outgoing mode")
    m = _window(omega, m)
    return complex(_amplitude_table(impurity, omega, m, [n], [l])[2][0, 0])


def solve_scattering(impurity: Impurity, n: int, omega: float, m: int | None = None,
                     l_max: int | None = None) -> ScatteringSolution:
    """Assemble the amplitude table A_nl for l = 1..l_max plus diagnostics.

    l_max defaults to m + 20.  The flux unitarity defect
    |1 - sum_l (k_l/k_n)(|delta - A|^2 + |A|^2)| runs over every propagating
    l, whatever l_max is, and is reported, never silently normalized away.
    """
    n = _index(n, "incident mode")
    m = _window(omega, m)
    l_max = m + 20 if l_max is None else _index(l_max, "mode truncation l_max")
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


def _grid(xs, ny):
    """xs as a float array and the ny lattice rows of a field map
    (:func:`~wirescat.kernels.lattice_rows`).  DomainError naming ny unless
    it is a row count, naming both sizes when the grid is over the size
    limit, and naming the value of a non-finite x."""
    xs = np.asarray(xs, dtype=float)
    ny = _index(ny, "field rows ny")
    _check_size(xs.size * ny, "field grid of {} x and {} y", xs.size, ny)
    bad = xs[~np.isfinite(xs)]
    if bad.size:
        raise DomainError(f"field position x must be finite, got {bad.flat[0]}")
    return xs, kernels.lattice_rows(ny)


def _point(r):
    """The (x, y) of a field point r; DomainError naming the coordinate and
    its value unless x is finite and 0 <= y <= 1 (inside the wire)."""
    x, y = r
    if not math.isfinite(x):
        raise DomainError(f"field position x must be finite, got {x}")
    if not 0.0 <= y <= 1.0:
        raise DomainError(f"field position y must lie in the wire, 0 <= y <= 1, got {y}")
    return x, y


def scattered_field(impurity: Impurity, n: int, omega: float, r, m: int | None = None,
                    l_max: int | None = None) -> complex:
    """Total wavefunction at r = (x, y), any y in [0, 1]: incident mode n
    plus the impurity wave, evanescent content included up to the mode
    truncation l_max (default as in :func:`scattered_field_grid`, for the
    one |x|).  A direct sum over the modes, the cross-check of the grid's
    sine transform."""
    x, y = _point(r)
    n = _index(n, "incident mode")
    m = _window(omega, m)
    l_max = _truncation(m, [x]) if l_max is None else _index(l_max, "mode truncation l_max")
    _, k, amp = _amplitude_table(impurity, omega, m, [n], range(1, l_max + 1))
    return _point_sum(n, k, amp[0], x, y)


def scattered_field_grid(impurity: Impurity, n: int, omega: float, xs, ny: int,
                         m: int | None = None,
                         l_max: int | None = None) -> np.ndarray:
    """Vectorized field on the columns xs and the ny lattice rows
    y_j = j/(ny+1), j = 1..ny (:func:`~wirescat.kernels.lattice_rows`, the
    rows of ``wirescat field``); returns psi[iy, ix].

    Both sides are the incident wave plus -A_nl e^{i k_l |x|} (on x > 0 that
    is (delta_nl - A_nl) e^{i k_l x}), one field synthesis over the distinct
    values of |x|, a sine transform over the rows.  The evanescent truncation
    l_max defaults to m + 40 plus however many modes still reach the nearest
    sampled |x| above the 1e-12 level (hard cap 400: directly at the
    impurity cross-section the evanescent series converges only like the
    log-singular Green's function it resums).  An empty xs gives an empty
    grid.  Raises DomainError on a non-finite position, a row count ny
    outside 1.._MAX_INDEX or a grid of more than _MAX_INDEX points, and
    before the amplitude table is built when the synthesis is over the size
    limit of :func:`_columns`.
    """
    xs, ys = _grid(xs, ny)
    n = _index(n, "incident mode")
    # a window past the index ceiling is refused before its truncation
    m = _window(omega, m)
    l_max = _truncation(m, xs) if l_max is None else _index(l_max, "mode truncation l_max")
    columns = _columns(l_max, xs, len(ys))
    _, k, amp = _amplitude_table(impurity, omega, m, [n], range(1, l_max + 1))
    return _synthesis(n, k, amp[0], xs, ys, columns)


def _truncation(m: int, xs) -> int:
    """The default mode truncation l_max of a field map over the columns xs
    (see :func:`scattered_field_grid`)."""
    dx_min = float(np.min(np.abs(xs), initial=math.inf))
    l_max = m + 40
    while l_max < 400 and math.pi * l_max * dx_min < 27.6:
        l_max += 20
    return l_max


def _columns(l_max: int, xs, ny: int):
    """(columns, inverse): each distinct |x| that :func:`_synthesis`
    synthesizes and the column of each x among them.  DomainError naming
    l_max and the grid when the synthesis of l_max modes on ny rows would
    hold more than _MAX_INDEX values: l_max + 2(ny + 1) per column, the
    modes padded to whole periods of the sine transform."""
    columns, inverse = np.unique(np.abs(xs), return_inverse=True)
    _check_size((l_max + 2 * (ny + 1)) * len(columns), "field synthesis of l_max = {} modes "
                "over {} distinct |x| and {} y", l_max, len(columns), ny)
    return columns, inverse


def _synthesis(n: int, k, amp_row, xs, ys, gather) -> np.ndarray:
    """psi[iy, ix] = sin(n pi y) e^{i k_n x} - sum_l A_nl sin(l pi y)
    e^{i k_l |x|} over l = 1..len(amp_row), with k[q-1] = k_q: one field
    synthesis per column of ``gather``, the (columns, inverse) of
    :func:`_columns`."""
    columns, inverse = gather
    out = kernels.field_grid(columns, ys, -amp_row, k[:len(amp_row)]).take(inverse, axis=1)
    out += np.outer(np.sin(n * np.pi * ys), np.exp(1j * k[n - 1] * xs))
    return out


def _point_sum(n: int, k, amp_row, x: float, y: float) -> complex:
    """The sum of :func:`_synthesis` at one point (x, y), any y, mode by
    mode; no matrix product, so its bits do not depend on a BLAS."""
    ls = np.arange(1, len(amp_row) + 1)
    wave = amp_row * np.sin(ls * np.pi * y) * np.exp(1j * k[:len(amp_row)] * abs(x))
    return complex(np.sin(n * np.pi * y) * np.exp(1j * k[n - 1] * x) - wave.sum())


def resonance_parameter(impurity: Impurity, m: int,
                        omega: float | None = None) -> complex:
    """Inverse square root of the complex resonance scale Delta_m that
    carries all impurity dependence of the near-cut-off pattern:

        Delta_m^(-1/2) = ln(rho0/rho_bar) / (2 pi sin^2(m pi eps))
                         - i sum_{q<m} sin^2(q pi eps)/sin^2(m pi eps)
                           / (pi sqrt(m^2 - q^2)).

    Stored and returned as the inverse square root; squaring and re-rooting
    would pick an arbitrary branch.  omega defaults to the cut-off (m pi)^2.
    The one-strength call of :func:`resonance_parameters`.
    """
    return resonance_parameters(impurity.epsilon, [impurity.rho0], m, omega)[0]


def resonance_parameters(epsilon: float, rho0s, m: int,
                         omega: float | None = None) -> list[complex]:
    """Delta_m^(-1/2) of :func:`resonance_parameter` for each strength scale
    in ``rho0s`` at one position: rho_bar depends on neither strength, so it
    is evaluated once for all of them."""
    m = _index(m, "cut-off index")
    impurities = [Impurity(epsilon, rho0) for rho0 in rho0s]
    if omega is None:
        omega = threshold_energy(m)
    rho_bar = regularized_scale_tail_subtraction(epsilon, omega, m)
    return [_resonance_inv_sqrt(impurity, m, rho_bar) for impurity in impurities]


def _resonance_inv_sqrt(impurity: Impurity, m: int, rho_bar: float) -> complex:
    """Delta_m^(-1/2) of :func:`resonance_parameter` from a rho_bar already
    evaluated; DecoupledModeError on a node of mode m."""
    eps = impurity.epsilon
    s_m = math.sin(m * math.pi * eps)
    if abs(s_m) <= _NODE:
        raise DecoupledModeError(
            f"impurity sits on a node of mode {m} (sin(m pi eps) = {s_m:.1e}); "
            "the reduced near-threshold forms are 0/0 - use the full amplitudes"
        )
    value = complex(math.log(impurity.rho0 / rho_bar) / (2.0 * math.pi * s_m**2), 0.0)
    for q in range(1, m):
        value -= 1j * (math.sin(q * math.pi * eps) ** 2 / s_m**2
                       / (math.pi * math.sqrt(m * m - q * q)))
    return value


def near_threshold_field(impurity: Impurity, n: int, m: int, omega: float, r) -> complex:
    """Two-mode approximation of the field near the m-th cut-off:

        psi ~= psi_inc - [sin(n pi eps)/sin(m pi eps)]
               sin(m pi y) e^{i k_m |x|} / (1 + i k_m Delta_m^(-1/2)).

    Valid while |omega - (m pi)^2| |Delta_m^(-1)| << 1; outside that region
    the value is still computed but a ValidityWarning is emitted.  Below the
    cut-off k_m is the decaying imaginary branch, so the resonant term is a
    real evanescent dressing of the incident wave.  Raises DomainError on a
    position outside the wire (:func:`scattered_field`).
    """
    n = _index(n, "incident mode")
    x, y = _point(r)
    eps = impurity.epsilon
    d_inv_sqrt = resonance_parameter(impurity, m, omega)
    k_m = longitudinal_wavenumber(m, omega)
    ratio_sq = abs(k_m * d_inv_sqrt) ** 2
    if ratio_sq > 0.25:
        warnings.warn(
            f"|omega - (m pi)^2|/|Delta_m| = {ratio_sq:.3g} is not << 1; "
            "two-mode reduction evaluated outside its validity region",
            ValidityWarning,
            stacklevel=2,
        )
    k_n = longitudinal_wavenumber(n, omega)
    inc = math.sin(n * math.pi * y) * np.exp(1j * k_n * x)
    ratio = math.sin(n * math.pi * eps) / math.sin(m * math.pi * eps)
    res = ratio * math.sin(m * math.pi * y) * np.exp(1j * k_m * abs(x)) \
        / (1.0 + 1j * k_m * d_inv_sqrt)
    return complex(inc - res)


def threshold_field(impurity: Impurity, n: int, m: int, r) -> complex:
    """Field exactly at the m-th cut-off energy at r = (x, y), any y in
    [0, 1]; the formulas are those of :func:`threshold_field_grid`.  Off a
    node of mode m the value has the bits of the grid's; on a node it is a
    direct sum over the modes, as :func:`scattered_field` takes it."""
    x, y = _point(r)
    m = _index(m, "cut-off index")
    n = _index(n, "incident mode", hi=m - 1)
    if _on_node(impurity, m):
        k, amp_row = _cutoff_amplitudes(impurity, n, m, _truncation(m, [x]))
        return _point_sum(n, k, amp_row, x, y)
    return complex(_cutoff_closed_form(impurity, n, m, np.array([x]), [y])[0, 0])


def threshold_field_grid(impurity: Impurity, n: int, m: int, xs, ny: int) -> np.ndarray:
    """Field exactly at the m-th cut-off energy on the columns xs and the ny
    lattice rows of :func:`scattered_field_grid`; returns psi[iy, ix]:

        psi = sin(n pi y) e^{i pi sqrt(m^2-n^2) x}
              - [sin(n pi eps)/sin(m pi eps)] sin(m pi y).

    The grid is one transverse factor per row times one plane wave per
    column, minus one resonant term per row.  The result carries no
    dependence on the impurity strength: only eps is read.

    On a node of mode m (|sin(m pi eps)| <= 1e-8) the resonant term drops
    out, and the field is the limit of :func:`scattered_field_grid` there:
    the amplitude core at k_m = 0, with rho_bar at the cut-off, gives
    A_nm = 0 and the scattering among the m - 1 open modes, which depends
    on the strength.  It is synthesized as :func:`scattered_field_grid`
    synthesizes, with its default truncation, and one DecoupledModeWarning
    is emitted for the whole grid.  Raises DomainError on a non-finite
    position, a row count ny outside 1.._MAX_INDEX or a grid of more than
    _MAX_INDEX points, and on a node for a synthesis over the size limit of
    :func:`_columns`.
    """
    xs, ys = _grid(xs, ny)
    m = _index(m, "cut-off index")
    n = _index(n, "incident mode", hi=m - 1)
    if _on_node(impurity, m):
        l_max = _truncation(m, xs)
        columns = _columns(l_max, xs, len(ys))
        k, amp_row = _cutoff_amplitudes(impurity, n, m, l_max)
        return _synthesis(n, k, amp_row, xs, ys, columns)
    return _cutoff_closed_form(impurity, n, m, xs, ys.tolist())


def _on_node(impurity: Impurity, m: int) -> bool:
    """Whether the impurity sits on a node of mode m; if so, the
    DecoupledModeWarning of :func:`threshold_field_grid` is emitted for the
    caller of the public function."""
    if abs(math.sin(m * math.pi * impurity.epsilon)) > _NODE:
        return False
    warnings.warn(
        "impurity on a node of the resonant mode: the cut-off field is the "
        "open channels' scattering and depends on the impurity strength",
        DecoupledModeWarning,
        stacklevel=3,
    )
    return True


def _cutoff_amplitudes(impurity: Impurity, n: int, m: int, l_max: int):
    """(k, A_nl for l = 1..l_max) of the amplitude core at the cut-off
    (m pi)^2, k_m = 0, with rho_bar there."""
    omega = threshold_energy(m)
    ls = range(1, l_max + 1)
    k = _cutoff_wavenumbers(omega, m, [n], ls)
    rho_bar = regularized_scale_tail_subtraction(impurity.epsilon, omega, m)
    k, amp = _amplitudes(impurity, m, [n], ls, [k], [rho_bar])
    return k[0], amp[0, 0]


def _cutoff_closed_form(impurity: Impurity, n: int, m: int, xs, rows) -> np.ndarray:
    """The closed form of :func:`threshold_field_grid` off a node of mode m,
    on the columns xs and the rows ``rows`` (a list of y)."""
    eps = impurity.epsilon
    omega = threshold_energy(m)
    # same evaluation path as the generic wavenumber so that the
    # near-threshold form at k_m = 0 matches this one bit for bit; for
    # the same reason the rows take the scalar math.sin that form uses
    k_inc = longitudinal_wavenumber(n, omega).real
    chi_n_y = np.array([math.sin(n * math.pi * y) for y in rows])
    chi_m_y = np.array([math.sin(m * math.pi * y) for y in rows])
    chi_n_eps = math.sin(n * math.pi * eps)
    chi_m_eps = math.sin(m * math.pi * eps)
    psi = np.outer(chi_n_y, np.exp(1j * k_inc * xs))
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
    m = _index(m, "cut-off index")
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

    minus for the lower wall, plus for the upper.  Raises DomainError on a
    position outside the wire (:func:`scattered_field`)."""
    if side not in ("lower", "upper"):
        raise DomainError(f"side must be 'lower' or 'upper', got {side!r}")
    m = _index(m, "cut-off index")
    n = _index(n, "incident mode", hi=m - 1)
    x, y = _point(r)
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
    try:
        return 1.0 / (1.0 + 4.0 * omega / strength**2)
    except (OverflowError, ZeroDivisionError):  # strength**2 leaves the float range
        ratio = 2.0 * math.sqrt(omega) / strength
        return 1.0 / (1.0 + ratio * ratio)


# ---------------------------------------------------------------------------
# cut-off limits from the amplitude core
# ---------------------------------------------------------------------------

def threshold_amplitude_limit(impurity: Impurity, n: int, m: int,
                              l: int | None = None) -> complex:
    """lim_{omega -> (m pi)^2+} A_nl: the amplitude core evaluated at the
    cut-off itself, with rho_bar there; the one-strength call of
    :func:`cutoff_scan`.

    Off a node of mode m the limit is sin(n pi eps)/sin(m pi eps) for
    l = m and 0 for every other mode, independent of rho0.  On a node of
    mode m, A_nm = 0 and the other channels keep the scattering of the
    m - 1 open modes, with the resonant term left out of the bracket.
    """
    return cutoff_scan(impurity.epsilon, [impurity.rho0], n, m, (), l).limits[0]


class CutoffScan(NamedTuple):
    """The closed-form side of a cut-off universality test at one impurity
    position, strength by strength in the order given.

    ``resonance_inv_sqrt[j]`` is Delta_m^(-1/2) (None on a node of mode m)
    and ``limits[j]`` the limit of A_nl at the cut-off for strength j, the
    amplitude core evaluated at k_m = 0.  ``offset_energies[i]`` is
    (m pi)^2 plus offset scale i times the smallest |Delta_m| of the
    strengths (see :func:`cutoff_scan`), and ``offset_amplitudes[i][j]`` is
    A_nl there.
    """

    resonance_inv_sqrt: tuple
    limits: tuple
    offset_energies: tuple
    offset_amplitudes: tuple


def cutoff_scan(epsilon: float, rho0s, n: int, m: int, offset_scales=(),
                l: int | None = None) -> CutoffScan:
    """Delta_m^(-1/2), the cut-off limit of A_nl and A_nl at energies just
    above the cut-off, for every strength scale in ``rho0s`` at position
    ``epsilon``, with two rho_bar passes: one at the cut-off, for Delta_m
    and the limits, and one for the offset energies.

    Each strength takes one call of the amplitude core over the cut-off and
    the offset energies; at the cut-off (k_m = 0) the core returns the exact
    limit.  On a node of mode m (DecoupledModeError from
    :func:`resonance_parameter`) Delta_m^(-1/2) is None, unless offsets
    are asked for: they need Delta_m, and the error is raised.  Incidence
    must be in a mode n < m, open at the cut-off.  A positive offset below
    half an ulp of (m pi)^2 (near a node of mode m) would round onto the
    cut-off; its energy is the next float above, where mode m propagates.
    Each value gets the bits of its one-energy route:
    :func:`resonance_parameter` and :func:`scattering_amplitude`.
    """
    if not len(rho0s):
        raise DomainError("need at least one impurity strength")
    n, m = _index(n, "incident mode"), _index(m, "cut-off index")
    l = m if l is None else _index(l, "outgoing mode")
    impurities = [Impurity(epsilon, rho0) for rho0 in rho0s]
    base = threshold_energy(m)
    rho_bar = regularized_scale_tail_subtraction(epsilon, base, m)
    try:
        d_inv_sqrt = [_resonance_inv_sqrt(impurity, m, rho_bar) for impurity in impurities]
    except DecoupledModeError:
        if len(offset_scales):
            raise
        d_inv_sqrt = [None] * len(rho0s)
    offsets = []
    if len(offset_scales):
        base_delta = min(1.0 / abs(d) ** 2 for d in d_inv_sqrt)
        for scale in offset_scales:
            omega = base + scale * base_delta
            # a positive offset below half an ulp of (m pi)^2 rounds onto the cut-off
            offsets.append(math.nextafter(base, math.inf) if scale > 0 and omega == base
                           else omega)
    waves = [_cutoff_wavenumbers(base, m, [n], [l])]
    waves += [_wavenumbers(omega, m, [n], [l]) for omega in offsets]
    rho_bars = [rho_bar] + regularized_scales(epsilon, offsets, [m] * len(offsets)).tolist()
    limits, near = [], []
    for impurity in impurities:
        amp = _amplitudes(impurity, m, [n], [l], waves, rho_bars)[1][:, 0, 0].tolist()
        limits.append(amp[0])
        near.append(amp[1:])
    return CutoffScan(
        resonance_inv_sqrt=tuple(d_inv_sqrt),
        limits=tuple(limits),
        offset_energies=tuple(offsets),
        offset_amplitudes=tuple(zip(*near)),
    )
