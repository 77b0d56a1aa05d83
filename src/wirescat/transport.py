"""Landauer transport: flux-normalized transmission/reflection matrices,
conductance, and energy sweeps around mode cut-offs.

Conductance is reported as the dimensionless channel sum over propagating
modes; multiply by 2e^2/h for physical units.  Evanescent modes never enter
the matrices (they carry no flux) but remain in field reconstructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, WirescatError
from .rhobar import _head_terms, _scales, regularized_scale_tail_subtraction
from .scatter import (
    Impurity,
    _amplitudes,
    _cutoff_wavenumbers,
    _wavenumbers,
    nearest_threshold_index,
)
from .specfun import _index, threshold_energy
from .wire import propagating_count

__all__ = ["TransportResult", "SweepPoint", "transport_at", "threshold_transport", "sweep"]


@dataclass(frozen=True)
class TransportResult:
    """Single-energy transport matrices over the propagating modes.

    ``transmission[n-1, l-1]`` is (k_l/k_n) |delta_nl - A_nl|^2 and
    ``reflection[n-1, l-1]`` is (k_l/k_n) |A_nl|^2; ``conductance`` is the
    total transmission summed over incident and outgoing channels;
    ``unitarity_defect`` is the worst per-incident-mode violation of
    T + R = 1 and is reported, never normalized away.
    """

    energy: float
    threshold_index: int
    num_propagating: int
    transmission: np.ndarray = field(repr=False)
    reflection: np.ndarray = field(repr=False)
    conductance: float = 0.0
    unitarity_defect: float = 0.0


@dataclass(frozen=True)
class SweepPoint:
    """One energy of a sweep: a result or the error message that replaced it."""

    omega: float
    result: TransportResult | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None


def transport_at(impurity: Impurity, omega: float) -> TransportResult:
    """Full flux-normalized T/R matrices at energy omega.

    Requires at least one propagating mode and an energy strictly between
    cut-offs (exact cut-offs are the limits of
    :func:`threshold_transport`).  The one-energy case of :func:`sweep`.
    """
    (result,) = _transport(impurity, [omega])
    if isinstance(result, WirescatError):
        raise result
    return result


def _transport(impurity: Impurity, omegas) -> list:
    """The TransportResult of :func:`transport_at` for each energy, or the
    WirescatError it raises there, in input order.

    Every energy is checked first, in the order of the one-energy
    computation; one rho_bar pass then serves all energies that pass, and
    :func:`_matrices` builds the matrices of the energies that share a
    cut-off window m and a channel count p.
    """
    results: list = [None] * len(omegas)
    eps = impurity.epsilon
    valid = []  # (index, m, p, wavenumbers, N0)
    for i, omega in enumerate(omegas):
        try:
            p = propagating_count(omega)
            if p < 1:
                raise DomainError(f"no propagating modes at omega={omega}")
            m = nearest_threshold_index(omega)
            modes = range(1, p + 1)
            k = _wavenumbers(omega, m, modes, modes)
            valid.append((i, m, p, k, _head_terms(eps, omega, m)))
        except WirescatError as exc:
            results[i] = exc
    if not valid:
        return results
    index, ms, ps, ks, n0s = zip(*valid)
    rho_bars = _scales(eps, [omegas[i] for i in index], ms, n0s).tolist()
    groups: dict = {}
    for j, key in enumerate(zip(ms, ps)):
        groups.setdefault(key, []).append(j)
    for (m, p), rows in groups.items():
        matrices = _matrices(impurity, m, p, [omegas[index[j]] for j in rows],
                             [ks[j] for j in rows], [rho_bars[j] for j in rows])
        for j, result in zip(rows, matrices):
            results[index[j]] = result
    return results


def _matrices(impurity: Impurity, m: int, p: int, omegas, ks, rho_bars) -> list:
    """The TransportResult of each energy of window m with p open channels,
    from its wavenumbers and rho_bar, through arrays stacked over the
    energies."""
    modes = range(1, p + 1)
    k, amp = _amplitudes(impurity, m, modes, modes, ks, rho_bars)
    k = k[:, :p].real
    flux = k[:, None, :] / k[:, :, None]
    transmission = flux * np.abs(np.eye(p) - amp) ** 2
    reflection = flux * np.abs(amp) ** 2
    row_sums = transmission.sum(axis=2) + reflection.sum(axis=2)
    conductance = transmission.reshape(len(omegas), -1).sum(axis=1).tolist()
    defect = np.max(np.abs(1.0 - row_sums), axis=1).tolist()
    return [TransportResult(energy=omega, threshold_index=m, num_propagating=p,
                            transmission=transmission[r], reflection=reflection[r],
                            conductance=conductance[r], unitarity_defect=defect[r])
            for r, omega in enumerate(omegas)]


def threshold_transport(impurity: Impurity, m: int) -> TransportResult:
    """Transport exactly at the m-th cut-off, the limit omega -> (m pi)^2:
    the matrices of :func:`transport_at` from the amplitude core at k_m = 0.

    Off a node of mode m every amplitude of the m - 1 open channels
    vanishes there, so they transmit perfectly: T = identity, R = 0,
    conductance = m - 1 exactly, independent of the impurity.  On a node
    of mode m the impurity still scatters among the open channels, as
    :func:`transport_at` does on approach.  m >= 2, so that a channel is
    open.
    """
    m = _index(m, "cut-off index", lo=2)
    omega = threshold_energy(m)
    modes = range(1, m)
    k = _cutoff_wavenumbers(omega, m, modes, modes)
    rho_bar = regularized_scale_tail_subtraction(impurity.epsilon, omega, m)
    return _matrices(impurity, m, m - 1, [omega], [k], [rho_bar])[0]


def sweep(impurity: Impurity, omega_grid) -> list[SweepPoint]:
    """Evaluate :func:`transport_at` over an energy grid, in one pass.

    Points are independent; per-point failures are collected as
    :class:`SweepPoint` errors instead of aborting the sweep, and results
    keep the input order.  Each point carries the bits and the error message
    that :func:`transport_at` gives at its energy.
    """
    omegas = [float(omega) for omega in omega_grid]
    return [
        SweepPoint(omega=omega, result=None, error=str(result))
        if isinstance(result, WirescatError)
        else SweepPoint(omega=omega, result=result)
        for omega, result in zip(omegas, _transport(impurity, omegas))
    ]
