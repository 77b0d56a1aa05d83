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
from .scatter import Impurity, _amplitude_table, _require_hard_wall, nearest_threshold_index
from .specfun import threshold_energy
from .wire import WireGeometry, propagating_count

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


def transport_at(geometry: WireGeometry, impurity: Impurity, omega: float) -> TransportResult:
    """Full flux-normalized T/R matrices at energy omega.

    Requires at least one propagating mode and an energy strictly between
    cut-offs (exact cut-offs are handled analytically by
    :func:`threshold_transport`).  Hard-wall wires only: other geometries
    raise :class:`DomainError`.
    """
    _require_hard_wall(geometry)
    p = propagating_count(omega)
    if p < 1:
        raise DomainError(f"no propagating modes at omega={omega}")
    m = nearest_threshold_index(omega)
    modes = range(1, p + 1)
    _, k, amp = _amplitude_table(impurity, omega, m, modes, modes)
    k = k[:p].real
    delta = np.eye(p)
    flux = k[None, :] / k[:, None]
    transmission = flux * np.abs(delta - amp) ** 2
    reflection = flux * np.abs(amp) ** 2
    row_sums = transmission.sum(axis=1) + reflection.sum(axis=1)
    return TransportResult(
        energy=omega,
        threshold_index=m,
        num_propagating=p,
        transmission=transmission,
        reflection=reflection,
        conductance=float(transmission.sum()),
        unitarity_defect=float(np.max(np.abs(1.0 - row_sums))),
    )


def threshold_transport(geometry: WireGeometry, impurity: Impurity, m: int) -> TransportResult:
    """Transport exactly at the m-th cut-off, as the analytic limit
    omega -> (m pi)^2 from above.

    In that limit every off-resonant amplitude vanishes like
    sqrt(omega - (m pi)^2) and the just-opened mode m carries zero flux, so
    the propagating block (m-1 channels) transmits perfectly: T = identity,
    R = 0, conductance = m - 1 exactly, independent of the impurity.  The
    limit is built analytically rather than by evaluating the amplitudes at
    k_m = 0, which would divide by zero.  Hard-wall wires only, as for
    :func:`transport_at`.
    """
    _require_hard_wall(geometry)
    if m < 2:
        raise DomainError(
            f"need at least one propagating channel below the cut-off, got m={m}"
        )
    p = m - 1
    return TransportResult(
        energy=threshold_energy(m),
        threshold_index=m,
        num_propagating=p,
        transmission=np.eye(p),
        reflection=np.zeros((p, p)),
        conductance=float(p),
        unitarity_defect=0.0,
    )


def sweep(geometry: WireGeometry, impurity: Impurity, omega_grid) -> list[SweepPoint]:
    """Evaluate :func:`transport_at` over an energy grid.

    Points are independent; per-point failures are collected as
    :class:`SweepPoint` errors instead of aborting the sweep, and results
    keep the input order.
    """
    points: list[SweepPoint] = []
    for omega in omega_grid:
        omega = float(omega)
        try:
            points.append(SweepPoint(omega=omega, result=transport_at(geometry, impurity, omega)))
        except WirescatError as exc:
            points.append(SweepPoint(omega=omega, result=None, error=str(exc)))
    return points
