"""The value domain of the public API.

Every public callable that takes a float (a position eps or epsilon, an
energy omega, a width rho, a strength rho0, a field position x, y or
r = (x, y), a barrier parameter alpha, delta_v or width, or a list of any of
these) gets one bad value at a time: NaN, +-inf, 0, -1, 1e300 and the
smallest subnormal 5e-324.  It raises a WirescatError, or (where the value
is inside its own domain) gives a finite result, and returns within 5 s
either way.  Result containers (OracleSolution, SweepPoint, ...) are not
inputs and get no case.
"""

import inspect
import math

import numpy as np
import pytest

import wirescat as ws

PI = math.pi
OM = 1.05 * (2 * PI) ** 2  # two open channels, window m = 2

BAD = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e300, 5e-324)

IMP = ws.Impurity(0.3, 0.01)
WIRE = ws.DiscreteWire(eps=0.3, ny=400)


def _reflected(table):
    return [s.reflected for row in table for s in row]


#: name -> the call with the bad value in that one argument, reduced to
#: numbers; "name/y" puts the value in the y of r = (x, y)
CASES = {
    "cosine_integral.x": lambda v: ws.cosine_integral(v),
    "longitudinal_wavenumber.omega": lambda v: ws.longitudinal_wavenumber(1, v),
    "propagating_count.omega": lambda v: ws.propagating_count(v),
    "nearest_threshold_index.omega": lambda v: ws.nearest_threshold_index(v),
    "evanescent_gaussian_sum.eps": lambda v: ws.evanescent_gaussian_sum(v, OM, 2, 0.01),
    "evanescent_gaussian_sum.omega": lambda v: ws.evanescent_gaussian_sum(0.3, v, 2, 0.01),
    "evanescent_gaussian_sum.rho": lambda v: ws.evanescent_gaussian_sum(0.3, OM, 2, v),
    "regularized_scale.eps": lambda v: ws.regularized_scale(v, OM, 2),
    "regularized_scale.omega": lambda v: ws.regularized_scale(0.3, v, 2),
    "regularized_scale.ladder_start": lambda v: ws.regularized_scale(0.3, OM, 2, ladder_start=v),
    "regularized_scale.stability": lambda v: ws.regularized_scale(0.3, OM, 2, stability=v),
    "regularized_scale_tail_subtraction.eps":
        lambda v: ws.regularized_scale_tail_subtraction(v, OM, 2),
    "regularized_scale_tail_subtraction.omega":
        lambda v: ws.regularized_scale_tail_subtraction(0.3, v, 2),
    "regularized_scales.eps": lambda v: ws.regularized_scales(v, [OM], [2]),
    "regularized_scales.omegas": lambda v: ws.regularized_scales(0.3, [OM, v], [2, 2]),
    "Impurity.epsilon": lambda v: ws.transport_at(ws.Impurity(v, 0.01), OM).conductance,
    "Impurity.rho0": lambda v: ws.transport_at(ws.Impurity(0.3, v), OM).conductance,
    "OneDBarrier.alpha": lambda v: ws.reflection_1d(ws.OneDBarrier("delta", alpha=v), 1.0),
    "OneDBarrier.delta_v":
        lambda v: ws.reflection_1d(ws.OneDBarrier("weak-finite", delta_v=v, width=1e-3), 1.0),
    "OneDBarrier.width":
        lambda v: ws.reflection_1d(ws.OneDBarrier("weak-finite", delta_v=50.0, width=v), 1.0),
    "reflection_1d.omega": lambda v: ws.reflection_1d(ws.OneDBarrier("delta", alpha=0.05), v),
    "scattering_amplitude.omega": lambda v: ws.scattering_amplitude(IMP, 1, 1, v),
    "solve_scattering.omega":
        lambda v: list(ws.solve_scattering(IMP, 1, v).amplitudes.values()),
    "scattered_field.omega": lambda v: ws.scattered_field(IMP, 1, v, (0.4, 0.3)),
    "scattered_field.r": lambda v: ws.scattered_field(IMP, 1, OM, (v, 0.3)),
    "scattered_field.r/y": lambda v: ws.scattered_field(IMP, 1, OM, (0.4, v)),
    "scattered_field_grid.omega": lambda v: ws.scattered_field_grid(IMP, 1, v, [0.4], 3),
    "scattered_field_grid.xs": lambda v: ws.scattered_field_grid(IMP, 1, OM, [0.4, v], 3),
    "resonance_parameter.omega": lambda v: ws.resonance_parameter(IMP, 2, v),
    "resonance_parameters.epsilon": lambda v: ws.resonance_parameters(v, [0.01], 2),
    "resonance_parameters.rho0s": lambda v: ws.resonance_parameters(0.3, [0.01, v], 2),
    "resonance_parameters.omega": lambda v: ws.resonance_parameters(0.3, [0.01], 2, v),
    "near_threshold_field.omega": lambda v: ws.near_threshold_field(IMP, 1, 2, v, (0.4, 0.3)),
    "near_threshold_field.r": lambda v: ws.near_threshold_field(IMP, 1, 2, OM, (v, 0.3)),
    "near_threshold_field.r/y": lambda v: ws.near_threshold_field(IMP, 1, 2, OM, (0.4, v)),
    "threshold_field.r": lambda v: ws.threshold_field(IMP, 1, 2, (v, 0.3)),
    "threshold_field.r/y": lambda v: ws.threshold_field(IMP, 1, 2, (0.4, v)),
    "threshold_field_grid.xs": lambda v: ws.threshold_field_grid(IMP, 1, 2, [0.4, v], 3),
    "surface_threshold_field.r": lambda v: ws.surface_threshold_field(1, 2, "lower", (v, 0.3)),
    "surface_threshold_field.r/y":
        lambda v: ws.surface_threshold_field(1, 2, "lower", (0.4, v)),
    "cutoff_scan.epsilon": lambda v: ws.cutoff_scan(v, [0.01], 1, 2, [1e-2]).limits,
    "cutoff_scan.rho0s": lambda v: ws.cutoff_scan(0.3, [0.01, v], 1, 2, [1e-2]).limits,
    "cutoff_scan.offset_scales":
        lambda v: ws.cutoff_scan(0.3, [0.01], 1, 2, [v]).offset_amplitudes,
    "transport_at.omega": lambda v: ws.transport_at(IMP, v).conductance,
    "sweep.omega_grid":
        lambda v: [pt.result.conductance for pt in ws.sweep(IMP, [OM, v]) if pt.ok],
    "DiscreteWire.eps":
        lambda v: ws.oracle_solve(ws.DiscreteWire(eps=v, ny=400), 1, OM, 0.04, 0.01).reflected,
    "oracle_solve.omega": lambda v: ws.oracle_solve(WIRE, 1, v, 0.04, 0.01).reflected,
    "oracle_solve.rho": lambda v: ws.oracle_solve(WIRE, 1, OM, v, 0.01).reflected,
    "oracle_solve.rho0": lambda v: ws.oracle_solve(WIRE, 1, OM, 0.04, v).reflected,
    "oracle_solve_table.omega":
        lambda v: _reflected(ws.oracle_solve_table(WIRE, 1, v, [0.04], [0.01])),
    "oracle_solve_table.rhos":
        lambda v: _reflected(ws.oracle_solve_table(WIRE, 1, OM, [0.04, v], [0.01])),
    "oracle_solve_table.rho0s":
        lambda v: _reflected(ws.oracle_solve_table(WIRE, 1, OM, [0.04], [0.01, v])),
    "oracle_solve_ladder.omega":
        lambda v: [s.reflected for s in ws.oracle_solve_ladder(WIRE, 1, v, [0.04], 0.01)],
    "oracle_solve_ladder.rhos":
        lambda v: [s.reflected for s in ws.oracle_solve_ladder(WIRE, 1, OM, [0.04, v], 0.01)],
    "oracle_solve_ladder.rho0":
        lambda v: [s.reflected for s in ws.oracle_solve_ladder(WIRE, 1, OM, [0.04], v)],
    "universality_probe.rho0_list":
        lambda v: ws.universality_probe(WIRE, 1, 2, [0.01, v]).coefficients,
}

#: the parameter names that hold a float or a list of floats
FLOAT_PARAMETERS = {
    "x", "r", "xs", "eps", "epsilon", "omega", "omegas", "omega_grid", "rho", "rhos",
    "rho0", "rho0s", "rho0_list", "alpha", "delta_v", "width", "offset_scales",
    "ladder_start", "stability",
}

#: public classes that only hold results; they are built by the library, not
#: from user input
RESULTS = {
    "CutoffScan", "ExtrapolatedAmplitudes", "OracleSolution", "ScatteringSolution",
    "SweepPoint", "TransportResult", "UniversalityReport",
}


def _finite(result) -> bool:
    if isinstance(result, (list, tuple)):
        return all(_finite(item) for item in result)
    return bool(np.all(np.isfinite(np.asarray(result, dtype=complex))))


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("name", sorted(CASES))
def test_bad_value_raises_or_gives_a_finite_result(alarm, name, bad):
    with alarm(5):
        try:
            result = CASES[name](bad)
        except ws.WirescatError:
            return
    assert _finite(result), (name, bad, result)


def test_every_float_parameter_of_the_public_api_has_a_case():
    # a signature change must not drop a row of CASES silently
    expected = set()
    for name in dir(ws):
        obj = getattr(ws, name)
        if name.startswith("_") or name in RESULTS or not callable(obj):
            continue
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        expected |= {f"{name}.{p}" for p in parameters if p in FLOAT_PARAMETERS}
    assert expected, "no float parameter found"
    assert sorted(expected - {case.split("/")[0] for case in CASES}) == []
