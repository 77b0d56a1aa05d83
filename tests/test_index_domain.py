"""The index domain of the public API.

Every public callable that takes a mode index n or l, a cut-off index m (or
a list ms of them), a mode truncation l_max, a lead mode count or a lattice
row count ny gets one bad scalar at a time: it raises a WirescatError, or
(where the value is inside its own domain, as threshold_energy above the
allocation ceiling) gives a finite result, and returns within 5 s either
way.  No memory limit is set: a value above the ceiling must raise before
anything is allocated.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wirescat as ws
from wirescat.cli import main
from wirescat.specfun import _MAX_INDEX

PI = math.pi
OM = 1.05 * (2 * PI) ** 2  # two open channels, window m = 2

BAD = (math.nan, math.inf, -math.inf, 0, -1, 2.5, 1e300, 2**60, _MAX_INDEX + 1)

IMP = ws.Impurity(0.3, 0.01)
WALL = ws.Impurity(0.01, 0.01)
WIRE = ws.DiscreteWire(eps=0.3, ny=400)
R = (0.4, 0.3)

#: name -> the call with the bad value in that one argument, reduced to numbers
CASES = {
    "longitudinal_wavenumber.l": lambda v: ws.longitudinal_wavenumber(v, OM),
    "threshold_energy.m": lambda v: ws.threshold_energy(v),
    "evanescent_gaussian_sum.m": lambda v: ws.evanescent_gaussian_sum(0.3, OM, v, 0.01),
    "regularized_scale.m": lambda v: ws.regularized_scale(0.3, OM, v),
    "regularized_scale_tail_subtraction.m":
        lambda v: ws.regularized_scale_tail_subtraction(0.3, OM, v),
    "regularized_scales.ms": lambda v: ws.regularized_scales(0.3, [OM], [v]),
    "scattering_amplitude.n": lambda v: ws.scattering_amplitude(IMP, v, 1, OM),
    "scattering_amplitude.l": lambda v: ws.scattering_amplitude(IMP, 1, v, OM),
    "scattering_amplitude.m": lambda v: ws.scattering_amplitude(IMP, 1, 1, OM, m=v),
    "solve_scattering.n": lambda v: ws.solve_scattering(IMP, v, OM).unitarity_defect,
    "solve_scattering.m": lambda v: ws.solve_scattering(IMP, 1, OM, m=v).unitarity_defect,
    "solve_scattering.l_max":
        lambda v: list(ws.solve_scattering(IMP, 1, OM, l_max=v).amplitudes.values()),
    "scattered_field.n": lambda v: ws.scattered_field(IMP, v, OM, R),
    "scattered_field.m": lambda v: ws.scattered_field(IMP, 1, OM, R, m=v),
    "scattered_field.l_max": lambda v: ws.scattered_field(IMP, 1, OM, R, l_max=v),
    "scattered_field_grid.n": lambda v: ws.scattered_field_grid(IMP, v, OM, [0.4], 3),
    "scattered_field_grid.ny": lambda v: ws.scattered_field_grid(IMP, 1, OM, [0.4], v),
    "scattered_field_grid.m":
        lambda v: ws.scattered_field_grid(IMP, 1, OM, [0.4], 3, m=v),
    "scattered_field_grid.l_max":
        lambda v: ws.scattered_field_grid(IMP, 1, OM, [0.4], 3, l_max=v),
    "resonance_parameter.m": lambda v: ws.resonance_parameter(IMP, v),
    "resonance_parameters.m": lambda v: ws.resonance_parameters(0.3, [0.01], v),
    "near_threshold_field.n": lambda v: ws.near_threshold_field(IMP, v, 2, OM, R),
    "near_threshold_field.m": lambda v: ws.near_threshold_field(IMP, 1, v, OM, R),
    "threshold_field.n": lambda v: ws.threshold_field(IMP, v, 2, R),
    "threshold_field.m": lambda v: ws.threshold_field(IMP, 1, v, R),
    "threshold_field_grid.n": lambda v: ws.threshold_field_grid(IMP, v, 2, [0.4], 3),
    "threshold_field_grid.m": lambda v: ws.threshold_field_grid(IMP, 1, v, [0.4], 3),
    "threshold_field_grid.ny": lambda v: ws.threshold_field_grid(IMP, 1, 2, [0.4], v),
    "surface_resonance_parameter.m": lambda v: ws.surface_resonance_parameter(WALL, v),
    "surface_threshold_field.n": lambda v: ws.surface_threshold_field(v, 2, "lower", R),
    "surface_threshold_field.m": lambda v: ws.surface_threshold_field(1, v, "lower", R),
    "threshold_amplitude_limit.n": lambda v: ws.threshold_amplitude_limit(IMP, v, 2),
    "threshold_amplitude_limit.m": lambda v: ws.threshold_amplitude_limit(IMP, 1, v),
    "threshold_amplitude_limit.l": lambda v: ws.threshold_amplitude_limit(IMP, 1, 2, l=v),
    "cutoff_scan.n": lambda v: ws.cutoff_scan(0.3, [0.01], v, 2, [1e-2]).limits,
    "cutoff_scan.m": lambda v: ws.cutoff_scan(0.3, [0.01], 1, v, [1e-2]).limits,
    "cutoff_scan.l": lambda v: ws.cutoff_scan(0.3, [0.01], 1, 2, [1e-2], l=v).limits,
    "threshold_transport.m": lambda v: ws.threshold_transport(IMP, v).conductance,
    "DiscreteWire.ny": lambda v: ws.DiscreteWire(eps=0.3, ny=v).ny,
    "DiscreteWire.lead_modes": lambda v: ws.DiscreteWire(eps=0.3, ny=400, lead_modes=v).lead_modes,
    "oracle_solve.n": lambda v: ws.oracle_solve(WIRE, v, OM, 0.04, 0.01).reflected,
    "oracle_solve.n.clean":  # the default 200-row grid, defect on the centre line
        lambda v: ws.oracle_solve(ws.DiscreteWire(eps=0.5), v, OM, 0.04, 0.01).reflected,
    "oracle_solve_table.n":
        lambda v: [s.reflected for row in ws.oracle_solve_table(WIRE, v, OM, [0.04], [0.01])
                   for s in row],
    "oracle_solve_ladder.n":
        lambda v: [s.reflected for s in ws.oracle_solve_ladder(WIRE, v, OM, [0.04, 0.02], 0.01)],
    "universality_probe.n": lambda v: ws.universality_probe(WIRE, v, 2, [0.01]).coefficients,
    "universality_probe.m": lambda v: ws.universality_probe(WIRE, 1, v, [0.01]).coefficients,
}

#: the parameter names that hold a mode or cut-off index, a truncation, a mode
#: count or a lattice row count
INDEX_PARAMETERS = {"n", "l", "m", "ms", "l_max", "lead_modes", "ny"}

#: one bad index: the fixed list, or any integer outside 1..ceiling, or any
#: float that is not a whole number
bad_indices = st.one_of(
    st.sampled_from(BAD),
    st.integers(max_value=0),
    st.integers(min_value=_MAX_INDEX + 1),
    st.floats().filter(lambda x: not x.is_integer()),
)


def _finite(result) -> bool:
    if isinstance(result, (list, tuple)):
        return all(_finite(item) for item in result)
    return bool(np.all(np.isfinite(np.asarray(result, dtype=complex))))


def _with_examples(test):
    for value in BAD:
        test = example(bad=value)(test)
    return test


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=20, deadline=None, database=None)
@_with_examples
@given(bad=bad_indices)
def test_bad_index_raises_or_gives_a_finite_result(alarm, name, bad):
    with alarm(5):
        try:
            result = CASES[name](bad)
        except ws.WirescatError as exc:
            assert str(bad) in str(exc), str(exc)
            return
    assert _finite(result), (name, bad, result)


def test_every_index_parameter_of_the_public_api_has_a_case():
    # a signature change must not drop a row of CASES silently
    expected = set()
    for name in dir(ws):
        obj = getattr(ws, name)
        if name.startswith("_") or not callable(obj):
            continue
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        expected |= {f"{name}.{p}" for p in parameters if p in INDEX_PARAMETERS}
    assert expected, "no index parameter found"
    assert sorted(expected - set(CASES)) == []


def test_only_threshold_energy_reaches_past_the_ceiling():
    # the cut-off energy keeps the float bound of the mode counts
    assert ws.threshold_energy(_MAX_INDEX + 1) == ((_MAX_INDEX + 1) * PI) ** 2
    assert ws.threshold_energy(2**52) == (2**52 * PI) ** 2
    with pytest.raises(ws.DomainError, match=f"mode index must be an integer in 1..{2**52}"):
        ws.threshold_energy(2**52 + 1)


def test_energies_above_the_ceiling_window_return_promptly(alarm, capsys):
    # each of these ran until a timeout stopped it when the O(m) lists of
    # the amplitude table were built before the window index was checked
    with alarm(5):
        with pytest.raises(ws.DomainError, match="mode truncation l_max"):
            ws.solve_scattering(IMP, 1, OM, l_max=10**9)
        assert main(["sweep", "--epsilon", "0.3", "--rho0", "0.01",
                     "--omega-grid", "1e17:1e18:2"]) == 1
        assert capsys.readouterr().err.count("cut-off index must be an integer") == 2
        assert main(["field", "--field-mode", "defect", "--epsilon", "0.3", "--rho0", "0.01",
                     "--omega", "1e20"]) == 2
        assert "cut-off index must be an integer" in capsys.readouterr().err
