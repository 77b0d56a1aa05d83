import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wirescat import (
    DomainError,
    Impurity,
    ThresholdEnergyError,
    WirescatError,
    longitudinal_wavenumber,
    resonance_parameter,
    scattering_amplitude,
    solve_scattering,
    sweep,
    threshold_energy,
    threshold_transport,
    transport_at,
)

PI = math.pi
OM_2 = (2 * PI) ** 2


class TestTransportAt:
    def test_weak_coupling_limit_is_identity(self):
        # rho0 = 1e-300 pushes |ln(rho0/rho_bar)| to the float ceiling ~690,
        # leaving |A| ~ 1e-3 and T within ~1e-5 of the identity
        res = transport_at(Impurity(0.3, 1e-300), 1.2 * OM_2)
        for n in range(res.num_propagating):
            assert res.transmission[n, n] == pytest.approx(1.0, abs=2e-5)

    def test_node_decouples_resonant_channel(self):
        res = transport_at(Impurity(0.5, 0.01), 1.2 * OM_2)
        assert res.num_propagating == 2
        # sin(2 pi / 2) = 0: everything involving mode 2 is untouched
        assert res.transmission[1, 1] == pytest.approx(1.0, abs=1e-28)
        assert abs(res.transmission[0, 1]) < 1e-30
        assert abs(res.transmission[1, 0]) < 1e-30
        assert abs(res.reflection[1, 1]) < 1e-30

    def test_matrix_against_amplitude_table(self, canonical_impurity):
        omega = 1.05 * OM_2
        res = transport_at(canonical_impurity, omega)
        sol = solve_scattering(canonical_impurity, 1, omega)
        k1 = longitudinal_wavenumber(1, omega).real
        k2 = longitudinal_wavenumber(2, omega).real
        assert res.transmission[0, 0] == pytest.approx(abs(sol.transmitted(1)) ** 2, rel=1e-12)
        assert res.transmission[0, 1] == pytest.approx(
            k2 / k1 * abs(sol.transmitted(2)) ** 2, rel=1e-12
        )
        assert res.reflection[0, 0] == pytest.approx(abs(sol.reflected(1)) ** 2, rel=1e-12)

    def test_no_propagating_modes_rejected(self, canonical_impurity):
        with pytest.raises(DomainError):
            transport_at(canonical_impurity, 0.5 * PI**2)

    def test_exact_threshold_rejected(self, canonical_impurity):
        with pytest.raises(ThresholdEnergyError):
            transport_at(canonical_impurity, threshold_energy(2))

    def test_non_finite_energy_rejected(self, canonical_impurity):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                transport_at(canonical_impurity, bad)

    def test_conductance_bounded_by_channel_count(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            omega = float(rng.uniform(1.2, 8.8)) * PI**2
            if min(abs(omega - threshold_energy(q)) for q in (1, 2, 3)) < 0.1:
                continue
            res = transport_at(Impurity(float(rng.uniform(0.1, 0.9)),
                                                   float(10 ** rng.uniform(-4, -1))), omega)
            bound = res.num_propagating + res.unitarity_defect * res.num_propagating
            assert res.conductance <= bound + 1e-12


class TestThresholdTransport:
    def test_single_channel_quantization(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            imp = Impurity(float(rng.uniform(0.1, 0.9)), float(10 ** rng.uniform(-5, -1)))
            res = threshold_transport(imp, 2)
            assert res.conductance == 1.0
            assert np.array_equal(res.transmission, np.eye(1))
            assert np.array_equal(res.reflection, np.zeros((1, 1)))

    def test_two_channel_quantization_impurity_independent(self):
        rng = np.random.default_rng(10)
        results = [
            threshold_transport(Impurity(float(rng.uniform(0.1, 0.9)),
                                                    float(10 ** rng.uniform(-5, -1))), 3)
            for _ in range(5)
        ]
        assert all(r.conductance == 2.0 for r in results)

    def test_decoupled_node_same_result(self):
        # on a node of mode m the impurity still scatters among the m - 1
        # open channels (G = 0.898083 at eps = 1/2, 1.867583 at eps = 1/3):
        # the cut-off value is the limit of transport_at from below
        for eps, m in ((0.5, 2), (1.0 / 3.0, 3)):
            imp = Impurity(eps, 0.01)
            res = threshold_transport(imp, m)
            near = transport_at(imp, threshold_energy(m) * (1.0 - 1e-12))
            assert res.num_propagating == near.num_propagating == m - 1
            assert res.conductance < m - 1.05
            assert res.conductance == pytest.approx(near.conductance, abs=1e-9)
            assert np.allclose(res.transmission, near.transmission, rtol=0.0, atol=1e-9)
            assert np.allclose(res.reflection, near.reflection, rtol=0.0, atol=1e-9)

    def test_requires_an_open_channel(self, canonical_impurity):
        with pytest.raises(DomainError):
            threshold_transport(canonical_impurity, 1)

    def test_channels_over_the_size_limit_refused(self, canonical_impurity):
        # (m - 1)^2 = 1937^2 is above the 3749999-value limit, 1936^2 is not
        with pytest.raises(DomainError, match="1937 open channels"):
            threshold_transport(canonical_impurity, 1938)

    def test_matches_transport_limit_from_above(self, canonical_impurity):
        # the analytic limit must agree with the numerical approach
        d = resonance_parameter(canonical_impurity, 2)
        omega = threshold_energy(2) + 1e-8 / abs(d) ** 2
        res = transport_at(canonical_impurity, omega)
        lim = threshold_transport(canonical_impurity, 2)
        assert res.transmission[0, 0] == pytest.approx(lim.transmission[0, 0], abs=1e-3)


class TestSweep:
    def test_property_run_unitarity(self, canonical_impurity):
        omegas = np.linspace(1.1, 8.9, 200) * PI**2
        keep = [o for o in omegas
                if min(abs(o - threshold_energy(q)) for q in (1, 2, 3)) > 0.1]
        points = sweep(canonical_impurity, keep)
        assert all(pt.ok for pt in points)
        assert max(pt.result.unitarity_defect for pt in points) < 1e-8

    def test_single_point_equals_direct_call(self, canonical_impurity):
        omega = 1.3 * OM_2
        pt = sweep(canonical_impurity, [omega])[0]
        direct = transport_at(canonical_impurity, omega)
        assert np.array_equal(pt.result.transmission, direct.transmission)
        assert np.array_equal(pt.result.reflection, direct.reflection)
        assert pt.result.conductance == direct.conductance

    def test_monotone_approach_to_quantization(self, canonical_impurity):
        # last decade of the approach to the mode-2 cut-off from above
        offsets = np.geomspace(1e-7, 1e-6, 8) * OM_2
        t11 = []
        for d in offsets:
            res = transport_at(canonical_impurity, OM_2 + d)
            t11.append(res.transmission[0, 0])
        assert all(a > b for a, b in zip(t11, t11[1:]))  # T_11 -> 1 from below

    def test_errors_collected_not_fatal(self, canonical_impurity):
        points = sweep(canonical_impurity,
                       [0.5 * PI**2, 1.3 * OM_2, threshold_energy(2)])
        assert [pt.ok for pt in points] == [False, True, False]
        assert points[0].error and points[2].error

    def test_grid_equals_point_by_point_transport(self):
        # one rho_bar pass and matrices stacked per (m, p) give every point the
        # bits of transport_at, and every failed point its error message
        omegas = list(np.linspace(0.5, 15.5, 200) * PI**2)
        omegas[3] = 0.25 * PI**2
        omegas[40] = OM_2
        omegas[41] = threshold_energy(3)
        omegas[77] = math.nan
        omegas[78] = -math.inf
        imp = Impurity(0.41, 2e-3)
        points = sweep(imp, omegas)
        assert np.array_equal([pt.omega for pt in points], omegas, equal_nan=True)
        errors = []
        for pt in points:
            try:
                direct = transport_at(imp, pt.omega)
            except WirescatError as exc:
                errors.append(str(exc))
                assert pt.result is None and pt.error == str(exc)
                continue
            res = pt.result
            assert (res.energy, res.threshold_index, res.num_propagating) == \
                (direct.energy, direct.threshold_index, direct.num_propagating)
            assert res.transmission.tobytes() == direct.transmission.tobytes()
            assert res.reflection.tobytes() == direct.reflection.tobytes()
            assert res.conductance == direct.conductance
            assert res.unitarity_defect == direct.unitarity_defect
        assert errors == [pt.error for pt in points if not pt.ok]
        assert len(errors) >= 6  # the five above and the grid's own start below pi^2
        assert {pt.result.num_propagating for pt in points if pt.ok} == {1, 2, 3}

    def test_wall_sweep_memory_stays_bounded(self):
        # at eps = 1e-5 each energy sums N0 = 6.4e6 exact terms in 2^19-term
        # chunks; the whole sweep peaks at about 16 MiB of numpy temporaries
        tracemalloc = pytest.importorskip("tracemalloc")
        omegas = np.linspace(1.1, 8.9, 20) * PI**2
        tracemalloc.start()
        try:
            points = sweep(Impurity(1e-5, 0.01), omegas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(pt.ok for pt in points)
        assert peak <= 24 * 2**20

    def test_channels_over_the_size_limit_are_one_failed_point(self, canonical_impurity):
        # 10065 open channels at omega = 1e9: one 10065 x 10065 complex
        # matrix alone would take 1.5 GiB
        message = "10065 open channels at omega=1000000000.0"
        points = sweep(canonical_impurity, [50.0, 1e9])
        assert [pt.ok for pt in points] == [True, False]
        assert message in points[1].error
        with pytest.raises(DomainError, match=message):
            transport_at(canonical_impurity, 1e9)

    def test_stacks_capped_by_the_size_limit(self, canonical_impurity, monkeypatch):
        # a limit of 9 values stacks at most 9, 2 and 1 energies with 1, 2
        # and 3 open channels; every point keeps its bits
        from wirescat import transport

        omegas = list(np.linspace(1.1, 15.5, 120) * PI**2)
        whole = sweep(canonical_impurity, omegas)
        stacks = []
        matrices = transport._matrices
        monkeypatch.setattr(transport, "_MAX_INDEX", 9)
        monkeypatch.setattr(transport, "_matrices", lambda imp, m, p, omegas, *args:
                            stacks.append((p, len(omegas))) or matrices(imp, m, p, omegas, *args))
        capped = sweep(canonical_impurity, omegas)
        assert {p: max(n for q, n in stacks if q == p) for p, _ in stacks} == {1: 9, 2: 2, 3: 1}
        for a, b in zip(whole, capped):
            assert a.result.transmission.tobytes() == b.result.transmission.tobytes()
            assert a.result.reflection.tobytes() == b.result.reflection.tobytes()
            assert (a.result.conductance, a.result.unitarity_defect) == \
                (b.result.conductance, b.result.unitarity_defect)

    def test_nan_energy_is_one_failed_point(self, canonical_impurity):
        points = sweep(canonical_impurity, [math.nan, 20.0])
        assert [pt.ok for pt in points] == [False, True]
        assert "finite" in points[0].error


# an energy strictly inside the window between cut-offs q and q + 1
window_energies = st.builds(
    lambda q, t: threshold_energy(q) + t * (threshold_energy(q + 1) - threshold_energy(q)),
    st.integers(1, 4),
    st.floats(1e-6, 1.0 - 1e-6),
)


class TestTransportProperties:
    @settings(max_examples=150, deadline=None, database=None)
    @given(eps=st.floats(0.05, 0.95), rho0=st.floats(1e-5, 1e-1), omega=window_energies)
    def test_flux_bounds_and_reciprocity(self, eps, rho0, omega):
        imp = Impurity(eps, rho0)
        res = transport_at(imp, omega)
        p = res.num_propagating
        assert res.unitarity_defect <= 1e-8
        assert 0.0 <= res.conductance <= p
        k = [longitudinal_wavenumber(l, omega) for l in range(1, p + 1)]
        for n in range(1, p + 1):
            for l in range(n + 1, p + 1):
                a_nl = scattering_amplitude(imp, n, l, omega)
                a_ln = scattering_amplitude(imp, l, n, omega)
                assert k[l - 1] * a_nl == pytest.approx(k[n - 1] * a_ln, rel=1e-12, abs=1e-15)

    @settings(max_examples=150, deadline=None, database=None)
    @given(m=st.sampled_from([2, 3]), eps=st.floats(0.05, 0.95),
           rho0=st.floats(1e-5, 1e-1), side=st.sampled_from([-1.0, 1.0]))
    def test_conductance_tends_to_open_channels_at_cutoff(self, m, eps, rho0,
                                                          side):
        # G -> m - 1 continuously as omega -> (m pi)^2 from either side.  The
        # gap closes linearly in the offset: it is about |omega - (m pi)^2|
        # |Delta_m^(-1/2)|^2, the universal-window parameter, which reaches
        # 3e-6 at delta = 1e-12 for weak impurities near a node of m
        assume(abs(math.sin(m * PI * eps)) >= 0.1)
        imp = Impurity(eps, rho0)
        deltas = (1e-6, 1e-9, 1e-12)
        gaps = [
            abs(transport_at(imp, threshold_energy(m) * (1.0 + side * delta))
                .conductance - (m - 1))
            for delta in deltas
        ]
        assert gaps[1] <= gaps[0] / 100.0
        window = threshold_energy(m) * deltas[2] * abs(resonance_parameter(imp, m)) ** 2
        assert gaps[2] <= 2.0 * window
        assert gaps[2] < 1e-5


class TestPatternThroughResonanceOnly:
    """The near-cut-off pattern depends on (eps, rho0) only through the
    resonance scale; exactly at the cut-off through eps alone; for wall
    impurities through neither."""

    def test_mirror_impurity_same_resonance_same_pattern(self):
        # eps and 1-eps give identical resonance parameters, hence identical
        # resonant-mode coefficients, for any strength
        imp_a = Impurity(0.3, 0.01)
        imp_b = Impurity(0.7, 0.01)
        d_a = resonance_parameter(imp_a, 2)
        d_b = resonance_parameter(imp_b, 2)
        assert d_a == pytest.approx(d_b, rel=1e-12)
        omega = threshold_energy(2) + 1e-4 / abs(d_a) ** 2
        c_a = solve_scattering(imp_a, 1, omega).amplitudes[2]
        c_b = solve_scattering(imp_b, 1, omega).amplitudes[2]
        assert abs(c_a) == pytest.approx(abs(c_b), rel=1e-10)

    def test_coefficient_is_function_of_resonance_parameter(self):
        # two different strengths: coefficients collapse once expressed
        # through 1/(1 + i k Delta^(-1/2))
        omega = threshold_energy(2) + 3e-4
        k2 = longitudinal_wavenumber(2, omega)
        for rho0 in (1e-4, 1e-2):
            imp = Impurity(0.3, rho0)
            d = resonance_parameter(imp, 2, omega)
            reduced = (math.sin(0.3 * PI) / math.sin(0.6 * PI)) / (1 + 1j * k2 * d)
            full = solve_scattering(imp, 1, omega, m=2).amplitudes[2]
            assert full == pytest.approx(reduced, abs=2e-6)
