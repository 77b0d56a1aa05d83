import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from wirescat import (
    ConvergenceError,
    DecoupledModeError,
    DecoupledModeWarning,
    DomainError,
    Impurity,
    OneDBarrier,
    ThresholdEnergyError,
    ValidityWarning,
    cutoff_scan,
    longitudinal_wavenumber,
    near_threshold_field,
    nearest_threshold_index,
    reflection_1d,
    regularized_scale,
    regularized_scale_tail_subtraction,
    regularized_scales,
    resonance_parameter,
    scattered_field,
    scattered_field_grid,
    scattering_amplitude,
    solve_scattering,
    surface_constant,
    surface_resonance_parameter,
    surface_threshold_field,
    threshold_amplitude_limit,
    threshold_energy,
    threshold_field,
    threshold_field_grid,
)
from conftest import brute_force_log_scale
from wirescat import kernels
from wirescat.numerics import neville_diagonal

PI = math.pi
OM_2 = (2 * PI) ** 2


def brute_force_green(y, yp, dx, omega, n_terms):
    """Outgoing mode-sum Green's function of the clean wire,
    G = i sum_n sin(n pi y) sin(n pi y') e^{i k_n |dx|} / k_n, as a direct
    fixed-truncation sum, no adaptive logic."""
    total = 0.0 + 0.0j
    for n in range(1, n_terms + 1):
        k = longitudinal_wavenumber(n, omega)
        total += 1j * math.sin(n * math.pi * y) * math.sin(n * math.pi * yp) / k \
            * np.exp(1j * k * dx)
    return total


NON_FINITE_POSITIONS = pytest.mark.parametrize("r, name", [
    ((bad, 0.5), "x") for bad in (math.nan, math.inf, -math.inf)
] + [
    ((0.1, bad), "y") for bad in (math.nan, math.inf, -math.inf)
])


class TestImpurity:
    def test_bound_state_scale_ratio(self):
        imp = Impurity(epsilon=0.3, rho0=0.01)
        assert imp.lambda_b / imp.rho0 == pytest.approx(2.0963349074, abs=1e-9)

    def test_validation(self):
        with pytest.raises(DomainError):
            Impurity(epsilon=0.0, rho0=0.01)
        with pytest.raises(DomainError):
            Impurity(epsilon=1.2, rho0=0.01)
        with pytest.raises(DomainError):
            Impurity(epsilon=0.3, rho0=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                Impurity(epsilon=0.3, rho0=bad)


class TestThresholdWindow:
    def test_window_assignment(self):
        assert nearest_threshold_index(1.1 * PI**2) == 1
        assert nearest_threshold_index(4.0 * PI**2) == 2
        assert nearest_threshold_index(3.9 * PI**2) == 2
        # upper half of a window is assigned to the threshold above
        assert nearest_threshold_index(6.0 * PI**2) == 3
        assert nearest_threshold_index(8.9 * PI**2) == 3

    def test_non_finite_energy_rejected(self):
        from wirescat import propagating_count
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                nearest_threshold_index(bad)
            with pytest.raises(DomainError):
                propagating_count(bad)
            with pytest.raises(DomainError):
                regularized_scale_tail_subtraction(0.3, bad, 2)

    def test_unresolvable_energy_rejected_promptly(self, canonical_impurity, alarm):
        # from (2^52 pi)^2 up neighbouring cut-offs round together: the mode
        # counts must raise there, not search forever for a count
        from wirescat import propagating_count, sweep
        from wirescat.specfun import _MAX_ENERGY

        with alarm(5):
            for bad in (_MAX_ENERGY, 1e34, 1e100):
                named = re.escape(f"energy {bad}")
                with pytest.raises(DomainError, match=named):
                    propagating_count(bad)
                with pytest.raises(DomainError, match=named):
                    nearest_threshold_index(bad)
                with pytest.raises(DomainError, match=named):
                    scattered_field_grid(canonical_impurity, 1, bad, [0.0], [0.5])
                (point,) = sweep(canonical_impurity, [bad])
                assert f"energy {bad}" in point.error
            below = math.nextafter(_MAX_ENERGY, 0.0)
            p = propagating_count(below)
            assert threshold_energy(p) < below <= threshold_energy(p + 1)
            assert nearest_threshold_index(below) >= p

    def test_window_always_brackets_propagating_modes(self):
        from wirescat import propagating_count
        rng = np.random.default_rng(3)
        for _ in range(100):
            omega = float(rng.uniform(1.01, 24.9)) * PI**2
            m = nearest_threshold_index(omega)
            assert propagating_count(omega) <= m
            assert omega < threshold_energy(m + 1)


class TestRegularizedScale:
    def test_ladder_start_independence(self):
        a = regularized_scale(0.37, 1.02 * OM_2, 2, ladder_start=1e-2)
        b = regularized_scale(0.37, 1.02 * OM_2, 2, ladder_start=1e-3)
        assert abs(math.log(a) - math.log(b)) < 1e-8

    def test_against_brute_force_ladder(self):
        # independent partial sums + hand-rolled extrapolation (conftest)
        val = regularized_scale(0.5, OM_2, 2)
        ref = math.exp(brute_force_log_scale(0.5, OM_2, 2))
        assert val == pytest.approx(ref, rel=1e-7)

    def test_matches_tail_subtraction_route(self):
        for eps, omega, m in [(0.3, OM_2, 2), (0.3, 1.05 * OM_2, 2),
                              (0.62, 0.97 * (3 * PI) ** 2, 3)]:
            a = regularized_scale(eps, omega, m)
            b = regularized_scale_tail_subtraction(eps, omega, m)
            assert abs(math.log(a) - math.log(b)) < 1e-8

    def test_two_sided_window(self):
        # omega slightly below the cut-off is equally valid
        val = regularized_scale(0.3, 0.98 * OM_2, 2)
        ref = regularized_scale_tail_subtraction(0.3, 0.98 * OM_2, 2)
        assert val == pytest.approx(ref, rel=1e-7)

    def test_near_wall_asymptotics_against_surface_formula(self):
        # Delta-level comparison: the general resonance parameter against
        # its wall-impurity reduction, real parts within 1%
        eps, m = 1e-3, 2
        for rho0 in (1e-7, 1e-12):
            full = resonance_parameter(Impurity(eps, rho0), m)
            surf = surface_resonance_parameter(Impurity(eps, rho0), m)
            assert abs(full.real - surf.real) / abs(full.real) < 0.01

    def test_window_violations_rejected(self):
        with pytest.raises(DomainError):
            regularized_scale(0.3, 9.5 * PI**2, 2)   # above mode-3 cut-off
        with pytest.raises(DomainError):
            regularized_scale(0.3, 8.9 * PI**2, 1)   # propagating modes above m
        with pytest.raises(DomainError):
            regularized_scale(1.5, OM_2, 2)

    def test_omega_domain_edge(self):
        # the last-rung gap grows like |omega|: at -1e4 the default ladder
        # still meets its 1e-9 target, at -2e4 it raises instead of returning
        # a value ~3e-8 off (as it did at -1e6); a looser target is honoured
        ref = math.log(regularized_scale_tail_subtraction(0.3, -1e4, 1))
        assert abs(math.log(regularized_scale(0.3, -1e4, 1)) - ref) < 1e-9
        with pytest.raises(ConvergenceError):
            regularized_scale(0.3, -2e4, 1)
        ref = math.log(regularized_scale_tail_subtraction(0.3, -1e6, 1))
        assert abs(math.log(regularized_scale(0.3, -1e6, 1, stability=1e-7)) - ref) < 1e-7

    def test_unconverged_ladder_raises(self):
        # an impurity this close to the wall needs rungs beyond the term
        # budget: the defect must be reported, not a silently wrong limit
        with pytest.raises(ConvergenceError):
            regularized_scale(1e-6, OM_2, 2)


def partial_sum_log_scale(eps, omega, m, n_terms):
    """ln(rho_bar) from the closed form with its mode sum summed directly to
    n_terms and the smooth remainder restored by the integral of the
    average term; numpy only, no library kernels."""
    total = 0.0
    for lo in range(m + 1, n_terms + 1, 1 << 20):
        npi = np.arange(lo, min(lo + (1 << 20), n_terms + 1), dtype=float) * PI
        total += float(np.sum(np.sin(npi * eps) ** 2
                              * (1.0 / np.sqrt(npi**2 - omega) - 1.0 / npi)))
    big_x = PI * (n_terms + 0.5)
    tail = math.log(2.0 * big_x / (big_x + math.sqrt(big_x**2 - omega)))
    harmonic = sum(1.0 / q for q in range(1, m + 1))
    cos_part = sum(math.cos(2 * q * PI * eps) / q for q in range(1, m + 1))
    return (math.log(2 / PI) + 0.5772156649015329 / 2 - harmonic
            + math.log(2 * math.sin(PI * eps)) + cos_part + 2 * PI * total + tail)


class TestTailSubtraction:
    @pytest.mark.parametrize("eps", [3e-6, 1e-5, 1e-3, 0.01, 0.3, 0.5, 0.999])
    def test_matches_long_partial_sums(self, eps):
        # within 1e-3 of a wall the oscillating tail decays over ~1/eps
        # modes; these cases also catch a summation-by-parts series run past
        # its smallest term, whose roundoff grows like |1 - e^{2 pi i eps}|^-k
        n_terms = 4_000_000 if min(eps, 1 - eps) < 2e-3 else 1_000_000
        for m in range(1, 6):
            gap = threshold_energy(m + 1) - threshold_energy(m)
            for side in (-0.25, 0.4):
                omega = threshold_energy(m) + side * gap
                got = math.log(regularized_scale_tail_subtraction(eps, omega, m))
                ref = partial_sum_log_scale(eps, omega, m, n_terms)
                assert abs(got - ref) <= 1e-12, (m, omega)

    def test_wall_beyond_term_budget_raises(self):
        with pytest.raises(ConvergenceError):
            regularized_scale_tail_subtraction(1e-8, OM_2, 2)

    @pytest.mark.parametrize("eps, need", [(1e-300, "6.4e+301"), (1e-310, "inf"),
                                           (5e-324, "inf")])
    def test_wall_beyond_float_range_raises(self, eps, need):
        # below eps ~ 3.6e-307 the head's 64/eps overflows to inf: the budget
        # is compared in floats, and the count printed with three digits
        with pytest.raises(ConvergenceError, match=f"needs {re.escape(need)} exact terms"):
            regularized_scale_tail_subtraction(eps, OM_2, 2)
        with pytest.raises(ConvergenceError, match=f"needs {re.escape(need)} exact terms"):
            regularized_scales(eps, [50.0], [2])


def scalar_loop_scale(eps, omega, m):
    """rho_bar by the one-energy loops that preceded regularized_scales: the
    same formulas and the same floating-point operations in the same order,
    one energy at a time (the reference for bit-for-bit equality)."""
    edge = min(eps, 1.0 - eps)
    n0 = max(512, math.ceil(64.0 / edge), math.ceil(8.0 * math.sqrt(abs(omega)) / PI), m)
    head = 0.0
    for lo in range(m + 1, n0 + 1, 1 << 19):
        npi = np.arange(lo, min(lo + (1 << 19), n0 + 1), dtype=np.float64) * np.pi
        root = np.sqrt(npi * npi - omega)
        head += np.sum(np.sin(npi * edge) ** 2 * omega / (root * npi * (npi + root)))
    a = n0 + 1.0
    x, inv_a2 = omega / (PI * a) ** 2, 1.0 / (a * a)
    smooth, coef = 0.0, 1.0
    for j in range(1, 64):
        coef *= x * (2 * j - 1) / (2 * j)
        s = 2 * j + 1
        scaled = 1.0 / (s - 1) + 0.5 / a
        rising, power = float(s), inv_a2
        for i, c in enumerate((1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160), 1):
            scaled += c * rising * power
            rising *= (s + 2 * i - 1) * (s + 2 * i)
            power *= inv_a2
        term = coef * scaled
        smooth += term
        if abs(term) <= 1e-17 * abs(smooth):
            break
    n = np.arange(n0 + 1, n0 + 9, dtype=np.float64) * np.pi
    root = np.sqrt(n * n - omega)
    diffs = omega / (root * n * (n + root))
    half = 0.5 / math.sin(PI * edge)
    ratio = complex(-math.sin(PI * edge), math.cos(PI * edge)) * half
    phase = PI * (2.0 * ((n0 + 1) * edge % 1.0) - edge)
    lead = complex(-math.sin(phase), math.cos(phase)) * half
    osc, last = 0.0, math.inf
    for _ in range(8):
        term = lead * diffs[0]
        if abs(term) >= last:
            break
        osc += term
        last = abs(term)
        lead *= ratio
        diffs = np.diff(diffs)
    rest = head + (0.5 * (smooth / PI) - 0.5 * osc.real)
    harmonic = sum(1.0 / q for q in range(1, m + 1))
    cos_part = sum(math.cos(2.0 * q * PI * eps) / q for q in range(1, m + 1))
    return math.exp(math.log(2.0 / PI) + 0.5772156649015329 / 2.0 - harmonic
                    + math.log(2.0 * math.sin(PI * edge)) + cos_part + 2.0 * PI * rest)


def window_energies(m):
    """Three energies of the window of cut-off m: below its cut-off (for
    m = 1, below pi^2, where no mode propagates), just above it, and just
    below the next one."""
    lo, hi = threshold_energy(m), threshold_energy(m + 1)
    below = lo - 0.3 * (lo - threshold_energy(m - 1)) if m > 1 else 0.4 * lo
    return [below, lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo)]


class TestBatchedScale:
    """regularized_scales is the production rho_bar route; the one-energy
    call is its batch of one, and every energy of a batch gets the bits of
    that call whatever else the batch holds."""

    WALL_WINDOWS = [(omega, m) for m in (1, 30) for omega in window_energies(m)]

    @pytest.mark.parametrize("eps, energies", [
        # energies below pi^2 with |omega| large enough to set N0 themselves
        (0.3, [(omega, m) for m in range(1, 31) for omega in window_energies(m)]
         + [(omega, 1) for omega in (-1e6, -1e5, -4e4, 1e-3, 0.0)]),
        # N0 = 6.4e6 at either wall: thirteen 2^19-term chunks per energy
        (1e-5, WALL_WINDOWS),
        (1.0 - 1e-5, WALL_WINDOWS),
        # N0 = 32000: the 40 energies of window 2 take 3 blocks of the head
        (2e-3, [(omega, 2) for omega in np.linspace(12.0, 88.0, 40)] + [(-1e6, 1)]),
    ], ids=["middle", "lower-wall", "upper-wall", "blocks"])
    def test_batch_equals_one_energy_calls(self, eps, energies):
        omegas, ms = zip(*energies)
        got = regularized_scales(eps, omegas, ms)
        assert got.shape == (len(omegas),)
        for omega, m, value in zip(omegas, ms, got.tolist()):
            assert value == regularized_scale_tail_subtraction(eps, omega, m), (omega, m)

    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.5, 0.77, 0.999])
    def test_equals_scalar_loops(self, eps):
        rng = np.random.default_rng(int(eps * 1000))
        ms = rng.integers(1, 31, 120)
        omegas = [float(rng.uniform(threshold_energy(m) - 40.0, threshold_energy(m + 1)))
                  for m in ms]
        # |omega| = (N0 pi / 8)^2, where the smooth tail's series is longest,
        # and both zeros
        omegas += [-1e6, -(2547 * PI / 8.0) ** 2, -3e5, 0.0, -0.0]
        ms = [*ms, 1, 1, 1, 1, 1]
        got = regularized_scales(eps, omegas, ms)
        assert got.tolist() == [scalar_loop_scale(eps, o, int(m)) for o, m in zip(omegas, ms)]

    def test_first_faulty_energy_is_reported(self):
        with pytest.raises(DomainError, match="above the cut-off of mode 3"):
            regularized_scales(0.3, [50.0, 100.0, 1e4], [2, 2, 2])
        with pytest.raises(ConvergenceError, match="terms"):
            regularized_scales(1e-8, [50.0], [2])
        with pytest.raises(DomainError, match="0 < eps < 1"):
            regularized_scales(1.0, [50.0], [2])

    def test_empty_batch(self):
        assert regularized_scales(0.3, [], []).shape == (0,)


class TestAmplitudes:
    OM = 1.05 * OM_2

    def test_node_of_outgoing_mode_gives_zero(self):
        imp = Impurity(epsilon=0.5, rho0=0.01)
        a = scattering_amplitude(imp, 1, 2, self.OM)
        assert abs(a) < 1e-15

    def test_wall_limit_amplitudes_vanish_quadratically(self):
        vals = []
        for eps in (1e-2, 1e-3):
            imp = Impurity(epsilon=eps, rho0=0.01)
            vals.append(abs(scattering_amplitude(imp, 1, 1, self.OM)))
        assert vals[0] < 1e-3
        # numerator sin^2 ~ eps^2 beats the logarithmic bracket growth
        assert vals[1] < vals[0] * 1e-1

    def test_reciprocity(self, canonical_impurity):
        omega = 1.2 * OM_2
        for n, l in [(1, 2), (2, 1), (1, 3), (1, 5)]:
            if omega <= threshold_energy(n):
                continue
            k_l = longitudinal_wavenumber(l, omega)
            k_n = longitudinal_wavenumber(n, omega)
            a_nl = scattering_amplitude(canonical_impurity, n, l, omega)
            if omega > threshold_energy(l):
                a_ln = scattering_amplitude(canonical_impurity, l, n, omega)
                assert a_nl * k_l == pytest.approx(a_ln * k_n, abs=1e-10)

    def test_flux_unitarity_random_parameters(self):
        rng = np.random.default_rng(11)
        tried = 0
        while tried < 100:
            omega = float(rng.uniform(1.1, 8.9)) * PI**2
            if min(abs(omega - threshold_energy(q)) for q in range(1, 4)) < 0.1:
                continue
            eps = float(rng.uniform(0.05, 0.95))
            rho0 = float(10 ** rng.uniform(-5, -1))
            p = 1 if omega < OM_2 else 2
            n = int(rng.integers(1, p + 1))
            sol = solve_scattering(Impurity(eps, rho0), n, omega)
            assert sol.unitarity_defect < 1e-8
            tried += 1

    def test_amplitude_table_conventions(self, canonical_impurity):
        sol = solve_scattering(canonical_impurity, 1, self.OM)
        assert sol.transmitted(1) == 1.0 - sol.amplitudes[1]
        assert sol.transmitted(2) == -sol.amplitudes[2]
        assert sol.reflected(2) == -sol.amplitudes[2]

    def test_threshold_energy_refused(self, canonical_impurity):
        with pytest.raises(ThresholdEnergyError):
            scattering_amplitude(canonical_impurity, 1, 2, OM_2, m=2)

    def test_nonpropagating_incidence_refused(self, canonical_impurity):
        with pytest.raises(DomainError):
            scattering_amplitude(canonical_impurity, 3, 1, self.OM)

    def test_off_resonant_amplitude_scaling(self, canonical_impurity):
        # |A_11| ~ sqrt(omega - (2 pi)^2) approaching the cut-off
        deltas = OM_2 * np.logspace(-7, -3, 9)
        vals = [abs(scattering_amplitude(canonical_impurity, 1, 1,
                                         OM_2 + d, m=2)) for d in deltas]
        slope = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.05)


class TestOneAmplitudeRoute:
    """solve_scattering, scattering_amplitude and resonance_parameter read one
    closed-form core, so they agree bit for bit and a solve pays for rho_bar
    once."""

    def test_rho_bar_evaluated_once_per_solve(self, monkeypatch, canonical_impurity):
        from wirescat import scatter

        calls = []
        real = scatter.regularized_scale_tail_subtraction

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(scatter, "regularized_scale_tail_subtraction", counted)
        sol = solve_scattering(canonical_impurity, 1, 1.05 * OM_2)
        assert sol.resonance_inv_sqrt is not None
        assert len(calls) == 1

    def test_solution_matches_single_amplitudes_bit_for_bit(self):
        rng = np.random.default_rng(23)
        for _ in range(16):
            omega = float(rng.uniform(1.1, 15.9)) * PI**2
            imp = Impurity(float(rng.uniform(0.05, 0.95)), float(10 ** rng.uniform(-5, -1)))
            m = nearest_threshold_index(omega)
            n = int(rng.integers(1, m)) if m > 1 else 1
            sol = solve_scattering(imp, n, omega)
            for l in sorted({1, n, m, m + 1, m + 20}):
                assert sol.amplitudes[l] == scattering_amplitude(imp, n, l, omega)
            assert sol.resonance_inv_sqrt == resonance_parameter(imp, m, omega)

    def test_decoupled_resonance_reported_as_none(self):
        imp = Impurity(0.5, 0.01)
        sol = solve_scattering(imp, 1, 1.05 * OM_2)
        assert sol.resonance_inv_sqrt is None
        with pytest.raises(DecoupledModeError):
            resonance_parameter(imp, 2, 1.05 * OM_2)

    def test_short_truncation_keeps_every_open_channel_in_the_defect(self, canonical_impurity):
        # omega = 45 opens two channels; l_max = 1 truncates below them
        full = solve_scattering(canonical_impurity, 1, 45.0)
        short = solve_scattering(canonical_impurity, 1, 45.0, l_max=1)
        assert list(short.amplitudes) == [1]
        assert short.amplitudes[1] == full.amplitudes[1]
        assert short.unitarity_defect == full.unitarity_defect < 1e-8
        for bad in (0, -3):
            with pytest.raises(DomainError, match="l_max"):
                solve_scattering(canonical_impurity, 1, 45.0, l_max=bad)


class TestScatteredField:
    OM = 1.05 * OM_2

    @NON_FINITE_POSITIONS
    def test_non_finite_position_rejected(self, canonical_impurity, r, name):
        with pytest.raises(DomainError, match=f"positions {name} "):
            scattered_field(canonical_impurity, 1, self.OM, r)
        xs = np.array([-0.5, r[0], 0.5])
        ys = np.array([0.25, r[1], 0.75])
        with pytest.raises(DomainError, match=f"positions {name} "):
            scattered_field_grid(canonical_impurity, 1, self.OM, xs, ys)

    @pytest.mark.parametrize("omega", [1.3 * PI**2, 4.6 * PI**2, 9.4 * PI**2],
                             ids=["m1", "m2", "m3"])
    def test_scattered_wave_is_the_mode_sum_green_function(self, canonical_impurity, omega):
        # psi_sc = (s_n/B) G(r, r0) with the bracket B = s_n^2/(i k_n A_nn):
        # the field's amplitude table and its |x|-dependent truncation l_max
        # (it grows at |x| = 0.07) against a plain 400-mode sum
        n, eps = 1, canonical_impurity.epsilon
        xs = np.array([-1.2, -0.07, 0.07, 0.45, 1.6])
        ys = np.array([0.13, 0.37, 0.58, 0.86])
        psi = scattered_field_grid(canonical_impurity, n, omega, xs, ys)
        k_n = longitudinal_wavenumber(n, omega)
        scattered = psi - np.outer(np.sin(n * PI * ys), np.exp(1j * k_n * xs))
        s_n = math.sin(n * PI * eps)
        a_nn = solve_scattering(canonical_impurity, n, omega).amplitudes[n]
        bracket = s_n**2 / (1j * k_n * a_nn)
        green = np.array([[brute_force_green(y, eps, abs(x), omega, 400) for x in xs]
                          for y in ys])
        gap = np.max(np.abs(scattered - s_n / bracket * green))
        assert gap <= 1e-12 * np.max(np.abs(scattered))

    def test_empty_axis_gives_empty_grid(self, canonical_impurity):
        xs, ys, empty = np.linspace(-1.0, 1.0, 5), np.linspace(0.1, 0.9, 3), np.array([])
        for grid_xs, grid_ys in ((empty, ys), (xs, empty), (empty, empty)):
            grid = scattered_field_grid(canonical_impurity, 1, self.OM,
                                        grid_xs, grid_ys)
            assert grid.shape == (len(grid_ys), len(grid_xs))

    def test_grid_over_the_size_limit_refused_before_it_is_built(self, canonical_impurity,
                                                                 alarm):
        # 20000 x 20000 points: 5.96 GiB of complex values for one map
        xs, ys = np.linspace(1.0, 2.0, 20000), np.linspace(0.01, 0.99, 20000)
        message = "field grid of 20000 x and 20000 y: 400000000 values"
        with alarm(5):
            with pytest.raises(DomainError, match=message):
                scattered_field_grid(canonical_impurity, 1, 50.0, xs, ys)
            with pytest.raises(DomainError, match=message):
                threshold_field_grid(canonical_impurity, 1, 2, xs, ys)

    def test_synthesis_over_the_size_limit_refused_before_the_amplitudes(
            self, canonical_impurity, monkeypatch):
        # at omega = 1e13 the default truncation is l_max = 1006624 modes, for
        # 68 distinct |x| and 41 y of the CLI's default grid
        from wirescat import scatter

        def unreached(*args):
            raise AssertionError("amplitudes built")

        monkeypatch.setattr(scatter, "_amplitude_table", unreached)
        monkeypatch.setattr(scatter, "_cutoff_wavenumbers", unreached)
        xs, ys = np.linspace(-2.0, 2.0, 81), np.linspace(0.0, 1.0, 43)[1:-1]
        with pytest.raises(DomainError, match="l_max = 1006624 modes over 68 distinct "
                                              r"\|x\| and 41 y: 109722016 values"):
            scattered_field_grid(canonical_impurity, 1, 1e13, xs, ys)
        # on a node of mode m the cut-off field is synthesized over m + 40 modes
        with pytest.warns(DecoupledModeWarning), \
                pytest.raises(DomainError, match="l_max = 1000040 modes over 2 distinct"):
            threshold_field_grid(Impurity(0.5, 0.01), 1, 10**6, [0.3, 0.6], [0.3, 0.6])

    def test_continuity_across_the_impurity_plane(self, canonical_impurity):
        up = scattered_field(canonical_impurity, 1, self.OM, (1e-9, 0.43))
        dn = scattered_field(canonical_impurity, 1, self.OM, (-1e-9, 0.43))
        assert abs(up - dn) < 1e-6

    def test_vanishing_coupling_returns_incident_wave(self):
        # |ln rho0| -> inf kills the coupling; the float floor rho0=1e-300
        # leaves |A| ~ 1e-3, shrinking as the logarithm grows
        k1 = longitudinal_wavenumber(1, self.OM)
        devs = []
        for rho0 in (1e-100, 1e-300):
            imp = Impurity(epsilon=0.3, rho0=rho0)
            worst = 0.0
            for y in (0.2, 0.45, 0.8):
                for x in (-0.7, 0.2, 0.9):
                    psi = scattered_field(imp, 1, self.OM, (x, y))
                    inc = math.sin(PI * y) * np.exp(1j * k1 * x)
                    worst = max(worst, abs(psi - inc))
            devs.append(worst)
        assert devs[0] < 2e-2
        assert devs[1] < 0.4 * devs[0]

    def test_grid_matches_pointwise_evaluation(self, canonical_impurity):
        xs = np.array([-0.5, 0.25])
        ys = np.array([0.3, 0.71])
        grid = scattered_field_grid(canonical_impurity, 1, self.OM, xs, ys,
                                    l_max=60)
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                val = scattered_field(canonical_impurity, 1, self.OM,
                                      (x, y), l_max=60)
                assert grid[iy, ix] == pytest.approx(val, rel=1e-12)

    def test_density_grid_against_two_mode_reduction(self, canonical_impurity):
        # in the universal window the full solution collapses onto the
        # incident plus resonant mode; the residue is the off-resonant
        # evanescent cloud, largest near the impurity cross-section
        omega = OM_2 * 1.0001
        xs = np.linspace(-1, 1, 21)
        ys = np.linspace(0.05, 0.95, 19)
        full = scattered_field_grid(canonical_impurity, 1, omega, xs, ys)
        near = np.array([
            [near_threshold_field(canonical_impurity, 1, 2, omega, (x, y))
             for x in xs] for y in ys
        ])
        assert np.max(np.abs(np.abs(full) ** 2 - np.abs(near) ** 2)) < 0.03


class TestResonanceParameter:
    def test_first_threshold_is_purely_real(self):
        imp = Impurity(epsilon=0.37, rho0=0.02)
        d = resonance_parameter(imp, 1)
        assert d.imag == 0.0
        rb = regularized_scale_tail_subtraction(0.37, threshold_energy(1), 1)
        assert d.real == pytest.approx(
            math.log(imp.rho0 / rb) / (2 * PI * math.sin(0.37 * PI) ** 2), rel=1e-12
        )

    def test_matched_scale_zeroes_real_part(self):
        rb = regularized_scale_tail_subtraction(0.3, threshold_energy(2), 2)
        d = resonance_parameter(Impurity(0.3, rb), 2)
        assert d.real == 0.0

    def test_decoupled_node_rejected(self):
        with pytest.raises(DecoupledModeError):
            resonance_parameter(Impurity(0.5, 0.01), 2)

    def test_surface_comparison(self):
        imp = Impurity(1e-3, 1e-7)
        full = resonance_parameter(imp, 2)
        surf = surface_resonance_parameter(imp, 2)
        assert abs(full.real - surf.real) / abs(full.real) < 0.01


class TestNearThresholdField:
    @NON_FINITE_POSITIONS
    def test_non_finite_position_rejected(self, canonical_impurity, r, name):
        with pytest.raises(DomainError, match=f"positions {name} "):
            near_threshold_field(canonical_impurity, 1, 2, 40.0, r)

    def test_reduces_to_threshold_field_exactly_at_cutoff(self, canonical_impurity):
        omega = threshold_energy(2)
        for r in [(0.5, 0.25), (-0.3, 0.6), (0.0, 0.31)]:
            a = near_threshold_field(canonical_impurity, 1, 2, omega, r)
            b = threshold_field(canonical_impurity, 1, 2, r)
            assert a == b

    def test_resonant_coefficient_at_quarter_position(self):
        imp = Impurity(epsilon=0.25, rho0=0.01)
        omega = threshold_energy(2)
        y = 0.25
        psi = near_threshold_field(imp, 1, 2, omega, (0.0, y))
        inc = math.sin(PI * y)
        coef = (inc - psi) / math.sin(2 * PI * y)
        assert coef == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_agreement_with_full_field_improves_toward_cutoff(self, canonical_impurity):
        d = resonance_parameter(canonical_impurity, 2)
        delta2 = 1.0 / abs(d) ** 2
        xs = np.linspace(-1, 1, 11)
        ys = np.linspace(0.05, 0.95, 9)
        devs = []
        for scale in (1e-2, 1e-4, 1e-6):
            omega = threshold_energy(2) + scale * delta2
            full = scattered_field_grid(canonical_impurity, 1, omega, xs, ys)
            near = np.array([
                [near_threshold_field(canonical_impurity, 1, 2, omega, (x, y))
                 for x in xs] for y in ys
            ])
            devs.append(float(np.max(np.abs(full - near))))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 2e-3

    def test_resonant_mode_coefficient_tracks_full_amplitude(self, canonical_impurity):
        d = resonance_parameter(canonical_impurity, 2)
        delta2 = 1.0 / abs(d) ** 2
        omega = threshold_energy(2) + 1e-4 * delta2
        k2 = longitudinal_wavenumber(2, omega)
        reduced = (math.sin(0.3 * PI) / math.sin(0.6 * PI)) / (1 + 1j * k2 * d)
        full = scattering_amplitude(canonical_impurity, 1, 2, omega, m=2)
        assert full == pytest.approx(reduced, abs=5e-8)

    def test_warns_outside_validity_region(self, canonical_impurity):
        with pytest.warns(ValidityWarning):
            near_threshold_field(canonical_impurity, 1, 2,
                                 1.2 * OM_2, (0.3, 0.4))


class TestThresholdField:
    def test_closed_form_value(self):
        imp = Impurity(epsilon=0.25, rho0=0.01)
        x, y = 0.5, 0.25
        psi = threshold_field(imp, 1, 2, (x, y))
        k = longitudinal_wavenumber(1, threshold_energy(2)).real
        expect = math.sin(PI * y) * np.exp(1j * k * x) \
            - (math.sqrt(2) / 2) * math.sin(2 * PI * y)
        assert psi == pytest.approx(complex(expect), abs=1e-12)

    def test_strength_independence_bit_for_bit(self):
        outs = [
            threshold_field(Impurity(0.3, rho0), 1, 2, (0.4, 0.7))
            for rho0 in (1e-5, 1e-3, 1e-1)
        ]
        assert outs[0] == outs[1] == outs[2]

    def test_node_gives_the_strength_dependent_limit_with_warning(self):
        # on a node of mode 2 the open channel still scatters at the cut-off
        r = (0.3, 0.4)
        psi = {}
        for rho0 in (1e-3, 1e-2):
            with pytest.warns(DecoupledModeWarning, match="depends on the impurity strength"):
                psi[rho0] = threshold_field(Impurity(0.5, rho0), 1, 2, r)
            near = scattered_field(Impurity(0.5, rho0), 1, OM_2 * (1.0 + 1e-12), r)
            assert abs(psi[rho0] - near) < 1e-9
        k = longitudinal_wavenumber(1, threshold_energy(2)).real
        incident = math.sin(0.4 * PI) * np.exp(1j * k * 0.3)
        assert min(abs(value - incident) for value in psi.values()) > 0.1
        assert abs(psi[1e-3] - psi[1e-2]) > 0.1

    def test_nonpropagating_incidence_rejected(self):
        with pytest.raises(DomainError):
            threshold_field(Impurity(0.3, 0.01), 2, 2, (0.1, 0.5))

    @pytest.mark.parametrize("r, name", [((math.nan, 0.5), "x"), ((math.inf, 0.5), "x"),
                                         ((0.1, math.inf), "y"), ((0.1, math.nan), "y")])
    def test_non_finite_position_rejected(self, r, name):
        with pytest.raises(DomainError, match=f"positions {name} "):
            threshold_field(Impurity(0.3, 0.01), 1, 2, r)

    def test_point_value_is_the_grid_value_bit_for_bit(self):
        xs = np.linspace(-2.0, 2.0, 21)
        ys = np.linspace(0.0, 1.0, 13)[1:-1]
        for m in (2, 3):
            imp = Impurity(0.37, 1e-3)
            grid = threshold_field_grid(imp, 1, m, xs, ys)
            assert grid.shape == (len(ys), len(xs))
            points = np.array([[threshold_field(imp, 1, m, (x, y)) for x in xs]
                               for y in ys])
            assert np.array_equal(grid.view(np.uint64), points.view(np.uint64))

    def test_node_warns_once_for_the_whole_grid(self):
        xs = np.array([-6.0, -1.0, 0.0, 1.0, 6.0])
        ys = np.linspace(0.1, 0.9, 5)
        imp = Impurity(0.5, 0.01)
        with pytest.warns(DecoupledModeWarning) as record:
            grid = threshold_field_grid(imp, 1, 2, xs, ys)
        assert len(record) == 1
        # six widths from the impurity the evanescent modes (k >= sqrt(5) pi)
        # are gone: the incident wave minus the open channel's cut-off limit
        a_11 = threshold_amplitude_limit(imp, 1, 2, l=1)
        assert threshold_amplitude_limit(imp, 1, 2) == 0
        k = longitudinal_wavenumber(1, threshold_energy(2)).real
        for ix in (0, 4):
            far = np.sin(PI * ys) * (np.exp(1j * k * xs[ix]) - a_11 * np.exp(1j * k * 6.0))
            assert np.max(np.abs(grid[:, ix] - far)) < 1e-12

    @pytest.mark.parametrize("eps", [0.3, 0.37, 0.5])
    def test_runs_continuously_into_the_cutoff(self, eps):
        # off a node the resonant term closes the gap like sqrt(delta): 10x
        # per 100x step, up to the next order; on the node of mode 2
        # (eps = 0.5) it closes at least as fast
        imp = Impurity(eps, 1e-3)
        xs = np.linspace(-2.0, 2.0, 9)
        ys = np.linspace(0.0, 1.0, 7)[1:-1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DecoupledModeWarning)
            cutoff = threshold_field_grid(imp, 1, 2, xs, ys)
        gaps = [np.max(np.abs(scattered_field_grid(imp, 1, OM_2 * (1.0 + delta), xs, ys)
                              - cutoff))
                for delta in (1e-8, 1e-10, 1e-12)]
        assert gaps[0] < 1e-2, gaps
        assert gaps[0] >= 9.9 * gaps[1] and gaps[1] >= 9.9 * gaps[2], gaps


class TestDistinctColumns:
    """scattered_field_grid synthesizes each distinct |x| once and gathers its
    columns; the grid has the bits of one synthesis over every column.  The
    check runs with one BLAS thread, as the benchmark does, and with two: the
    bits of a matrix product depend on how BLAS splits it among its threads,
    so the identity is only known for the thread counts checked here.
    """

    CHECK = """
import json, math
import numpy as np
from wirescat import Impurity, kernels, scattered_field_grid
from wirescat.scatter import _amplitude_table

impurity, omega, l_max = Impurity(0.41, 0.003), 4.7 * math.pi**2, 402
_, k, amp = _amplitude_table(impurity, omega, 2, [1], range(1, l_max + 1))
grids = {
    "cli-default": (np.linspace(-2.0, 2.0, 81), 41),
    "benchmark": (np.linspace(-2.0, 2.0, 401), 201),
    "asymmetric": (np.linspace(-0.7, 2.3, 157), 37),
    "without-x=0": (np.linspace(-2.0, 2.0, 80), 40),
    "one-distinct-|x|": (np.array([-1.0, 1.0]), 5),
    "one-row": (np.linspace(-2.0, 2.0, 5), 1),
}
differ = []
for name, (xs, ny) in grids.items():
    ys = np.linspace(0.0, 1.0, ny + 2)[1:-1]
    grid = scattered_field_grid(impurity, 1, omega, xs, ys,
                                l_max=l_max)
    every = kernels.field_grid(np.abs(xs), ys, -amp[0], k[:l_max])
    every += np.outer(np.sin(math.pi * ys), np.exp(1j * k[0] * xs))
    if not np.array_equal(grid.view(np.uint64), every.view(np.uint64)):
        differ.append(name)
print(json.dumps(differ))
"""

    def test_each_distinct_offset_is_synthesized_once(self, monkeypatch):
        widths = []
        synthesize = kernels.field_grid
        monkeypatch.setattr(kernels, "field_grid",
                            lambda xs, *args: widths.append(len(xs)) or synthesize(xs, *args))
        xs = np.linspace(-2.0, 2.0, 401)
        scattered_field_grid(Impurity(0.41, 0.003), 1, 4.7 * PI**2, xs,
                             np.array([0.3, 0.6]))
        # linspace's mirrored points differ in the last bit: 287 distinct |x|, not 201
        assert widths == [287]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bits_equal_every_column_synthesis(self, threads):
        src = str(Path(kernels.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                                             if p)}
        done = subprocess.run([sys.executable, "-c", self.CHECK], capture_output=True,
                              text=True, env=env, check=True)
        assert json.loads(done.stdout) == []


class TestSurfaceImpurity:
    def test_constant_value(self):
        c = surface_constant()
        assert c == pytest.approx(4.9591496352, rel=5e-4)
        assert c == pytest.approx(5.0, rel=0.05)  # the round-number estimate

    def test_wall_coefficient_lower(self):
        x, y = 0.4, 0.3
        psi = surface_threshold_field(1, 2, "lower", (x, y))
        inc = math.sin(PI * y) * np.exp(1j * PI * math.sqrt(3) * x)
        coef = (psi - inc) / math.sin(2 * PI * y)
        assert coef == pytest.approx(-0.5, abs=1e-12)

    def test_wall_sign_flip(self):
        r = (0.1, 0.37)
        lower = surface_threshold_field(1, 2, "lower", r)
        upper = surface_threshold_field(1, 2, "upper", r)
        inc = math.sin(PI * r[1]) * np.exp(1j * PI * math.sqrt(3) * r[0])
        assert (lower - inc) == pytest.approx(-(upper - inc), abs=1e-12)

    def test_requires_propagating_incidence(self):
        with pytest.raises(DomainError):
            surface_threshold_field(2, 2, "lower", (0.1, 0.5))

    @NON_FINITE_POSITIONS
    def test_non_finite_position_rejected(self, r, name):
        with pytest.raises(DomainError, match=f"positions {name} "):
            surface_threshold_field(1, 2, "lower", r)

    def test_position_must_be_near_a_wall(self):
        with pytest.raises(DomainError):
            surface_resonance_parameter(Impurity(0.3, 0.01), 2)

    def test_upper_wall_substitution(self):
        lo = surface_resonance_parameter(Impurity(1e-3, 1e-7), 2)
        hi = surface_resonance_parameter(Impurity(1.0 - 1e-3, 1e-7), 2)
        # 1 - (1 - 1e-3) differs from 1e-3 by one float ulp
        assert hi.real == pytest.approx(lo.real, rel=1e-9)


class TestOneDReference:
    def test_delta_half_reflection_point(self):
        barrier = OneDBarrier(kind="delta", alpha=0.8)
        assert reflection_1d(barrier, 0.8**2 / 4) == pytest.approx(0.5, rel=1e-15)

    def test_total_reflection_at_zero_energy_for_any_strength(self):
        for alpha in (1e-3, 0.1, 1.0, 25.0):
            assert reflection_1d(OneDBarrier(kind="delta", alpha=alpha), 0.0) == 1.0

    def test_weak_barrier_converges_to_delta(self):
        alpha = 0.05
        width = 1e-3
        weak = OneDBarrier(kind="weak-finite", delta_v=alpha / width, width=width)
        delta = OneDBarrier(kind="delta", alpha=alpha)
        for omega in (0.01, 0.1, 1.0):
            assert abs(reflection_1d(weak, omega) - reflection_1d(delta, omega)) < 1e-4

    def test_negative_energy_rejected(self):
        with pytest.raises(DomainError):
            reflection_1d(OneDBarrier(kind="delta", alpha=1.0), -0.5)

    @pytest.mark.parametrize("omega", [math.nan, math.inf])
    def test_non_finite_energy_rejected(self, omega):
        with pytest.raises(DomainError, match="energy"):
            reflection_1d(OneDBarrier(kind="delta", alpha=1.0), omega)

    @pytest.mark.parametrize("spec, name", [
        (dict(kind="delta", alpha=math.nan), "alpha"),
        (dict(kind="delta", alpha=math.inf), "alpha"),
        (dict(kind="weak-finite", delta_v=math.nan, width=1e-3), "delta_v"),
        (dict(kind="weak-finite", delta_v=50.0, width=math.nan), "width"),
    ])
    def test_non_finite_barrier_rejected(self, spec, name):
        with pytest.raises(DomainError, match=name):
            OneDBarrier(**spec)

    def test_strong_barrier_warns(self):
        with pytest.warns(ValidityWarning):
            OneDBarrier(kind="weak-finite", delta_v=100.0, width=0.5)


class TestThresholdLimit:
    def test_limit_matches_closed_form(self):
        lim = threshold_amplitude_limit(Impurity(0.3, 1e-3), 1, 2)
        target = math.sin(0.3 * PI) / math.sin(0.6 * PI)
        assert lim == pytest.approx(target, abs=1e-9)

    def test_off_resonant_modes_decouple(self):
        lim = threshold_amplitude_limit(Impurity(0.3, 1e-3), 1, 2, l=1)
        assert abs(lim) < 1e-9


    @staticmethod
    def _spread(eps, m, rho0s=(1e-5, 1e-3, 1e-1)):
        limits = [threshold_amplitude_limit(Impurity(eps, r0), 1, m) for r0 in rho0s]
        target = math.sin(PI * eps) / math.sin(m * PI * eps)
        spread = max(abs(a - b) for a in limits for b in limits) / abs(target)
        return spread, max(abs(c - target) for c in limits) / abs(target)

    def test_ladder_starts_inside_the_disc_of_analyticity(self):
        # |Delta_3^(-1/2)| = 37 for the strongest of these strengths: a limit
        # extrapolated on a ladder from k_m = 0.08 started outside the radius
        # 1/37 and spread 2.4e-6 across strengths; the core at k_m = 0 has
        # no radius to respect
        rho0s = (0.03893918219645293, 1.3316703468977595e-05, 0.01734200501769414)
        eps = 0.3552165050993091
        assert max(abs(resonance_parameter(Impurity(eps, r0), 3))
                   for r0 in rho0s) > 12.5
        spread, deviation = self._spread(eps, 3, rho0s)
        assert spread < 1e-8 and deviation < 1e-6

    @pytest.mark.parametrize("m, node", [(2, 0.5), (3, 1.0 / 3.0), (3, 2.0 / 3.0)])
    def test_near_node_sweep(self, m, node):
        # closer to a node of mode m, |Delta_m^(-1/2)| grows like 1/(eps - node)^2
        checked = 0
        for gap in np.geomspace(0.2, 1e-3, 25):
            for eps in (node - gap, node + gap):
                if not 0.05 <= eps <= 0.95:
                    continue
                size = max(abs(resonance_parameter(Impurity(eps, r0), m))
                           for r0 in (1e-5, 1e-3, 1e-1))
                if size > 1e3:
                    continue
                spread, deviation = self._spread(eps, m)
                assert spread < 1e-8 and deviation < 1e-6, (eps, size, spread, deviation)
                checked += 1
        assert checked >= 20

    def test_node_of_the_resonant_mode(self):
        # eps = 1/2 decouples mode 2: the resonant term leaves the bracket,
        # and A_11 takes its finite two-channel value; offsets above the
        # cut-off need Delta_2 and are refused
        lim = threshold_amplitude_limit(Impurity(0.5, 1e-3), 1, 2, l=1)
        k1 = math.sqrt(OM_2 - PI**2)
        rho_bar = regularized_scale_tail_subtraction(0.5, OM_2, 2)
        expect = 1.0 / (1j * k1 * (math.log(1e-3 / rho_bar) / (2 * PI) + 1.0 / (1j * k1)))
        assert lim == pytest.approx(expect, rel=1e-9)
        with pytest.raises(DecoupledModeError):
            cutoff_scan(0.5, [1e-3], 1, 2, [1e-2])

    def test_incidence_must_be_open_at_the_cutoff(self):
        with pytest.raises(DomainError, match="incident mode 2 does not propagate"):
            threshold_amplitude_limit(Impurity(0.3, 1e-3), 2, 2)

    def test_negative_offset_stays_below_the_cutoff(self):
        # only a positive offset that rounds onto (m pi)^2 is moved above it
        scan = cutoff_scan(0.3, [1e-3, 1e-1], 1, 2, [-1e-2, 1e-2])
        below, above = scan.offset_energies
        assert below < OM_2 < above


class TestCutoffContinuity:
    """The cut-off limits are the amplitude core at k_m = 0, where
    A_nm = s_n/s_m holds whatever rho_bar is.  What that value cannot show
    is checked here: rho_bar and the bracket run continuously into the
    cut-off.  Q = s_n s_m / A_nm = s_m^2 + i k_m R, with R the bracket
    without its resonant term, is analytic in k_m through the cut-off, so
    Neville extrapolation of Q over energies above it must land on s_m^2,
    however close the pole of A_nm is (|Delta_3^(-1/2)| up to 9.9e5 in the
    first case)."""

    @pytest.mark.parametrize("eps, m, rho0s", [
        # the seed-134 report of the cutoff-universality benchmark
        (0.3332118167489375, 3,
         (7.038239983454513e-05, 0.03210481149589653, 0.00016724252176652203)),
        (0.497, 2, (1e-5, 1e-3, 1e-1)),
        (0.665, 3, (1e-5, 1e-3, 1e-1)),
        (0.3, 4, (1e-5, 1e-3, 1e-1)),
        (0.61, 5, (1e-5, 1e-3, 1e-1)),
    ])
    def test_bracket_runs_into_the_cutoff(self, eps, m, rho0s):
        base = threshold_energy(m)
        omegas = [base + (0.08 * 0.5**j) ** 2 for j in range(8)]
        ks = [math.sqrt(omega - base) for omega in omegas]  # the k_m realized
        s_n, s_m = math.sin(PI * eps), math.sin(m * PI * eps)
        for rho0 in rho0s:
            q = [s_n * s_m / scattering_amplitude(Impurity(eps, rho0), 1, m, omega)
                 for omega in omegas]
            limit = neville_diagonal(ks, q)[-1]
            assert abs(limit - s_m**2) <= 1e-11 * s_m**2, (rho0, limit)
