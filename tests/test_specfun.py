import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from wirescat import (
    ConvergenceError,
    DomainError,
    EULER_GAMMA,
    cosine_integral,
    evanescent_gaussian_sum,
    longitudinal_wavenumber,
    propagating_count,
    threshold_energy,
)
from conftest import brute_force_cut_sum

# frozen values of the defining quadrature gamma + ln x + int_0^x (cos t - 1)/t dt
CI_PI = 0.07366791204642587
CI_ONE = 0.33740392290096805


def quad_ci(x):
    tail, _ = quad(lambda t: (math.cos(t) - 1.0) / t, 0.0, x, limit=400)
    return EULER_GAMMA + math.log(x) + tail


class TestCosineIntegral:
    def test_frozen_quadrature_values(self):
        assert cosine_integral(math.pi) == pytest.approx(CI_PI, abs=1e-9)
        assert cosine_integral(1.0) == pytest.approx(CI_ONE, abs=1e-9)
        # the frozen constants themselves come from the quadrature oracle
        assert quad_ci(math.pi) == pytest.approx(CI_PI, abs=1e-12)
        assert quad_ci(1.0) == pytest.approx(CI_ONE, abs=1e-12)

    def test_small_argument_log_divergence(self):
        x = 1e-8
        assert cosine_integral(x) == pytest.approx(EULER_GAMMA + math.log(x), abs=1e-10)

    def test_against_quadrature_grid(self):
        # 50 points across (0, 50]: direct integral oracle, mixed rel/abs
        for x in np.linspace(0.05, 50.0, 50):
            ref = quad_ci(float(x))
            assert cosine_integral(float(x)) == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_large_argument(self):
        # beyond the series/continued-fraction crossover
        for x in (4.0001, 10.0, 42.5, 100.0):
            ref = quad_ci(x)
            assert cosine_integral(x) == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            cosine_integral(0.0)
        with pytest.raises(DomainError):
            cosine_integral(-1.0)

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_rejects_non_finite(self, x):
        with pytest.raises(DomainError, match="x="):
            cosine_integral(x)


class TestEulerGamma:
    def test_value(self):
        assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-16)

    def test_exp_half_gamma(self):
        # enters the bound-state wavelength pi rho0 exp(gamma/2)/2
        assert math.exp(EULER_GAMMA / 2) == pytest.approx(1.3345682515, abs=1e-9)

    def test_consistent_with_cosine_integral_limit(self):
        x = 1e-7
        assert cosine_integral(x) - math.log(x) == pytest.approx(EULER_GAMMA, abs=1e-12)


class TestLongitudinalWavenumber:
    def test_propagating(self):
        k = longitudinal_wavenumber(1, (2 * math.pi) ** 2)
        assert k == pytest.approx(math.sqrt(3) * math.pi, abs=1e-12)
        assert k.imag == 0.0

    def test_evanescent_branch_decays(self):
        k = longitudinal_wavenumber(3, (2 * math.pi) ** 2)
        assert k == pytest.approx(1j * math.sqrt(5) * math.pi, abs=1e-12)
        assert k.real == 0.0
        # exp(i k |x|) must decay
        assert abs(np.exp(1j * k * 1.0)) < 1.0

    def test_exact_threshold_is_zero(self):
        k = longitudinal_wavenumber(2, threshold_energy(2))
        assert k == 0.0

    def test_branch_invariants_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            l = int(rng.integers(1, 9))
            omega = float(rng.uniform(0.1, 90.0))
            k = longitudinal_wavenumber(l, omega)
            assert k.real >= 0.0 and k.imag >= 0.0
            # exactly one component nonzero unless at a cut-off
            assert k.real == 0.0 or k.imag == 0.0
            assert abs(k) ** 2 == pytest.approx(abs(omega - (l * math.pi) ** 2), rel=1e-12)

    def test_rejects_bad_index(self):
        with pytest.raises(DomainError):
            longitudinal_wavenumber(0, 10.0)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_energy(self, omega):
        with pytest.raises(DomainError, match=f"energy must be finite, got {omega}"):
            longitudinal_wavenumber(2, omega)


class TestThresholdEnergy:
    @pytest.mark.parametrize("m", [0, math.nan, math.inf])
    def test_rejects_bad_index(self, m):
        with pytest.raises(DomainError, match=f"mode index must be an integer in 1..{2**52}, got {m}"):
            threshold_energy(m)


class TestPropagatingCount:
    def test_counts(self):
        assert propagating_count(0.5 * math.pi**2) == 0
        assert propagating_count(1.1 * math.pi**2) == 1
        assert propagating_count(4 * math.pi**2) == 1   # strictly below
        assert propagating_count(4.01 * math.pi**2) == 2
        assert propagating_count(9.5 * math.pi**2) == 3


class TestEvanescentGaussianSum:
    def test_half_width_position_keeps_odd_terms_only(self):
        # sin^2(n pi / 2) = 1 for odd n, 0 for even: compare against the
        # explicitly odd-only sum
        omega, m, rho = 4.0 * math.pi**2, 2, 0.05
        full = evanescent_gaussian_sum(0.5, omega, m, rho)
        n = np.arange(m + 1, 2000)
        odd = n[n % 2 == 1]
        ref = 2 * np.pi * np.sum(
            np.exp(-(odd * np.pi * rho / 2) ** 2) / np.sqrt((odd * np.pi) ** 2 - omega)
        )
        assert full == pytest.approx(float(ref), rel=1e-13)

    def test_wide_gaussian_kills_everything(self):
        assert evanescent_gaussian_sum(0.5, 4.0 * math.pi**2, 2, 10.0) < 1e-10

    def test_against_brute_force_partial_sum(self):
        eps, omega, m, rho = 0.3, 4.0 * math.pi**2, 2, 0.01
        ref = brute_force_cut_sum(eps, omega, m, rho, 1_000_000)
        assert evanescent_gaussian_sum(eps, omega, m, rho) == pytest.approx(ref, rel=1e-12)

    def test_monotone_decreasing_in_width(self):
        eps, omega, m = 0.37, 4.2 * math.pi**2, 2
        widths = [0.4, 0.2, 0.1, 0.05, 0.02, 0.01]
        values = [evanescent_gaussian_sum(eps, omega, m, r) for r in widths]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_log_plus_sum_converges_geometrically(self):
        # ln rho + S(rho) must settle toward the regularized limit: each
        # halving shrinks the difference by a uniform factor, approaching
        # the rho^2 law (ratio 1/4) once the rho^2 ln rho piece dies off
        eps, omega, m = 0.3, 4.0 * math.pi**2, 2
        rhos = [1e-2 * 0.5**k for k in range(9)]
        f = [math.log(r) + evanescent_gaussian_sum(eps, omega, m, r) for r in rhos]
        gaps = [abs(a - b) for a, b in zip(f, f[1:])]
        ratios = [g2 / g1 for g1, g2 in zip(gaps, gaps[1:])]
        assert all(r < 0.6 for r in ratios)
        assert ratios[-1] < 0.35

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            evanescent_gaussian_sum(0.3, 4.0 * math.pi**2, 2, 0.0)
        with pytest.raises(DomainError):
            evanescent_gaussian_sum(0.3, 9.5 * math.pi**2, 2, 0.01)  # mode 3 not evanescent
        for name in ("eps", "omega", "rho"):
            for value in (math.nan, math.inf):
                args = {"eps": 0.3, "omega": 4.0 * math.pi**2, "m": 2, "rho": 0.01, name: value}
                with pytest.raises(DomainError, match=f"{name} must be finite"):
                    evanescent_gaussian_sum(**args)

    @pytest.mark.parametrize("rho, need", [(1e-10, "4.11e+10"), (5e-324, "inf")])
    def test_width_beyond_term_budget_raises(self, rho, need):
        # 4.11/rho modes: checked as a float before int(), which fails on
        # inf, and before the sum, which would take half an hour at 1e-10
        with pytest.raises(ConvergenceError, match=f"needs {re.escape(need)} modes"):
            evanescent_gaussian_sum(0.3, 4.0 * math.pi**2, 2, rho)
