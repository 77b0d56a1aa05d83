import math

import numpy as np
import pytest

from wirescat import (
    DomainError,
    ResolutionError,
    SingularityError,
    ThresholdEnergyError,
    WireGeometry,
    greens_function,
    longitudinal_wavenumber,
    mode,
    propagating_count,
    transverse_eigensolve,
)


def brute_force_green(y, yp, dx, omega, n_terms):
    """Direct high-truncation mode sum, no adaptive logic."""
    total = 0.0 + 0.0j
    for n in range(1, n_terms + 1):
        k = longitudinal_wavenumber(n, omega).value
        total += 1j * math.sin(n * math.pi * y) * math.sin(n * math.pi * yp) / k \
            * np.exp(1j * k * dx)
    return total


class TestModes:
    def test_hard_wall_analytic(self, hard_wall):
        m2 = mode(hard_wall, 2)
        assert m2.threshold == pytest.approx(4 * math.pi**2, rel=1e-15)
        ys = np.linspace(0, 1, 11)
        assert np.allclose(m2.profile(ys), np.sin(2 * np.pi * ys), atol=1e-15)

    def test_hard_wall_midpoint(self, hard_wall):
        assert mode(hard_wall, 1).profile(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_out_of_range(self, hard_wall):
        with pytest.raises(DomainError):
            mode(hard_wall, 0)
        with pytest.raises(DomainError):
            mode(hard_wall, hard_wall.num_modes + 1)

    def test_general_zero_potential_matches_hard_wall(self):
        geo = WireGeometry.from_potential([0.0, 1.0], [0.0, 0.0], num_modes=5)
        for n in range(1, 6):
            tm = geo.mode(n)
            assert tm.threshold == pytest.approx((n * math.pi) ** 2, abs=1e-6)
            ys = np.linspace(0.05, 0.95, 19)
            # orthonormal eigensolver profile = sqrt(2) sin(n pi y)
            assert np.allclose(
                tm.profile(ys), math.sqrt(2) * np.sin(n * np.pi * ys), atol=2e-4
            )

    def test_general_constant_potential_shifts_spectrum(self):
        c = 7.5
        geo = WireGeometry.from_potential([0.0, 1.0], [c, c], num_modes=4)
        for n in range(1, 5):
            assert geo.mode(n).threshold == pytest.approx((n * math.pi) ** 2 + c, abs=1e-6)

    def test_thresholds_strictly_increasing(self):
        geo = WireGeometry.from_potential([0.0, 0.5, 1.0], [0.0, 30.0, 0.0], num_modes=6)
        th = geo.thresholds(6)
        assert np.all(np.diff(th) > 0)

    @pytest.mark.parametrize("y, v, match", [
        ([0.0, 0.6, 0.2, 1.0], [0.0, 5.0, 9.0, 0.0], "increase strictly"),
        ([0.0, 1.0], [0.0, 1.0, 2.0], "equal-length"),
        ([0.5], [1.0], "equal-length"),
    ])
    def test_general_wire_checks_samples_on_every_path(self, y, v, match):
        # the constructor and from_potential are one path with one set of checks
        with pytest.raises(DomainError, match=match) as direct:
            WireGeometry(kind="general", num_modes=3, potential=(y, v))
        with pytest.raises(DomainError, match=match) as sampled:
            WireGeometry.from_potential(y, v, num_modes=3)
        assert str(direct.value) == str(sampled.value)


class TestEigensolver:
    def test_linear_potential_richardson_self_convergence(self):
        # V = 100 y: eigenvalues from two independent grid pairs must agree
        # after Richardson refinement far better than either raw solve
        y = np.linspace(0, 1, 2)
        geo_a = WireGeometry.from_potential(y, 100.0 * y, num_modes=4, grid_points=512)
        geo_b = WireGeometry.from_potential(y, 100.0 * y, num_modes=4, grid_points=1024)
        for n in range(1, 5):
            assert geo_a.mode(n).threshold == pytest.approx(
                geo_b.mode(n).threshold, rel=1e-7
            )

    def test_orthonormality(self):
        # overlaps evaluated on the solver's own grid, where the discrete
        # eigenvectors are exactly orthonormal
        y = np.linspace(0, 1, 21)
        geo = WireGeometry.from_potential(y, 50.0 * np.sin(np.pi * y), num_modes=5,
                                          grid_points=1024)
        grid = np.arange(1, 1024) / 1024.0
        h = 1.0 / 1024.0
        for a in range(1, 6):
            for b in range(a, 6):
                olap = np.sum(geo.mode(a).profile(grid) * geo.mode(b).profile(grid)) * h
                assert olap == pytest.approx(1.0 if a == b else 0.0, abs=1e-10)

    def test_node_count_orders_spectrum(self):
        # n-th eigenvector has n-1 interior sign changes
        y = np.linspace(0, 1, 21)
        geo = WireGeometry.from_potential(y, 80.0 * y**2, num_modes=5)
        xs = np.linspace(0.01, 0.99, 2001)
        for n in range(1, 6):
            vals = geo.mode(n).profile(xs)
            changes = np.sum(np.abs(np.diff(np.sign(vals))) > 1)
            assert changes == n - 1

    def test_dirichlet_endpoints(self):
        geo = WireGeometry.from_potential([0.0, 1.0], [0.0, 12.0], num_modes=3)
        for n in range(1, 4):
            assert geo.mode(n).profile(0.0) == 0.0
            assert geo.mode(n).profile(1.0) == 0.0

    def test_too_many_modes_rejected(self):
        geo = WireGeometry.from_potential([0.0, 1.0], [0.0, 0.0], num_modes=2,
                                          grid_points=512)
        with pytest.raises(ResolutionError):
            transverse_eigensolve(geo, 500)

    def test_potential_file_roundtrip(self, tmp_path):
        path = tmp_path / "potential.txt"
        y = np.linspace(0, 1, 41)
        np.savetxt(path, np.column_stack([y, 100.0 * y]))
        geo_file = WireGeometry.from_potential_file(path, num_modes=3)
        geo_mem = WireGeometry.from_potential(y, 100.0 * y, num_modes=3)
        for n in range(1, 4):
            assert geo_file.mode(n).threshold == pytest.approx(
                geo_mem.mode(n).threshold, rel=1e-12
            )


class TestGreensFunction:
    OMEGA = 4 * math.pi**2 * 1.1

    def test_symmetry_under_point_exchange(self, hard_wall):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r = (rng.uniform(-1, 1), rng.uniform(0.05, 0.95))
            rp = (rng.uniform(-1, 1), rng.uniform(0.05, 0.95))
            if abs(r[0] - rp[0]) < 1e-3:
                continue
            g1 = greens_function(hard_wall, r, rp, self.OMEGA)
            g2 = greens_function(hard_wall, rp, r, self.OMEGA)
            assert g1 == pytest.approx(g2, abs=1e-12)

    def test_wall_value_vanishes(self, hard_wall):
        assert greens_function(hard_wall, (0.5, 0.3), (0.2, 0.0), self.OMEGA) == 0.0

    def test_against_brute_force_sum(self, hard_wall):
        ref = brute_force_green(0.3, 0.3, 0.5, self.OMEGA, 100_000)
        val = greens_function(hard_wall, (0.5, 0.3), (0.0, 0.3), self.OMEGA)
        assert val == pytest.approx(ref, abs=1e-10)

    def test_same_column_against_brute_force(self, hard_wall):
        # 1/n conditional convergence handled by the closed-form tail
        ref = brute_force_green(0.3, 0.7, 0.0, self.OMEGA, 2_000_000)
        val = greens_function(hard_wall, (0.0, 0.3), (0.0, 0.7), self.OMEGA)
        assert val == pytest.approx(ref, abs=1e-6)

    def test_truncation_error_decays_exponentially(self, hard_wall):
        # compare successive manual truncations at |dx| = 0.05: the tail
        # beyond mode n must shrink at least like exp(-pi n dx)
        dx, y, yp = 0.05, 0.3, 0.45
        full = greens_function(hard_wall, (dx, y), (0.0, yp), self.OMEGA)
        errs = []
        for n_cut in (40, 80, 160):
            partial = brute_force_green(y, yp, dx, self.OMEGA, n_cut)
            errs.append(abs(full - partial))
        assert errs[1] < errs[0] * math.exp(-math.pi * 40 * dx) * 10
        assert errs[2] < errs[1] * math.exp(-math.pi * 80 * dx) * 10

    def test_below_first_threshold_monotone_decay(self, hard_wall):
        omega = 0.5 * math.pi**2
        dxs = np.linspace(0.1, 2.0, 12)
        vals = [abs(greens_function(hard_wall, (dx, 0.4), (0.0, 0.45), omega))
                for dx in dxs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_coincident_point_refused(self, hard_wall):
        with pytest.raises(SingularityError):
            greens_function(hard_wall, (0.1, 0.3), (0.1, 0.3), self.OMEGA)

    def test_threshold_pole_refused(self, hard_wall):
        with pytest.raises(ThresholdEnergyError):
            greens_function(hard_wall, (0.5, 0.3), (0.0, 0.4), 4 * math.pi**2)

    def test_general_matches_hard_wall(self):
        geo = WireGeometry.from_potential([0.0, 1.0], [0.0, 0.0], num_modes=48)
        hw = WireGeometry.hard_wall()
        # eigensolver modes are orthonormal (sqrt(2) sin) while hard-wall
        # profiles follow the unit-amplitude sin convention, so the mode-sum
        # kernel picks up exactly the normalization factor 2
        g1 = greens_function(geo, (0.4, 0.3), (0.0, 0.6), self.OMEGA)
        g2 = greens_function(hw, (0.4, 0.3), (0.0, 0.6), self.OMEGA)
        assert g1 == pytest.approx(2.0 * g2, rel=2e-4)


class TestPropagatingCount:
    def test_counts(self):
        assert propagating_count(0.5 * math.pi**2) == 0
        assert propagating_count(1.1 * math.pi**2) == 1
        assert propagating_count(4 * math.pi**2) == 1   # strictly below
        assert propagating_count(4.01 * math.pi**2) == 2
        assert propagating_count(9.5 * math.pi**2) == 3
