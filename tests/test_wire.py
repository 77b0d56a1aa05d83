import math

import numpy as np
import pytest

from wirescat import (
    DomainError,
    ResolutionError,
    WireGeometry,
    mode,
    propagating_count,
    transverse_eigensolve,
)


class TestModes:
    def test_hard_wall_analytic(self, hard_wall):
        m2 = mode(hard_wall, 2)
        assert m2.threshold == pytest.approx(4 * math.pi**2, rel=1e-15)
        ys = np.linspace(0, 1, 11)
        assert np.allclose(m2.profile(ys), np.sin(2 * np.pi * ys), atol=1e-15)

    def test_hard_wall_midpoint(self, hard_wall):
        assert mode(hard_wall, 1).profile(0.5) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("num_modes", [0, math.nan, math.inf])
    def test_mode_count_must_be_finite_and_positive(self, num_modes):
        with pytest.raises(DomainError, match="num_modes"):
            WireGeometry.hard_wall(num_modes=num_modes)

    @pytest.mark.parametrize("grid_points", [0, math.nan, math.inf])
    def test_grid_points_must_be_finite_and_positive(self, grid_points):
        with pytest.raises(DomainError, match=f"grid_points must be a finite number >= 1, "
                                              f"got {grid_points}"):
            WireGeometry.from_potential([0.0, 1.0], [0.0, 0.0], grid_points=grid_points)

    def test_nan_mode_index_rejected(self, hard_wall):
        with pytest.raises(DomainError, match="mode index nan"):
            mode(hard_wall, math.nan)

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
        ([0.0, math.nan, 1.0], [0.0, 1.0, 2.0], "samples y must be finite"),
        ([0.0, 1.0], [0.0, math.nan], "samples V must be finite"),
        ([0.0, 1.0], [math.inf, 0.0], "samples V must be finite"),
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


class TestPropagatingCount:
    def test_counts(self):
        assert propagating_count(0.5 * math.pi**2) == 0
        assert propagating_count(1.1 * math.pi**2) == 1
        assert propagating_count(4 * math.pi**2) == 1   # strictly below
        assert propagating_count(4.01 * math.pi**2) == 2
        assert propagating_count(9.5 * math.pi**2) == 3
