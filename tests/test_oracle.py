import cmath
import math
import sys

import numpy as np
import pytest

from wirescat import (
    ConfigurationError,
    DiscreteWire,
    DomainError,
    extrapolate_to_zero_width,
    oracle_solve,
    oracle_solve_ladder,
    oracle_solve_table,
    scattered_field_grid,
    solve_scattering,
    universality_probe,
)
from wirescat import oracle, rhobar, scatter
from wirescat.kernels import lattice_fft
from wirescat.specfun import _MAX_INDEX
from wirescat.oracle import (
    OracleSolution,
    _Cell,
    _dst,
    _lattice_modes,
    _residual,
    amplitude_records,
)

PI = math.pi
OM = (2 * PI) ** 2 * 1.05

FINE = dict(ny=400)


class TestConfiguration:
    def test_underresolved_impurity_rejected(self):
        wire = DiscreteWire(eps=0.3)  # default ny = 200: rho/h = 2
        with pytest.raises(ConfigurationError):
            oracle_solve(wire, 1, OM, 0.01, 0.01)

    @pytest.mark.parametrize("name", ["eps", "rho", "rho0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, name, value):
        spec = dict(eps=0.3, rho=0.04, rho0=0.01)
        spec[name] = value
        with pytest.raises(ConfigurationError, match=name):
            oracle_solve(DiscreteWire(eps=spec["eps"], **FINE), 1, OM, spec["rho"], spec["rho0"])

    @pytest.mark.parametrize("lead_modes", [0, -1, 400])
    def test_lead_mode_count_out_of_range_rejected(self, lead_modes):
        with pytest.raises(ConfigurationError, match="lead_modes"):
            DiscreteWire(eps=0.3, lead_modes=lead_modes, **FINE)

    def test_whole_float_counts_are_stored_as_ints(self):
        # a float count would reach np.zeros and the lead-mode slice
        wire = DiscreteWire(eps=0.3, ny=400.0, lead_modes=3.0)
        assert (wire.ny, wire.lead_modes, wire.h_y) == (400, 3, 1.0 / 400)
        assert (type(wire.ny), type(wire.lead_modes)) == (int, int)
        assert len(oracle_solve(wire, 1, OM, 0.04, 0.01).reflected) == 3


class TestSolve:
    def test_symmetry_decoupling(self):
        sol = oracle_solve(DiscreteWire(eps=0.5, **FINE), 1, OM, 0.02, 0.01)
        assert abs(sol.amplitude[1]) < 1e-12

    def test_residual_documented_small(self):
        assert oracle_solve(DiscreteWire(eps=0.3, **FINE), 1, OM, 0.02, 0.01).residual < 1e-10

    def test_point_coupling_flux_defect_shrinks_as_width_squared(self):
        wire = DiscreteWire(eps=0.3, **FINE)
        defects = [oracle_solve(wire, 1, OM, rho, 0.01).flux_defect
                   for rho in (0.04, 0.02, 0.01)]
        assert defects[1] < 0.3 * defects[0]
        assert defects[2] < 0.3 * defects[1]

    def test_unitary_coupling_point_is_regular(self):
        # rho = rho0 puts the bare strength at its pole; the inverse-coupling
        # parametrization sails through
        sol = oracle_solve(DiscreteWire(eps=0.3, **FINE), 1, OM, 0.02, 0.02)
        assert np.all(np.isfinite(sol.transmitted))

    def test_single_point_agreement_with_analytic(self, canonical_impurity):
        # one mid-ladder width already lands within a few % of the
        # zero-range amplitudes
        sol = oracle_solve(DiscreteWire(eps=0.3, **FINE), 1, OM, 0.02, 0.01)
        ana = solve_scattering(canonical_impurity, 1, OM)
        for l in (1, 2):
            rel = abs(sol.amplitude[l - 1] - ana.amplitudes[l]) / abs(ana.amplitudes[l])
            assert rel < 0.03


class TestSolveTable:
    RHOS = (0.04, 0.02, 0.01)
    RHO0S = (1e-3, 0.02, 0.1)  # 0.02 puts rho = rho0 (1/g = 0) in one cell

    @pytest.mark.parametrize("ny", [400, 1600])
    @pytest.mark.parametrize("eps", [0.3, 0.05])  # 0.05: support clipped by the wall
    def test_cells_equal_one_cell_solves(self, ny, eps):
        wire = DiscreteWire(eps=eps, ny=ny)
        table = oracle_solve_table(wire, 1, OM, self.RHOS, self.RHO0S)
        assert [len(row) for row in table] == [3, 3, 3]
        for row, rho in zip(table, self.RHOS):
            for sol, rho0 in zip(row, self.RHO0S):
                one = oracle_solve(wire, 1, OM, rho, rho0)
                assert (sol.wire, sol.rho, sol.rho0) == (one.wire, rho, rho0)
                assert sol.transmitted.tolist() == one.transmitted.tolist()
                assert sol.reflected.tolist() == one.reflected.tolist()
                assert (sol.flux_defect, sol.residual) == (one.flux_defect, one.residual)

    @pytest.mark.parametrize("n, omega, rhos, rho0s", [
        (0, OM, (0.04, 0.02), (0.01,)),                  # incident mode index
        (3, OM, (0.04, 0.02), (0.01,)),                  # mode 3 closed at OM
        (1, OM, (0.04, 0.001), (0.01, 0.1)),             # second width under-resolved
        (1, OM, (0.04, 0.02), (0.01, -1.0)),             # bad strength, second column
        (1, 7e5, (0.04, 0.02), (0.01,)),                 # band edge 4 ny^2 + mu_1
    ], ids=["mode-index", "closed-mode", "under-resolved", "strength", "band-edge"])
    def test_errors_match_the_first_failing_cell(self, n, omega, rhos, rho0s):
        wire = DiscreteWire(eps=0.3, **FINE)
        expected = None
        for rho in rhos:  # the row-major sequence of one-cell solves
            for rho0 in rho0s:
                try:
                    oracle_solve(wire, n, omega, rho, rho0)
                except (ConfigurationError, DomainError) as exc:
                    expected = exc
                    break
            if expected is not None:
                break
        assert expected is not None
        with pytest.raises(type(expected)) as got:
            oracle_solve_table(wire, n, omega, rhos, rho0s)
        assert str(got.value) == str(expected)

    @pytest.mark.parametrize("n, omega, rhos, rho0s, error, match", [
        (1, OM, (0.04, 0.02), (0.01, -1.0), ConfigurationError, "rho0 .* got -1.0"),
        (0, OM, (0.04, 0.02), (0.01, 0.1), DomainError, "incident mode .* got 0"),
        (3, OM, (0.04, 0.02), (0.01, 0.1), DomainError, "incident mode 3 does not propagate"),
        (1, math.nan, (0.04, 0.02), (0.01, 0.1), DomainError, "energy must be finite"),
        # above the band edge too, which only the lattice build checks
        (1, 7e5, (0.04, 0.001), (0.01, 0.1), ConfigurationError, "under-resolved"),
        # tables without cells check their inputs too, each width on its own
        (999, math.nan, (0.04,), (), DomainError, "incident mode .* got 999"),
        (1, 41.4, (math.nan,), (), ConfigurationError, "rho must .* got nan"),
        (1, math.inf, (), (math.nan,), ConfigurationError, "rho0 .* got nan"),
        (1, OM, (0.001,), (), ConfigurationError, "under-resolved"),
    ], ids=["strength", "mode-index", "closed-mode", "energy", "under-resolved",
            "empty-mode-index", "empty-width", "empty-strength", "empty-resolution"])
    def test_inputs_are_checked_before_the_lattice_is_built(self, monkeypatch, n, omega,
                                                            rhos, rho0s, error, match):
        def no_lattice(*args):
            raise AssertionError("lattice built before every input was checked")

        monkeypatch.setattr(oracle, "_lattice_modes", no_lattice)
        with pytest.raises(error, match=match):
            oracle_solve_table(DiscreteWire(eps=0.3, **FINE), n, omega, rhos, rho0s)

    def test_size_and_empty_tables_are_decided_before_the_lattice_is_built(self,
                                                                           monkeypatch):
        def no_lattice(*args):
            raise AssertionError("lattice built")

        monkeypatch.setattr(oracle, "_lattice_modes", no_lattice)
        wire = DiscreteWire(eps=0.3, **FINE)
        assert oracle_solve_table(wire, 1, OM, (0.04, 0.02), ()) == [[], []]
        assert oracle_solve_table(wire, 1, OM, (), (0.01,)) == []
        # (ny - 1) x cells values: 2 cells fill the limit at ny = 1,875,000
        assert 1874999 * 2 <= _MAX_INDEX < 1875000 * 2
        with pytest.raises(AssertionError, match="lattice built"):
            oracle_solve_table(DiscreteWire(eps=0.3, ny=1875000), 1, OM, (0.04,), (0.01, 0.1))
        # one width above the limit, and the probe's three widths with 30
        # strengths (one width with 30 peaked at 534 MiB before the size stage)
        for ny, rhos, rho0s in ((1875001, (0.04,), (0.01, 0.1)),
                                (200000, (0.04, 0.02, 0.01), np.geomspace(1e-5, 0.1, 30))):
            cells = len(rhos) * len(rho0s)
            with pytest.raises(DomainError, match=f"^lattice table of {cells} cells at ny = {ny}: "
                                                  f"{(ny - 1) * cells} values are above"):
                oracle_solve_table(DiscreteWire(eps=0.3, ny=ny), 1, OM, rhos, rho0s)

    def test_probe_solves_one_table(self, monkeypatch):
        tables, modes, scales = [], [], []
        for module, name, seen in ((oracle, "solve_table", tables),
                                   (oracle, "_lattice_modes", modes),
                                   (rhobar, "regularized_scales", scales),
                                   (scatter, "regularized_scales", scales)):
            real = getattr(module, name)

            def counting(*args, _real=real, _seen=seen, **kwargs):
                _seen.append(args)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        universality_probe(DiscreteWire(eps=0.3, **FINE), 1, 2, [1e-3, 1e-2, 1e-1])
        assert (len(tables), len(modes), len(scales)) == (1, 1, 1)


def _dense_modes(ny, rows):
    """phi_j(y_i) = sqrt(2) sin(j pi i/ny) as a dense (ny - 1) x len(rows)
    matrix: the reference the FFT mode sums are checked against.  j i is
    reduced mod 2 ny first, exactly in integers; unreduced, the rounding of
    pi alone puts ~2e-13 relative error into a product at ny = 1600."""
    return math.sqrt(2.0) * np.sin((np.outer(np.arange(1, ny), rows) % (2 * ny)) * PI / ny)


def _dense_lattice_sums(a, b):
    """sum_r a_r cos(2 pi r d/P) - i b_r sin(2 pi r d/P), d = 0..P-1 along
    axis 0, P = len(a), by dense products over blocks of d: the reference
    for :func:`~wirescat.kernels.lattice_fft`, with r d reduced mod P
    exactly in integers first, as in :func:`_dense_modes`."""
    period = len(a)
    blocks = []
    for lo in range(0, period, 256):
        angle = np.outer(np.arange(lo, min(lo + 256, period)), np.arange(period)) % period
        angle = angle * (2.0 * PI / period)
        blocks.append(np.tensordot(np.cos(angle), a, axes=1)
                      - 1j * np.tensordot(np.sin(angle), b, axes=1))
    return np.concatenate(blocks)


class TestModeSums:
    def test_discrete_dispersion_matches_continuum_to_h2(self):
        # k~ from the lattice dispersion tracks sqrt(omega - (l pi)^2) with
        # an O(h^2) error: quartering when the grid is doubled
        def k_err(ny, l):
            mu, sin_kh, _ = _lattice_modes(ny, OM)
            k_disc = math.asin(sin_kh[l - 1].real) * ny
            return abs(k_disc - math.sqrt(OM - (l * PI) ** 2))

        for l in (1, 2):
            coarse, fine = k_err(200, l), k_err(400, l)
            assert fine < coarse
            assert fine == pytest.approx(coarse / 4.0, rel=0.15)
        assert k_err(400, 1) / math.sqrt(OM - PI**2) < 1e-5

    @pytest.mark.parametrize("ny", [8, 400, 1600])
    def test_dst_matches_dense_sine_product(self, ny):
        # _dst, and the shared transform in its two callers' forms: u = v,
        # as _dst passes it (period 2 ny), and u != v, as the field kernel
        # passes it (period 2 (ny + 1)); the trailing shape (3, 4) is the
        # [row, |p|, cell] layout of _residual
        rng = np.random.default_rng(ny)
        phi = _dense_modes(ny, np.arange(1, ny))

        def close(got, dense):
            assert got.shape == dense.shape
            assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))

        for trailing in ((), (5,), (3, 4)):
            def draw(rows):
                shape = (rows,) + trailing
                return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

            c = draw(ny - 1)
            close(_dst(c), np.tensordot(phi, c, axes=1))  # phi is symmetric
            same = draw(2 * ny)
            dense = _dense_lattice_sums(np.zeros_like(same), 2.0 * same)
            close(lattice_fft(same, same), dense)
            u, v = draw(2 * (ny + 1)), draw(2 * (ny + 1))
            close(lattice_fft(u.copy(), v), _dense_lattice_sums(u - v, u + v))

    def test_every_fft_is_taken_by_the_shared_transform(self, monkeypatch,
                                                        canonical_impurity):
        # the oracle's mode sums and the field maps reach numpy's FFT through
        # kernels.lattice_fft alone, so no second copy of the transform
        callers = []
        real = np.fft.fft

        def recording(*args, **kwargs):
            caller = sys._getframe(1)
            callers.append((caller.f_globals["__name__"], caller.f_code.co_name))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", recording)
        assert oracle_solve(DiscreteWire(eps=0.3, **FINE), 1, OM, 0.02, 0.01).residual < 1e-10
        assert len(callers) == 4  # G(r0, .), the projection, two in the residual
        scattered_field_grid(canonical_impurity, 1, OM, [0.1, 0.2], 40)
        assert len(callers) > 4
        assert set(callers) == {("wirescat.kernels", "lattice_fft")}


class TestResidual:
    @pytest.mark.parametrize("eps", [0.12, 0.5, 0.81])
    def test_fine_grid_residual_at_roundoff(self, eps):
        wire = DiscreteWire(eps=eps, ny=1600)
        for rho in (0.04, 0.02, 0.01):
            assert oracle_solve(wire, 1, OM, rho, 0.01).residual < 1e-9

    @staticmethod
    def _point_inputs(wire, n, omega, rho, rho0):
        """The lattice spectrum and the solved cell solve() hands to
        _residual, rebuilt."""
        ny, h = wire.ny, wire.h_y
        yi = np.arange(1, ny) * h
        mu, sin_kh, exp_kh = _lattice_modes(ny, omega)
        w = np.exp(-(((yi - wire.eps) / rho) ** 2))
        support = w >= 1e-14
        ws = w[support]
        phi_eps = math.sqrt(2.0) * np.sin(np.arange(1, ny) * PI * wire.eps)
        g_eps = _dst(phi_eps * (h / (2j * sin_kh)))[support]
        inverse_strength = rho * math.log(rho / rho0) / (2.0 * math.sqrt(PI))
        tau = math.sin(n * PI * wire.eps) / (inverse_strength - h * np.dot(g_eps, ws))
        return (mu, sin_kh, exp_kh), _Cell(rho, rho0, support, ws * tau, tau, g_eps)

    def test_detects_inconsistent_inputs(self):
        wire = DiscreteWire(eps=0.3, **FINE)
        modes, cell = self._point_inputs(wire, 1, OM, 0.02, 0.01)
        [baseline] = _residual(wire, 1, OM, *modes, [cell])
        assert baseline == oracle_solve(wire, 1, OM, 0.02, 0.01).residual
        assert baseline < 1e-10
        # a source that no longer matches the right-hand side
        [scaled] = _residual(wire, 1, OM, *modes, [cell._replace(u=cell.u * (1.0 + 1e-6))])
        assert scaled >= 1e-8
        # a lattice Green's function for a slightly different energy
        shifted, other = self._point_inputs(wire, 1, OM * (1.0 + 1e-6), 0.02, 0.01)
        [off] = _residual(wire, 1, OM, *shifted, [other._replace(u=cell.u, tau=cell.tau)])
        assert off >= 1e-8

    def test_detects_wrong_defect_strength(self, monkeypatch):
        # tau and u scaled together still solve the Helmholtz rows; only the
        # defect equation tau/g = psi(r0) can tell
        seen = []
        real = oracle._residual

        def capture(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(oracle, "_residual", capture)
        assert oracle_solve(DiscreteWire(eps=0.3, **FINE), 1, OM, 0.02, 0.01).residual < 1e-10
        [args] = seen  # one solve, one residual
        wire, n, omega, mu, sin_kh, exp_kh, [cell] = args
        [scaled] = real(wire, n, omega, mu, sin_kh, exp_kh,
                        [cell._replace(u=1.5 * cell.u, tau=1.5 * cell.tau)])
        assert scaled >= 1e-3

    def test_computed_once_on_first_read(self, monkeypatch):
        seen = []
        real = oracle._residual

        def counting(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(oracle, "_residual", counting)
        sol = oracle_solve(DiscreteWire(eps=0.3, **FINE), 1, OM, 0.02, 0.01)
        assert seen == []  # the solve itself computes no residual
        first = sol.residual
        assert sol.residual == first < 1e-10
        assert len(seen) == 1


class TestExtrapolation:
    def _fake(self, rho, values):
        arr = np.asarray(values, dtype=complex)
        return OracleSolution(wire=DiscreteWire(eps=0.3, **FINE), rho=rho, rho0=0.01,
                              incident_mode=1, energy=OM, reflected=arr)

    def test_constant_sequence_recovered(self):
        sols = [self._fake(r, [0.5 + 0.25j]) for r in (0.04, 0.02, 0.01)]
        ext = extrapolate_to_zero_width(sols)
        assert ext.reflected[0] == pytest.approx(0.5 + 0.25j, abs=1e-14)
        assert ext.reflected_err[0] == pytest.approx(0.0, abs=1e-14)

    def test_exact_on_quadratic_width_law(self):
        a, b = 0.3 - 0.1j, 2.4 + 0.9j
        sols = [self._fake(r, [a + b * r**2]) for r in (0.04, 0.02, 0.01)]
        ext = extrapolate_to_zero_width(sols)
        assert ext.reflected[0] == pytest.approx(a, abs=1e-12)

    def test_needs_three_points(self):
        sols = [self._fake(r, [1.0]) for r in (0.04, 0.02)]
        with pytest.raises(DomainError):
            extrapolate_to_zero_width(sols)

    def test_non_monotone_ladder_flagged(self):
        sols = [self._fake(r, [v]) for r, v in
                zip((0.04, 0.02, 0.01), (1.0, 1.5, 1.4))]
        ext = extrapolate_to_zero_width(sols)
        assert ext.warnings

    def test_real_ladder_brackets_analytic_value(self, canonical_impurity):
        wire = DiscreteWire(eps=0.3, **FINE)
        ladder = oracle_solve_ladder(wire, 1, OM, (0.04, 0.02, 0.01), 0.01)
        ext = extrapolate_to_zero_width(ladder)
        ana = solve_scattering(canonical_impurity, 1, OM)
        diff = abs(ext.amplitude[0] - ana.amplitudes[1])
        # converged to a fraction of a percent; the self-estimate is the
        # right order of magnitude
        assert diff / abs(ana.amplitudes[1]) < 0.01
        assert ext.reflected_err[0] < 0.05 * abs(ana.amplitudes[1])

    def test_grid_self_convergence(self):
        # the extrapolated amplitudes converge in h at second order: the
        # move from halving h shrinks ~4x per refinement (the ladder error
        # estimate tracks the width extrapolation, not the grid error)
        exts = []
        for ny in (200, 400, 800):
            wire = DiscreteWire(eps=0.3, ny=ny)
            ladder = oracle_solve_ladder(wire, 1, OM, (0.08, 0.04, 0.02), 0.01)
            exts.append(extrapolate_to_zero_width(ladder))
        move_coarse = abs(exts[0].amplitude[0] - exts[1].amplitude[0])
        move_fine = abs(exts[1].amplitude[0] - exts[2].amplitude[0])
        assert move_fine == pytest.approx(move_coarse / 4.0, rel=0.25)
        assert move_fine < 1e-4


class TestUniversalityProbe:
    def test_single_strength_zero_spread(self):
        report = universality_probe(DiscreteWire(eps=0.3, **FINE), 1, 2, [1e-2])
        assert report.spread == 0.0

    def test_energy_referenced_to_lattice_cutoff(self):
        # offset from (3 pi)^2 the lattice sat 4e-3 above its own cut-off,
        # outside the universal window: spread 10% there, under 1% here
        report = universality_probe(DiscreteWire(eps=0.2, **FINE), 1, 3, [1e-5, 1e-3, 1e-1])
        assert report.lattice_cutoff == pytest.approx(
            (2.0 - 2.0 * math.cos(3 * PI / 400)) * 400**2, rel=1e-14)
        assert report.energy == report.lattice_cutoff + report.offset
        assert report.verdict == "PASS"
        assert report.spread < 0.05 and report.mean_deviation < 0.05

    def test_threshold_index_beyond_lead_modes_rejected(self):
        wire = DiscreteWire(eps=0.3, lead_modes=2, **FINE)
        with pytest.raises(DomainError, match="threshold index"):
            universality_probe(wire, 1, 3, [1e-2])

    def test_offset_below_lattice_cutoff_resolution(self):
        # cutoff-universality seed 144, m = 2: the offset 2.9e-12 leaves
        # cos(k~ h) = 1 - offset h^2/2 at exactly 1.0, yet sin(k~ h)
        # must keep the digits of the offset
        rho0s = [3.797799710559903e-4, 1.123680524875869e-5, 4.607220694680535e-2]
        report = universality_probe(DiscreteWire(eps=0.49734375245882595, **FINE), 1, 2, rho0s)
        assert all(cmath.isfinite(c) for c in report.coefficients)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "CHANGES.md FOUND: an offset below half an ulp of the lattice cut-off "
        "mu_m leaves omega = mu_m, sin(k~_m h) = 0 and non-finite coefficients"))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_offset_below_half_an_ulp_of_the_lattice_cutoff(self):
        # cutoff-universality seed 134, m = 3: the offset 1.0e-16 is below
        # half an ulp of mu_3 ~ 88.8, so mu_3 + offset is mu_3 itself
        rho0s = [7.038239983454513e-05, 0.03210481149589653, 0.00016724252176652203]
        report = universality_probe(DiscreteWire(eps=0.3332118167489375, **FINE), 1, 3, rho0s)
        assert all(cmath.isfinite(c) for c in report.coefficients)

    def test_quarter_position_coefficient(self):
        report = universality_probe(DiscreteWire(eps=0.25, **FINE), 1, 2, [1e-2])
        assert abs(report.coefficients[0]) == pytest.approx(math.sqrt(2) / 2, rel=0.05)
        assert report.target == pytest.approx(math.sqrt(2) / 2, rel=1e-12)


class TestRecords:
    def test_record_schema(self):
        wire = DiscreteWire(eps=0.3, **FINE)
        sol = oracle_solve(wire, 1, OM, 0.02, 0.01)
        recs = amplitude_records(sol)
        assert len(recs) == wire.lead_modes
        assert set(recs[0]) == {"rho", "n", "l", "re", "im", "err"}
        assert recs[0]["rho"] == 0.02 and recs[0]["n"] == 1
