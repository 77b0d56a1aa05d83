import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from wirescat import (
    ConfigurationError,
    DecoupledModeWarning,
    Impurity,
    longitudinal_wavenumber,
    scattered_field_grid,
    threshold_energy,
    threshold_field,
    threshold_field_grid,
    transport_at,
)
from wirescat.cli import (
    _KEYS,
    _SUBCOMMANDS,
    build_config,
    main,
)
from wirescat.kernels import lattice_rows

PI = math.pi
DATA = Path(__file__).parent / "data"


def run(*argv):
    return main(list(argv))


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frobnicate = 1\n")
        assert run("sweep", "--config", str(path), "--omega-grid", "1.1:2:3") == 2

    def test_flags_override_config(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("epsilon = 0.4\nrho0 = 0.01\nomega_grid = 1.5:1.5:1\n")
        out = tmp_path / "a.csv"
        assert run("sweep", "--config", str(path), "--epsilon", "0.3",
                   "--out", str(out)) == 0
        out2 = tmp_path / "b.csv"
        assert run("sweep", "--epsilon", "0.3", "--rho0", "0.01",
                   "--omega-grid", "1.5:1.5:1", "--out", str(out2)) == 0
        assert out.read_text() == out2.read_text()

    def test_consecutive_calls_share_no_values(self, tmp_path):
        # the parser is built once per process; no flag of one call may
        # reach the next
        first = tmp_path / "first.json"
        assert run("field", "--field-mode", "clean", "--omega", "20.0", "--nx", "5",
                   "--ny", "2", "--with-complex", "--format", "json",
                   "--out", str(first)) == 0
        assert run("oned", "--alpha", "1.0", "--omega-grid", "0.5:1:2",
                   "--out", str(tmp_path / "oned.csv")) == 0
        second = tmp_path / "second.csv"
        assert run("field", "--field-mode", "clean", "--omega", "20.0", "--ny", "2",
                   "--out", str(second)) == 0
        assert len(first.read_text().splitlines()) == 5 * 2
        lines = second.read_text().splitlines()
        assert lines[0] == "x,y,density"
        assert len(lines) == 1 + _KEYS["nx"][1] * 2


def _key_cases(kinds):
    """(subcommand, key) for every subcommand and every key of the table
    whose type is one of ``kinds``, whether the subcommand reads it or not."""
    return [(name, key) for name in _SUBCOMMANDS for key in _KEYS if _KEYS[key][0] in kinds]


def _reads(name, key):
    return key in _SUBCOMMANDS[name][2]


def _good_value(key):
    kind, _, _, choices = _KEYS[key]
    if choices:
        return choices[-1]
    return {int: "7", float: "-0.25", str: "1:2:3"}[kind]


class TestFlags:
    """Flags and config lines are read through one key table: the same
    keys, types, choices and messages from either source.  A subcommand
    refuses a key it does not read from every source alike."""

    @pytest.mark.parametrize("name, key", _key_cases((int, float, str)))
    def test_flag_forms_and_config_line_agree(self, tmp_path, name, key):
        flag, value = "--" + key.replace("_", "-"), _good_value(key)
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        forms = ([flag, value], [f"{flag}={value}"], ["--config", str(path)])
        if not _reads(name, key):
            for args in forms:
                with pytest.raises(ConfigurationError, match=f"for wirescat {name}$"):
                    build_config(name, args)
            return
        got = [getattr(build_config(name, args), key) for args in forms]
        assert got[0] == got[1] == got[2] == _KEYS[key][0](value)

    @pytest.mark.parametrize("name, key", _key_cases((bool,)))
    def test_switch_and_config_line_agree(self, tmp_path, name, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = true\n")
        forms = (["--" + key.replace("_", "-")], ["--config", str(path)])
        if not _reads(name, key):
            for args in forms:
                with pytest.raises(ConfigurationError, match=f"for wirescat {name}$"):
                    build_config(name, args)
            return
        assert [getattr(build_config(name, args), key) for args in forms] == [True, True]
        assert getattr(build_config(name, []), key) is False

    @pytest.mark.parametrize("name, key", _key_cases((int, float)) + [
        (name, key) for name, key in _key_cases((str,)) if _KEYS[key][3]])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_value_exits_two_naming_the_key(self, tmp_path, capsys, name, key, source):
        # a flag the subcommand does not have is named as given
        bad = "1.5" if _KEYS[key][0] is int else "xml"
        flag = "--" + key.replace("_", "-")
        if source == "flag":
            args = [flag, bad]
        else:
            path = tmp_path / "run.cfg"
            path.write_text(f"{key} = {bad}\n")
            args = ["--config", str(path)]
        assert run(name, *args) == 2
        named = key if _reads(name, key) or source == "config" else flag
        assert repr(named) in capsys.readouterr().err

    @pytest.mark.parametrize("name", list(_SUBCOMMANDS))
    def test_flag_of_another_subcommand_exits_two(self, tmp_path, capsys, name):
        # a key the subcommand does not read is refused as a flag and as a
        # config line, and the message names it and the subcommand
        path = tmp_path / "run.cfg"
        for key in set(_KEYS) - set(_SUBCOMMANDS[name][2]):
            flag = "--" + key.replace("_", "-")
            path.write_text(f"{key} = 5\n")
            for args, named in (([flag, "5"], flag), (["--config", str(path)], key)):
                assert run(name, *args) == 2
                err = capsys.readouterr().err
                assert repr(named) in err and f"wirescat {name}" in err

    def test_each_subcommand_reads_exactly_its_keys(self, tmp_path):
        # every runner, every field mode and universality with and without
        # the probe, through a config that records each key read from it
        cases = {
            "sweep": [["--epsilon", "0.3", "--rho0", "0.01", "--omega-grid", "1.1:1.9:2"]],
            "field": [["--field-mode", "clean", "--omega", "20", "--nx", "3", "--ny", "2"],
                      ["--field-mode", "defect", "--epsilon", "0.3", "--rho0", "0.01",
                       "--omega", "20", "--nx", "3", "--ny", "2"],
                      ["--field-mode", "threshold", "--threshold-m", "2", "--epsilon", "0.3",
                       "--rho0", "0.01", "--nx", "3", "--ny", "2"]],
            "universality": [["--threshold-m", "2", "--epsilon", "0.3", "--rho0-list", "1e-3"],
                             ["--threshold-m", "2", "--epsilon", "0.3", "--rho0-list", "1e-3",
                              "--oracle"]],
            "oned": [["--alpha", "1", "--delta-v", "50", "--barrier-width", "0.001",
                      "--omega-grid", "0.5:1:2"]],
            "oracle-compare": [["--epsilon", "0.3", "--rho0", "0.01", "--omega", "41.452",
                                "--lead-modes", "3"]],
        }
        assert set(cases) == set(_SUBCOMMANDS)
        for name, arg_lists in cases.items():
            runner, _, keys = _SUBCOMMANDS[name]
            reads = set()

            class Recording(SimpleNamespace):
                def __getattribute__(self, key):
                    reads.add(key)
                    return super().__getattribute__(key)

            for args in arg_lists:
                cfg = build_config(name, [*args, "--out", str(tmp_path / "out")])
                assert set(vars(cfg)) == set(keys)
                assert runner(Recording(**vars(cfg))) == 0
            assert reads == set(keys), name

    @pytest.mark.parametrize("argv, named", [
        (["sweep", "--nx", "5"], "--nx"),
        (["sweep", "--eps", "0.3"], "--eps"),
        (["field", "--with", "--field-mode", "clean"], "--with"),
        (["field", "--x_min", "-1"], "--x_min"),
        (["sweep", "--epsilon"], "--epsilon"),
        (["universality", "--oracle=true"], "--oracle"),
        (["sweep", "0.3"], "0.3"),
    ])
    def test_malformed_flag_exits_two_naming_it(self, capsys, argv, named):
        assert run(*argv) == 2
        assert named in capsys.readouterr().err

    def test_leading_minus_is_a_value(self):
        cfg = build_config("field", ["--x-min", "-2", "--x-max", "-1e-3"])
        assert (cfg.x_min, cfg.x_max) == (-2.0, -1e-3)
        assert build_config("sweep", ["--out", "-"]).out == "-"

    def test_repeated_flag_takes_the_last_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nx = 3\n")
        cfg = build_config("field", ["--nx", "5", "--config", str(path), "--nx=7"])
        assert cfg.nx == 7

    @pytest.mark.parametrize("argv, message", [([], "a subcommand is required"),
                                               (["frob"], "unknown subcommand 'frob'"),
                                               (["--epsilon", "0.3"], "unknown subcommand")])
    def test_missing_or_unknown_subcommand_prints_usage(self, capsys, argv, message):
        assert run(*argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: wirescat SUBCOMMAND") and message in err


class TestConfigChecks:
    """A config file meets the checks its flags meet."""

    def test_choice_outside_the_table_exits_two(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("epsilon = 0.3\nrho0 = 0.01\nomega_grid = 1.5:1.5:1\nformat = xml\n"
                        f"out = {tmp_path / 'out.csv'}\n")
        assert run("sweep", "--config", str(path)) == 2
        assert "'format' must be one of csv, json" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_subcommand_is_not_a_config_key(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("epsilon = 0.3\nrho0 = 0.01\nomega_grid = 1.5:1.5:1\n"
                        f"subcommand = field\nout = {tmp_path / 'out.csv'}\n")
        assert run("sweep", "--config", str(path)) == 2
        assert "unknown config key 'subcommand'" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


class TestSweep:
    def test_deterministic_output(self, tmp_path):
        args = ["sweep", "--epsilon", "0.3", "--rho0", "0.01",
                "--omega-grid", "1.1:8.9:25"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_point_matches_direct_call(self, tmp_path):
        omega = 1.3 * (2 * PI) ** 2
        out = tmp_path / "one.csv"
        assert run("sweep", "--epsilon", "0.3", "--rho0", "0.01",
                   "--omega-grid", f"{omega / PI**2!r}:{omega / PI**2!r}:1",
                   "--out", str(out)) == 0
        header, row = out.read_text().strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        direct = transport_at(Impurity(0.3, 0.01), float(cols["omega"]))
        assert float(cols["T_1_1"]) == direct.transmission[0, 0]
        assert float(cols["conductance"]) == direct.conductance

    def test_empty_grid_is_config_error(self):
        assert run("sweep", "--epsilon", "0.3", "--rho0", "0.01",
                   "--omega-grid", "1.1:8.9:0") == 2

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        assert run("sweep", "--epsilon", "0.3", "--rho0", "0.01",
                   "--omega-grid", "1.2:1.4:3", "--format", "json",
                   "--out", str(out)) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 3
        assert all(r["unitarity_defect"] < 1e-8 for r in rows)

    def test_missing_impurity_is_config_error(self):
        assert run("sweep", "--omega-grid", "1.1:2:5") == 2

    def test_mostly_failing_sweep_exits_one(self, tmp_path, capsys):
        # a single-point grid sitting exactly on a cut-off: 100% failures
        out = tmp_path / "bad.csv"
        assert run("sweep", "--epsilon", "0.3", "--rho0", "0.01",
                   "--omega-grid", "4:4:1", "--out", str(out)) == 1
        assert "cut-off" in capsys.readouterr().err


DATA = Path(__file__).parent / "data"


class TestSweepBytes:
    """The CSVs under tests/data were written by the point-by-point sweep
    that preceded the one-pass sweep; the bytes must not move."""

    @pytest.mark.parametrize("eps", ["0.3", "0.02"])
    def test_matches_pinned_csv(self, tmp_path, eps):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--epsilon", eps, "--rho0", "0.01",
                   "--omega-grid", "1.1:8.9:200", "--out", str(out)) == 0
        assert out.read_bytes() == (DATA / f"sweep_eps{eps}_rho0.01.csv").read_bytes()


class TestGridBounds:
    @pytest.mark.parametrize("spec, bound", [
        ("1.1:nan:3", "hi"), ("nan:2:3", "lo"), ("inf:2:3", "lo"), ("1.1:-inf:1", "hi"),
    ])
    @pytest.mark.parametrize("argv", [
        ["sweep", "--epsilon", "0.3", "--rho0", "0.01"], ["oned", "--alpha", "1"],
    ], ids=lambda argv: argv[0])
    def test_non_finite_bound_is_config_error(self, capsys, argv, spec, bound):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv, "--omega-grid", spec) == 2
        err = capsys.readouterr().err
        assert f"finite {bound}" in err
        assert "sweep point" not in err


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--epsilon", "0.3", "--rho0", "0.01", "--omega-grid", "1.1:2:3"],
        ["field", "--field-mode", "clean", "--omega", "20", "--nx", "2", "--ny", "1"],
        ["universality", "--threshold-m", "2", "--epsilon", "0.3", "--rho0-list", "1e-3"],
        ["oned", "--alpha", "1", "--omega-grid", "0:1:3"],
        ["oracle-compare", "--epsilon", "0.3", "--rho0", "0.01", "--omega", "41.452",
         "--grid-ny", "200", "--rho-ladder", "0.08,0.04,0.02", "--lead-modes", "3"],
    ], ids=lambda argv: argv[0])
    def test_is_config_error_naming_the_path(self, tmp_path, capsys, argv):
        path = tmp_path / "missing" / "out.csv"
        assert run(*argv, "--out", str(path)) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert not path.parent.exists()


class TestErrorBranches:
    """Each configuration error of the CLI exits 2 with a message naming the
    key (or the config line) at fault."""

    @pytest.mark.parametrize("argv, config, message", [
        # required keys
        (["sweep", "--epsilon", "0.3", "--rho0", "0.01"], None,
         "--omega-grid OMEGA_GRID is required"),
        (["sweep", "--rho0", "0.01", "--omega-grid", "1.1:2:3"], None,
         "--epsilon EPSILON is required"),
        (["sweep", "--epsilon", "0.3", "--omega-grid", "1.1:2:3"], None,
         "--rho0 RHO0 is required"),
        (["field", "--omega", "39.0"], None,
         "--field-mode {clean,defect,threshold} is required"),
        (["field", "--field-mode", "clean"], None, "--omega OMEGA is required"),
        (["field", "--field-mode", "defect", "--epsilon", "0.3", "--rho0", "0.01"], None,
         "--omega OMEGA is required"),
        (["field", "--field-mode", "defect", "--omega", "39.0", "--rho0", "0.01"], None,
         "--epsilon EPSILON is required"),
        (["field", "--field-mode", "threshold", "--epsilon", "0.3", "--rho0", "0.01"], None,
         "--threshold-m THRESHOLD_M is required"),
        (["field", "--field-mode", "threshold", "--threshold-m", "2", "--epsilon", "0.3"],
         None, "--rho0 RHO0 is required"),
        (["universality", "--epsilon", "0.3", "--rho0-list", "1e-3"], None,
         "--threshold-m THRESHOLD_M is required"),
        (["universality", "--threshold-m", "2", "--rho0-list", "1e-3"], None,
         "--epsilon EPSILON is required"),
        (["universality", "--threshold-m", "2", "--epsilon", "0.3"], None,
         "--rho0-list RHO0_LIST is required"),
        (["oned", "--alpha", "1"], None, "--omega-grid OMEGA_GRID is required"),
        (["oracle-compare", "--epsilon", "0.3", "--rho0", "0.01"], None,
         "--omega OMEGA is required"),
        (["oracle-compare", "--omega", "41.452", "--epsilon", "0.3"], None,
         "--rho0 RHO0 is required"),
        # the field grid
        (["field", "--field-mode", "clean", "--omega", "39.5", "--nx", "0"], None,
         "nx must be an integer in 1.."),
        (["field", "--field-mode", "clean", "--omega", "39.5", "--ny", "-1"], None,
         "ny must be an integer in 1.."),
        (["field", "--field-mode", "clean", "--omega", "39.5", "--x-min", "1", "--x-max", "1"],
         None, "x_max > x_min"),
        # parse errors
        (["sweep"], "epsilon 0.3\n", ":1: expected 'key = value'"),
        (["universality", "--threshold-m", "2", "--epsilon", "0.3", "--rho0-list", "1e-3"],
         "oracle = maybe\n", "config key 'oracle' expects a boolean, got 'maybe'"),
        (["field", "--nx", "many"], None, "config key 'nx': invalid literal"),
        (["sweep", "--epsilon", "0.3", "--rho0", "0.01", "--omega-grid", "1.1:2"], None,
         "omega_grid must be 'lo:hi:count', got '1.1:2'"),
        (["sweep", "--epsilon", "0.3", "--rho0", "0.01", "--omega-grid", "1.1:2:0"], None,
         "omega_grid count must be an integer in 1.."),
        (["universality", "--threshold-m", "2", "--epsilon", "0.3", "--rho0-list", "1e-3,x"],
         None, "rho0_list must be comma-separated numbers"),
        (["universality", "--threshold-m", "2", "--epsilon", "0.3", "--rho0-list", ","], None,
         "rho0_list must not be empty"),
        (["universality", "--threshold-m", "2", "--epsilon", "0.3", "--rho0-list", "1e-3",
          "--offsets="], None, "offsets must not be empty"),
        (["oracle-compare", "--omega", "41.452", "--epsilon", "0.3", "--rho0", "0.01",
          "--rho-ladder", "0.04;0.02"], None, "rho_ladder must be comma-separated numbers"),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
    def test_exits_two_naming_the_key(self, tmp_path, capsys, argv, config, message):
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config)
            argv = [*argv, "--config", str(path)]
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--epsilon", "0.3", "--rho0", "0.01"], ["oned", "--alpha", "1"],
    ], ids=lambda argv: argv[0])
    def test_energy_count_over_the_limit_exits_two_before_the_grid(self, monkeypatch, capsys,
                                                                   alarm, argv):
        # 10^8 energies: the grid alone is 763 MiB, and a sweep of it more
        def linspace(*args, **kwargs):
            raise AssertionError("grid built")

        monkeypatch.setattr("wirescat.cli.np.linspace", linspace)
        with alarm(5):
            assert run(*argv, "--omega-grid", "1.1:1.9:100000000") == 2
        assert "omega_grid count must be an integer in 1..3749999, got 100000000" in \
            capsys.readouterr().err


class TestExitCodes:
    def test_domain_error_exits_two(self, capsys):
        assert run("field", "--field-mode", "defect", "--epsilon", "1.5",
                   "--rho0", "0.01", "--omega", "20.0") == 2
        assert "0 < eps < 1" in capsys.readouterr().err

    def test_convergence_error_exits_three(self, capsys):
        # an impurity 1e-8 from the wall needs more rho-bar terms than the budget
        assert run("field", "--field-mode", "defect", "--epsilon", "1e-8",
                   "--rho0", "0.01", "--omega", "20.0", "--nx", "3", "--ny", "3") == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_sizes_over_the_limit_are_refused(self, tmp_path, capsys):
        # each energy opens 10000 channels: failed sweep points, exit 1
        assert run("sweep", "--epsilon", "0.3", "--rho0", "0.01",
                   "--omega-grid", "1e8:1.0001e8:3", "--out", str(tmp_path / "s.csv")) == 1
        err = capsys.readouterr().err
        assert err.count("open channels") == 3 and "Traceback" not in err
        # a defect map of l_max = 1006624 modes: exit 2, and no file
        out = tmp_path / "f.csv"
        assert run("field", "--field-mode", "defect", "--epsilon", "0.3", "--rho0", "0.01",
                   "--omega", "1e13", "--out", str(out)) == 2
        assert "l_max = 1006624" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_sweep_points_keep_exit_one(self, tmp_path, capsys):
        # per-point numerical failures are collected by the sweep: exit 1, not 3
        out = tmp_path / "wall.csv"
        assert run("sweep", "--epsilon", "1e-8", "--rho0", "0.01",
                   "--omega-grid", "1.1:1.9:3", "--out", str(out)) == 1
        assert "terms" in capsys.readouterr().err


class TestField:
    def test_clean_mode_density_is_transverse_profile(self, tmp_path):
        out = tmp_path / "clean.csv"
        assert run("field", "--field-mode", "clean", "--mode-n", "1",
                   "--omega", repr(4 * PI**2), "--nx", "9", "--ny", "15",
                   "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()[1:]
        for line in lines:
            x, y, density = (float(tok) for tok in line.split(","))
            assert abs(density - math.sin(PI * y) ** 2) < 1e-14

    def test_threshold_mode_matches_closed_form(self, tmp_path):
        out = tmp_path / "thr.csv"
        assert run("field", "--field-mode", "threshold", "--mode-n", "1",
                   "--threshold-m", "2", "--epsilon", "0.25", "--rho0", "0.01",
                   "--nx", "7", "--ny", "9", "--with-complex",
                   "--out", str(out)) == 0
        imp = Impurity(0.25, 0.01)
        for line in out.read_text().strip().splitlines()[1:]:
            x, y, density, re, im = (float(tok) for tok in line.split(","))
            ref = threshold_field(imp, 1, 2, (x, y))
            assert complex(re, im) == pytest.approx(ref, abs=1e-10)
            assert density == pytest.approx(abs(ref) ** 2, abs=1e-10)

    def test_threshold_density_period_along_wire(self, tmp_path):
        # |psi|^2 of the cut-off pattern repeats with period 2/sqrt(3)
        out = tmp_path / "per.csv"
        period = 2.0 / math.sqrt(3.0)
        assert run("field", "--field-mode", "threshold", "--mode-n", "1",
                   "--threshold-m", "2", "--epsilon", "0.25", "--rho0", "0.01",
                   "--nx", "2", "--ny", "5", "--x-min", "0.0",
                   "--x-max", repr(period), "--out", str(out)) == 0
        rows = [[float(t) for t in line.split(",")]
                for line in out.read_text().strip().splitlines()[1:]]
        by_y = {}
        for x, y, density in rows:
            by_y.setdefault(y, []).append(density)
        for y, (d0, d1) in by_y.items():
            assert d0 == pytest.approx(d1, abs=1e-12)

    def test_defect_mode_approaches_threshold_mode(self, tmp_path):
        # shared grid; the near-cut-off defect field must converge to the
        # cut-off pattern as the offset shrinks
        common = ["--mode-n", "1", "--epsilon", "0.25", "--rho0", "0.01",
                  "--nx", "5", "--ny", "7", "--x-min", "-0.8", "--x-max", "0.8"]
        thr = tmp_path / "thr.csv"
        assert run("field", "--field-mode", "threshold", "--threshold-m", "2",
                   *common, "--out", str(thr)) == 0

        def densities(path):
            return np.array([[float(t) for t in line.split(",")]
                             for line in path.read_text().strip().splitlines()[1:]])[:, 2]

        ref = densities(thr)
        devs = []
        for offset in (1e-2, 1e-4, 1e-6):
            df = tmp_path / f"defect_{offset}.csv"
            omega = 4 * PI**2 * (1 + offset)
            assert run("field", "--field-mode", "defect", "--omega", repr(omega),
                       *common, "--out", str(df)) == 0
            devs.append(float(np.max(np.abs(densities(df) - ref))))
        assert devs[0] > devs[1] > devs[2]
        # floor set by the off-resonant evanescent cloud around x = 0
        assert devs[2] < 1e-2

    @pytest.mark.parametrize("omega, message", [("5", "does not propagate"),
                                                ("nan", "finite")])
    def test_clean_mode_needs_a_propagating_incident_mode(self, tmp_path, capsys,
                                                          omega, message):
        out = tmp_path / "clean.csv"
        assert run("field", "--field-mode", "clean", "--omega", omega, "--nx", "2",
                   "--ny", "1", "--out", str(out)) == 2
        assert message in capsys.readouterr().err

    def test_requires_mode(self):
        assert run("field", "--omega", "39.0") == 2

    def test_grid_above_point_limit_exits_two(self, monkeypatch, capsys):
        # refused before any array is built: a grid at the limit gets as far
        # as the first np.linspace, one point more does not
        from wirescat.specfun import _MAX_INDEX

        class Reached(Exception):
            pass

        def linspace(*args, **kwargs):
            raise Reached

        monkeypatch.setattr("wirescat.cli.np.linspace", linspace)
        clean = ["field", "--field-mode", "clean", "--omega", "39.5"]
        with pytest.raises(Reached):
            run(*clean, "--nx", str(_MAX_INDEX), "--ny", "1")
        for nx, ny in ((_MAX_INDEX + 1, 1), (100000, 100000)):
            capsys.readouterr()
            assert run(*clean, "--nx", str(nx), "--ny", str(ny)) == 2
            assert f"nx * ny = {nx} * {ny} = {nx * ny} points" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--x-min=-inf", "--x-max=inf", "--x-min=nan"])
    def test_non_finite_x_range_is_config_error(self, flag, capsys):
        assert run("field", "--field-mode", "threshold", "--threshold-m", "2",
                   "--epsilon", "0.3", "--rho0", "0.01", flag) == 2
        name = flag[2:].split("=")[0].replace("-", "_")
        assert name in capsys.readouterr().err


def _cutoff_point(eps, n, m, x, y):
    """The cut-off field at one point, evaluated with scalar math as a
    reference for the vectorized grid."""
    k = longitudinal_wavenumber(n, threshold_energy(m)).real
    inc = math.sin(n * PI * y) * np.exp(1j * k * x)
    return complex(inc - math.sin(n * PI * eps) / math.sin(m * PI * eps) * math.sin(m * PI * y))


def _point_table(psi, xs, ys, with_complex, fmt):
    """Field output built point by point: density float(abs(v) ** 2), then
    one "%.17g" CSV line or one json.dumps line per point."""
    header = ["x", "y", "density"] + (["re", "im"] if with_complex else [])
    lines = [] if fmt == "json" else [",".join(header)]
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            val = psi[iy, ix]
            row = [float(x), float(y), float(abs(val) ** 2)]
            if with_complex:
                row += [float(val.real), float(val.imag)]
            if fmt == "json":
                lines.append(json.dumps(dict(zip(header, row))))
            else:
                lines.append(",".join("%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


class TestFieldOutputBytes:
    """Every field mode writes exactly the bytes of the point-by-point
    recipe, in CSV and in JSON."""

    NX, NY = 21, 11
    XS = np.linspace(-2.0, 2.0, NX)
    YS = np.linspace(0.0, 1.0, NY + 2)[1:-1]
    OMEGA = 4.7 * PI**2

    def _reference(self, mode, eps):
        if mode == "clean":
            k = longitudinal_wavenumber(1, self.OMEGA)
            return np.outer(np.sin(PI * self.YS), np.exp(1j * k * self.XS))
        if mode == "defect":
            return scattered_field_grid(Impurity(eps, 0.003), 1, self.OMEGA, self.XS, self.NY)
        return np.array([[_cutoff_point(eps, 1, 2, x, y) for x in self.XS] for y in self.YS])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("with_complex", [True, False])
    @pytest.mark.parametrize("mode", ["clean", "defect", "threshold"])
    def test_matches_point_recipe(self, tmp_path, mode, with_complex, fmt):
        eps = 0.41
        out = tmp_path / f"{mode}.{fmt}"
        args = ["field", "--field-mode", mode, "--mode-n", "1", "--threshold-m", "2",
                "--epsilon", repr(eps), "--rho0", "0.003", "--omega", repr(self.OMEGA),
                "--nx", str(self.NX), "--ny", str(self.NY), "--format", fmt,
                "--out", str(out)]
        assert run(*args, *(["--with-complex"] if with_complex else [])) == 0
        psi = self._reference(mode, eps)
        assert out.read_text() == _point_table(psi, self.XS, self.YS, with_complex, fmt)

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    @pytest.mark.parametrize("with_complex", [True, False])
    def test_csv_blocks_of_any_size(self, tmp_path, monkeypatch, chunk, with_complex):
        # a block is a few whole rows, or a few points of one row when a row
        # holds more numbers than one kernel call formats
        monkeypatch.setattr("wirescat.cli._CHUNK_NUMBERS", chunk)
        out = tmp_path / "clean.csv"
        assert run("field", "--field-mode", "clean", "--mode-n", "1",
                   "--omega", repr(self.OMEGA), "--nx", str(self.NX), "--ny", str(self.NY),
                   "--out", str(out), *(["--with-complex"] if with_complex else [])) == 0
        psi = self._reference("clean", 0.41)
        assert out.read_text() == _point_table(psi, self.XS, self.YS, with_complex, "csv")

    def test_defect_csv_pinned(self, tmp_path):
        # test_matches_point_recipe takes its defect reference from
        # scattered_field_grid itself; these bytes pin the synthesis on their own
        out = tmp_path / "defect.csv"
        assert run("field", "--field-mode", "defect", "--mode-n", "1", "--epsilon", "0.41",
                   "--rho0", "0.003", "--omega", repr(self.OMEGA), "--nx", str(self.NX),
                   "--ny", str(self.NY), "--with-complex", "--out", str(out)) == 0
        assert out.read_bytes() == (DATA / "field_defect_eps0.41_rho0.003.csv").read_bytes()

    def test_scalar_cutoff_field_is_the_reference(self):
        imp = Impurity(0.41, 0.003)
        for y in self.YS:
            for x in self.XS:
                ref = _cutoff_point(0.41, 1, 2, x, y)
                assert threshold_field(imp, 1, 2, (x, y)) == ref

    def test_node_writes_the_open_channel_field_with_one_warning(self, tmp_path):
        out = tmp_path / "node.csv"
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert run("field", "--field-mode", "threshold", "--mode-n", "1",
                       "--threshold-m", "2", "--epsilon", "0.5", "--rho0", "0.01",
                       "--nx", str(self.NX), "--ny", str(self.NY), "--with-complex",
                       "--out", str(out)) == 0
            assert [w.category for w in record] == [DecoupledModeWarning]
            psi = threshold_field_grid(Impurity(0.5, 0.01), 1, 2, self.XS, self.NY)
        assert out.read_text() == _point_table(psi, self.XS, self.YS, True, "csv")
        # on the node the open channel still scatters: not the incident wave
        k = longitudinal_wavenumber(1, threshold_energy(2)).real
        incident = np.outer(np.sin(PI * self.YS), np.exp(1j * k * self.XS))
        assert np.max(np.abs(psi - incident)) > 0.1

    def test_json_of_a_large_map_equals_json_dumps_per_point(self, tmp_path):
        xs, ny = np.linspace(-2.0, 2.0, 401), 201
        out = tmp_path / "cutoff.json"
        assert run("field", "--field-mode", "threshold", "--mode-n", "1", "--threshold-m", "2",
                   "--epsilon", "0.41", "--rho0", "0.003", "--nx", "401", "--ny", str(ny),
                   "--format", "json", "--with-complex", "--out", str(out)) == 0
        psi = threshold_field_grid(Impurity(0.41, 0.003), 1, 2, xs, ny)
        assert out.read_text() == _point_table(psi, xs, lattice_rows(ny), True, "json")

    def test_json_row_with_a_non_finite_number_is_written_by_json_dumps(self, tmp_path,
                                                                        monkeypatch):
        # json.dumps writes NaN and Infinity where a %r template would write nan and inf
        psi = np.array([[_cutoff_point(0.41, 1, 2, x, y) for x in self.XS] for y in self.YS])
        psi[0, 0] = complex(math.nan, 0.0)
        psi[3, 5] = complex(math.inf, -1.0)
        monkeypatch.setattr("wirescat.cli.threshold_field_grid", lambda *args: psi)
        out = tmp_path / "non-finite.json"
        assert run("field", "--field-mode", "threshold", "--mode-n", "1", "--threshold-m", "2",
                   "--epsilon", "0.41", "--rho0", "0.003", "--nx", str(self.NX),
                   "--ny", str(self.NY), "--format", "json", "--with-complex",
                   "--out", str(out)) == 0
        text = out.read_text()
        assert "NaN" in text and "Infinity" in text
        assert text == _point_table(psi, self.XS, self.YS, True, "json")


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="forks on Linux only")
class TestRowBlocks:
    """Large maps have the numbers of their row blocks built and formatted in
    forked workers, one per usable CPU; the bytes equal those of one process."""

    ARGS = ["field", "--mode-n", "1", "--threshold-m", "2", "--epsilon", "0.41",
            "--rho0", "0.003", "--omega", repr(4.7 * PI**2)]
    GRID = ["--nx", "401", "--ny", "201"]

    @pytest.fixture
    def forks(self, monkeypatch):
        """A list of the forks made; ``forks.cpus(n)`` makes n CPUs usable."""
        class Forks(list):
            def cpus(self, n):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

        forks = Forks()
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        return forks

    def _write(self, capsys, tmp_path, options, to_stdout):
        out = tmp_path / "map"
        target = [] if to_stdout else ["--out", str(out)]
        capsys.readouterr()
        assert run(*self.ARGS, *options, *target) == 0
        return capsys.readouterr().out if to_stdout else out.read_text()

    @pytest.mark.parametrize("to_stdout", [False, True])
    @pytest.mark.parametrize("options", [["--with-complex"], [],
                                         ["--format", "json", "--with-complex"]])
    def test_forked_bytes_equal_one_process(self, forks, capsys, tmp_path, options,
                                            to_stdout):
        lines = 401 * 201 + (0 if "json" in options else 1)
        for mode in ("threshold", "defect", "clean"):
            mode_options = ["--field-mode", mode, *self.GRID, *options]
            forks.cpus(1)
            single = self._write(capsys, tmp_path, mode_options, to_stdout)
            assert forks == [], mode
            forks.cpus(3)
            forked = self._write(capsys, tmp_path, mode_options, to_stdout)
            assert len(forks) == 2, mode
            assert len(single.splitlines()) == lines, mode
            assert forked == single, mode
            forks.clear()

    @pytest.mark.parametrize("ny", [2, 3])
    def test_small_defect_map_forced_to_fork(self, forks, monkeypatch, capsys, tmp_path,
                                             ny):
        # blocks of one row: the parent synthesizes the whole map, and each
        # worker formats its row
        monkeypatch.setattr("wirescat.cli._MIN_BLOCK_NUMBERS", 1)
        options = ["--field-mode", "defect", "--nx", "41", "--ny", str(ny), "--with-complex"]
        forks.cpus(1)
        single = self._write(capsys, tmp_path, options, False)
        forks.cpus(3)
        assert self._write(capsys, tmp_path, options, False) == single
        assert len(forks) == ny - 1

    @pytest.mark.parametrize("encoding", [None, "utf-16", "cp037"])
    def test_stdout_text_stream(self, forks, monkeypatch, capsys, tmp_path, encoding):
        # the workers' text goes through the stream's own encoding, like the
        # header and the first block: io.StringIO has no byte buffer, and
        # utf-16 and cp037 do not encode ASCII as itself
        monkeypatch.setattr("wirescat.cli._MIN_BLOCK_NUMBERS", 1)
        options = ["--field-mode", "threshold", "--nx", "5", "--ny", "4"]
        forks.cpus(1)
        single = self._write(capsys, tmp_path, options, True)
        forks.cpus(2)
        stream = io.StringIO() if encoding is None else io.TextIOWrapper(io.BytesIO(),
                                                                       encoding=encoding)
        monkeypatch.setattr(sys, "stdout", stream)
        assert run(*self.ARGS, *options) == 0
        if encoding is None:
            text = stream.getvalue()
        else:
            stream.flush()
            text = stream.buffer.getvalue().decode(encoding)
        assert text == single and len(forks) == 1

    def test_error_is_raised_before_the_output_opens(self, forks, capsys, tmp_path):
        forks.cpus(3)
        out = tmp_path / "F"
        assert run("field", "--field-mode", "defect", "--epsilon", "0.41", "--rho0", "0.003",
                   "--omega", "nan", *self.GRID, "--out", str(out)) == 2
        assert capsys.readouterr() == ("", "error: energy must be finite, got nan\n")
        assert not out.exists() and forks == []

    def test_node_warns_once_in_all_processes(self, forks, monkeypatch, tmp_path):
        # a spy that appends to a file records warnings shown in forked workers too
        shown = tmp_path / "shown"

        def spy(message, category, *args, **kwargs):
            with open(shown, "a", encoding="utf-8") as fh:
                fh.write(category.__name__ + "\n")

        forks.cpus(3)
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            monkeypatch.setattr(warnings, "showwarning", spy)
            assert run("field", "--field-mode", "threshold", "--threshold-m", "2",
                       "--epsilon", "0.5", "--rho0", "0.01", *self.GRID,
                       "--out", str(tmp_path / "node.csv")) == 0
        assert len(forks) == 2
        assert shown.read_text() == "DecoupledModeWarning\n"

    def test_small_map_never_forks(self, monkeypatch, tmp_path):
        def no_fork():
            raise AssertionError("a 21x11 map must not fork")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        out = tmp_path / "small.csv"
        assert run("field", "--field-mode", "threshold", "--threshold-m", "2",
                   "--epsilon", "0.41", "--rho0", "0.003", "--nx", "21", "--ny", "11",
                   "--with-complex", "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 1 + 21 * 11

    def test_failed_worker_raises_and_is_reaped(self, monkeypatch, tmp_path):
        real_fork = os.fork

        def dying_fork():
            pid = real_fork()
            if pid == 0:
                os._exit(1)
            return pid

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", dying_fork)
        with pytest.raises(RuntimeError, match="worker exited with status 1"):
            run(*self.ARGS, "--field-mode", "threshold", *self.GRID,
                "--out", str(tmp_path / "broken.csv"))
        with pytest.raises(ChildProcessError):  # no zombie is left to reap
            os.waitpid(-1, os.WNOHANG)


class TestOned:
    def test_reference_values(self, tmp_path):
        out = tmp_path / "oned.csv"
        assert run("oned", "--alpha", "1.0", "--omega-grid", "0.25:2.5:2",
                   "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "omega,R_delta"
        r1 = float(lines[1].split(",")[1])
        r2 = float(lines[2].split(",")[1])
        assert r1 == pytest.approx(0.5, rel=1e-15)
        assert r2 == pytest.approx(1.0 / 11.0, rel=1e-15)

    def test_zero_energy_total_reflection(self, tmp_path):
        out = tmp_path / "zero.csv"
        assert run("oned", "--alpha", "7.0", "--omega-grid", "0:0:1",
                   "--out", str(out)) == 0
        assert float(out.read_text().strip().splitlines()[1].split(",")[1]) == 1.0

    def test_weak_and_delta_columns_converge(self, tmp_path):
        out = tmp_path / "both.csv"
        assert run("oned", "--alpha", "0.05", "--delta-v", "50.0",
                   "--barrier-width", "0.001", "--omega-grid", "0.01:1:5",
                   "--out", str(out)) == 0
        for line in out.read_text().strip().splitlines()[1:]:
            _, r_delta, r_weak = (float(t) for t in line.split(","))
            assert abs(r_delta - r_weak) < 1e-4

    def test_requires_a_barrier(self):
        assert run("oned", "--omega-grid", "0:1:5") == 2


class TestUniversality:
    def test_analytic_verdict(self, tmp_path):
        out = tmp_path / "uni.json"
        assert run("universality", "--mode-n", "1", "--threshold-m", "2",
                   "--epsilon", "0.3", "--rho0-list", "1e-5,1e-3,1e-1",
                   "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "PASS"
        assert report["threshold_spread"] < 1e-8
        assert "threshold_field_spread" not in report  # was 0 by construction
        assert report["threshold_deviation"] < 1e-6
        spreads = [blk["spread"] for blk in report["near_threshold"]]
        assert spreads == sorted(spreads, reverse=True)  # decreasing toward 0

    def test_oracle_verdict(self, tmp_path):
        out = tmp_path / "uni_oracle.json"
        assert run("universality", "--mode-n", "1", "--threshold-m", "2",
                   "--epsilon", "0.3", "--rho0-list", "1e-3,1e-2,1e-1",
                   "--oracle", "--grid-ny", "400", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "PASS"
        assert report["oracle"]["spread"] < 0.05
        assert report["oracle"]["mean_deviation"] < 0.05
        lattice, continuum = (report["oracle"]["lattice_cutoff"],
                              report["oracle"]["continuum_cutoff"])
        assert continuum == (2 * PI) ** 2
        assert continuum - 1e-3 < lattice < continuum - 5e-4  # (2 pi)^4 h^2 / 12 below

    def test_requires_strength_list(self):
        assert run("universality", "--mode-n", "1", "--threshold-m", "2",
                   "--epsilon", "0.3") == 2

    def test_offset_energy_rounding_onto_the_cutoff(self, tmp_path):
        # near a node of mode 3 every offset times min |Delta_3| lies below
        # half an ulp of (3 pi)^2; each offset energy is then the next float
        # above the cut-off, not the cut-off itself (which has k_3 = 0)
        out = tmp_path / "node.json"
        assert run("universality", "--mode-n", "1", "--threshold-m", "3",
                   "--epsilon", "0.3332118167489375", "--rho0-list",
                   "7.038239983454513e-05,0.03210481149589653,0.00016724252176652203",
                   "--out", str(out)) == 0
        report = json.loads(out.read_text())
        energies = [blk["omega"] for blk in report["near_threshold"]]
        assert len(energies) == 3
        assert all(omega > (3 * PI) ** 2 for omega in energies)
        assert math.nextafter((3 * PI) ** 2, math.inf) in energies
        # |Delta_3^(-1/2)| reaches 9.9e5 here: the limits are exact at the
        # cut-off, however close the pole of A_13 lies
        assert report["verdict"] == "PASS"
        assert report["threshold_spread"] < 1e-8
        assert report["threshold_deviation"] < 1e-6

    def test_zero_grid_ny_is_config_error(self, capsys):
        assert run("universality", "--epsilon", "0.3", "--threshold-m", "2",
                   "--rho0-list", "0.01", "--oracle", "--grid-ny", "0") == 2
        assert "grid_ny" in capsys.readouterr().err

    def test_lattice_table_over_the_size_limit_exits_2(self, capsys):
        # 3 widths x 30 strengths at ny = 200,000; one width with 30 peaked
        # at 534 MiB before the size stage, now refused before any array
        strengths = ",".join(map(repr, np.geomspace(1e-5, 0.1, 30).tolist()))
        assert run("universality", "--epsilon", "0.3", "--threshold-m", "2",
                   "--rho0-list", strengths, "--oracle", "--grid-ny", "200000") == 2
        assert "90 cells at ny = 200000" in capsys.readouterr().err


class TestUniversalityPasses:
    """A report evaluates rho_bar in two passes (the cut-off, for Delta_m
    and the limits; the offset energies) and the probe in one, on one
    lattice table."""

    ARGS = ("universality", "--mode-n", "1", "--threshold-m", "3", "--epsilon", "0.2",
            "--rho0-list", "1e-5,1e-3,1e-1")

    @pytest.fixture
    def counts(self, monkeypatch):
        from wirescat import oracle, rhobar, scatter

        seen = {"rho_bar": 0, "modes": 0}
        # regularized_scales is reached through its own module and scatter's binding
        for module, name, key in ((rhobar, "regularized_scales", "rho_bar"),
                                  (scatter, "regularized_scales", "rho_bar"),
                                  (oracle, "_lattice_modes", "modes")):
            real = getattr(module, name)

            def counting(*args, _real=real, _key=key):
                seen[_key] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
        return seen

    def test_closed_form_report(self, counts, tmp_path):
        assert run(*self.ARGS, "--out", str(tmp_path / "u.json")) == 0
        assert counts == {"rho_bar": 2, "modes": 0}

    def test_report_with_probe(self, counts, tmp_path):
        assert run(*self.ARGS, "--oracle", "--out", str(tmp_path / "u.json")) == 0
        assert counts == {"rho_bar": 3, "modes": 1}


@pytest.mark.parametrize("name", ["universality_eps0.3_m2.json", "universality_eps0.3552_m3.json"])
def test_universality_report_pinned(tmp_path, name):
    # criterion 8's configuration, and a m = 3 report whose impurity sits
    # near a node of mode 3 (|Delta_3^(-1/2)| = 37)
    text = (DATA / name).read_text()
    ref = json.loads(text)
    out = tmp_path / name
    assert run("universality", "--mode-n", str(ref["mode_n"]),
               "--threshold-m", str(ref["threshold_m"]), "--epsilon", repr(ref["epsilon"]),
               "--rho0-list", ",".join(repr(r) for r in ref["rho0_list"]),
               "--oracle", "--out", str(out)) == 0
    got = json.loads(out.read_text())
    for key in ("oracle", "near_threshold"):
        assert json.dumps(got[key], indent=2) == json.dumps(ref[key], indent=2)
    assert out.read_text() == text


@pytest.mark.parametrize("name", ["", "sweep", "field", "universality", "oned",
                                  "oracle-compare"])
def test_help_text_pinned(name, capsys):
    # the help is built from the key table and printed to stdout; main returns 0
    assert main(([name] if name else []) + ["--help"]) == 0
    assert capsys.readouterr().out == json.loads((DATA / "cli_help.json").read_text())[name]


class TestOracleCompare:
    def test_emits_records_and_comparison(self, tmp_path):
        out = tmp_path / "cmp.jsonl"
        assert run("oracle-compare", "--epsilon", "0.3", "--rho0", "0.01",
                   "--mode-n", "1", "--omega", repr(4 * PI**2 * 1.05),
                   "--grid-ny", "400", "--out", str(out)) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        summary = lines[-1]
        assert summary["type"] == "comparison"
        rels = {row["l"]: row["rel_err"] for row in summary["rows"]}
        assert rels[1] < 0.02 and rels[2] < 0.02
        # 3 ladder blocks + 1 extrapolated block, 12 modes each
        assert len(lines) == 4 * 12 + 1

    def test_readme_example_pinned(self, tmp_path):
        # the README's oracle-compare run: every width's records, the
        # zero-width records and the comparison, byte for byte
        out = tmp_path / "compare.jsonl"
        assert run("oracle-compare", "--epsilon", "0.3", "--rho0", "0.01", "--mode-n", "1",
                   "--omega", "41.452", "--grid-ny", "400", "--out", str(out)) == 0
        assert out.read_bytes() == (DATA / "oracle_compare_eps0.3_rho0.01.jsonl").read_bytes()

    def test_fewer_lead_modes_than_open_channels(self, tmp_path):
        # two channels are open at omega = 45; one lead mode still compares
        out = tmp_path / "cmp.jsonl"
        assert run("oracle-compare", "--epsilon", "0.3", "--rho0", "0.01", "--omega", "45",
                   "--grid-ny", "400", "--lead-modes", "1", "--out", str(out)) == 0
        summary = json.loads(out.read_text().splitlines()[-1])
        assert summary["type"] == "comparison"
        assert [row["l"] for row in summary["rows"]] == [1]

    def test_zero_grid_ny_is_config_error(self, capsys):
        assert run("oracle-compare", "--epsilon", "0.3", "--rho0", "0.01",
                   "--omega", "41", "--grid-ny", "0") == 2
        assert "grid_ny" in capsys.readouterr().err


class TestOutputsReadNoResidual:
    """No CLI output reads the lattice residual, so no run computes it."""

    @pytest.fixture(autouse=True)
    def no_residual(self, monkeypatch):
        from wirescat import oracle

        def refuse(*args):
            raise AssertionError("residual computed")

        monkeypatch.setattr(oracle, "_residual", refuse)

    def test_oracle_compare(self, tmp_path):
        out = tmp_path / "compare.jsonl"
        assert run("oracle-compare", "--epsilon", "0.3", "--rho0", "0.01", "--mode-n", "1",
                   "--omega", "41.452", "--grid-ny", "400", "--out", str(out)) == 0
        assert out.read_bytes() == (DATA / "oracle_compare_eps0.3_rho0.01.jsonl").read_bytes()

    def test_universality_probe(self, tmp_path):
        out = tmp_path / "uni.json"
        assert run("universality", "--mode-n", "1", "--threshold-m", "2",
                   "--epsilon", "0.3", "--rho0-list", "1e-3,1e-1",
                   "--oracle", "--grid-ny", "400", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "PASS"
        assert report["oracle"]["spread"] < 0.05


def test_defect_map_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the synthesis is one FFT per column and takes no matrix product, whose
    # bits would follow how a multithreaded BLAS splits it
    import wirescat

    src = str(Path(wirescat.__file__).resolve().parents[1])
    code = "import sys\nfrom wirescat.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    maps = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = tmp_path / f"defect-{threads}.csv"
        subprocess.run([sys.executable, "-c", code, "field", "--field-mode", "defect",
                        "--epsilon", "0.41", "--rho0", "0.003", "--omega", "46.4",
                        "--nx", "41", "--ny", "41", "--with-complex", "--out", str(out)],
                       env=env, check=True, timeout=120)
        maps.append(out.read_bytes())
    assert maps[0] == maps[1]


def test_import_loads_neither_numba_nor_numpy_fft(tmp_path):
    # set-up time of every CLI run: numpy.fft is reached only by the oracle
    # and the field synthesis, numba by neither; the field writer forks by os alone, so no process
    # pool is loaded; the command line is read without argparse, whose
    # gettext loads locale on its first message, both at import and after
    # a sweep; the field CSV's number kernel is loaded by the field writer
    import wirescat

    src = str(Path(wirescat.__file__).resolve().parents[1])
    config = tmp_path / "sweep.cfg"
    config.write_text(f"epsilon = 0.3\nrho0 = 0.01\nomega_grid = 1.1:1.9:3\n"
                      f"out = {tmp_path / 'sweep.csv'}\n", encoding="utf-8")
    code = ("import sys, wirescat, wirescat.cli\n"
            "def loaded(names):\n"
            "    return ','.join(m for m in names if m in sys.modules)\n"
            "print(loaded(('numba', 'numpy.fft', 'multiprocessing', 'concurrent.futures',\n"
            "              'argparse', 'gettext', 'locale', 'wirescat._fmt17')))\n"
            f"assert wirescat.cli.main(['sweep', '--config', {str(config)!r}]) == 0\n"
            "print(loaded(('argparse', 'gettext', 'locale', 'wirescat._fmt17')))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.splitlines() == ["", ""]
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 3
