"""What the benchmark harness under ``perfbench/`` needs of the library.

``perfbench/spans.py`` rebinds public functions by name and binds their
arguments by parameter name to count work; ``perfbench/workloads.py``
imports library names to build its references.  A rename or a signature
change would break ``perfbench/run.py --trace 1`` only when the benchmark
runs; these tests break first.  A last test runs ``perfbench/child.py``
itself on four tiny jobs, untraced and traced: a child that cannot run its
calls is what the benchmark counts as failed operations.  Seed 1 of every
workload runs through the CLI and passes the workload's own check, so an
output the benchmark reads cannot lose a key or a column unnoticed.  They read the
files under ``perfbench/`` and change none of them (no bytecode is written
next to them).
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import wirescat
from wirescat.cli import build_config, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: One tiny job per benchmark subcommand: (subcommand, config keys).
CHILD_JOBS = (
    ("sweep", {"epsilon": 0.3, "rho0": 0.01, "omega_grid": "1.1:8.9:5"}),
    ("universality", {"mode_n": 1, "threshold_m": 2, "epsilon": 0.3,
                      "rho0_list": "0.001,0.01,0.1", "oracle": "true"}),
    ("field", {"field_mode": "defect", "mode_n": 1, "epsilon": 0.3, "rho0": 0.01,
               "omega": 45.0, "nx": 7, "ny": 5}),
    ("oracle-compare", {"mode_n": 1, "epsilon": 0.3, "rho0": 0.01, "omega": 45.0,
                        "grid_ny": 400}),
)


def _load(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _span_function(span):
    module, func = span.split(".")
    return getattr(importlib.import_module(f"wirescat.{module}"), func)


def _counted_parameters():
    """span -> the argument names ``Tracer._counter`` reads for it, parsed
    from the ``if name == "<span>"`` branches of spans.py."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    counter = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "_counter")
    read = {}
    for node in ast.walk(counter):
        if not (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)):
            continue
        span = node.test.comparators[0]
        if not (isinstance(span, ast.Constant) and isinstance(span.value, str)):
            continue
        nodes = [sub for stmt in node.body for sub in ast.walk(stmt)]
        # ``bind(...).arguments[key]``, or ``a[key]`` after ``a = bind(...).arguments``
        aliases = {target.id for sub in nodes if isinstance(sub, ast.Assign)
                   and _is_arguments(sub.value) for target in sub.targets}
        read[span.value] = {
            sub.slice.value for sub in nodes
            if isinstance(sub, ast.Subscript) and isinstance(sub.slice, ast.Constant)
            and (_is_arguments(sub.value)
                 or isinstance(sub.value, ast.Name) and sub.value.id in aliases)}
    return read


def _is_arguments(node):
    return isinstance(node, ast.Attribute) and node.attr == "arguments"


def test_every_span_is_a_library_function(monkeypatch):
    spans = _load(monkeypatch, "spans")
    assert spans.SPANS
    for span in spans.SPANS:
        assert callable(_span_function(span)), span


def test_counted_spans_bind_the_parameters_the_tracer_reads(monkeypatch):
    spans = _load(monkeypatch, "spans")
    read = _counted_parameters()
    assert set().union(*read.values()) >= {"eps", "omega", "m", "n_max", "xs", "ys",
                                           "coefs", "wire"}
    for span, names in read.items():
        assert span in spans.SPANS
        params = inspect.signature(_span_function(span)).parameters
        assert names <= set(params), (span, names - set(params))


def test_oracle_solve_counter_reads_the_wire():
    # no workload calls oracle.solve, so only this test runs its counter; in
    # a subprocess, so the tracer's rebinding of library names stays there
    ny = 400
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(PERFBENCH)!r}, {str(Path(wirescat.__file__).parents[1])!r}]\n"
        "import wirescat.oracle\n"
        "from spans import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        f"wire = wirescat.oracle.DiscreteWire(eps=0.3, ny={ny})\n"
        "wirescat.oracle.solve(wire, 1, 41.452, 0.04, 0.01)\n"
        "print(json.dumps(tracer.metrics()))\n"
    )
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    metrics = json.loads(done.stdout.splitlines()[-1])
    assert (metrics["oracle.solve.calls"], metrics["oracle.solve.errors"]) == (1, 0)
    assert metrics["oracle.solve.unknowns"] == ny - 1


def test_kernel_backend_is_numpy():
    assert wirescat.kernel_backend() == "numpy"


@pytest.mark.filterwarnings("error")
def test_workloads_import(monkeypatch):
    workloads = _load(monkeypatch, "workloads")
    assert set(workloads.WORKLOADS) == {"sweep", "cutoff-universality", "field-map",
                                        "oracle-compare"}


def test_every_workload_call_passes_the_key_check(monkeypatch, tmp_path):
    # the benchmark feeds every key through --config; a key its subcommand
    # does not read would make the whole call a failed operation
    workloads = _load(monkeypatch, "workloads")
    path, out = tmp_path / "call.cfg", str(tmp_path / "out")
    for name, (make_calls, _) in workloads.WORKLOADS.items():
        for seed in range(1, 51):
            for call in make_calls(random.Random(f"{name}/{seed}")):  # as run.py seeds
                path.write_text(call.config_text(out), encoding="utf-8")
                cfg = build_config(call.subcommand, ["--config", str(path)])
                assert {**call.config, "out": out}.items() <= vars(cfg).items(), (name, seed)


def test_every_workload_passes_its_own_check(monkeypatch, tmp_path):
    # what a check reads of an output (a report key, a CSV column) must be
    # there before the benchmark runs: seed 1 of every workload, run through
    # the CLI as child.py runs it, then checked as run.py checks it
    workloads = _load(monkeypatch, "workloads")
    for name, (make_calls, check) in workloads.WORKLOADS.items():
        for j, call in enumerate(make_calls(random.Random(f"{name}/1"))):
            path, out = tmp_path / f"{name}-c{j}.cfg", tmp_path / f"{name}-c{j}{call.suffix}"
            path.write_text(call.config_text(str(out)), encoding="utf-8")
            assert main([call.subcommand, "--config", str(path)]) == 0, (name, j)
            outcome = check(call, str(out))
            assert outcome.failed == 0, (name, j, outcome.notes)


@pytest.mark.parametrize("trace", [0, 1])
def test_child_runs_every_subcommand(tmp_path, trace):
    calls = []
    for j, (subcommand, config) in enumerate(CHILD_JOBS):
        path = tmp_path / f"c{j}.cfg"
        lines = [f"{key} = {value}" for key, value in config.items()]
        path.write_text("\n".join(lines + [f"out = {tmp_path / f'c{j}.out'}"]) + "\n",
                        encoding="utf-8")
        calls.append([subcommand, str(path)])
    spec = tmp_path / "spec.json"
    result = tmp_path / "result.json"
    spec.write_text(json.dumps({"src": str(Path(wirescat.__file__).resolve().parents[1]),
                                "calls": calls, "trace": trace, "result": str(result)}),
                    encoding="utf-8")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run([sys.executable, str(PERFBENCH / "child.py"), str(spec)], cwd=tmp_path,
                   env=env, capture_output=True, text=True, check=True, timeout=120)
    record = json.loads(result.read_text(encoding="utf-8"))
    assert [(call["rc"], call["error"]) for call in record["calls"]] == [(0, None)] * 4
    assert record["kernel_backend"] == "numpy"
    if trace:
        assert record["layers"]["cli.main.calls"] == 4
    else:
        assert record["layers"] is None
