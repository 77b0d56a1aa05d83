"""What the benchmark harness under ``perfbench/`` needs of the library.

``perfbench/spans.py`` rebinds public functions by name and binds their
arguments by parameter name to count work; ``perfbench/workloads.py``
imports library names to build its references.  A rename or a signature
change would break ``perfbench/run.py --trace 1`` only when the benchmark
runs; these tests break first.  They read both files and change neither
(no bytecode is written next to them).
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import wirescat

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def test_kernel_backend_is_numpy():
    assert wirescat.kernel_backend() == "numpy"


@pytest.mark.filterwarnings("error")
def test_workloads_import(monkeypatch):
    workloads = _load(monkeypatch, "workloads")
    assert set(workloads.WORKLOADS) == {"sweep", "cutoff-universality", "field-map",
                                        "oracle-compare"}
