"""Per-layer spans recorded around the public functions of wirescat's modules.

The library is not edited: ``Tracer.install`` rebinds, in every loaded
``wirescat`` module, each name bound to a traced function to a timing wrapper,
so calls through ``from .x import f`` bindings are recorded as well.  A span's
self time is its total time minus the time of the spans it called.

The counts named in ``COMPUTED`` are derived from call arguments, array
shapes and file sizes, not measured: kernel terms, complex multiply-adds,
bytes of kernel operands, lattice unknowns and CLI output bytes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

SPANS = (
    "cli.main",
    "transport.sweep",
    "transport.transport_at",
    "scatter.solve_scattering",
    "scatter.scattering_amplitude",
    "scatter.resonance_parameter",
    "scatter.threshold_amplitude_limit",
    "scatter.scattered_field_grid",
    "scatter.threshold_field",
    "scatter.regularized_scale",
    "scatter.regularized_scale_tail_subtraction",
    "specfun.evanescent_gaussian_sum",
    "kernels.cut_sum",
    "kernels.tail_sum",
    "kernels.field_grid",
    "oracle.solve_ladder",
    "oracle.solve",
    "oracle.extrapolate_to_zero_width",
    "oracle.universality_probe",
)

#: Derived per-layer metrics: name -> (unit, better).  ``cli.out_bytes`` and
#: ``trace.overhead_s`` are filled in by run.py.
DERIVED = {
    "rho_bar.distinct_inputs": ("count", "lower"),
    "rho_bar.reuse_ratio": ("ratio", "higher"),
    "rho_bar.rungs_per_call": ("rungs/call", "lower"),
    "kernels.cut_sum.terms": ("count", "lower"),
    "kernels.field_grid.cmacs": ("count", "lower"),
    "kernels.field_grid.bytes": ("bytes", "lower"),
    "oracle.solve.unknowns": ("count", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

#: Counts derived from arguments, shapes and file sizes rather than measured.
COMPUTED = {"kernels.cut_sum.terms", "kernels.field_grid.cmacs", "kernels.field_grid.bytes",
            "oracle.solve.unknowns", "cli.out_bytes"}

SPAN_FIELDS = {"calls": "count", "total_ms": "ms", "self_ms": "ms", "errors": "count"}


def per_layer_units() -> dict:
    """Every per-layer metric name -> (unit, better), in report order."""
    units = {}
    for span in SPANS:
        for fld, unit in SPAN_FIELDS.items():
            units[f"{span}.{fld}"] = (unit, "lower")
    units.update(DERIVED)
    return units


class Tracer:
    """Span statistics and computed counts for one process."""

    def __init__(self):
        self.stats = {name: {"calls": 0, "total": 0.0, "child": 0.0, "errors": 0}
                      for name in SPANS}
        self.stack: list[list] = []  # [span name, time spent in child spans]
        self.rho_inputs: set = set()
        self.counts = {"rungs": 0, "terms": 0, "cmacs": 0, "bytes": 0, "unknowns": 0}

    def install(self) -> None:
        wrappers = {}
        for name in SPANS:
            module, func = name.split(".")
            fn = getattr(importlib.import_module(f"wirescat.{module}"), func)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "wirescat" and not mod_name.startswith("wirescat."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self.stack
        count = self._counter(name, fn)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat["errors"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat["calls"] += 1
                stat["total"] += dt
                stat["child"] += frame[1]
                if stack:
                    stack[-1][1] += dt

        return span

    def _counter(self, name, fn):
        bind = inspect.signature(fn).bind
        counts = self.counts

        if name == "scatter.regularized_scale":
            def count(args, kwargs):
                a = bind(*args, **kwargs).arguments
                self.rho_inputs.add((float(a["eps"]), float(a["omega"]), int(a["m"])))
        elif name == "specfun.evanescent_gaussian_sum":
            def count(args, kwargs):
                if self.stack and self.stack[-1][0] == "scatter.regularized_scale":
                    counts["rungs"] += 1
        elif name == "kernels.cut_sum":
            def count(args, kwargs):
                a = bind(*args, **kwargs).arguments
                counts["terms"] += max(0, int(a["n_max"]) - int(a["m"]))
        elif name == "kernels.field_grid":
            def count(args, kwargs):
                a = bind(*args, **kwargs).arguments
                nx, ny, nl = len(a["xs"]), len(a["ys"]), len(a["coefs"])
                counts["cmacs"] += ny * nx * nl
                # float64 xs, ys; complex128 coefs, kxs and the (ny, nx) result
                counts["bytes"] += 8 * (nx + ny) + 16 * 2 * nl + 16 * ny * nx
        elif name == "oracle.solve":
            def count(args, kwargs):
                wire = bind(*args, **kwargs).arguments["wire"]
                counts["unknowns"] += round(1.0 / wire.h_y) - 1
        else:
            count = None
        return count

    def metrics(self) -> dict:
        """Per-layer values of this process (times in ms)."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st["calls"]
            out[f"{name}.total_ms"] = st["total"] * 1e3
            out[f"{name}.self_ms"] = (st["total"] - st["child"]) * 1e3
            out[f"{name}.errors"] = st["errors"]
        rho_calls = self.stats["scatter.regularized_scale"]["calls"]
        distinct = len(self.rho_inputs)
        out["rho_bar.distinct_inputs"] = distinct
        out["rho_bar.reuse_ratio"] = distinct / rho_calls if rho_calls else 1.0
        out["rho_bar.rungs_per_call"] = self.counts["rungs"] / rho_calls if rho_calls else 0.0
        out["kernels.cut_sum.terms"] = self.counts["terms"]
        out["kernels.field_grid.cmacs"] = self.counts["cmacs"]
        out["kernels.field_grid.bytes"] = self.counts["bytes"]
        out["oracle.solve.unknowns"] = self.counts["unknowns"]
        return out
