"""Benchmark of the wirescat batch CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout: the program is imported from
``src/`` next to this directory, and nothing is installed.  Workloads are
``sweep``, ``cutoff-universality``, ``field-map`` and ``oracle-compare``
(see workloads.py); the seed picks their inputs, which the program receives
only as ``key = value`` config files passed through ``--config``.

Load is a closed loop with one client: each run of a workload is a fresh
``child.py`` process, started only after the previous one has ended, until
at least S seconds have passed.  Every process runs the same jobs, so each
output must match the first process's byte for byte.  BLAS threads are
pinned to one in the child so that runs on a shared machine stay steady.

``--trace 0`` reports the end-to-end metrics, medians over processes:
``run_s`` (the ``cli.main`` calls of one process), ``setup_s`` (importing
``wirescat`` and ``wirescat.cli``) and ``peak_rss_mb`` (the process's
``ru_maxrss``).  ``--trace 1`` alternates untraced and traced processes and
reports the per-layer metrics of spans.py (medians over the traced
processes), ``cli.out_bytes`` and ``trace.overhead_s`` (traced minus
untraced median ``run_s``).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  An operation is one sweep energy, one field
map, one universality report or one oracle comparison.  It fails when its
call raised or exited non-zero, when its output fails a check against a
reference computed outside the timed region, or when its output differs
from the first process's.  ``fail_frac`` is printed as ``failed/attempted``.
``correct`` is false when a failure is anything other than a FAIL verdict
that the program itself reported and the checks confirm (``wirescat
universality``): a wrong number, a changed output, a crash or a verdict
that contradicts the checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

START_BY_S = 150.0   # no process starts later than this into the run ...
FINISH_BY_S = 165.0  # ... and each is killed past this, inside a 180 s budget
MIN_PROCESSES = 3    # per reported kind (untraced, traced)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


class Runner:
    """Runs the child processes of one benchmark run and tallies operations."""

    def __init__(self, calls, work: Path, started: float):
        self.calls = calls
        self.work = work
        self.started = started
        self.env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
        self.records = []
        self.first = [None] * len(calls)  # (digest, path) of the first output per call
        self.matches = [0] * len(calls)   # outputs identical to the first
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.notes = []

    def _fail(self, ops, note, wrong=True):
        self.failed += ops
        self.wrong = self.wrong or wrong
        self.notes.append(note)

    def run_process(self, index: int, traced: bool) -> None:
        tag = f"p{index}"
        outs = []
        for j, call in enumerate(self.calls):
            out = self.work / f"{tag}-c{j}{call.suffix}"
            cfg = self.work / f"{tag}-c{j}.cfg"
            cfg.write_text(call.config_text(str(out)), encoding="utf-8")
            outs.append((call, cfg, out))
        spec = self.work / f"{tag}-spec.json"
        result = self.work / f"{tag}-result.json"
        spec.write_text(json.dumps({
            "src": str(SRC),
            "calls": [[call.subcommand, str(cfg)] for call, cfg, _ in outs],
            "trace": int(traced),
            "result": str(result),
        }), encoding="utf-8")
        self.attempted += sum(call.ops for call in self.calls)
        timeout = max(1.0, FINISH_BY_S - (time.perf_counter() - self.started))
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec)],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            self._fail(sum(c.ops for c in self.calls), f"{tag}: killed after {timeout:.0f} s")
            return
        if proc.returncode != 0 or not result.exists():
            self._fail(sum(c.ops for c in self.calls),
                       f"{tag}: exit {proc.returncode}: {proc.stderr[-1000:]}")
            return
        record = json.loads(result.read_text(encoding="utf-8"))
        record["traced"] = traced
        record["out_bytes"] = 0
        for j, ((call, _, out), done) in enumerate(zip(outs, record["calls"])):
            if done["rc"] != 0 or done["error"] or not out.exists():
                self._fail(call.ops, f"{tag} {call.subcommand}: exit {done['rc']} "
                                     f"{done['error'] or ''}{proc.stderr[-1000:]}")
                continue
            data = out.read_bytes()
            record["out_bytes"] += len(data)
            digest = hashlib.sha256(data).hexdigest()
            if self.first[j] is None:
                self.first[j] = (digest, out)  # kept for the output checks
                self.matches[j] += 1
                continue
            if digest == self.first[j][0]:
                self.matches[j] += 1
            else:
                differing = _differing_lines(self.first[j][1], out)
                self._fail(min(call.ops, differing), f"{tag} {call.subcommand}: output "
                           f"differs from the first process in {differing} lines")
            out.unlink()
        self.records.append(record)

    def check_outputs(self, check) -> None:
        """Check each distinct output once; identical outputs share the result."""
        for j, call in enumerate(self.calls):
            if self.first[j] is None:
                continue
            try:
                outcome = check(call, self.first[j][1])
            except Exception as exc:  # a malformed output fails its operations
                self._fail(call.ops * self.matches[j],
                           f"{call.subcommand}: output unreadable: {exc!r}")
                continue
            if outcome.failed:
                self._fail(outcome.failed * self.matches[j],
                           f"{call.subcommand} (x{self.matches[j]}): " + " | ".join(outcome.notes),
                           wrong=outcome.wrong)


def _differing_lines(a: Path, b: Path) -> int:
    la = a.read_text(encoding="utf-8").splitlines()
    lb = b.read_text(encoding="utf-8").splitlines()
    return sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))


def _summary(values):
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return statistics.median(values), q1, q3


def provenance(args, records) -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                     capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            git_sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "wirescat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha or None,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": records[0]["kernel_backend"],
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "processes": {"untraced": sum(not r["traced"] for r in records),
                      "traced": sum(r["traced"] for r in records)},
        "run_s_samples": [[r["run_s"], r["traced"]] for r in records],
        "setup_s_samples": [r["setup_s"] for r in records],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wirescat" / "cli.py").is_file():
        print(f"error: no wirescat source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import COMPUTED, per_layer_units
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    make_calls, check = WORKLOADS[args.workload]
    calls = make_calls(random.Random(f"{args.workload}/{args.seed}"))

    started = time.perf_counter()
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        runner = Runner(calls, work, started)
        index = 0
        while True:
            elapsed = time.perf_counter() - started
            untraced = sum(not r["traced"] for r in runner.records)
            traced = sum(r["traced"] for r in runner.records)
            enough = untraced >= MIN_PROCESSES and (not args.trace or traced >= MIN_PROCESSES)
            if (elapsed >= args.seconds and enough) or elapsed >= START_BY_S:
                break
            if index >= MIN_PROCESSES and not runner.records:
                break  # every process failed; more of them would tell nothing new
            runner.run_process(index, traced=bool(args.trace) and index % 2 == 1)
            index += 1
        runner.check_outputs(check)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in runner.records if not r["traced"]]
    traced = [r for r in runner.records if r["traced"]]
    if not plain or (args.trace and not traced):
        for note in runner.notes[:10]:
            print(note, file=sys.stderr)
        print("error: no process completed; no metrics to report", file=sys.stderr)
        return 1

    prov = provenance(args, runner.records)
    run_s = _summary([r["run_s"] for r in plain])
    rows = []  # (name, value, unit, q1, q3, n)
    if args.trace:
        traced_run_s = _summary([r["run_s"] for r in traced])
        overhead = traced_run_s[0] - run_s[0]
        prov["trace_overhead_s"] = overhead
        units = per_layer_units()
        for name, (unit, _) in units.items():
            if name == "cli.out_bytes":
                values = [r["out_bytes"] for r in traced]
            elif name == "trace.overhead_s":
                rows.append((name, overhead, unit, None, None, len(traced)))
                continue
            else:
                values = [r["layers"][name] for r in traced]
            med, q1, q3 = _summary(values)
            rows.append((name, med, unit, q1, q3, len(values)))
    else:
        setup_s = _summary([r["setup_s"] for r in plain])
        rss = _summary([r["peak_rss_kib"] / 1024.0 for r in plain])
        rows = [("run_s", run_s[0], "s", run_s[1], run_s[2], len(plain)),
                ("setup_s", setup_s[0], "s", setup_s[1], setup_s[2], len(plain)),
                ("peak_rss_mb", rss[0], "MiB", rss[1], rss[2], len(plain))]

    for note in runner.notes[:20]:
        print(f"failure: {note}", file=sys.stderr)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, value, unit, q1, q3, n in rows:
        if name in COMPUTED:
            label = "computed"
        elif q1 is None:
            label = "traced minus untraced median run_s"
        else:
            label = f"q1 {q1:.6g}, q3 {q3:.6g}, n={n}"
        print(f"{name} = {value:.6g} {unit}  ({label})")
    print(f"fail_frac = {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.4g} ratio")
    print(json.dumps({
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, *_ in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
