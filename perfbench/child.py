"""One fresh-process run of a benchmark workload.

Usage: python3 perfbench/child.py SPEC.json

SPEC.json holds ``src`` (the directory that contains the ``wirescat``
package), ``calls`` (a list of ``[subcommand, config path]`` pairs), ``trace``
(0 or 1) and ``result`` (where this process writes its record).  Importing
``wirescat`` and ``wirescat.cli`` is timed as set-up; the ``cli.main`` calls
are timed as the run.  Nothing is cached between processes, as for a user
who starts the CLI once per job.
"""

import json
import resource
import sys
import time
import traceback


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])

    t0 = time.perf_counter()
    import wirescat
    import wirescat.cli
    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    calls = []
    for subcommand, config in spec["calls"]:
        error = None
        t = time.perf_counter()
        try:
            rc = wirescat.cli.main([subcommand, "--config", config])
        except SystemExit as exc:  # argparse rejects a malformed call
            rc = exc.code
        except Exception:  # one failed call must not hide the others
            rc = None
            error = traceback.format_exc(limit=4)
        calls.append({"rc": rc, "error": error, "seconds": time.perf_counter() - t})

    record = {
        "setup_s": setup_s,
        "run_s": sum(c["seconds"] for c in calls),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calls": calls,
        "kernel_backend": wirescat.kernel_backend(),
        "layers": tracer.metrics() if tracer else None,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: child.py SPEC.json")
    sys.exit(main(sys.argv[1]))
