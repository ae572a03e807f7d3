"""Time-to-solution benchmark: one command per workload.

Run from the root of a source checkout::

    python3 ttsbench/run.py --workload recurrent --seed 1 --seconds 25 --trace 0

Workloads: ``recurrent`` and ``sparse-64k`` (batch jobs through the
library API) and ``serve`` (a closed loop of clients against a
``ModelServer``).  ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer ones.  Above the result it prints a host record, the
engine decision ``auto`` made, the reference's tracking and the checks;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``ttsbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOADS = ("recurrent", "sparse-64k", "serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("ttsbench: no src/repro under the current directory; run from "
              "the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    from harness import host_record, shm_segments, teardown_check

    shm_before = shm_segments()
    trace = bool(args.trace)
    if args.workload == "serve":
        import serve

        res = serve.run(args.seed, args.seconds, trace)
    else:
        import library

        res = library.run(args.workload, args.seed, args.seconds, trace)
    problems = teardown_check(shm_before)
    res.checks["teardown"] = not problems

    host = host_record()
    print("host: " + " ".join(f"{k}={v!r}" for k, v in host.items()))
    for line in res.report_lines(trace):
        print(line)
    for problem in problems:
        print(f"teardown: {problem}")
    if not trace:
        print("raw: " + json.dumps({"metrics": res.raw, "ref_corr": res.ref_corr}))
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": res.json_metrics(trace),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
