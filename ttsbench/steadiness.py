"""Steadiness report: run each workload several times and measure spread.

Run from the root of a source checkout::

    python3 ttsbench/steadiness.py --runs 10 --seconds 25
    python3 ttsbench/steadiness.py --workloads serve --runs 5 --first-seed 11

Each run gets its own seed.  For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(n=4)``), the quartile
spread as a share of the median, max/min, the same spread of the raw
(unnormalised) values, and the reference's correlation with the work it
normalises.  A spread is flagged when it is not below a third of the
metric's bound in ``BENCHMARK.json`` (``setup_s`` is exempt: only its
median is compared between sets).  ``--out`` saves every value as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("recurrent", "sparse-64k", "serve")


def one_run(workload: str, seed: int, seconds: float) -> dict:
    """Run the benchmark once; return its result and raw values."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    raw = next(json.loads(x[5:]) for x in lines if x.startswith("raw: "))
    return {"seed": seed, "result": result, "raw": raw["metrics"],
            "ref_corr": raw["ref_corr"]}


def spread(values: list[float]) -> tuple[float, float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median, max / min)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med, max(values) / min(values)


def report(workload: str, runs: list[dict], bounds: dict) -> list[str]:
    """Per-metric steadiness lines for one workload's runs."""
    lines = [f"== {workload}: {len(runs)} runs, seeds "
             f"{[r['seed'] for r in runs]}",
             "   reference correlation (1-s groups), median: " + " ".join(
                 f"{g}={statistics.median(r['ref_corr'][g] for r in runs):.3f}"
                 for g in runs[0]["ref_corr"]),
             f"   correct in every run: {all(r['result']['correct'] for r in runs)}; "
             f"attempted {sum(r['result']['attempted'] for r in runs)}, "
             f"failed {sum(r['result']['failed'] for r in runs)}",
             f"   {'metric':<16}{'median':>11}{'q1':>11}{'q3':>11}{'iqr/med':>9}"
             f"{'max/min':>9}{'raw iqr/med':>12}{'raw max/min':>12}{'bound':>7}  flag"]
    for name in runs[0]["result"]["metrics"]:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        raws = [r["raw"][name] for r in runs]
        med, q1, q3, rel, mm = spread(vals)
        _, _, _, raw_rel, raw_mm = spread(raws)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and rel >= bound / 3:
            flag = "SPREAD>=BOUND/3"
        lines.append(
            f"   {name:<16}{med:>11.5g}{q1:>11.5g}{q3:>11.5g}{rel:>9.4f}{mm:>9.3f}"
            f"{raw_rel:>12.4f}{raw_mm:>12.3f}{(bound if bound is not None else float('nan')):>7.3f}  {flag}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="write every value here as JSON")
    args = parser.parse_args(argv)

    bench = {}
    if os.path.isfile("BENCHMARK.json"):
        with open("BENCHMARK.json", encoding="utf-8") as f:
            bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}
    seconds = args.seconds or bench.get("run_seconds", 25)

    everything = {}
    for workload in args.workloads:
        runs = [one_run(workload, args.first_seed + i, seconds) for i in range(args.runs)]
        everything[workload] = runs
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                json.dump(everything, f, indent=1)
        print("\n".join(report(workload, runs, bounds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
