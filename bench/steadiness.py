"""Run the benchmark on several seeds and report how steady each metric is.

    python3 bench/steadiness.py --first-seed 1 --runs 10 [--workloads a,b] [--out FILE]

Run from the root of a checkout.  For every workload it runs
``bench/run.py`` once per seed (``--trace 0``, ``run_seconds`` from
``BENCHMARK.json``), one run at a time, and prints for each end-to-end
metric the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread: the distance between the quartiles as a share of the
median, next to the metric's bound.  ``--out`` appends the set to a JSON
file; when the file holds earlier sets it also prints how far this set's
medians moved from the first set's, in the direction that is worse.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"error: {workload} seed {seed}: {result['failed']} operations failed")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if not 2 <= args.runs <= 50:
        parser.error("--runs must be in [2, 50]")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    earlier = json.loads(args.out.read_text())["sets"] if args.out and args.out.exists() else []
    this = {
        "seeds": seeds,
        "run_seconds": spec["run_seconds"],
        "machine": f"{platform.python_implementation()} {platform.python_version()}, "
        f"{os.cpu_count()} CPUs, {platform.machine()}",
        "workloads": {},
    }
    for workload in workloads:
        runs = [run_once(spec["command"], workload, s, spec["run_seconds"]) for s in seeds]
        table = {
            name: summarize([r["metrics"][name]["value"] for r in runs]) for name in metrics
        }
        this["workloads"][workload] = table
        print(workload)
        for name, s in table.items():
            line = (
                f"  {name:18} median {s['median']:<11.5g} q1 {s['q1']:<11.5g} q3 {s['q3']:<11.5g}"
                f" spread {s['spread']:.3f} (bound {metrics[name]['bound']})"
            )
            if earlier and workload in earlier[0]["workloads"]:
                first = earlier[0]["workloads"][workload][name]["median"]
                line += f", worse than set 1 by {worse_by(first, s['median'], metrics[name]['better']):+.3f}"
            print(line, flush=True)
    if args.out:
        args.out.write_text(json.dumps({"sets": earlier + [this]}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
