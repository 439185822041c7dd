"""Benchmark of sgauss: two exhaustive verify sweeps and two CLI query mixes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``
directory, in worker processes (``worker.py``), never in this one.
Workloads:

* ``sweep-words``: ``verify(CorpusSpec(4, kind="words"), seed=N)``.
* ``sweep-paragraphs``: ``verify(CorpusSpec(3, kind="two-component-paragraphs"),
  seed=N)``.
* ``query-words`` / ``query-paragraphs``: a closed loop, one client, of
  in-process ``sgauss.cli.main(argv)`` calls over the blocks of a fixed
  query pool that the seed selects and orders (see ``queries.py``).

Each run makes several passes over the same operations, each pass in a
fresh process so that nothing one pass computes is reused by the next: a
sweep pass is one verify call, and a query pass runs the ``RUN_BLOCKS``
blocks of queries the seed chose.  On a shared host the CPU runs fast or
about half slower, in a mix that changes from second to second, so a wall
time says as much about the host as about the program.  The worker
therefore times a fixed reference loop (``reference.py``) between
operations and gives each latency also in reference units: wall time over
the mean of the reference times just before and after it.  An operation's
latency is the median of its passes in those units.  ``latency_p50_ref``
and ``latency_p95_ref`` are taken over the distinct operations (a sweep has
one, so the two agree); ``throughput_per_ref`` is corpus objects or queries
divided by the sum of their latencies, the rate of one client in a closed
loop.  The wall-clock figures are printed too.
``setup_s`` is the median of ``SETUP_SAMPLES`` fresh-process imports of
``sgauss`` and ``sgauss.cli``, spread evenly over the run between passes,
each in reference units (the loop timed in the same process just before and
after the import) and given in seconds at ``reference.SECONDS_PER_REF``.

Every output is checked (``worker.py``).  With ``--trace 1`` the run
alternates untraced and traced passes over a fixed unit of work and reports
per-layer counts and self times instead.  The last line of stdout is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import queries
from reference import SECONDS_PER_REF, in_reference_units
from tracing import NAMES, TARGETS
from worker import SRC, check_checkout

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

SWEEPS = {"sweep-words": ("words", 4), "sweep-paragraphs": ("two-component-paragraphs", 3)}
WORKLOADS = (*SWEEPS, *queries.POOL_BLOCKS)
SETUP_SAMPLES = 30
MIN_PASSES = 3
# Blocks of a query run: 372 or 384 queries, so that at least ten lie beyond
# p95, and a pass of 5 to 10 s.
RUN_BLOCKS = 12
TRACE_BLOCKS = 6
WORKER_TIMEOUT_S = 150

SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from reference import reference_loop, reference_s\n"
    "reference_loop()\n"
    "before = reference_s()\n"
    "t = time.perf_counter()\n"
    "sys.path[0] = sys.argv[1]\n"
    "import sgauss, sgauss.cli\n"
    "t = time.perf_counter() - t\n"
    "print(t, before, reference_s())\n"
)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def time_import() -> tuple[float, float]:
    """Wall seconds and reference units to import sgauss and sgauss.cli in a
    fresh process."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH)],
        capture_output=True, text=True, check=True, timeout=WORKER_TIMEOUT_S,
    )
    wall, before, after = map(float, out.stdout.split())
    return wall, in_reference_units([wall], [before, after])[0]


def run_worker(job: dict) -> dict:
    """Run one pass of ``job`` in a fresh process and return its result."""
    path = WORK / "job.json"
    path.write_text(json.dumps(job))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(path)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"error: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def make_job(workload: str, seed: int, max_n: int | None, blocks: int) -> dict:
    """What every pass of the run executes; writes the inputs of a query
    mix's ``blocks`` blocks."""
    WORK.mkdir(exist_ok=True)
    if workload in SWEEPS:
        kind, default_n = SWEEPS[workload]
        n = max_n or default_n
        recorded = json.loads((BENCH / "expected" / "sweeps.json").read_text())
        return {"kind": kind, "max_n": n, "seed": seed, "expected": recorded[kind][str(n)]}
    manifest = queries.write_manifest(workload, seed, WORK / workload, blocks)
    return {"manifest": str(manifest)}


def quantile(values: list[float], percent: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[percent - 1]


def program_rate(result: dict) -> float:
    """Objects or queries per reference unit of program time in one pass."""
    return result["objects"] / sum(result["normalized"])


def end_to_end(job: dict, seconds: float) -> tuple[list[dict], dict]:
    start = perf_counter()
    time_import()  # compiles the bytecode; not counted
    imports = []

    def imports_due() -> None:
        due = SETUP_SAMPLES * (perf_counter() - start) / seconds
        while len(imports) < min(due, SETUP_SAMPLES):
            imports.append(time_import())

    passes, round_s = [], 0.0
    while len(passes) < MIN_PASSES or perf_counter() - start + round_s < seconds:
        imports_due()
        t0 = perf_counter()
        passes.append(run_worker(job))
        round_s = perf_counter() - t0
    while len(imports) < SETUP_SAMPLES:
        imports.append(time_import())

    latency = [statistics.median(column) for column in zip(*(p["normalized"] for p in passes))]
    p95 = quantile(latency, 95)
    best = [min(column) for column in zip(*(p["latencies"] for p in passes))]
    print(
        f"passes: {len(passes)}, distinct operations: {len(latency)}, "
        f"beyond p95: {sum(x > p95 for x in latency)}"
    )
    print(
        f"wall clock, best of passes: p50 {1000 * statistics.median(best):.4g} ms, "
        f"p95 {1000 * quantile(best, 95):.4g} ms; reference loop at its fastest: "
        f"{1000 * min(p['reference_s'] for p in passes):.4g} ms; "
        f"import: fastest {1000 * min(w for w, _ in imports):.4g} ms, "
        f"median {statistics.median(r for _, r in imports):.4g} ref"
    )
    return passes, {
        "throughput_per_ref": metric(passes[0]["objects"] / sum(latency), "1/ref"),
        "latency_p50_ref": metric(statistics.median(latency), "ref"),
        "latency_p95_ref": metric(p95, "ref"),
        "peak_rss_mb": metric(max(p["rss_kib"] for p in passes) / 1024, "MiB"),
        "setup_s": metric(SECONDS_PER_REF * statistics.median(r for _, r in imports), "s"),
    }


def traced(job: dict, seconds: float, spans_path: Path) -> tuple[list[dict], dict]:
    """Alternate untraced and traced passes over one fixed unit of work:
    one verify call, or ``TRACE_BLOCKS`` blocks of queries."""
    plain, tracedp, pair_s = [], [], 0.0
    start = perf_counter()
    while not tracedp or perf_counter() - start + pair_s < seconds:
        t0 = perf_counter()
        plain.append(run_worker(job))
        spans = None if tracedp else str(spans_path)
        tracedp.append(run_worker({**job, "trace": True, "spans_path": spans}))
        pair_s = perf_counter() - t0
    first = tracedp[0]
    if any(p["layers"][n]["calls"] != first["layers"][n]["calls"] for p in tracedp for n in NAMES):
        print("note: call counts differ between traced passes", file=sys.stderr)

    objects = first["objects"]
    metrics = {}
    module_self = dict.fromkeys(TARGETS, 0.0)
    for name in NAMES:
        stats = first["layers"][name]
        self_s = min(p["layers"][name]["self_s"] for p in tracedp)
        module_self[name.split(".")[0]] += self_s
        metrics[f"{name}.calls"] = metric(stats["calls"], "count")
        metrics[f"{name}.self_s"] = metric(self_s, "s")
        metrics[f"{name}.errors"] = metric(stats["errors"], "count")
        metrics[f"{name}.calls_per_object"] = metric(stats["calls"] / objects, "1/object")
    total = sum(module_self.values())
    for module, self_s in module_self.items():
        metrics[f"{module}.self_s"] = metric(self_s, "s")
        metrics[f"{module}.share"] = metric(self_s / total, "fraction")
    untraced_rate = statistics.median(map(program_rate, plain))
    traced_rate = statistics.median(map(program_rate, tracedp))
    metrics["trace.objects"] = metric(objects, "count")
    metrics["trace.spans"] = metric(first["spans"], "count")
    metrics["trace.untraced_per_ref"] = metric(untraced_rate, "1/ref")
    metrics["trace.traced_per_ref"] = metric(traced_rate, "1/ref")
    metrics["trace.overhead"] = metric(untraced_rate / traced_rate, "ratio")
    print(f"untraced and traced pass pairs: {len(tracedp)}; spans written to {spans_path}")
    return plain + tracedp, metrics


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    max_n: int | None = None,
    blocks: int | None = None,
) -> dict:
    """One benchmark run; ``max_n`` and ``blocks`` shrink the workload for
    the smoke test."""
    check_checkout()
    job = make_job(workload, seed, max_n, blocks or (TRACE_BLOCKS if trace else RUN_BLOCKS))
    if trace:
        passes, metrics = traced(job, seconds, WORK / f"spans-{workload}.jsonl")
    else:
        passes, metrics = end_to_end(job, seconds)
    attempted = sum(p["objects"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
