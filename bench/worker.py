"""One measured pass of a benchmark workload, in a fresh process.

    python3 bench/worker.py JOB.json

``run.py`` starts one worker per pass, so that every pass sees a cold
process, as a user of the CLI or of ``sgauss verify`` does, and nothing one
pass computes can be reused by the next.  The job file names the workload
and what to run; the worker prints one JSON object as the last line of its
standard output with the latencies it measured, the operations it
attempted and how many of them gave a wrong output or raised.

Around every operation the worker times ``reference.reference_loop`` and
reports each latency also in reference units: as a multiple of the mean of
the reference times just before and just after it.

* A sweep pass makes one ``verify`` call and checks the report against the
  totals recorded in ``expected/sweeps.json``.
* A query pass runs the entries of a manifest written by ``queries.py``,
  each one in-process ``sgauss.cli.main(argv)`` call with stdout and stderr
  captured in memory, and checks exit code and stdout digest.

With ``"trace": true`` the pass runs under ``tracing.Tracer`` and adds the
per-function counts and self times.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from math import prod
from pathlib import Path
from time import perf_counter

from queries import stdout_digest
from reference import in_reference_units, reference_loop, reference_s
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
# A verify call takes 0.5 to 3 s, so the reference is timed over 25 ms on
# each side of it, not over one 1 ms loop, to catch the host's mix of fast
# and slow moments around the call.
SWEEP_REFERENCE_LOOPS = 25


def check_checkout() -> None:
    """Stop unless the checkout holds the package's source."""
    if not (SRC / "sgauss" / "__init__.py").is_file():
        raise SystemExit(f"error: no sgauss package at {SRC}; run from a checkout")


def load_sgauss() -> None:
    """Import ``sgauss`` and ``sgauss.cli`` from the checkout's ``src``."""
    check_checkout()
    sys.path.insert(0, str(SRC))
    import sgauss.cli

    if Path(sgauss.__file__).resolve().parent != SRC / "sgauss":
        raise SystemExit(f"error: imported sgauss from {sgauss.__file__}, not {SRC}")


def layer(name: str):
    """The module ``sgauss.<name>``, looked up at each call so that the
    tracer's wrappers are seen."""
    return sys.modules[f"sgauss.{name}"]


# --- sweeps ------------------------------------------------------------------


def _double_factorial(k: int) -> int:
    return prod(range(k, 0, -2))


def sweep_problems(report, expected: dict) -> list[str]:
    """Ways the report's totals differ from the values recorded at the
    benchmark's commit, from the closed form for the word count, or from the
    empirical tallies the paper predicts.  Counterexamples are counted
    separately, per object."""
    problems = []
    if report.size != expected["size"]:
        problems.append(f"size {report.size} != recorded {expected['size']}")
    checked = {name: s.checked for name, s in report.checks.items()}
    if checked != expected["checked"]:
        problems.append(f"checked counts {checked} != recorded {expected['checked']}")
    if report.spec.kind == "words":
        closed = sum(
            _double_factorial(2 * n - 1) * 2**n for n in range(1, report.spec.max_symbols + 1)
        )
        if report.size != closed:
            problems.append(f"size {report.size} != closed form {closed}")
        beta = report.empirical.get("beta-antisymmetry", {})
        if beta.get("percent") != 100.0 or beta.get("checked") != report.size:
            problems.append(f"beta antisymmetry {beta}")
    elif not report.empirical.get("join-circle-shift", {}).get("constant"):
        problems.append(f"join circle shift {report.empirical.get('join-circle-shift')}")
    return problems


def sweep_pass(job: dict, tracer: Tracer | None) -> dict:
    verify = layer("verify")
    spec = verify.CorpusSpec(job["max_n"], kind=job["kind"])
    expected = job["expected"]
    references = [reference_s(SWEEP_REFERENCE_LOOPS)]
    t0 = perf_counter()
    try:
        report = verify.verify(spec, seed=job["seed"])
    except Exception as e:  # counted: every object of the corpus failed
        report = None
        print(f"verify raised {e!r}", file=sys.stderr)
    wall = perf_counter() - t0
    references.append(reference_s(SWEEP_REFERENCE_LOOPS))
    timing = {
        "latencies": [wall],
        "normalized": in_reference_units([wall], references),
        "reference_s": min(references),
    }
    if report is None:
        return {**timing, "objects": expected["size"], "failed": expected["size"]}
    problems = sweep_problems(report, expected)
    if problems:
        print("wrong report: " + "; ".join(problems), file=sys.stderr)
        failed = report.size
    else:
        failed = len({c.paragraph for c in report.counterexamples})
    return {**timing, "objects": report.size, "failed": failed}


# --- query mixes -------------------------------------------------------------


def call_cli(argv: list[str]) -> tuple[float, int | None, str]:
    """Wall seconds, exit code (None if it raised) and stdout of one
    in-process CLI call."""
    main = layer("cli").main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = main(argv)
        except (Exception, SystemExit):  # a traceback where none was expected
            code = None
        wall = perf_counter() - t0
    return wall, code, out.getvalue()


def query_ok(entry: dict, code: int | None, stdout: str) -> bool:
    """Exit code and stdout digest as recorded, and the exit code and
    verdict the generator built the query to get."""
    return (
        (code, stdout_digest(stdout)) == (entry["exit"], entry["digest"])
        and code == entry["expect_exit"]
        and entry["expect_stdout"] in (None, stdout)
    )


def planarity_agrees(entry: dict, stdout: str) -> bool:
    """The ``profile`` verdict agrees with ``summary`` on the same word."""
    _, code, summary = call_cli(["summary", entry["argv"][1]])
    return code == 0 and ("geometric=true" in summary) == ("planar: true" in stdout)


def query_pass(job: dict, tracer: Tracer | None) -> dict:
    latencies, references, failed, pending = [], [reference_s()], 0, []
    for entry in json.loads(Path(job["manifest"]).read_text()):
        if tracer is not None:
            tracer.object = entry["id"]
        wall, code, stdout = call_cli(entry["argv"])
        latencies.append(wall)
        references.append(reference_s())
        if not query_ok(entry, code, stdout):
            failed += 1
            print(f"wrong output for pool query {entry['id']}: {entry['argv']}", file=sys.stderr)
        elif entry["planarity_check"]:
            pending.append((entry, stdout))
    # Untimed: the profile verdicts against summary on the same words.
    if tracer is not None:
        tracer.uninstall()
    for entry, stdout in pending:
        if not planarity_agrees(entry, stdout):
            failed += 1
            print(f"profile and summary disagree on pool query {entry['id']}", file=sys.stderr)
    return {
        "latencies": latencies,
        "normalized": in_reference_units(latencies, references),
        "reference_s": min(references),
        "objects": len(latencies),
        "failed": failed,
    }


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[1]).read_text())
    load_sgauss()
    reference_loop()  # untimed: the first run in a process is slower
    tracer = None
    if job.get("trace"):
        tracer = Tracer()
        tracer.install()
    run_pass = sweep_pass if "kind" in job else query_pass
    try:
        result = run_pass(job, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        result["spans"] = len(tracer.spans)
        if job.get("spans_path"):
            tracer.write(Path(job["spans_path"]))
    result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
