"""Record the expected outputs that the benchmark checks against.

    python3 bench/record.py

Run from the root of a checkout whose outputs are the reference.  It writes
``expected/sweeps.json`` (report size and per-check ``checked`` counts of
every sweep corpus the benchmark and its smoke test use) and one
``expected/<mix>.digests`` per query mix (exit code and stdout sha256 of
every pool query, in pool order).  It refuses to record a report with
counterexamples, or a pool query whose output contradicts what the
generator built: an exit code, an ``iso`` verdict, or a ``profile``
planarity verdict that ``summary`` does not share.
"""

from __future__ import annotations

import json
import sys

import queries
from run import BENCH, SWEEPS, WORK
from worker import call_cli, layer, load_sgauss, planarity_agrees, sweep_problems


def record_sweeps() -> None:
    verify = layer("verify")
    recorded: dict[str, dict] = {}
    for kind, max_n in SWEEPS.values():
        for n in range(1, max_n + 1):
            report = verify.verify(verify.CorpusSpec(n, kind=kind), seed=0)
            entry = {
                "size": report.size,
                "checked": {name: s.checked for name, s in report.checks.items()},
            }
            problems = sweep_problems(report, entry)
            if problems or not report.ok:
                raise SystemExit(f"error: {kind} max-n {n}: {problems or 'counterexamples'}")
            recorded.setdefault(kind, {})[str(n)] = entry
    path = BENCH / "expected" / "sweeps.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def record_digests(workload: str) -> None:
    blocks = queries.pool(workload)
    flat = [q for block in blocks for q in block]
    argvs = queries.write_inputs(dict(enumerate(flat)), WORK / workload)
    rows = [f"pool {queries.pool_digest(blocks)}"]
    for i, q in enumerate(flat):
        argv = argvs[i]
        _, code, stdout = call_cli(argv)
        if code != q.expect_exit or q.expect_stdout not in (None, stdout):
            raise SystemExit(f"error: pool query {i} {argv}: exit {code}, stdout {stdout!r}")
        if q.planarity_check and not planarity_agrees({"argv": argv}, stdout):
            raise SystemExit(f"error: pool query {i}: profile and summary disagree")
        rows.append(f"{code} {queries.stdout_digest(stdout)}")
    queries.digest_path(workload).write_text("\n".join(rows) + "\n")


def main() -> int:
    load_sgauss()
    (BENCH / "expected").mkdir(exist_ok=True)
    record_sweeps()
    for workload in queries.POOL_BLOCKS:
        record_digests(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
