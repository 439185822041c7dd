"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Run from the root of a checkout.  It is not part of the package's test
suite (pytest collects ``tests/`` by default); it checks that every workload
runs end to end and traced, that the metric names match ``BENCHMARK.json``,
that a wrong output is counted, and that the benchmark refuses to run
without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {"seed": 3, "seconds": 0.1, "max_n": 2, "blocks": 1}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end(workload):
    result = run.run(workload, trace=False, **TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced(workload):
    result = run.run(workload, trace=True, **TINY)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_sweep_words_counts_per_word():
    metrics = run.run("sweep-words", trace=True, **TINY)["metrics"]
    per_word = {
        name: metrics[f"{name}.calls_per_object"]["value"]
        for name in ("model.canonicalize", "surface.trace_circles", "homology.profile", "transforms.join")
    }
    assert per_word == {
        "model.canonicalize": 5,
        "surface.trace_circles": 5,
        "homology.profile": 3,
        "transforms.join": 0,
    }


def test_wrong_outputs_are_counted():
    job = run.make_job("query-words", 3, None, 1)
    manifest = Path(job["manifest"])
    entries = json.loads(manifest.read_text())
    entries[0]["digest"] = "0" * 64
    manifest.write_text(json.dumps(entries))
    assert run.run_worker(job)["failed"] == 1

    job = run.make_job("sweep-paragraphs", 3, 2, 1)
    job["expected"]["size"] += 1
    result = run.run_worker(job)
    assert result["failed"] == result["objects"] > 0


def test_refuses_to_run_without_the_package():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "sweep-paragraphs", "--seed", "1", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
