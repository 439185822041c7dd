"""Every ``sgauss`` command starts a process that imports the package, so the
import is kept lean: modules that only some outputs or the error path need
are imported where they are used, not when the package loads."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
# dataclasses pulls in inspect; json serves JSON output only; argparse (and
# the gettext it loads) serves help, abbreviations and usage errors only;
# sgauss._fork serves a sweep that forks, whose children send their report
# states as marshal data, not pickles.
LAZY = (
    "argparse", "dataclasses", "gettext", "inspect", "json", "pickle", "sgauss._fork", "string"
)


def python(*args: str, stdin: str = "") -> subprocess.CompletedProcess:
    """Run ``python -S`` (no site packages imported up front) with the
    package on the path."""
    env = dict(os.environ, GAUSS_COLOR="0", PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-S", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_import_loads_no_lazy_module():
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import sgauss, sgauss.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    r = python("-c", probe)
    assert r.returncode == 0, r.stderr
    loaded = r.stdout.split()
    assert "sgauss.cli" in loaded
    assert [name for name in LAZY if name in loaded] == []


def test_plain_call_loads_no_argparse():
    # A plain argv is read from the command table; help needs argparse.
    probe = (
        "import sys\n"
        "from sgauss.cli import main\n"
        "code = main(['summary', '-'])\n"
        "print(code, 'argparse' in sys.modules)\n"
        "main(['--help'])\n"
        "print('argparse' in sys.modules)\n"
    )
    r = python("-c", probe, stdin="a b -a -b")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[:2] == ["n=2 b=2 genus=1 geometric=false", "0 False"]
    assert lines[2].startswith("usage: sgauss") and lines[-1] == "True"


def test_sweep_in_two_processes_loads_only_its_module():
    probe = (
        "import sys\n"
        "import sgauss\n"
        "v = sys.modules['sgauss.verify']\n"
        "v._workers = lambda size: 2\n"
        "before = set(sys.modules)\n"
        "size = v.verify(v.CorpusSpec(3)).size\n"
        "print(size, sorted(set(sys.modules) - before))\n"
    )
    r = python("-c", probe)
    assert (r.returncode, r.stdout, r.stderr) == (0, "134 ['sgauss._fork']\n", "")


def sgauss(*argv: str, stdin: str = "") -> str:
    r = python("-m", "sgauss.cli", *argv, stdin=stdin)
    assert (r.returncode, r.stderr) == (0, "")
    return r.stdout


def test_summary_json():
    out = json.loads(sgauss("summary", "--json", stdin="a b -a -b"))
    assert (out["n"], out["genus"], out["geometric"]) == (2, 1, False)


def test_profile_json():
    out = json.loads(sgauss("profile", "--json", stdin="a b -a -b"))
    beta = [["a", "b", 1], ["b", "a", -1]]
    assert out == {"alpha": {"a": 1, "b": -1}, "beta": beta, "planar": False}


def test_canon_json():
    out = json.loads(sgauss("canon", "--json", stdin="-b a b -a"))
    assert [[(x["sym"], x["exp"]) for x in w] for w in out["words"]] == [
        [("a", -1), ("b", -1), ("a", 1), ("b", 1)]
    ]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_verify(json_flag):
    out = sgauss("verify", "--max-n", "2", *json_flag)
    if json_flag:
        reports = json.loads(out)
        assert (reports["words"]["size"], reports["paragraphs"]["size"]) == (14, 2)
        assert reports["words"]["ok"] and reports["paragraphs"]["ok"]
    else:
        # The empirical lines are rendered with json.dumps.
        assert "percent=100.0 violations=[]\n" in out
        assert 'counts={"+1": 2} constant=true\n' in out
        assert out.endswith("verify: PASS\n")
