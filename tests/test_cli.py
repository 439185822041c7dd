"""CLI behavior: subcommands, exit codes, diagnostics, golden transcripts."""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
from datetime import timedelta
from itertools import chain
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twopass
from conftest import TEXTS, signed_paragraphs, star
import sgauss.cli
from sgauss.cli import _build_parser, _parse, _plain, main
from sgauss.model import SignedParagraph, parse_paragraph, render
from sgauss.surface import build_ribbon

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

SPOT_INPUTS = {
    "kink": "a -a",
    "torus": "a b -a -b",
    "twokinks": "a -a b -b",
}


def stdin_of(text: str | bytes) -> io.TextIOWrapper:
    """A stand-in for ``sys.stdin`` holding ``text`` (or these bytes), with
    its bytes behind it as the real one has."""
    data = text.encode() if isinstance(text, str) else text
    return io.TextIOWrapper(io.BytesIO(data), "utf-8")


def run(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", stdin_of(stdin))
    monkeypatch.setenv("GAUSS_COLOR", "0")
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInputs:
    def test_stdin_default(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["summary"], stdin="a -a")
        assert code == 0
        assert out == "n=1 b=3 genus=0 geometric=true\n"

    def test_explicit_dash(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["summary", "-"], stdin="a -a")
        assert code == 0

    def test_file_input(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "p.gauss"
        f.write_text("a b -a -b\n")
        code, out, _ = run(capsys, monkeypatch, ["summary", str(f)])
        assert code == 0
        assert out == "n=2 b=2 genus=1 geometric=false\n"

    def test_missing_file(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["summary", "/nonexistent/x"])
        assert code == 1
        assert "error" in err


class TestExitCodes:
    def test_domain_error_is_1(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["summary"], stdin="a b -a")
        assert code == 1
        assert "1:3" in err
        assert "[symbol-count]" in err

    def test_usage_error_is_2(self, capsys, monkeypatch):
        assert run(capsys, monkeypatch, ["frobnicate"])[0] == 2
        assert run(capsys, monkeypatch, ["split"], stdin="a -a")[0] == 2

    def test_help_is_0(self, capsys, monkeypatch):
        assert run(capsys, monkeypatch, ["--help"])[0] == 0

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        assert _build_parser() is _build_parser()
        first = run(capsys, monkeypatch, ["--help"])
        assert run(capsys, monkeypatch, ["split"], stdin="a -a")[0] == 2
        assert run(capsys, monkeypatch, ["summary"], stdin="a -a") == (
            0,
            "n=1 b=3 genus=0 geometric=true\n",
            "",
        )
        assert run(capsys, monkeypatch, ["--help"]) == first

    def test_error_line_names_the_token(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, monkeypatch, ["summary"], stdin="a -b\r\n-a\tb / c -c\r\n"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: 2:8: word 3 shares no symbols with the rest of the paragraph"
            " [disconnected]\n"
        )

    def test_lexical_error_position(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["validate"], stdin="a !! -a")
        assert code == 1
        assert "1:3" in err
        assert "[syntax]" in err

    def test_file_not_utf8_is_a_domain_error(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "p.gauss"
        f.write_bytes(b"a -a\nb \xff -b\n")
        code, out, err = run(capsys, monkeypatch, ["summary", str(f)])
        assert (code, out) == (1, "")
        assert err == "error: 2:3: byte 0xff is not valid UTF-8 [syntax]\n"

    @staticmethod
    def in_subprocess(argv, data: bytes, *options: str, stdout=subprocess.PIPE, **env: str):
        env = dict(os.environ, GAUSS_COLOR="0", **env)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        return subprocess.run(
            [sys.executable, *options, "-m", "sgauss.cli", *argv],
            input=data,
            stdout=stdout,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )

    def summary_in_subprocess(self, data: bytes, *options: str, **env: str):
        return self.in_subprocess(["summary"], data, *options, **env)

    @pytest.mark.parametrize("argv", [["summary"], ["verify", "--max-n", "3"]])
    def test_closed_stdout_ends_quietly(self, argv):
        # The reader of stdout is gone before the command writes: status 1,
        # and neither an error line nor an "Exception ignored" at exit.
        read, write = os.pipe()
        os.close(read)
        try:
            r = self.in_subprocess(argv, b"a -a", stdout=write)
        finally:
            os.close(write)
        assert (r.returncode, r.stderr) == (1, b"")

    def test_stdin_not_utf8_is_a_domain_error(self):
        # Outside UTF-8 mode's surrogateescape, a strict stdin decoder
        # raises on the bad byte.
        r = self.summary_in_subprocess(b"a \xff -a", PYTHONIOENCODING="utf-8")
        assert (r.returncode, r.stdout) == (1, b"")
        assert r.stderr == b"error: 1:3: byte 0xff is not valid UTF-8 [syntax]\n"

    def test_stdin_not_utf8_in_utf8_mode(self):
        # UTF-8 mode decodes stdin with surrogateescape, which would hand the
        # parser '\udcff'; the bytes are decoded strictly instead, as a
        # file's are.
        r = self.summary_in_subprocess(b"a \xff -a", "-X", "utf8", PYTHONIOENCODING="")
        assert (r.returncode, r.stdout) == (1, b"")
        assert r.stderr == b"error: 1:3: byte 0xff is not valid UTF-8 [syntax]\n"

    def test_stdin_is_decoded_as_utf8(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["summary"], stdin="ä -ä")
        assert (code, err) == (1, "error: 1:1: bad token 'ä' [syntax]\n")


class TestValidate:
    def test_ok(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["validate"], stdin="a -b / -a b")
        assert code == 0
        assert out == "valid: words=2 symbols=2\n"

    def test_json(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["validate", "--json"], stdin="a -a")
        assert json.loads(out) == {"valid": True, "words": 1, "symbols": 1}

    def test_pairwise_flag(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, monkeypatch, ["validate", "--pairwise"], stdin="a / -a b / -b"
        )
        assert code == 1
        assert "[pairwise]" in err


class TestIso:
    def test_isomorphic(self, capsys, monkeypatch, tmp_path):
        f1 = tmp_path / "p1"
        f2 = tmp_path / "p2"
        f1.write_text("a b -a -b")
        f2.write_text("x y -x -y")
        code, out, _ = run(capsys, monkeypatch, ["iso", str(f1), str(f2)])
        assert code == 0
        assert out == "isomorphic\n"

    def test_not_isomorphic(self, capsys, monkeypatch, tmp_path):
        f1 = tmp_path / "p1"
        f2 = tmp_path / "p2"
        f1.write_text("a b -a -b")
        f2.write_text("a b -b -a")
        code, out, _ = run(capsys, monkeypatch, ["iso", str(f1), str(f2)])
        assert code == 0
        assert out == "not isomorphic\n"

    def test_one_stdin(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "p1"
        f.write_text("b -a -b a")
        code, out, _ = run(
            capsys, monkeypatch, ["iso", "-", str(f)], stdin="a b -a -b"
        )
        assert code == 0
        assert out == "isomorphic\n"

    def test_double_stdin_rejected(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["iso", "-", "-"], stdin="a -a")
        assert code == 2

    def test_json(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "p1"
        f.write_text("a -a")
        code, out, _ = run(
            capsys, monkeypatch, ["iso", "--json", str(f), str(f)]
        )
        assert json.loads(out) == {"isomorphic": True}


class TestGoldenTranscripts:
    @pytest.mark.parametrize("name", sorted(SPOT_INPUTS))
    @pytest.mark.parametrize(
        "command,suffix",
        [
            (["summary"], "summary.txt"),
            (["summary", "--json"], "summary.json"),
            (["circles"], "circles.txt"),
            (["profile", "--json"], "profile.json"),
            (["canon"], "canon.txt"),
        ],
    )
    def test_matches_golden(self, capsys, monkeypatch, name, command, suffix):
        code, out, _ = run(capsys, monkeypatch, command, stdin=SPOT_INPUTS[name])
        assert code == 0
        golden = (GOLDEN / f"{name}_{suffix}").read_bytes()
        assert out.encode() == golden

    @pytest.mark.parametrize("name", sorted(SPOT_INPUTS))
    def test_byte_stable_across_runs(self, capsys, monkeypatch, name):
        first = run(capsys, monkeypatch, ["circles"], stdin=SPOT_INPUTS[name])
        second = run(capsys, monkeypatch, ["circles"], stdin=SPOT_INPUTS[name])
        assert first == second


class TestPipelines:
    def test_canon_then_summary_equals_summary(self, capsys, monkeypatch):
        for text in SPOT_INPUTS.values():
            _, canon_out, _ = run(capsys, monkeypatch, ["canon"], stdin=text)
            _, via_canon, _ = run(capsys, monkeypatch, ["summary"], stdin=canon_out)
            _, direct, _ = run(capsys, monkeypatch, ["summary"], stdin=text)
            assert via_canon == direct


class TestOperations:
    def test_profile_text(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["profile"], stdin="a b -a -b")
        assert out == "alpha: a=1 b=-1\nbeta: a,b=1 b,a=-1\nplanar: false\n"

    def test_profile_validates_once(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "word"
        f.write_text("a b c -a d -b -c e -d f -e g -f h -g -h\n")
        built = []
        validate = SignedParagraph.__post_init__

        def counted(p):
            built.append(p)
            validate(p)

        monkeypatch.setattr(SignedParagraph, "__post_init__", counted)
        code, out, _ = run(capsys, monkeypatch, ["profile", str(f)])
        assert code == 0
        assert out.endswith("planar: false\n")
        assert len(built) == 1

    def test_profile_needs_single_word(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["profile"], stdin="a -b / -a b")
        assert code == 1

    def test_pairing(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["pairing"], stdin="a b / -a -b")
        assert out == "pairing=2\n"
        code, out, _ = run(
            capsys, monkeypatch, ["pairing", "--json"], stdin="a -b / -a b"
        )
        assert json.loads(out) == {"pairing": 0}

    def test_split(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["split", "--at", "a"], stdin="a b -a -b")
        assert code == 0
        assert out == "b / -b\n"

    def test_split_degenerate(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, monkeypatch, ["split", "--at", "a"], stdin="a -a b -b"
        )
        assert code == 1

    def test_join(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            monkeypatch,
            ["join", "--shared", "a", "--fresh", "c"],
            stdin="a -b / -a b",
        )
        assert out == "a -b c -a b -c\n"

    def test_join_not_shared(self, capsys, monkeypatch):
        code, _, err = run(
            capsys,
            monkeypatch,
            ["join", "--shared", "b", "--fresh", "c"],
            stdin="a b -b / -a",
        )
        assert code == 1

    def test_reduce(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["reduce"], stdin="a -b / -a b")
        assert out == "a -b j1 -a b -j1\n"

    def test_reduce_prefix(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["reduce", "--prefix", "k"], stdin="a -b / -a b"
        )
        assert out == "a -b k1 -a b -k1\n"

    @pytest.mark.parametrize("text", ["a -b c -a b -c", "a -b / -a b"])
    def test_reduce_bad_prefix(self, capsys, monkeypatch, text):
        code, out, err = run(capsys, monkeypatch, ["reduce", "--prefix", "9"], stdin=text)
        assert (code, out) == (1, "")
        assert err == "error: prefix '9' is not a valid symbol token\n"

    def test_split_json(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["split", "--at", "a", "--json"], stdin="a b -a -b"
        )
        assert json.loads(out) == {
            "words": [[{"sym": "b", "exp": 1}], [{"sym": "b", "exp": -1}]]
        }


class TestNoLetters:
    """The commands run on the parsed code, the one form of a paragraph the
    package has: they validate each input file once (the parse) and
    nothing they build."""

    WORD = "a b c -a d -b -c e -d f -e g -f h -g -h\n"
    CHAIN = "x1 y1 -x2 -y1\nx2 y2 -x3 -y2 / x3 y3 -x1 -y3\n"
    PAIR = "a b c / -a -b -c\n"
    CASES = {
        "validate": (["validate"], [WORD]),
        "summary": (["summary"], [CHAIN]),
        "canon": (["canon"], [CHAIN]),
        "circles": (["circles"], [WORD]),
        "profile": (["profile"], [WORD]),
        "split": (["split", "--at", "d"], [WORD]),
        "iso": (["iso"], [CHAIN, CHAIN]),
        "join": (["join", "--shared", "x2", "--fresh", "z"], [CHAIN]),
        "reduce": (["reduce"], [CHAIN]),
        "pairing": (["pairing"], [PAIR]),
    }

    @pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("command", CASES)
    def test_counts(self, command, json_flag, capsys, monkeypatch, tmp_path):
        argv, texts = self.CASES[command]
        files = []
        for i, text in enumerate(texts):
            f = tmp_path / f"input{i}"
            f.write_text(text)
            files.append(str(f))
        validated = []

        def counted(p, original=SignedParagraph.__post_init__):
            validated.append(p)
            original(p)

        monkeypatch.setattr(SignedParagraph, "__post_init__", counted)
        args = [argv[0], *files, *argv[1:]] + (["--json"] if json_flag else [])
        code, out, err = run(capsys, monkeypatch, args)
        assert (code, err) == (0, "")
        assert out
        assert len(validated) == len(files)


def private_imports(source: str) -> list[str]:
    """Every underscore-prefixed name that ``source`` imports from the
    package, by a relative import or from ``sgauss``."""
    return [
        f"{'.' * node.level}{node.module or ''}:{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or node.module.split(".")[0] == "sgauss")
        for alias in node.names
        if alias.name.startswith("_")
    ]


class TestPublicApiOnly:
    """The CLI calls the package by its public names, the ones the
    benchmark's tracer (``bench/tracing.py``) wraps, so that a traced run
    charges the work to the layer that does it."""

    def test_cli_imports_no_private_name(self):
        assert private_imports((SRC / "sgauss" / "cli.py").read_text()) == []

    def test_a_private_import_is_caught(self):
        source = (
            "from .homology import _profile, pairing\n"
            "from sgauss.transforms import _reduce\n"
            "from . import _x\n"
            "from os import _exit\n"
        )
        assert private_imports(source) == [
            ".homology:_profile",
            "sgauss.transforms:_reduce",
            ".:_x",
        ]


class TestVerifyCommand:
    def test_small_run_passes(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["verify", "--max-n", "2"])
        assert code == 0
        assert "verify: PASS" in out
        assert "kind=words" in out
        assert "kind=two-component-paragraphs" in out

    def test_json(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["verify", "--max-n", "2", "--json"])
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["words"]["size"] == 14
        assert doc["paragraphs"]["size"] == 2

    def test_words_only_at_n1(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["verify", "--max-n", "1", "--json"])
        doc = json.loads(out)
        assert doc["paragraphs"] is None

    @pytest.mark.parametrize("k", ["0", "-1", "27"])
    def test_out_of_range_bound_is_usage_error(self, capsys, monkeypatch, k):
        code, out, err = run(capsys, monkeypatch, ["verify", "--max-n", k])
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == (
            f"sgauss verify: error: argument --max-n: must be in 1..26, got {k}"
        )

    def test_non_integer_bound_is_usage_error(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["verify", "--max-n", "x"])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            "sgauss verify: error: argument --max-n: invalid int value: 'x'"
        )

    # sha256 of the full stdout, recorded before the sweep moved onto
    # integer codes: the reports must stay byte-identical.
    REPORT_DIGESTS = {
        ("--max-n", "5"): "335b8efcbe1cf038f8e630547d14e2225e594beec6ae6d598eaf4605580b1825",
        ("--max-n", "4"): "efe2758e8f10b7f26d7c842779801a7a11da5304f2c9c260859973155bcada3c",
        ("--max-n", "4", "--json"): "6d846469f8479331ac223593b1a857dd9aa513dbaf1b7f538ff2891d4a3bae72",
        ("--max-n", "3", "--dedupe"): "8fef721065d2220556934f69bd7fd2a5f151a205053d8a415d2ebd5f5fd55944",
        ("--max-n", "3", "--dedupe", "--json"): "00c8e4a5daa075b47dda134aa59b38e132e669e0d10e4c846edb881e2d993112",
        # Recorded before ``--dedupe`` became a filter on the corpus.
        ("--max-n", "5", "--dedupe"): "57ec473f3e36bcaaa2c8700bf3a982c5f68b85c9a740a02ae92213ba804e7758",
        ("--max-n", "5", "--dedupe", "--json"): "e8645d6ca9ada49cc03e97259c0030a771912adaadfdee2ec4a040bf780f4399",
    }

    @pytest.mark.parametrize("flags", list(REPORT_DIGESTS), ids=" ".join)
    def test_report_digest(self, capsys, monkeypatch, flags):
        code, out, _ = run(capsys, monkeypatch, ["verify", *flags])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.REPORT_DIGESTS[flags]

    # Recorded at the commit before the sweep was split over processes.
    JSON_DIGEST_MAX_N_5 = "9c68d7abf2d8d95a69491a22e5a84c5d47e4a1eae649c7677d422f883d83e7e5"

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_same_reports_in_any_number_of_processes(self, capsys, monkeypatch, count):
        # Both renderings come from the same two reports, swept once.
        verify_module = importlib.import_module("sgauss.verify")
        monkeypatch.setattr(verify_module, "_workers", lambda size: count)
        reports = {}
        sweep = sgauss.cli.verify

        def once(spec):
            if spec not in reports:
                reports[spec] = sweep(spec)
            return reports[spec]

        monkeypatch.setattr(sgauss.cli, "verify", once)
        digests = {}
        for flags in [("--max-n", "5"), ("--max-n", "5", "--json")]:
            code, out, _ = run(capsys, monkeypatch, ["verify", *flags])
            assert code == 0
            digests[flags] = hashlib.sha256(out.encode()).hexdigest()
        assert len(reports) == 2
        assert digests == {
            ("--max-n", "5"): self.REPORT_DIGESTS[("--max-n", "5")],
            ("--max-n", "5", "--json"): self.JSON_DIGEST_MAX_N_5,
        }


class TestStyling:
    def test_no_ansi_when_disabled(self, capsys, monkeypatch):
        _, _, err = run(capsys, monkeypatch, ["summary"], stdin="a b -a")
        assert "\x1b[" not in err

    def test_ansi_when_tty(self, capsys, monkeypatch):
        class FakeTTY(io.StringIO):
            def isatty(self):
                return True

        monkeypatch.setattr("sys.stdin", stdin_of("a b -a"))
        monkeypatch.delenv("GAUSS_COLOR", raising=False)
        fake_err = FakeTTY()
        monkeypatch.setattr("sys.stderr", fake_err)
        assert main(["summary"]) == 1
        assert "\x1b[31m" in fake_err.getvalue()


def chain_words(k: int) -> list[list[str]]:
    """The symmetric chain x_i y_i -x_{i+1} -y_i, i = 0..k-1 (cyclically)."""
    return [[f"x{i}", f"y{i}", f"-x{(i + 1) % k}", f"-y{i}"] for i in range(k)]


def paragraph_text(words: list[list[str]]) -> str:
    return " / ".join(" ".join(w) for w in words) + "\n"


def moved_words(words: list[list[str]], rng: random.Random) -> list[list[str]]:
    """A copy of ``words`` with every word rotated, the words reordered and
    the symbols renamed s0, s1, ... in a random order."""
    moved = []
    for w in words:
        r = rng.randrange(len(w))
        moved.append(w[r:] + w[:r])
    rng.shuffle(moved)
    syms = sorted({l.lstrip("-") for w in words for l in w})
    names = [f"s{i}" for i in range(len(syms))]
    rng.shuffle(names)
    rename = dict(zip(syms, names))
    return [
        [("-" if l.startswith("-") else "") + rename[l.lstrip("-")] for l in w]
        for w in moved
    ]


class TestLargeParagraphs:
    """An 8-component chain, where an exhaustive word-order x rotation
    search would build 8! * 4^8 (2.6e9) letter streams."""

    K = 8

    def test_canon_finishes_and_is_idempotent(self, capsys, monkeypatch):
        text = paragraph_text(chain_words(self.K))
        t0 = time.perf_counter()
        code, out, _ = run(capsys, monkeypatch, ["canon"], stdin=text)
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 5.0
        assert out.count("/") == self.K - 1
        code, again, _ = run(capsys, monkeypatch, ["canon"], stdin=out)
        assert code == 0
        assert again == out

    def test_iso_against_moved_copy(self, capsys, monkeypatch, tmp_path):
        words = chain_words(self.K)
        f = tmp_path / "moved"
        f.write_text(paragraph_text(moved_words(words, random.Random(8))))
        code, out, _ = run(
            capsys, monkeypatch, ["iso", "-", str(f)], stdin=paragraph_text(words)
        )
        assert (code, out) == (0, "isomorphic\n")

    def test_iso_against_swapped_exponents(self, capsys, monkeypatch, tmp_path):
        # x1 is +1 in word 1 and -1 in word 0.  Swapping its exponents moves a
        # +1 letter from word 1 to word 0, so the words' counts of +1 letters
        # become 3, 1, 2, 2, ... where every word of the chain has 2.
        words = chain_words(self.K)
        flip = {"x1": "-x1", "-x1": "x1"}
        swapped = [[flip.get(l, l) for l in w] for w in words]
        f = tmp_path / "swapped"
        f.write_text(paragraph_text(swapped))
        code, out, _ = run(
            capsys, monkeypatch, ["iso", "-", str(f)], stdin=paragraph_text(words)
        )
        assert (code, out) == (0, "not isomorphic\n")


class TestIsoOnStars:
    """``iso`` answers on stars in polynomial time, where a search over
    word orders, as ``canon`` makes, is factorial: it does not finish on a
    15-star."""

    @pytest.mark.parametrize("k", [15, 200])
    @pytest.mark.parametrize("swap", [False, True])
    def test_verdict_in_time(self, capsys, monkeypatch, tmp_path, k, swap):
        words = [w.split() for w in str(star(k)).split(" / ")]
        # Swapping x0's exponents makes "-x0 y0" a word with two +1 letters,
        # where every short word of the star has one.
        flip = {"x0": "-x0", "-x0": "x0"} if swap else {}
        other = moved_words([[flip.get(l, l) for l in w] for w in words], random.Random(k))
        f = tmp_path / "other"
        f.write_text(paragraph_text(other))
        t0 = time.perf_counter()
        code, out, _ = run(
            capsys, monkeypatch, ["iso", "-", str(f)], stdin=paragraph_text(words)
        )
        assert time.perf_counter() - t0 < 2.0
        assert (code, out) == (0, "not isomorphic\n" if swap else "isomorphic\n")


def random_word(n: int, seed: int) -> list[str]:
    """The letters of a seeded random word on the symbols s0..s{n-1}."""
    letters = [f"{sign}s{i}" for i in range(n) for sign in ("", "-")]
    random.Random(seed).shuffle(letters)
    return letters


# A 400-symbol word, and a 40-symbol word cut into a 3-component paragraph.
WORD40 = random_word(40, 3)
LARGE_INPUTS = {
    "word400": paragraph_text([random_word(400, 400)]),
    "cut3": paragraph_text([WORD40[:31], WORD40[31:76], WORD40[76:]]),
}


class TestLargeCircles:
    """sha256 of the ``circles`` output on inputs beyond the goldens."""

    DIGESTS = {
        ("word400", False): "3628ac9bd3ba90064c48bd0bee77eaedc0da8304afb40eeef68bf7fa2f24ddec",
        ("word400", True): "70095a141511a0b2e55c61198f0436c5aab6eb34db55bc9d5aa075c2369bd069",
        ("cut3", False): "b1c40ef94fdfb882c19afd334418ec041aa82c855455eb09db2c3431f257f6b6",
        ("cut3", True): "b5c75a8afd27548df86e7a6803db0033507b3f3f8f3a96ccfeeeb7733adfc073",
    }

    @pytest.mark.parametrize("name,as_json", sorted(DIGESTS))
    def test_digest(self, capsys, monkeypatch, name, as_json):
        argv = ["circles"] + ["--json"] * as_json
        code, out, _ = run(capsys, monkeypatch, argv, stdin=LARGE_INPUTS[name])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[name, as_json]


def circles_by_main(text: str, as_json: bool) -> str:
    """The stdout of ``sgauss circles`` on ``text``, with ``--json`` if
    ``as_json``; usable where function-scoped fixtures are not."""
    out = io.StringIO()
    with mock.patch("sys.stdin", stdin_of(text)), contextlib.redirect_stdout(out):
        assert main(["circles", *["--json"] * as_json]) == 0
    return out.getvalue()


def same_circles(p: SignedParagraph) -> None:
    """``RotationSystem._edges`` and both ``circles`` outputs on ``p`` are
    what the per-dart rendering of ``twopass`` gives."""
    r = build_ribbon(p)
    assert r._edges == twopass.edges(r)
    text = render(p)
    for as_json in (False, True):
        assert circles_by_main(text, as_json) == twopass.circles_stdout(p, as_json)


class TestCirclesAgainstOracle:
    """The whole-list rendering of the dart labels and ids against the
    one-dart-at-a-time oracle (``twopass.edges``, ``twopass.dart_ids``)."""

    def test_every_word_up_to_4(self, words_le_4):
        for p in words_le_4:
            same_circles(p)

    def test_every_two_component_paragraph_up_to_3(self, paragraphs_le_3):
        for p in paragraphs_le_3:
            same_circles(p)

    @pytest.mark.parametrize("name", sorted(LARGE_INPUTS))
    def test_large_inputs(self, name):
        same_circles(parse_paragraph(LARGE_INPUTS[name]))

    @pytest.mark.parametrize("n", [50, 100, 200, 300, 400])
    def test_random_words(self, n):
        for seed in range(3):
            same_circles(parse_paragraph(paragraph_text([random_word(n, 2500 + seed)])))

    @given(signed_paragraphs())
    def test_paragraphs(self, p):
        same_circles(p)


# Every subcommand that reads a paragraph, with the options it requires.
# ``iso`` compares stdin with a fixed valid paragraph (the kink's canonical
# form).
FILE_COMMANDS = [
    ["validate"],
    ["validate", "--pairwise"],
    ["canon"],
    ["iso", "-", str(GOLDEN / "kink_canon.txt")],
    ["summary"],
    ["circles"],
    ["profile"],
    ["pairing"],
    ["split", "--at", "a"],
    ["join", "--shared", "a", "--fresh", "z"],
    ["reduce"],
]


def run_plain(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", stdin_of(stdin)), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestRobustness:
    def test_internal_error_is_one_line(self, capsys, monkeypatch):
        def broken(p):
            raise RuntimeError("internal consistency failure:\nn=1, b=2")

        monkeypatch.setattr("sgauss.cli.summarize", broken)
        code, out, err = run(capsys, monkeypatch, ["summary"], stdin="a -a")
        assert code == 1
        assert out == ""
        assert err == (
            "error: internal: RuntimeError: internal consistency failure: n=1, b=2\n"
        )

    @settings(deadline=timedelta(seconds=2))
    @given(
        st.sampled_from(FILE_COMMANDS),
        st.booleans(),
        TEXTS,
    )
    def test_arbitrary_text(self, argv, as_json, text):
        code, _, err = run_plain(argv + ["--json"] * as_json, text)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert err.count("\n") <= 1


# --- dispatch ----------------------------------------------------------------

# Each subcommand's positional arguments, and its options with their values.
# "WORD" stands for a file holding a one-word paragraph; "-" reads the
# two-component paragraph ``PAIR_TEXT`` from stdin.
DISPATCH = {
    "validate": (["WORD"], [["--pairwise"]]),
    "canon": (["-"], []),
    "iso": (["WORD", "-"], []),
    "summary": (["-"], []),
    "circles": (["WORD"], []),
    "profile": (["WORD"], []),
    "pairing": (["-"], []),
    "split": (["WORD"], [["--at", "a"]]),
    "join": (["-"], [["--shared", "a"], ["--fresh", "z"]]),
    "reduce": (["-"], [["--prefix", "k"]]),
    "verify": ([], [["--max-n", "1"], ["--dedupe"]]),
}
PAIR_TEXT = "a -b / -a b\n"
WORD_FILE = str(GOLDEN / "torus_canon.txt")


def dispatch_table() -> list[list[str]]:
    """Every subcommand with its options after and before its files, with
    -h and with an unknown option; missing and surplus arguments; bad
    bounds; and the argv that the top-level parser reads itself."""
    table = []
    for command, (files, options) in DISPATCH.items():
        flat = list(chain.from_iterable(options))
        table += [
            [command, *files, *flat, "--json"],
            [command, "--json", *flat, *files],
            [command, "-h"],
            [command, *files, *flat, "--bogus"],
        ]
    return table + [
        ["split", "WORD"],
        ["join", "-", "--fresh", "z"],
        ["join", "-", "--shared", "a"],
        ["iso", "WORD"],
        ["iso", "WORD", "-", "WORD"],
        ["verify", "--max-n", "0"],
        ["verify", "--max-n", "x"],
        ["verify", "--max-n", "27"],
        [],
        ["frobnicate"],
        ["--help"],
        ["-h", "summary"],
        ["--json", "summary"],
    ]


@st.composite
def dispatch_argvs(draw) -> list[str]:
    """A subcommand's arguments in any order, with --json spelled out or
    abbreviated, an option's value attached by "=" or not, and at times one
    argument left out or one more put in (a "--" among them)."""
    command = draw(st.sampled_from(sorted(DISPATCH)))
    files, options = DISPATCH[command]
    units = [[f] for f in files] + [
        [f"{u[0]}={u[1]}"] if len(u) == 2 and draw(st.booleans()) else u for u in options
    ]
    if draw(st.booleans()):
        units.append([draw(st.sampled_from(["--json", "--js"]))])
    units = draw(st.permutations(units))
    # verify keeps its bound, without which it sweeps n <= 4.
    if command != "verify" and units and draw(st.booleans()):
        units.pop(draw(st.integers(0, len(units) - 1)))
    argv = [command, *chain.from_iterable(units)]
    if draw(st.booleans()):
        extra = draw(st.sampled_from(["--", "extra", "--bogus", "WORD", "-"]))
        argv.insert(draw(st.integers(1, len(argv))), extra)
    return argv


def run_dispatch(argv, *, oracle=False):
    """``run_plain`` on ``argv`` with "WORD" resolved; with ``oracle``, every
    argv goes through the top-level ``parse_args``, which picks the
    subparser and then runs it."""
    argv = [WORD_FILE if a == "WORD" else a for a in argv]
    if not oracle:
        return run_plain(argv, PAIR_TEXT)
    with mock.patch("sgauss.cli._parse", _build_parser()[0].parse_args):
        return run_plain(argv, PAIR_TEXT)


class TestDispatch:
    """A plain argv is read from the command table, and any other with a
    known command by that command's subparser, with the same exit code,
    stdout and stderr as the top-level ``parse_args``."""

    @pytest.mark.parametrize("argv", dispatch_table(), ids=lambda a: " ".join(a) or "(none)")
    def test_same_as_top_level(self, argv):
        assert run_dispatch(argv) == run_dispatch(argv, oracle=True)

    @settings(deadline=timedelta(seconds=2))
    @given(dispatch_argvs())
    def test_any_order_same_as_top_level(self, argv):
        assert run_dispatch(argv) == run_dispatch(argv, oracle=True)

    @pytest.mark.parametrize("command", sorted(DISPATCH))
    def test_same_namespace(self, command):
        files, options = DISPATCH[command]
        argv = [command, *chain.from_iterable(options), *files, "--js"]
        assert _parse(argv) == _build_parser()[0].parse_args(argv)

    @staticmethod
    def passes(monkeypatch) -> list[str]:
        """The prog of every parser whose ``parse_known_args`` runs, from
        now on."""
        passes = []
        original = argparse.ArgumentParser.parse_known_args

        def counted(parser, *args, **kwargs):
            passes.append(parser.prog)
            return original(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        return passes

    @pytest.mark.parametrize("command", sorted(DISPATCH))
    def test_one_argparse_pass(self, monkeypatch, command):
        # A plain argv makes no argparse pass; with --json abbreviated it
        # makes one, in the command's subparser; the oracle always makes two.
        passes = self.passes(monkeypatch)
        files, options = DISPATCH[command]
        argv = [command, *files, *chain.from_iterable(options)]
        for tail, expected in ([], []), (["--js"], [f"sgauss {command}"]):
            passes.clear()
            code, out, err = run_dispatch(argv + tail)
            assert (code, err) == (0, "") and out
            assert passes == expected
            passes.clear()
            assert run_dispatch(argv + tail, oracle=True) == (code, out, err)
            assert passes == ["sgauss", f"sgauss {command}"]

    def test_argv_from_sys_argv(self, monkeypatch):
        # The console script calls main() with no argv.
        argv = ["join", "-", "--shared=a", "--fresh", "z"]
        monkeypatch.setattr("sys.argv", ["sgauss", *argv])
        passes = self.passes(monkeypatch)
        assert run_plain(None, PAIR_TEXT) == (0, "a -b z -a b -z\n", "")
        assert passes == ["sgauss join"]


# Options that a command cannot run without.
REQUIRED = {"--at", "--shared", "--fresh"}


@st.composite
def plain_argvs(draw) -> list[str]:
    """A subcommand's options spelled out, each at most once, in any order,
    with any value that does not start with "-" (a valid bound for
    --max-n), and its files in one run at any place among them; a file or
    an option that the command can do without is left out at times."""
    command = draw(st.sampled_from(sorted(DISPATCH)))
    files, options = DISPATCH[command]
    name = st.text("ab1_=- /", max_size=4).filter(lambda t: not t.startswith("-"))
    value = st.sampled_from(["1", "2", "3"]) if command == "verify" else name
    units = [
        [u[0], *(draw(value) for _ in u[1:])]
        for u in options + [["--json"]]
        if u[0] in REQUIRED or draw(st.booleans())
    ]
    units = draw(st.permutations(units))
    least = len(files) if command == "iso" else 0
    run = [draw(st.just("-") | name) for _ in range(draw(st.integers(least, len(files))))]
    units.insert(draw(st.integers(0, len(units))), run)
    return [command, *chain.from_iterable(units)]


class TestTableParser:
    """Wherever the table path accepts an argv, its namespace is the one
    that argparse gives; it accepts every plain argv and declines the rest."""

    @staticmethod
    def agrees(argv: list[str]) -> bool:
        """Whether the table path accepted ``argv``; if it did, the command's
        own subparser must give the same namespace and leave nothing over."""
        args = _plain(argv)
        if args is not None:
            expected, extras = _build_parser()[1][argv[0]].parse_known_args(argv[1:])
            assert (vars(args), extras) == (vars(expected), [])
        return args is not None

    @pytest.mark.parametrize("argv", dispatch_table(), ids=lambda a: " ".join(a) or "(none)")
    def test_table(self, argv):
        self.agrees(argv)

    @settings(deadline=timedelta(seconds=2))
    @given(dispatch_argvs())
    def test_dispatch_argvs(self, argv):
        self.agrees(argv)

    @settings(deadline=timedelta(seconds=2))
    @given(plain_argvs())
    def test_plain_argvs(self, argv):
        assert self.agrees(argv)

    @pytest.mark.parametrize("command", sorted(DISPATCH))
    def test_accepts_spelled_out(self, command):
        files, options = DISPATCH[command]
        flat = list(chain.from_iterable(options))
        assert self.agrees([command, *files, *flat, "--json"])
        assert self.agrees([command, "--json", *flat, *files])

    @pytest.mark.parametrize(
        "argv",
        [
            ["summary", "-h"],
            ["summary", "-", "--js"],
            ["join", "-", "--shared=a", "--fresh", "z"],
            ["summary", "--", "-"],
            ["summary", "--json", "--json"],
            ["summary", "--bogus"],
            ["summary", "-", "WORD"],
            ["join", "-", "--shared", "a"],
            ["verify", "--max-n", "0"],
            ["iso", "WORD", "--json", "-"],
            ["split", "-", "--at"],
            ["split", "-", "--at", "--json"],
        ],
        ids=" ".join,
    )
    def test_declines(self, argv):
        assert _plain(argv) is None


class TestUsageText:
    """Help and usage errors read as they did before the command table: the
    goldens were recorded from the argparse parser that declared every
    option by hand, at 80 columns."""

    HELP = GOLDEN / "help"

    @pytest.mark.parametrize("command", ["sgauss", *DISPATCH])
    def test_help(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        argv = ["--help"] if command == "sgauss" else [command, "--help"]
        code, out, err = run(capsys, monkeypatch, argv)
        assert (code, err) == (0, "")
        assert out.encode() == (self.HELP / f"{command}.txt").read_bytes()

    def test_missing_option(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, monkeypatch, ["split", "-"])
        assert (code, out) == (2, "")
        assert err.encode() == (self.HELP / "split_no_at.stderr.txt").read_bytes()


class TestReadBytes:
    """A file and stdin are both read as bytes and decoded once: the line
    ends of either give the same output, and a bad byte the same error."""

    CHAIN = ["x1 y1 -x2 -y1", "x2 y2 -x1 -y2  # the second component"]
    ENDS = {"LF": "\n", "CRLF": "\r\n", "CR": "\r"}

    def outputs(self, argv, data, tmp_path) -> set:
        f = tmp_path / "input"
        f.write_bytes(data)
        return {run_plain([*argv, str(f)], ""), run_plain(argv, data)}

    @pytest.mark.parametrize("command", ["summary", "circles", "canon"])
    def test_line_ends(self, tmp_path, command):
        outputs = set()
        for end in self.ENDS.values():
            data = "".join(line + end for line in self.CHAIN).encode()
            outputs |= self.outputs([command], data, tmp_path)
        ((code, out, err),) = outputs
        assert (code, err) == (0, "")
        assert out == run_plain([command], " / ".join(self.CHAIN))[1]

    @pytest.mark.parametrize("end", ENDS.values(), ids=ENDS)
    def test_bad_byte(self, tmp_path, end):
        data = f"a -a{end}b ".encode() + b"\xff -b" + end.encode()
        assert self.outputs(["summary"], data, tmp_path) == {
            (1, "", "error: 2:3: byte 0xff is not valid UTF-8 [syntax]\n")
        }

