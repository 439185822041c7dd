"""Enumeration and the consistency-report machinery."""

from __future__ import annotations

import importlib
import json
import random

import pytest

from conftest import double_factorial_count, naive_isomorphic
from sgauss.model import SignedParagraph, canonicalize, render
from sgauss.verify import (
    KIND_PARAGRAPHS,
    KIND_WORDS,
    Counterexample,
    CorpusSpec,
    VerificationReport,
    apply_random_moves,
    enumerate_corpus,
    enumerate_two_component_paragraphs,
    enumerate_words,
    verify,
)

# The package re-exports the function ``verify``, which hides the module of
# the same name as an attribute of ``sgauss``, so fetch the modules by name.
verify_module = importlib.import_module("sgauss.verify")
surface_module = importlib.import_module("sgauss.surface")


class TestEnumerateWords:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_count_matches_closed_form(self, n):
        assert sum(1 for _ in enumerate_words(n)) == double_factorial_count(n)

    def test_smallest_block(self):
        assert [render(p) for p in enumerate_words(1)] == ["a -a", "-a a"]

    def test_all_valid_and_exact_size(self):
        for p in enumerate_words(3):
            assert p.n == 3
            assert len(p.words) == 1

    def test_no_duplicates(self):
        block = list(enumerate_words(3))
        assert len(set(block)) == len(block)

    def test_deterministic_order(self):
        assert [render(p) for p in enumerate_words(2)][:4] == [
            "a -a b -b",
            "-a a b -b",
            "a -a -b b",
            "-a a -b b",
        ]


class TestEnumerateParagraphs:
    def test_n1(self):
        block = [render(p) for p in enumerate_two_component_paragraphs(1)]
        assert block == ["a / -a", "-a / a"]

    def test_n2_count_hand_verified(self):
        assert sum(1 for _ in enumerate_two_component_paragraphs(2)) == 32

    def test_all_valid(self):
        for p in enumerate_two_component_paragraphs(3):
            assert len(p.words) == 2
            assert p.n == 3


class TestDedupe:
    def test_word_classes_small(self):
        assert sum(1 for _ in enumerate_corpus(CorpusSpec(1, dedupe=True))) == 1
        assert sum(1 for _ in enumerate_corpus(CorpusSpec(2, dedupe=True))) == 5

    def test_paragraph_classes_n1(self):
        reps = list(
            enumerate_corpus(CorpusSpec(1, dedupe=True, kind=KIND_PARAGRAPHS))
        )
        assert len(reps) == 1

    def test_dedupe_matches_naive_partition(self):
        block = list(enumerate_words(2))
        reps = list(enumerate_corpus(CorpusSpec(2, dedupe=True)))
        reps = [p for p in reps if p.n == 2]
        # Every word matches exactly one representative under the
        # independent brute-force search.
        for p in block:
            matches = [r for r in reps if naive_isomorphic(p, r)]
            assert len(matches) == 1


class TestCorpusSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CorpusSpec(0)
        with pytest.raises(ValueError):
            CorpusSpec(27)
        with pytest.raises(ValueError):
            CorpusSpec(2, kind="threes")


class TestVerify:
    def test_words_small_all_green(self):
        report = verify(CorpusSpec(3, kind=KIND_WORDS))
        assert report.ok
        assert report.size == 2 + 12 + 120
        assert report.counterexamples == []
        assert report.checks["criterion-equivalence"].checked == report.size
        emp = report.empirical["beta-antisymmetry"]
        assert emp["holds"] == emp["checked"] == report.size

    def test_paragraphs_small_all_green(self):
        report = verify(CorpusSpec(2, kind=KIND_PARAGRAPHS))
        assert report.ok
        assert report.size == 2 + 32
        emp = report.empirical["join-circle-shift"]
        assert emp["constant"] is True
        assert list(emp["counts"]) == ["+1"]

    def test_report_renderings(self):
        report = verify(CorpusSpec(1, kind=KIND_WORDS))
        text = report.to_text()
        assert "result: PASS" in text
        assert "check carter-partition: checked=2 failed=0" in text
        doc = json.loads(report.to_json())
        assert doc["ok"] is True
        assert doc["size"] == 2
        assert doc["checks"]["euler-parity"] == {"checked": 2, "failed": 0}

    def test_report_rendering_with_failure(self):
        # Exercise the counterexample paths with a synthetic report.
        report = VerificationReport(CorpusSpec(1))
        report.size = 1
        report.record(
            "euler-parity",
            False,
            next(iter(enumerate_words(1))),
            "b=2 n=1",
            "b = n mod 2",
        )
        assert not report.ok
        text = report.to_text()
        assert "result: FAIL" in text
        assert "counterexample [euler-parity] 'a -a'" in text
        doc = json.loads(report.to_json())
        assert doc["ok"] is False
        assert doc["counterexamples"] == [
            {
                "paragraph": "a -a",
                "prop": "euler-parity",
                "observed": "b=2 n=1",
                "expected": "b = n mod 2",
            }
        ]

    def test_deterministic_across_runs(self):
        a = verify(CorpusSpec(2, kind=KIND_WORDS), seed=5).to_json()
        b = verify(CorpusSpec(2, kind=KIND_WORDS), seed=5).to_json()
        assert a == b


class TestTrustedConstruction:
    """The enumerators, ``canonicalize`` and the rotate/reorder moves build
    paragraphs without validation; every one must pass it anyway."""

    @staticmethod
    def check(p):
        checked = SignedParagraph(p.words)
        assert checked.alphabet == p.alphabet
        assert {s: checked.occurrences(s) for s in checked.alphabet} == {
            s: p.occurrences(s) for s in p.alphabet
        }

    def test_corpus_canonical_forms_and_moves(self, words_le_4, paragraphs_le_3):
        rng = random.Random(0)
        for p in words_le_4 + paragraphs_le_3:
            self.check(p)
            self.check(canonicalize(p))
            self.check(apply_random_moves(p, rng))


class TestPerObjectWork:
    """``verify`` computes each surface quantity once per object."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}

        def count(module, name):
            original = getattr(module, name, None)

            def wrapper(*args):
                counts[name] = counts.get(name, 0) + 1
                return original(*args)

            counts[name] = 0
            monkeypatch.setattr(module, name, wrapper, raising=False)

        for name in ("canonicalize", "_quads", "summarize"):
            count(verify_module, name)
        for module in (verify_module, surface_module):
            for name in ("build_ribbon", "trace_circles"):
                count(module, name)
        return counts

    def test_words(self, calls):
        size = verify(CorpusSpec(3, kind=KIND_WORDS)).size
        assert calls == {
            "canonicalize": 3 * size,
            "_quads": size,
            "summarize": size,
            "build_ribbon": 0,
            "trace_circles": 0,
        }

    def test_paragraphs(self, calls):
        corpus = list(enumerate_corpus(CorpusSpec(2, kind=KIND_PARAGRAPHS)))
        joins = sum(
            len({o.word for o in p.occurrences(s)}) == 2
            for p in corpus
            for s in p.alphabet
        )
        assert verify(CorpusSpec(2, kind=KIND_PARAGRAPHS)).size == len(corpus)
        assert calls == {
            "canonicalize": 3 * len(corpus),
            "_quads": len(corpus),
            "summarize": len(corpus) + joins,
            "build_ribbon": 0,
            "trace_circles": 0,
        }


class TestCorruptDartTable:
    """``carter-partition`` checks that the quads hold a permutation of the
    darts, and a table that is not one is a counterexample, not a crash."""

    def test_repeated_dart_is_recorded(self, monkeypatch):
        real = verify_module._quads

        def repeat_a_dart(p):
            quads = real(p)
            sym = min(quads)
            out_p, _, in_p, out_m = quads[sym]
            quads[sym] = (out_p, out_p, in_p, out_m)  # in- replaced by out+
            return quads

        monkeypatch.setattr(verify_module, "_quads", repeat_a_dart)
        report = verify(CorpusSpec(3))
        partition = report.checks["carter-partition"]
        assert partition.checked == report.size
        assert partition.failed == report.size > 0
        assert not report.ok
        first = report.counterexamples[0]
        assert first.prop == "carter-partition"
        assert first.expected == "each of 0..3 once"
