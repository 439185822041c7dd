"""Enumeration and the consistency-report machinery."""

from __future__ import annotations

import json

import pytest

from conftest import double_factorial_count, naive_isomorphic
from sgauss.model import SignedParagraph, render
from sgauss.verify import (
    KIND_PARAGRAPHS,
    KIND_WORDS,
    Counterexample,
    CorpusSpec,
    VerificationReport,
    enumerate_corpus,
    enumerate_two_component_paragraphs,
    enumerate_words,
    verify,
)


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
