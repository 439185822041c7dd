"""Enumeration and the consistency-report machinery."""

from __future__ import annotations

import ast
import importlib
import json
import marshal
import os
import random
import signal
import subprocess
import sys
import threading
from collections import Counter
from itertools import permutations, product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (
    addresses,
    double_factorial_count,
    naive_isomorphic,
    random_word,
    signed_paragraphs,
    star,
    symmetric_chain,
    symmetric_word,
)
from letters import paragraph, words_of
from objsweep import isomorphisms, moves_by_objects, record, verify_by_objects
from sgauss.model import (
    LETTERS,
    SignedParagraph,
    ValidationError,
    _canonical,
    _validate,
    canonicalize,
    parse_paragraph,
    render,
)
from sgauss.transforms import join
from sgauss.verify import (
    KIND_PARAGRAPHS,
    KIND_WORDS,
    Counterexample,
    CorpusSpec,
    VerificationReport,
    apply_random_moves,
    _codes_of_size,
    _corpus_codes,
    _moved,
    _paragraph,
    _text,
    enumerate_corpus,
    verify,
)

# The package re-exports the function ``verify``, which hides the module of
# the same name as an attribute of ``sgauss``, so fetch the modules by name.
verify_module = importlib.import_module("sgauss.verify")
surface_module = importlib.import_module("sgauss.surface")
model_module = importlib.import_module("sgauss.model")
transforms_module = importlib.import_module("sgauss.transforms")
homology_module = importlib.import_module("sgauss.homology")


# Kernel mutants: each maps the real kernel to a broken one.


def extra_circle(real):
    return lambda succ: real(succ) + [[]]


def two_extra_circles(real):
    return lambda succ: real(succ) + [[], []]


def repeated_dart(real):
    def fault(code):
        quads = real(code)
        out_p, _, in_p, out_m = quads[0]
        quads[0] = (out_p, out_p, in_p, out_m)  # in- replaced by out+
        return quads

    return fault


def swapped_in_slots(real):
    # (out+, in+, in-, out-): the two incoming arc ends trade places.
    return lambda code: [(out_p, in_p, in_m, out_m) for out_p, in_m, in_p, out_m in real(code)]


def unreversed_mirror(real):
    return lambda quads: list(quads)


def rotated_canonical(real):
    # Each word rotated by one, symbols renumbered by first appearance.
    def fault(code):
        ids = {}
        renumber = lambda c: 2 * ids.setdefault(c >> 1, len(ids)) + (c & 1)
        return tuple(tuple(map(renumber, w[1:] + w[:1])) for w in code)

    return fault


def plus_start_canonical_word(real):
    # No rotation compared: the word read from its first +1 letter, its
    # symbols renumbered by first appearance.
    def fault(w):
        k = next(k for k, c in enumerate(w) if not c & 1)
        ids = {}
        return tuple(2 * ids.setdefault(c >> 1, len(ids)) + (c & 1) for c in w[k:] + w[:k])

    return fault


def fresh_exponents_swapped(real):
    def fault(code, plus, minus, fresh):
        joined = real(code, plus, minus, fresh)
        return tuple(tuple(c ^ (c >> 1 == fresh) for c in w) for w in joined)

    return fault


def unwrapped_segments(real):
    # The wrap XOR left out: a segment that wraps past the end of the word,
    # its symbol's -1 letter coming before the +1 letter, gets the
    # complement of its symbol masks.
    def fault(word):
        everything = (1 << len(word) // 2) - 1
        at = {c: k for k, c in enumerate(word)}
        return [
            (sp ^ everything, sm ^ everything, a) if at[2 * s + 1] < at[2 * s] else (sp, sm, a)
            for s, (sp, sm, a) in enumerate(real(word))
        ]

    return fault


def first_word_length_pairing(real):
    return lambda code: len(code[0])


def swapped_exponents_moved(real):
    # A moved copy with the two exponents of symbol 0 traded: it is no
    # longer isomorphic to the object, unless the object's symmetry
    # happens to allow it.
    def fault(code, n, x):
        return tuple(tuple(c ^ (c >> 1 == 0) for c in w) for w in real(code, n, x))

    return fault


def cleared_exponents_canonical(real):
    # Every letter of the form made +1: not a code, so the second
    # ``_canonical`` of canonical-idempotence raises on it.
    return lambda code: tuple(tuple(c & ~1 for c in w) for w in real(code))


# Each mutant with the module that defines the kernel it breaks, and the
# checks of the report that it must fail.
MUTANTS = {
    "extra_circle": (surface_module, "_faces", extra_circle, {"euler-parity"}),
    "two_extra_circles": (surface_module, "_faces", two_extra_circles, {"genus-bounds"}),
    "repeated_dart": (surface_module, "_quads", repeated_dart, {"carter-partition"}),
    "swapped_in_slots": (
        surface_module,
        "_quads",
        swapped_in_slots,
        {"criterion-equivalence", "null-pairing", "join-genus"},
    ),
    "unreversed_mirror": (surface_module, "_mirror", unreversed_mirror, {"mirror-circles"}),
    "rotated_canonical": (
        model_module,
        "_canonical",
        rotated_canonical,
        {"isomorphism-invariance", "canonical-idempotence"},
    ),
    "cleared_exponents_canonical": (
        model_module,
        "_canonical",
        cleared_exponents_canonical,
        {"canonical-idempotence"},
    ),
    "plus_start_canonical_word": (
        model_module,
        "_canonical_word",
        plus_start_canonical_word,
        {"isomorphism-invariance"},
    ),
    "fresh_exponents_swapped": (
        transforms_module,
        "_join_code",
        fresh_exponents_swapped,
        {"join-genus"},
    ),
    "unwrapped_segments": (
        homology_module,
        "_segments",
        unwrapped_segments,
        {"criterion-equivalence"},
    ),
    "first_word_length_pairing": (
        homology_module,
        "_pairing",
        first_word_length_pairing,
        {"null-pairing"},
    ),
    "swapped_exponents_moved": (
        verify_module,
        "_moved",
        swapped_exponents_moved,
        {"isomorphism-invariance"},
    ),
}


def dedupe_oracle(max_symbols: int, kind: str) -> list:
    """The ``--dedupe`` forms as they were first found: every code of the
    corpus canonicalized, each distinct form kept at its first code."""
    codes = _corpus_codes(CorpusSpec(max_symbols, kind=kind))
    return list(dict.fromkeys(map(_canonical, codes)))


def workers(monkeypatch, count: int) -> None:
    """Sweep in ``count`` processes whatever the corpus and the cores."""
    monkeypatch.setattr(verify_module, "_workers", lambda size: count)


def patch(monkeypatch, mutant: str) -> None:
    """Patch ``mutant`` into its kernel's module and, where the sweep holds
    its own binding of the kernel, into ``sgauss.verify``."""
    module, name, make, _ = MUTANTS[mutant]
    broken = make(getattr(module, name))
    monkeypatch.setattr(module, name, broken)
    if hasattr(verify_module, name):
        monkeypatch.setattr(verify_module, name, broken)


class TestEnumerateWords:
    """The codes of the words with exactly n symbols, ``_codes_of_size``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_count_matches_closed_form(self, n):
        assert sum(1 for _ in _codes_of_size(n, KIND_WORDS)) == double_factorial_count(n)

    def test_smallest_block(self):
        assert list(map(_text, _codes_of_size(1, KIND_WORDS))) == ["a -a", "-a a"]

    def test_text_names_symbols_past_z(self):
        # ``canonicalize``'s names: a..z, then s26, s27, ...
        code = (symmetric_word(30),)
        text = _text(code)
        assert text.split()[25:31] == ["z", "s26", "s27", "s28", "s29", "-a"]
        assert parse_paragraph(text)._code == code

    def test_all_valid_and_exact_size(self):
        for code in _codes_of_size(3, KIND_WORDS):
            p = paragraph(words_of(_paragraph(code)))
            assert p.n == 3
            assert len(p._code) == 1

    def test_no_duplicates(self):
        block = list(_codes_of_size(3, KIND_WORDS))
        assert len(set(block)) == len(block)

    def test_deterministic_order(self):
        assert list(map(_text, _codes_of_size(2, KIND_WORDS)))[:4] == [
            "a -a b -b",
            "-a a b -b",
            "a -a -b b",
            "-a a -b b",
        ]


class TestEnumerateParagraphs:
    def test_n1(self):
        block = list(map(_text, _codes_of_size(1, KIND_PARAGRAPHS)))
        assert block == ["a / -a", "-a / a"]

    def test_n2_count_hand_verified(self):
        assert sum(1 for _ in _codes_of_size(2, KIND_PARAGRAPHS)) == 32

    def test_all_valid(self):
        for code in _codes_of_size(3, KIND_PARAGRAPHS):
            p = paragraph(words_of(_paragraph(code)))
            assert len(p._code) == 2
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
        block = list(map(_paragraph, _codes_of_size(2, KIND_WORDS)))
        reps = list(enumerate_corpus(CorpusSpec(2, dedupe=True)))
        reps = [p for p in reps if p.n == 2]
        # Every word matches exactly one representative under the
        # independent brute-force search.
        for p in block:
            matches = [r for r in reps if naive_isomorphic(p, r)]
            assert len(matches) == 1

    @pytest.mark.parametrize(
        "max_symbols, kind", [(5, KIND_WORDS), (4, KIND_PARAGRAPHS)], ids=["words", "paragraphs"]
    )
    def test_each_oracle_form_once_in_corpus_order(self, max_symbols, kind):
        codes = _corpus_codes(CorpusSpec(max_symbols, kind=kind))
        index = {code: idx for idx, code in enumerate(codes)}
        forms = sorted(dedupe_oracle(max_symbols, kind), key=index.__getitem__)
        reps = [p._code for p in enumerate_corpus(CorpusSpec(max_symbols, True, kind))]
        assert reps == forms

    @pytest.mark.parametrize(
        "fault", [None, "extra_circle", "rotated_canonical", "cleared_exponents_canonical"]
    )
    def test_same_report_in_any_number_of_processes(self, monkeypatch, fault):
        specs = [CorpusSpec(4, True), CorpusSpec(3, True, KIND_PARAGRAPHS)]
        if fault:
            patch(monkeypatch, fault)
        renders = {}
        for count in (1, 2, 3):
            workers(monkeypatch, count)
            renders[count] = [(r.to_text(), r.to_json()) for r in map(verify, specs)]
        assert renders[2] == renders[3] == renders[1]
        assert all(("result: FAIL" in text) == bool(fault) for text, _ in renders[1])


class TestCorpusSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CorpusSpec(0)
        with pytest.raises(ValueError):
            CorpusSpec(27)
        with pytest.raises(ValueError):
            CorpusSpec(2, kind="threes")
        # An unhashable kind is not a kind either, not a TypeError.
        with pytest.raises(ValueError, match=r"^unknown corpus kind \[\]$"):
            CorpusSpec(2, kind=[])


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
        record(
            report,
            "euler-parity",
            False,
            _paragraph(next(_codes_of_size(1, KIND_WORDS))),
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
    """The enumerators, ``canonicalize``, the random moves and ``join`` build
    paragraphs with ``_from_code``, without validation; every one must agree
    with the paragraph that validating its words gives, and hold a code and
    a numbering that agree with its words."""

    @staticmethod
    def check_code(p):
        index = {s: i for i, s in enumerate(p._names)}
        assert len(index) == p.n
        assert p._code == tuple(
            tuple(2 * index[l.sym] + (l.exp == -1) for l in w) for w in words_of(p)
        )

    def check(self, q):
        checked = paragraph(words_of(q))
        assert checked.alphabet == q.alphabet
        assert checked.n == q.n
        assert addresses(checked) == addresses(q)
        assert _canonical(checked._code) == _canonical(q._code)
        self.check_code(q)
        self.check_code(checked)

    @staticmethod
    def joins(p):
        for s, (plus, minus) in sorted(addresses(p).items()):
            if plus[0] != minus[0]:
                yield join(p, s, "z1")

    def check_all(self, built):
        rng = random.Random(0)
        for q in built:
            self.check(q)
            self.check(canonicalize(q))
            self.check(apply_random_moves(q, rng))

    def test_corpus_canonical_forms_and_moves(self, words_le_4, paragraphs_le_3):
        self.check_all(words_le_4 + paragraphs_le_3)

    def test_joins(self, paragraphs_le_3):
        self.check_all(q for p in paragraphs_le_3 for q in self.joins(p))


@st.composite
def connected_codes(draw, max_symbols=6, max_words=4):
    """Codes of valid paragraphs: the 2n letters in a random order, cut into
    1..k words that share symbols."""
    n = draw(st.integers(1, max_symbols))
    letters = draw(st.permutations(range(2 * n)))
    k = draw(st.integers(1, min(max_words, 2 * n)))
    cuts = sorted(draw(st.sets(st.integers(1, 2 * n - 1), min_size=k - 1, max_size=k - 1)))
    code = tuple(tuple(letters[a:b]) for a, b in zip([0, *cuts], [*cuts, 2 * n]))
    try:
        _validate(code, LETTERS[:n])
    except ValidationError:
        assume(False)
    return code


def same_copy(p: SignedParagraph, x: int) -> None:
    """``_moved`` gives ``p``, whose symbols are numbered in sorted-name
    order, the copy that the letter-object decoder gives it."""
    assert _paragraph(_moved(p._code, p.n, x)) == moves_by_objects(p, x)


class TestMovesAgainstObjects:
    """``_moved`` decodes the number of an isomorphism into the copy that
    ``objsweep.moves_by_objects`` makes on letter objects, and
    ``apply_random_moves`` draws that number as ``randrange`` does."""

    def test_every_number(self, words_le_3):
        # The enumerated objects name their symbols in sorted order.
        small = [*words_le_3, *map(_paragraph, _codes_of_size(2, KIND_PARAGRAPHS))]
        for p in small:
            for x in range(isomorphisms(p)):
                same_copy(p, x)

    @pytest.mark.parametrize("k", [3, 4])
    def test_three_and_four_words(self, k):
        rng = random.Random(k)
        for p in (_paragraph(symmetric_chain(k)._code), _paragraph(star(k)._code)):
            size = isomorphisms(p)
            for x in {0, size - 1, *(rng.randrange(size) for _ in range(200))}:
                same_copy(p, x)

    def test_same_moved_copies(self, words_le_4, paragraphs_le_3):
        for seed in (0, 7):
            for idx, p in enumerate(words_le_4 + paragraphs_le_3):
                rng, oracle_rng = random.Random(seed ^ idx), random.Random(seed ^ idx)
                q = moves_by_objects(p, oracle_rng.randrange(isomorphisms(p)))
                assert apply_random_moves(p, rng) == q
                assert rng.random() == oracle_rng.random()

    @pytest.mark.parametrize("code", [((0,), (1,)), ((1,), (0,)), ((0,), (2, 1), (3,))])
    def test_one_letter_words(self, code):
        # A one-letter word has one rotation, and radix 1 takes no digit.
        p = _paragraph(code)
        for x in range(isomorphisms(p)):
            same_copy(p, x)

    @given(connected_codes(), st.integers(0, 2**64))
    def test_codes(self, code, x):
        p = _paragraph(code)
        same_copy(p, x % isomorphisms(p))

    def test_apply_random_moves_on_400_symbols(self):
        # Names x0 .. x399 in an order that is not the sorted one, and a
        # group of order 800 * 400!, a number of 2,896 bits.
        code = random_word(random.Random(1800), 400)
        p = parse_paragraph(" ".join(f"{'-' * (c & 1)}x{c >> 1}" for c in code))
        assert isomorphisms(p).bit_length() == 2896
        for seed in range(20):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            q = moves_by_objects(p, oracle_rng.randrange(isomorphisms(p)))
            assert apply_random_moves(p, rng) == q
            assert rng.getstate() == oracle_rng.getstate()

    @given(signed_paragraphs(), st.integers(0, 2**16))
    def test_names_out_of_sorted_order(self, p, seed):
        # The enumerators name symbols in sorted order; parsed paragraphs
        # need not, and the relabeling permutes the sorted names.
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        q = moves_by_objects(p, oracle_rng.randrange(isomorphisms(p)))
        assert apply_random_moves(p, rng) == q


class TestUniformIsomorphism:
    """The moved copy is one uniform element of the isomorphism group."""

    @staticmethod
    def drawn(monkeypatch, spec, seed=0):
        """The sweep's report and (object, number, moved copy) triples, in
        one process, which keeps them."""
        calls = []
        real = verify_module._moved

        def keep(code, n, x):
            calls.append((code, x, real(code, n, x)))
            return calls[-1][2]

        with monkeypatch.context() as m:
            m.setattr(verify_module, "_moved", keep)
            workers(m, 1)
            return verify(spec, seed=seed), calls

    @pytest.mark.parametrize(
        "spec, size",
        [(CorpusSpec(4), 1814), (CorpusSpec(3, kind=KIND_PARAGRAPHS), 586)],
        ids=["words", "paragraphs"],
    )
    def test_every_copy_is_isomorphic(self, monkeypatch, spec, size):
        report, calls = self.drawn(monkeypatch, spec)
        assert report.ok and report.size == len(calls) == size
        for code, _, moved in calls:
            assert naive_isomorphic(_paragraph(code), _paragraph(moved))

    def test_draw_comes_before_any_check(self, monkeypatch):
        # The objects with 2 symbols fail euler-parity and make no moved
        # copy, but draw all the same: the others keep their numbers.
        _, calls = self.drawn(monkeypatch, CorpusSpec(3))
        real = surface_module._faces
        monkeypatch.setattr(verify_module, "_faces", lambda s: real(s) + [[]] * (len(s) == 8))
        report, skipped = self.drawn(monkeypatch, CorpusSpec(3))
        assert report.checks["euler-parity"].failed == 12
        assert skipped == [c for c in calls if len(c[0][0]) != 4]

    @pytest.mark.parametrize("text", ["a b -a -b", "a b / -a -b"])
    def test_each_number_one_triple(self, text):
        # The group acts on every code of the same word lengths, valid or
        # not; it is faithful there, so the copies of all of them name the
        # (rotations, order, permutation) triple.
        p = parse_paragraph(text)
        code, n, lengths = p._code, p.n, [len(w) for w in p._code]
        cuts = [sum(lengths[:i]) for i in range(len(lengths) + 1)]
        shaped = [
            tuple(letters[a:b] for a, b in zip(cuts, cuts[1:]))
            for letters in permutations(range(2 * n))
        ]
        assert code in shaped

        def applied(rotations, order, perm):
            out = []
            for c in shaped:
                rotated = [w[r:] + w[:r] for w, r in zip(c, rotations)]
                out.append(
                    tuple(tuple(2 * perm[l >> 1] | l & 1 for l in rotated[k]) for k in order)
                )
            return tuple(out)

        triples = {
            applied(rotations, order, perm)
            for rotations in product(*map(range, lengths))
            for order in permutations(range(len(code)))
            for perm in permutations(range(n))
        }
        size = isomorphisms(p)
        assert size == len(triples) == {"a b -a -b": 8, "a b / -a -b": 16}[text]
        decoded = [tuple(_moved(c, n, x) for c in shaped) for x in range(size)]
        assert len(set(decoded)) == size
        assert set(decoded) == triples

    @pytest.mark.parametrize("text", ["a b -a -b", "a b / -a -b"])
    def test_frequencies_at_n_2(self, monkeypatch, text):
        drawn = Counter()
        real = verify_module._moved

        def count(code, n, x):
            drawn[x] += 1
            return real(code, n, x)

        monkeypatch.setattr(verify_module, "_moved", count)
        p = parse_paragraph(text)
        size = isomorphisms(p)
        rng = random.Random(2026)
        copies = Counter(apply_random_moves(p, rng) for _ in range(400 * size))
        # 400 expected per element, standard deviation under 20.
        assert sorted(drawn) == list(range(size))
        assert 300 < min(drawn.values()) and max(drawn.values()) < 500
        # a b -a -b has no symmetry, so each of its 8 elements gives its own
        # copy; a b / -a -b is fixed by rotating both words and swapping a
        # and b, so its 16 give 8.
        assert len(copies) == 8
        assert all(naive_isomorphic(p, q) for q in copies)

    def test_block_draws_replay(self, monkeypatch, word_codes_le_5):
        # Each object's number is drawn first, from a generator seeded at
        # its block's start, so replaying the draws from there on gives it.
        seed = 3
        report, calls = self.drawn(monkeypatch, CorpusSpec(5), seed)
        assert report.size == len(calls) == 32054
        sampled = {0, 1, 1023, 1024, 1025, 2047, 2048, 31744, 32053}
        sampled |= set(random.Random(21).sample(range(32054), 20))
        for idx in sorted(sampled):
            start = idx - idx % 1024
            rng = random.Random((seed << 24) ^ start)
            for w in word_codes_le_5[start : idx + 1]:
                x = rng.randrange(len(w) * factorial(len(w) // 2))
            assert (calls[idx][0], x) == ((w,), calls[idx][1]), idx


class TestDrawsThroughGetrandbits:
    """The random moves draw only through ``getrandbits``; the slower
    ``random.Random`` wrappers must not come back into the sweep."""

    def test_sweep_and_moves_without_the_wrappers(self, monkeypatch):
        p = _paragraph(((0, 2, 5), (1, 3, 4)))  # a b -c / -a -b c
        expected = verify(CorpusSpec(3)).to_json(), apply_random_moves(p, random.Random(0))

        def refuse(*args, **kwargs):
            raise AssertionError("drew through a random.Random wrapper")

        for name in ("randrange", "randint", "shuffle"):
            monkeypatch.setattr(random.Random, name, refuse)
        moved = apply_random_moves(p, random.Random(0))
        assert (verify(CorpusSpec(3)).to_json(), moved) == expected


class TestPerObjectWork:
    """A passing sweep runs on integer codes: it builds no paragraph and
    calls each kernel a fixed number of times per object.  The counts are
    taken in one process: a child's calls are not seen."""

    KERNELS = (
        "_quads",
        "_table",
        "_faces",
        "_canonical",
        "_moved",
        "_join_code",
        "_pairing",
        "_verdicts",
    )

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}

        def count(owner, name, key=None):
            key = key or name
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            counts[key] = 0
            monkeypatch.setattr(owner, name, wrapper)

        for name in self.KERNELS:
            count(verify_module, name)
        # The named profile, which the sweep no longer binds, where it lives.
        count(homology_module, "_profile")
        count(SignedParagraph, "__post_init__", "SignedParagraph.__post_init__")
        # The sweep's own binding of the trusted constructor.
        count(verify_module, "_from_code", "model._from_code")
        # A new generator is seeded once per block of 1,024 objects.
        count(random.Random, "seed", "random.Random.seed")
        workers(monkeypatch, 1)
        return counts

    @staticmethod
    def forms(max_symbols: int, kind: str, calls) -> int:
        """The number of isomorphism classes in a corpus, with the counts
        that finding them made cleared."""
        forms = sum(1 for _ in enumerate_corpus(CorpusSpec(max_symbols, True, kind)))
        for name in calls:
            calls[name] = 0
        return forms

    def test_words(self, calls):
        forms = self.forms(3, KIND_WORDS, calls)
        size = verify(CorpusSpec(3, kind=KIND_WORDS)).size
        assert (size, forms) == (134, 27)
        assert calls == {
            "_quads": 2 * size,  # the object and its moved copy
            "_faces": 2 * size,  # the same two
            "_table": 3 * size,  # ... and the mirror
            # The object and the moved copy, and each distinct form once.
            "_canonical": 2 * size + forms,
            "_moved": size,
            "_join_code": 0,
            "_pairing": 0,
            "_verdicts": size,  # the profile's two verdicts, from its masks
            "_profile": 0,
            "SignedParagraph.__post_init__": 0,
            "model._from_code": 0,
            "random.Random.seed": 1,
        }

    def test_seeds_per_block(self, calls):
        assert verify(CorpusSpec(4)).size == 1814
        assert calls["random.Random.seed"] == -(-1814 // 1024) == 2

    def test_paragraphs(self, calls):
        corpus = list(enumerate_corpus(CorpusSpec(2, kind=KIND_PARAGRAPHS)))
        joins = sum(
            plus[0] != minus[0]
            for p in corpus
            for plus, minus in addresses(p).values()
        )
        forms = self.forms(2, KIND_PARAGRAPHS, calls)
        size = verify(CorpusSpec(2, kind=KIND_PARAGRAPHS)).size
        assert (size, forms) == (len(corpus), 7) == (34, 7)
        assert calls == {
            "_quads": 2 * size + joins,
            "_faces": 2 * size + joins,
            "_table": 3 * size + joins,
            "_canonical": 2 * size + forms,
            "_moved": size,
            "_join_code": joins,
            "_pairing": size,
            "_verdicts": 0,
            "_profile": 0,
            "SignedParagraph.__post_init__": 0,
            "model._from_code": 0,
            "random.Random.seed": 1,
        }


class TestAgainstObjectSweep:
    """The code sweep gives the same report as the object sweep of
    ``tests/objsweep.py``, also when a kernel both of them call is broken,
    so that the counterexamples, built only on failure, are compared too."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize(
        "spec", [CorpusSpec(4), CorpusSpec(3, kind=KIND_PARAGRAPHS)], ids=["words", "paragraphs"]
    )
    def test_equal_reports(self, spec, seed):
        assert verify(spec, seed=seed).to_json() == verify_by_objects(spec, seed=seed).to_json()

    FAULTS = ["extra_circle", "rotated_canonical", "unreversed_mirror", "fresh_exponents_swapped"]

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize(
        "spec", [CorpusSpec(3), CorpusSpec(2, kind=KIND_PARAGRAPHS)], ids=["words", "paragraphs"]
    )
    def test_equal_reports_under_a_fault(self, monkeypatch, spec, fault):
        patch(monkeypatch, fault)
        report = verify(spec, seed=7)
        assert report.to_json() == verify_by_objects(spec, seed=7).to_json()
        if fault != "fresh_exponents_swapped" or spec.kind == KIND_PARAGRAPHS:
            assert report.counterexamples and not report.ok


class TestMutantsAreCaught:
    """Each check of the report fails on a kernel mutant patched into
    ``sgauss.verify``, without an exception."""

    def test_extra_circle_fails_euler_parity(self, monkeypatch):
        patch(monkeypatch, "extra_circle")
        report = verify(CorpusSpec(2))
        assert report.checks["euler-parity"].failed == report.size > 0
        assert not report.ok
        first = report.counterexamples[0]
        assert first == Counterexample("a -a", "euler-parity", "b=4 n=1", "b = n mod 2")
        # The object's other checks are skipped.
        assert report.checks["mirror-circles"].checked == 0

    def test_unreached_checks_are_listed(self, monkeypatch):
        # Every object fails euler-parity, so no object reaches the checks
        # after it; the report lists them all the same, in order.
        patch(monkeypatch, "extra_circle")
        report = verify(CorpusSpec(2))
        assert list(report.checks) == [
            "carter-partition",
            "euler-parity",
            "genus-bounds",
            "mirror-circles",
            "isomorphism-invariance",
            "canonical-idempotence",
            "criterion-equivalence",
        ]
        assert report.checks["mirror-circles"].checked == 0
        assert report.checks["mirror-circles"].failed == 0
        assert report.checks["genus-bounds"].checked == report.size
        doc = json.loads(report.to_json())
        assert doc["checks"]["criterion-equivalence"] == {"checked": 0, "failed": 0}
        assert "check criterion-equivalence: checked=0 failed=0" in report.to_text()

    def test_paragraph_checks_are_listed(self, monkeypatch):
        patch(monkeypatch, "extra_circle")
        report = verify(CorpusSpec(2, kind=KIND_PARAGRAPHS))
        assert list(report.checks)[-3:] == [
            "canonical-idempotence",
            "null-pairing",
            "join-genus",
        ]
        assert len(report.checks) == 8
        assert report.checks["join-genus"].checked == 0

    def test_two_extra_circles_fail_genus_bounds(self, monkeypatch):
        patch(monkeypatch, "two_extra_circles")
        report = verify(CorpusSpec(2))
        assert report.checks["euler-parity"].failed == 0
        assert report.checks["genus-bounds"].failed > 0
        assert report.counterexamples[0].observed == "b=5 genus=-1"
        assert not report.ok

    def test_unreversed_mirror_fails_mirror_circles(self, monkeypatch):
        patch(monkeypatch, "unreversed_mirror")
        report = verify(CorpusSpec(2))
        assert report.checks["mirror-circles"].failed == report.size > 0
        assert not report.ok
        assert all(c.prop == "mirror-circles" for c in report.counterexamples)

    def test_unwrapped_segments_fail_criterion_equivalence(self, monkeypatch):
        patch(monkeypatch, "unwrapped_segments")
        report = verify(CorpusSpec(3))
        failed = {name: s.failed for name, s in report.checks.items() if s.failed}
        assert failed == {"criterion-equivalence": 2}
        assert report.counterexamples[0] == Counterexample(
            "a -b c -a b -c", "criterion-equivalence", "profile zero=False", "geometric=True"
        )

    def test_wrong_pairing_fails_null_pairing(self, monkeypatch):
        patch(monkeypatch, "first_word_length_pairing")
        report = verify(CorpusSpec(3, kind=KIND_PARAGRAPHS))
        assert report.checks["null-pairing"].failed == 68
        assert not report.ok
        assert all(c.prop == "null-pairing" for c in report.counterexamples)

    def test_swapped_in_slots(self, monkeypatch):
        # The surface changes, and the circles with it, but not the profile.
        patch(monkeypatch, "swapped_in_slots")
        report = verify(CorpusSpec(3))
        failed = {name: s.failed for name, s in report.checks.items() if s.failed}
        assert failed == {"criterion-equivalence": 52}
        assert report.counterexamples[0] == Counterexample(
            "a -a", "criterion-equivalence", "profile zero=True", "geometric=False"
        )
        report = verify(CorpusSpec(2, kind=KIND_PARAGRAPHS))
        assert {name for name, s in report.checks.items() if s.failed} == {
            "null-pairing",
            "join-genus",
        }

    def test_canonical_word_plus_start(self, monkeypatch):
        # Only words reach the one-word kernel.
        patch(monkeypatch, "plus_start_canonical_word")
        report = verify(CorpusSpec(3))
        failed = {name for name, s in report.checks.items() if s.failed}
        assert failed == {"isomorphism-invariance"}
        assert verify(CorpusSpec(2, kind=KIND_PARAGRAPHS)).ok

    def test_swapped_exponents_in_moved_copy(self, monkeypatch):
        patch(monkeypatch, "swapped_exponents_moved")
        for spec, failed in [(CorpusSpec(3), 114), (CorpusSpec(2, kind=KIND_PARAGRAPHS), 32)]:
            report = verify(spec)
            assert {name: s.failed for name, s in report.checks.items() if s.failed} == {
                "isomorphism-invariance": failed
            }

    @pytest.mark.parametrize("count", [1, 2])
    def test_raising_kernel_is_a_counterexample(self, monkeypatch, count):
        # The same in a child as in this process: the object fails the
        # check whose kernel raised, and its later checks are skipped.
        patch(monkeypatch, "cleared_exponents_canonical")
        workers(monkeypatch, count)
        report = verify(CorpusSpec(3))
        failed = {name: (s.checked, s.failed) for name, s in report.checks.items() if s.failed}
        assert failed == {"canonical-idempotence": (134, 134)}
        assert report.checks["criterion-equivalence"].checked == 0
        observed = "raised IndexError: list index out of range"
        assert report.counterexamples[0] == Counterexample(
            "a -a", "canonical-idempotence", observed, "a verdict"
        )

    @pytest.mark.parametrize("count", [1, 2])
    def test_raising_kernel_under_dedupe(self, monkeypatch, count):
        # No code is its broken form, so none is swept: each code fails
        # through the check of its form instead of leaving the sweep empty.
        patch(monkeypatch, "cleared_exponents_canonical")
        workers(monkeypatch, count)
        report = verify(CorpusSpec(3, dedupe=True))
        failed = {name: (s.checked, s.failed) for name, s in report.checks.items() if s.failed}
        assert failed == {"canonical-idempotence": (134, 134)}
        assert report.size == 0
        observed = "raised IndexError: list index out of range"
        assert report.counterexamples[0] == Counterexample(
            "a -a", "canonical-idempotence", observed, "a verdict"
        )

    @staticmethod
    def uncaught(monkeypatch, kind: str, dedupe: bool = False) -> list[str]:
        """The checks of ``kind`` that no mutant of the table naming them
        fails."""
        checks = verify_module._KINDS[kind].checks
        caught = set()
        for mutant, (*_, targets) in MUTANTS.items():
            if targets.isdisjoint(checks):
                continue
            with monkeypatch.context() as m:
                patch(m, mutant)
                report = verify(CorpusSpec(3, dedupe, kind))
            if not report.ok:
                caught |= {c for c in targets & set(checks) if report.checks[c].failed}
        return [c for c in checks if c not in caught]

    @pytest.mark.parametrize("kind", list(verify_module._KINDS))
    def test_every_check_fails_under_its_mutant(self, monkeypatch, kind):
        # The gate: a check that no mutant fails could not catch a fault.
        # Each check of every kind must fail under a mutant of the table
        # that names it.
        assert self.uncaught(monkeypatch, kind) == []

    @pytest.mark.parametrize("kind", list(verify_module._KINDS))
    def test_every_check_fails_in_two_processes(self, monkeypatch, kind):
        workers(monkeypatch, 2)
        assert self.uncaught(monkeypatch, kind) == []

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("kind", list(verify_module._KINDS))
    def test_every_check_fails_under_dedupe(self, monkeypatch, kind, count):
        # The same gate when only the codes that are their own form are
        # swept: a broken form must fail a check, not drop its class.
        workers(monkeypatch, count)
        assert self.uncaught(monkeypatch, kind, dedupe=True) == []


def wire(report: VerificationReport) -> tuple:
    """The report's ``_state()`` as a forked child sends it: through
    ``marshal``."""
    return marshal.loads(marshal.dumps(report._state()))


class TestProcesses:
    """``verify`` sweeps contiguous index ranges in forked children and
    adds their states, sent through ``marshal``, into the serial sweep's."""

    @pytest.mark.parametrize("kind", [KIND_WORDS, KIND_PARAGRAPHS])
    def test_sizes(self, kind):
        for n in range(1, 5):
            assert verify_module._size_of(n, kind) == sum(1 for _ in _codes_of_size(n, kind))

    @staticmethod
    def split_at(spec, cuts, seed=5):
        """The whole sweep's report and, for each cut, the report of the
        range before it with the state of the range from it added, sent
        through ``marshal``, each as text and JSON."""
        sweep = lambda *r: verify_module._sweep(spec, seed, *r)
        render = lambda report: (report.to_text(), report.to_json())
        merged = {}
        for cut in cuts:
            head = sweep(0, cut)
            head._add(wire(sweep(cut)))
            merged[cut] = render(head)
        return render(sweep()), merged

    @pytest.mark.parametrize(
        "spec, fault",
        [
            (CorpusSpec(3), "swapped_in_slots"),
            (CorpusSpec(3), "beta"),
            (CorpusSpec(2, kind=KIND_PARAGRAPHS), None),
            (CorpusSpec(2, kind=KIND_PARAGRAPHS), "fresh_exponents_swapped"),
        ],
        ids=["words-counterexamples", "words-tally", "paragraphs", "paragraphs-tally"],
    )
    def test_merge_at_every_cut(self, monkeypatch, spec, fault):
        if fault == "beta":
            # beta antisymmetry "fails" on the words that start with a +1
            # letter, so that the tally of texts is not empty.
            real = verify_module._verdicts
            monkeypatch.setattr(verify_module, "_verdicts", lambda w: (real(w)[0], w[0] & 1))
        elif fault:
            patch(monkeypatch, fault)
        size = verify(spec).size
        whole, merged = self.split_at(spec, range(size + 1))
        assert merged == dict.fromkeys(range(size + 1), whole)
        assert "result: FAIL" in whole[0] or fault in (None, "beta")

    @pytest.mark.parametrize(
        "spec, cuts",
        [
            # Every cut of these takes about 40 s; cuts at both ends, in the
            # middle and at random.
            (CorpusSpec(3, kind=KIND_PARAGRAPHS), [0, 1, 2, 292, 293, 584, 585, 586]),
            # Across the block edge at 1,024, where the draws restart.
            (CorpusSpec(4), [1, 1023, 1024, 1025, 1813]),
        ],
        ids=["paragraphs", "words"],
    )
    def test_merge_at_sampled_cuts(self, monkeypatch, spec, cuts):
        patch(monkeypatch, "swapped_exponents_moved")
        cuts = [*cuts, *random.Random(24).sample(range(verify(spec).size), 4)]
        whole, merged = self.split_at(spec, cuts)
        assert "counterexample [isomorphism-invariance]" in whole[0]
        assert merged == dict.fromkeys(cuts, whole)

    @pytest.mark.parametrize(
        "spec", [CorpusSpec(3), CorpusSpec(3, kind=KIND_PARAGRAPHS)], ids=["words", "paragraphs"]
    )
    def test_every_object_as_its_own_range(self, monkeypatch, spec):
        # Each one-object range replays its block's draws from a different
        # start; the moved copies the mutant breaks show every draw.
        patch(monkeypatch, "swapped_exponents_moved")
        sweep = lambda *r: verify_module._sweep(spec, 5, *r)
        whole, merged = sweep(), sweep(0, 1)
        for k in range(1, whole.size):
            merged._add(wire(sweep(k, k + 1)))
        assert whole.checks["isomorphism-invariance"].failed > 0
        assert (merged.to_text(), merged.to_json()) == (whole.to_text(), whole.to_json())

    @staticmethod
    def package_imports(source: str) -> list[str]:
        """Every module that ``source`` imports from the package, by a
        relative import or by the name ``sgauss``."""
        names = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names.append("." * node.level + (node.module or ""))
        return [m for m in names if m.startswith(".") or m.split(".")[0] == "sgauss"]

    def test_fork_imports_nothing_from_the_package(self):
        # A child sends plain data back, so the range runner needs nothing
        # of the package; ``verify`` hands it the function to run.
        source = Path(verify_module.__file__).with_name("_fork.py").read_text()
        assert self.package_imports(source) == []

    def test_a_package_import_is_caught(self):
        source = (
            "import marshal\nfrom .verify import _sweep\nfrom . import model\n"
            "import sgauss.verify\nfrom sgauss import verify\nfrom os import path\n"
        )
        caught = [".verify", ".", "sgauss.verify", "sgauss"]
        assert self.package_imports(source) == caught

    def test_workers(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        pick = verify_module._workers
        sizes = (0, 511, 512, 586, 767, 768, 1814, 10**6)
        assert [pick(k) for k in sizes] == [1, 1, 2, 2, 2, 3, 4, 4]
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert pick(10**6) == 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert pick(10**6) == 1

    def test_serial_while_a_thread_runs_or_without_fork(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert verify_module._workers(1814) == 2
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert verify_module._workers(1814) == 1
        finally:
            release.set()
            waiter.join()
        assert verify_module._workers(1814) == 2
        monkeypatch.delattr(os, "fork")
        assert verify_module._workers(1814) == 1

    @staticmethod
    def no_child_left() -> bool:
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        return False

    def test_no_child_left_after_a_report(self, monkeypatch):
        workers(monkeypatch, 3)
        assert verify(CorpusSpec(3)).ok
        assert self.no_child_left()

    def in_children(self, monkeypatch, act):
        """Make ``_draw`` call ``act()`` in every child before it draws."""
        parent, real = os.getpid(), verify_module._draw

        def draw(*args):
            if os.getpid() != parent:
                act()
            return real(*args)

        monkeypatch.setattr(verify_module, "_draw", draw)
        workers(monkeypatch, 3)

    def test_a_raising_child_is_one_error(self, monkeypatch):
        def fail():
            raise LookupError("no such thing")

        self.in_children(monkeypatch, fail)
        why = "raised LookupError: no such thing"
        with pytest.raises(RuntimeError, match=rf"^sweep of objects 44\.\.88 {why}$"):
            verify(CorpusSpec(3))
        assert self.no_child_left()

    def test_a_killed_child_is_one_error(self, monkeypatch):
        self.in_children(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        why = "was killed by signal 9"
        with pytest.raises(RuntimeError, match=rf"^sweep of objects 44\.\.88 {why}$"):
            verify(CorpusSpec(3))
        assert self.no_child_left()

    def test_children_are_reaped_when_this_process_raises(self, monkeypatch):
        parent, real = os.getpid(), verify_module._draw

        def draw(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(verify_module, "_draw", draw)
        workers(monkeypatch, 3)
        with pytest.raises(KeyboardInterrupt):
            verify(CorpusSpec(4))
        assert self.no_child_left()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_one_usable_cpu_forks_nothing(self):
        probe = (
            "import os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "def fork():\n"
            "    raise AssertionError('forked')\n"
            "os.fork = fork\n"
            "from sgauss.verify import KIND_PARAGRAPHS, CorpusSpec, verify\n"
            "print(verify(CorpusSpec(4)).size, verify(CorpusSpec(3, kind=KIND_PARAGRAPHS)).size)\n"
        )
        src = str(Path(verify_module.__file__).resolve().parents[1])
        r = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
        )
        assert (r.returncode, r.stdout, r.stderr) == (0, "1814 586\n", "")


class TestCorruptDartTable:
    """``carter-partition`` checks that the quads hold a permutation of the
    darts, and a table that is not one is a counterexample, not a crash."""

    def test_repeated_dart_is_recorded(self, monkeypatch):
        patch(monkeypatch, "repeated_dart")
        report = verify(CorpusSpec(3))
        partition = report.checks["carter-partition"]
        assert partition.checked == report.size
        assert partition.failed == report.size > 0
        assert not report.ok
        first = report.counterexamples[0]
        assert first.prop == "carter-partition"
        assert first.expected == "each of 0..3 once"
