"""Segments, alpha/beta, intersection profile, two-component pairing.

The segment tests hold the set-based oracle ``setprofile`` to the
definition; the profile tests hold ``profile`` to hand values and to the
oracle, and the packed rows to the dict of mask popcounts they replaced
(``maskprofile``)."""

from __future__ import annotations

import importlib
import json
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setprofile
from conftest import rotate, signed_words
from maskprofile import mask_profile
from letters import SignedLetter, SignedWord, paragraph, words_of
from setprofile import closed_letter_set, inverse_set, letter_set, segment_of
from sgauss.homology import (
    _profile,
    _rows,
    _verdicts,
    pairing,
    profile,
    profile_rows,
    word_is_planar_homology,
)
from sgauss.model import OperationError, SignedParagraph, ValidationError, parse_paragraph, relabel
from sgauss.surface import is_geometric, summarize
from sgauss.verify import _paragraph

homology = importlib.import_module("sgauss.homology")


def W(text: str) -> SignedWord:
    (w,) = words_of(parse_paragraph(text))
    return w


def P(w: SignedWord) -> SignedParagraph:
    return paragraph((w,))


class TestSegment:
    def test_adjacent_occurrences(self):
        assert segment_of(W("a -a"), "a") == ()

    def test_between_positive_and_negative(self):
        assert segment_of(W("a b -a -b"), "a") == (SignedLetter("b", 1),)

    def test_wraps_cyclically(self):
        assert segment_of(W("a b -a -b"), "b") == (SignedLetter("a", -1),)

    @given(signed_words(), st.integers(0, 20))
    def test_rotation_invariant(self, w, k):
        for sym in sorted({l.sym for l in w}):
            assert segment_of(rotate(w, k), sym) == segment_of(w, sym)

    @given(signed_words())
    def test_segment_complement_lengths(self, w):
        # |segment| + |complement| + 2 = |w|, the complement being the letters
        # from the -1 occurrence forward to the +1 occurrence.
        letters = list(w)
        for sym in sorted({l.sym for l in w}):
            seg = segment_of(w, sym)
            pos = letters.index(SignedLetter(sym, 1))
            neg = letters.index(SignedLetter(sym, -1))
            comp_len = (pos - neg - 1) % len(w)
            assert len(seg) + comp_len + 2 == len(w)

    def test_missing_symbol(self):
        with pytest.raises(OperationError):
            segment_of(W("a -a"), "z")


class TestLetterSets:
    def test_inverse_is_involution(self):
        s = letter_set(W("a b -a -b"), "a")
        assert inverse_set(inverse_set(s)) == s

    def test_closure_contains_segment(self):
        w = W("a b -a -b")
        assert closed_letter_set(w, "a") >= letter_set(w, "a")
        assert SignedLetter("a", 1) in closed_letter_set(w, "a")
        assert SignedLetter("a", -1) in closed_letter_set(w, "a")


class TestAlpha:
    @pytest.mark.parametrize(
        "text,sym,value",
        [
            ("a -a", "a", 0),
            ("a b -a -b", "a", 1),
            ("a b -a -b", "b", -1),
            ("a -a b -b", "a", 0),
            ("a -a b -b", "b", 0),
            ("a b -b -a", "a", 0),
        ],
    )
    def test_spot_values(self, text, sym, value):
        assert profile(parse_paragraph(text)).alpha[sym] == value

    @given(signed_words())
    def test_set_sum_equals_plain_sum(self, w):
        alpha = profile(P(w)).alpha
        for sym in sorted(alpha):
            assert alpha[sym] == sum(l.exp for l in segment_of(w, sym))


class TestBeta:
    @pytest.mark.parametrize(
        "text,i,j,value",
        [
            ("a b -a -b", "a", "b", 1),
            ("a b -a -b", "b", "a", -1),
            ("a -a b -b", "a", "b", 0),
            ("a -a b -b", "b", "a", 0),
        ],
    )
    def test_spot_values(self, text, i, j, value):
        assert profile(parse_paragraph(text)).beta[i, j] == value

    def test_diagonal_is_zero(self):
        # Zero by convention, so the profile leaves the diagonal out.
        assert profile(parse_paragraph("a b -a -b")).beta.keys() == {("a", "b"), ("b", "a")}
        assert setprofile.beta(W("a b -a -b"), "a", "a") == 0

    def test_diagonal_still_requires_presence(self):
        with pytest.raises(OperationError):
            setprofile.beta(W("a -a"), "z", "z")

    def test_three_symbol_example(self):
        beta = profile(parse_paragraph("a b -a c -b -c")).beta
        assert beta.get(("a", "b"), 0) == 1
        assert beta.get(("b", "a"), 0) == -1
        assert beta.get(("a", "c"), 0) == 1
        assert beta.get(("c", "a"), 0) == -1


class TestProfile:
    def test_zero_profiles(self):
        for text in ("a -a", "a -a b -b"):
            pr = profile(parse_paragraph(text))
            assert pr.is_zero
            assert word_is_planar_homology(parse_paragraph(text))

    def test_torus_word_profile(self):
        pr = profile(parse_paragraph("a b -a -b"))
        assert pr.alpha == {"a": 1, "b": -1}
        assert pr.beta == {("a", "b"): 1, ("b", "a"): -1}
        assert not pr.is_zero

    def test_as_dict(self):
        assert profile(parse_paragraph("a b -a -b")).as_dict() == {
            "alpha": {"a": 1, "b": -1},
            "beta": [["a", "b", 1], ["b", "a", -1]],
            "planar": False,
        }

    @staticmethod
    def sorted_rendering(pr):
        return {
            "alpha": dict(sorted(pr.alpha.items())),
            "beta": [[i, j, v] for (i, j), v in sorted(pr.beta.items())],
            "planar": pr.is_zero,
        }

    @given(signed_words(max_symbols=8))
    def test_as_dict_is_in_sorted_order(self, w):
        pr = profile(P(w))
        assert json.dumps(pr.as_dict()) == json.dumps(self.sorted_rendering(pr))

    def test_as_dict_is_in_sorted_order_at_n200(self):
        pool = [SignedLetter(f"s{i}", e) for i in range(200) for e in (1, -1)]
        random.Random(7).shuffle(pool)
        pr = profile(paragraph((pool,)))
        assert json.dumps(pr.as_dict()) == json.dumps(self.sorted_rendering(pr))

    @given(signed_words(max_symbols=4), st.integers(0, 10))
    def test_rotation_invariant(self, w, k):
        assert profile(P(rotate(w, k))) == profile(P(w))

    @given(signed_words(max_symbols=4))
    def test_relabeling_permutes_indices(self, w):
        mapping = {l.sym: l.sym + "_r" for l in w}
        moved = relabel(P(w), mapping)
        pr = profile(P(w))
        prm = profile(moved)
        assert prm.alpha == {mapping[s]: v for s, v in pr.alpha.items()}
        assert prm.beta == {
            (mapping[i], mapping[j]): v for (i, j), v in pr.beta.items()
        }


@st.composite
def invalid_words(draw) -> SignedWord:
    """A valid word with one letter dropped, flipped or repeated."""
    letters = list(draw(signed_words(max_symbols=4)).letters)
    k = draw(st.integers(0, len(letters) - 1))
    how = draw(st.sampled_from(["drop", "flip", "repeat"]))
    if how == "drop":
        del letters[k]
    elif how == "flip":
        letters[k] = letters[k].inverse()
    else:
        letters.insert(draw(st.integers(0, len(letters))), letters[k])
    return SignedWord(tuple(letters))


class TestAgainstSetOracle:
    """The bitmask kernel against the set-based definitions in setprofile."""

    def test_exhaustive_small(self, words_le_4):
        assert len(words_le_4) == 1814
        for p in words_le_4:
            (w,) = words_of(p)
            assert profile(p) == setprofile.profile(w), str(w)

    @given(signed_words(max_symbols=12))
    def test_random_words(self, w):
        assert profile(P(w)) == setprofile.profile(w)

    @given(invalid_words())
    def test_invalid_words_rejected_by_both(self, w):
        # The package rejects them when it validates the word, before any
        # profile can be asked of it.
        with pytest.raises(ValidationError):
            P(w)
        with pytest.raises(OperationError):
            setprofile.profile(w)


def verdicts_of(pr) -> tuple[bool, bool]:
    """(is_zero, beta antisymmetric) read off a named profile's dicts."""
    return pr.is_zero, all(v == -pr.beta[j, i] for (i, j), v in pr.beta.items())


def dict_verdicts(word: tuple[int, ...]) -> tuple[bool, bool]:
    """``verdicts_of`` the oracle's named profile of ``word``."""
    return verdicts_of(mask_profile(word, string.ascii_lowercase))


class TestVerdicts:
    """The sweep's mask kernel against the named profile."""

    def test_every_word_up_to_5(self, word_codes_le_5, mask_profiles_le_5):
        assert len(word_codes_le_5) == 32054
        wrong = [
            w for w, pr in zip(word_codes_le_5, mask_profiles_le_5)
            if _verdicts(w) != verdicts_of(pr)
        ]
        assert wrong == []

    @settings(max_examples=50)
    @given(signed_words(max_symbols=12))
    def test_hypothesis_words(self, w):
        (word,) = P(w)._code
        assert _verdicts(word) == dict_verdicts(word)

    def test_not_antisymmetric(self, monkeypatch):
        # beta is antisymmetric on every valid word, so break the masks to
        # see the kernel report a violation as the dict scan does.
        real = homology._segments
        monkeypatch.setattr(
            homology, "_segments", lambda word: [(0, *seg[1:]) for seg in real(word)]
        )
        word = parse_paragraph("a b -a -b")._code[0]
        assert _verdicts(word) == dict_verdicts(word) == (False, False)


# Names whose sorted order is the reverse of the code's symbol order, so that
# a row's fields are not in code order.
REVERSED = string.ascii_lowercase[::-1]


def entries(pr) -> tuple[list, list]:
    """A profile's alpha and beta entries in their order, which ``as_dict``
    and the CLI keep."""
    return list(pr.alpha.items()), list(pr.beta.items())


class TestPackedRows:
    """The packed rows of ``homology._rows`` against the dict of mask
    popcounts that they replaced, entry for entry and in the same order."""

    def test_every_word_up_to_5(self, profiles_le_5, mask_profiles_le_5):
        assert len(profiles_le_5) == 32054
        wrong = [
            entries(pr) for pr, oracle in zip(profiles_le_5, mask_profiles_le_5)
            if entries(pr) != entries(oracle)
        ]
        assert wrong == []

    def test_32_bit_fields(self, words_le_4):
        # The fields a word takes from n = 2^15 on, in an order other than
        # the code's.
        for p in words_le_4:
            (w,) = p._code
            assert entries(_profile(w, REVERSED, 32)) == entries(mask_profile(w, REVERSED))

    @settings(max_examples=50)
    @given(signed_words(max_symbols=12), st.sampled_from([0, 32]))
    def test_hypothesis_words(self, w, width):
        (word,), names = P(w)._code, P(w)._names
        assert entries(_profile(word, names, width)) == entries(mask_profile(word, names))

    @pytest.mark.parametrize("kind", ["random", "kinks"])
    def test_seeded_words(self, kind):
        n = 60
        rng = random.Random(n)
        if kind == "kinks":
            w = _kink_word(n, rng)
        else:
            pool = [SignedLetter(f"s{i}", e) for i in range(n) for e in (1, -1)]
            rng.shuffle(pool)
            w = SignedWord(pool)
        (word,), names = P(w)._code, P(w)._names
        for width in (0, 32):
            assert entries(_profile(word, names, width)) == entries(mask_profile(word, names))

    def test_profile_rows(self):
        p = parse_paragraph("c b -c a -b d -a -d")
        names, alphas, rows = profile_rows(p)
        oracle = mask_profile(p._code[0], p._names)
        assert names == ["a", "b", "c", "d"]
        assert alphas == list(oracle.alpha.values())
        assert list(rows) == [tuple(oracle.beta.get((i, j), 0) for j in names) for i in names]

    def test_rows_are_made_one_at_a_time(self):
        (word,) = parse_paragraph("a b -a -b")._code
        _, _, rows = _rows(word, "ab")
        assert next(rows) == (0, 1)
        assert next(rows) == (-1, 0)
        assert next(rows, None) is None


class TestOneWordParagraph:
    """A one-word paragraph is a word: the word functions read its code as
    it is, without validating it again, and reject a paragraph of more
    words."""

    TEXT = "a b c -a d -b -c e -d f -e g -f h -g -h"

    def test_same_values_as_the_word(self):
        p = parse_paragraph(self.TEXT)
        expected = setprofile.profile(W(self.TEXT))
        assert profile(p) == expected
        assert word_is_planar_homology(p) == expected.is_zero

    def test_not_validated_again(self, monkeypatch):
        p = parse_paragraph(self.TEXT)
        built = []
        monkeypatch.setattr(SignedParagraph, "__post_init__", lambda p: built.append(p))
        profile(p), word_is_planar_homology(p)
        assert built == []

    def test_planarity_is_the_profile_verdict(self, word_codes_le_5, profiles_le_5):
        wrong = [
            w for w, pr in zip(word_codes_le_5, profiles_le_5)
            if word_is_planar_homology(_paragraph((w,))) != pr.is_zero
        ]
        assert wrong == []

    @settings(max_examples=50)
    @given(signed_words(max_symbols=12))
    def test_planarity_is_the_profile_verdict_hypothesis(self, w):
        assert word_is_planar_homology(P(w)) == profile(P(w)).is_zero

    def test_planarity_builds_no_named_profile(self, monkeypatch):
        def built(*args):
            raise AssertionError("named profile built")

        monkeypatch.setattr(homology, "_profile", built)
        assert word_is_planar_homology(parse_paragraph("a -a b -b"))
        assert not word_is_planar_homology(parse_paragraph(self.TEXT))

    @pytest.mark.parametrize("call", [profile, word_is_planar_homology, profile_rows])
    def test_several_words_rejected(self, call):
        with pytest.raises(
            OperationError, match="^expected a single-word paragraph, got 2 words$"
        ):
            call(parse_paragraph("a -b / -a b"))


def _kink_word(n: int, rng: random.Random) -> SignedWord:
    """Planar by construction: n kinks, each inserted as an adjacent pair
    x -x or -x x at a random place in the word built so far."""
    letters: list[SignedLetter] = []
    for i in range(n):
        pair = [SignedLetter(f"k{i}", 1), SignedLetter(f"k{i}", -1)]
        rng.shuffle(pair)
        at = rng.randint(0, len(letters))
        letters[at:at] = pair
    return SignedWord(tuple(letters))


class TestLargeWords:
    @pytest.mark.parametrize("kind", ["random", "kinks"])
    def test_criteria_agree_at_n200(self, kind):
        rng = random.Random(200)
        if kind == "kinks":
            w = _kink_word(200, rng)
        else:
            pool = [SignedLetter(f"s{i}", e) for i in range(200) for e in (1, -1)]
            rng.shuffle(pool)
            w = SignedWord(pool)
        pr = profile(P(w))
        geometric = summarize(P(w)).geometric
        assert pr.is_zero == geometric
        assert geometric == (kind == "kinks")
        syms = sorted(pr.alpha)
        assert len(syms) == 200
        assert all(v == -pr.beta[j, i] for (i, j), v in pr.beta.items())


class TestCriterionEquivalence:
    def test_exhaustive_small(self, words_le_3):
        for p in words_le_3:
            assert word_is_planar_homology(p) == is_geometric(p)


class TestPairing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("a -b / -a b", 0),
            ("a b / -a -b", 2),
            ("a / -a", 1),
            ("a b -b / -a", 1),
        ],
    )
    def test_spot_values(self, text, value):
        assert pairing(parse_paragraph(text)) == value

    def test_wrong_component_count(self):
        with pytest.raises(OperationError):
            pairing(parse_paragraph("a -a"))
        with pytest.raises(OperationError):
            pairing(parse_paragraph("a / -a b / -b"))

    def test_antisymmetry_on_corpus(self, paragraphs_le_3):
        for p in paragraphs_le_3:
            swapped = paragraph(reversed(words_of(p)))
            assert pairing(swapped) == -pairing(p)

    def test_null_pairing_on_geometric(self, paragraphs_le_3):
        from sgauss.surface import summarize

        for p in paragraphs_le_3:
            if summarize(p).genus == 0:
                assert pairing(p) == 0
