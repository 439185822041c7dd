"""Split, join and reduce-to-word."""

from __future__ import annotations

import pytest

from conftest import LETTERS, addresses
from sgauss.model import (
    OperationError,
    SignedParagraph,
    ValidationError,
    _from_code,
    _validate,
    parse_paragraph,
    render,
)
from sgauss.surface import summarize
from sgauss.transforms import fresh_symbol, join, reduce_to_word, split


def P(text: str):
    return parse_paragraph(text)


class TestSplit:
    def test_torus_word(self):
        assert render(split(P("a b -a -b"), "a")) == "b / -b"

    def test_other_orientation(self):
        assert render(split(P("a -b -a b"), "a")) == "-b / b"

    def test_adjacent_occurrences_error(self):
        with pytest.raises(OperationError):
            split(P("a -a b -b"), "a")

    def test_missing_symbol(self):
        with pytest.raises(OperationError):
            split(P("a -a"), "z")

    def test_disconnected_result_rejected(self):
        # Splitting here isolates the kinks: the parts share nothing.
        with pytest.raises(ValidationError) as exc:
            split(P("t b -b -t c -c"), "t")
        assert exc.value.kind == ValidationError.DISCONNECTED
        assert exc.value.where == (1, 0)
        assert str(exc.value) == "word 2 shares no symbols with the rest of the paragraph"

    def test_parts_are_not_revalidated(self, monkeypatch):
        # Only the connectivity of the parts is in doubt; the validation
        # hook, which constructors run, is not called.
        p, q = P("t b -b c -t -c"), P("t b -b -t c -c")
        calls = []
        monkeypatch.setattr(SignedParagraph, "__post_init__", lambda self: calls.append(self))
        assert render(split(p, "t")) == "b -b c / -c"
        with pytest.raises(ValidationError):
            split(q, "t")
        assert calls == []

    def test_both_occurrences_may_land_in_one_part(self):
        p = split(P("t b -b c -t -c"), "t")
        assert render(p) == "b -b c / -c"

    def test_several_words_rejected(self):
        with pytest.raises(
            OperationError, match="^expected a single-word paragraph, got 2 words$"
        ):
            split(P("a -b / -a b"), "a")

    def test_raises_component_count(self):
        assert len(split(P("a b -a -b"), "b")._code) == 2


class TestSplitAgainstValidate:
    """``split`` tests only whether the parts share a symbol; full
    validation of the parts must give the same paragraph or error."""

    def test_every_word_up_to_5(self, word_codes_le_5):
        splits = errors = 0
        for w in word_codes_le_5:
            names = tuple(LETTERS[: len(w) // 2])
            p = _from_code((w,), names)
            for s, sym in enumerate(names):
                i, j = w.index(2 * s), w.index(2 * s + 1)
                # The letters strictly between sym's two, each way round.
                u = (w + w)[i + 1 : j if i < j else j + len(w)]
                v = (w + w)[j + 1 : i if j < i else i + len(w)]
                if not u or not v:
                    continue
                parts = tuple(tuple(c - 2 * (c > 2 * s + 1) for c in part) for part in (u, v))
                rest = names[:s] + names[s + 1 :]
                splits += 1
                try:
                    _validate(parts, rest)
                except ValidationError as e:
                    errors += 1
                    try:
                        split(p, sym)
                    except ValidationError as got:
                        assert vars(got) == vars(e), (w, sym)
                    else:
                        raise AssertionError(f"no error splitting {w} at {sym}")
                else:
                    q = split(p, sym)
                    assert (q._code, q._names) == (parts, rest), (w, sym)
        assert (splits, errors) == (122624, 6648)


class TestJoin:
    def test_planar_pair(self):
        p = P("a -b / -a b")
        assert render(join(p, "a", "c")) == "a -b c -a b -c"

    def test_torus_pair(self):
        p = P("a b / -a -b")
        assert render(join(p, "a", "c")) == "a b c -a -b -c"

    def test_roles_swap_when_negative_first(self):
        p = P("-a b / a -b")
        assert render(join(p, "a", "c")) == "a -b c -a b -c"

    def test_fresh_collision(self):
        with pytest.raises(OperationError):
            join(P("a -b / -a b"), "a", "a")
        with pytest.raises(OperationError):
            join(P("a -b / -a b"), "a", "b")

    def test_fresh_must_be_token(self):
        with pytest.raises(OperationError):
            join(P("a -b / -a b"), "a", "9bad")

    def test_fresh_not_a_string(self):
        match = "^fresh symbol None is not a valid symbol token$"
        with pytest.raises(OperationError, match=match):
            join(P("a b / -a -b"), "a", None)

    def test_not_shared(self):
        p = P("a b -b / -a")
        with pytest.raises(OperationError, match="occurs twice in one component"):
            join(p, "b", "c")

    def test_absent_symbol(self):
        with pytest.raises(OperationError, match="symbol 'z' not in paragraph"):
            join(P("a -b / -a b"), "z", "c")

    def test_joins_the_components_holding_the_symbol(self):
        # b links words 2 and 3; word 1 is left alone, and the merged word
        # takes the place of word 2.
        p = P("a -a c / b -c / -b")
        assert render(join(p, "b", "x")) == "a -a c / b -c x -b -x"

    def test_component_count_drops_by_one(self):
        p = P("a / -a b / -b")
        q = join(p, "a", "c")
        assert len(q._code) == 2

    def test_alphabet_gains_fresh(self):
        q = join(P("a -b / -a b"), "a", "c")
        assert q.alphabet == {"a", "b", "c"}


class TestReduce:
    def test_single_word_unchanged(self):
        p = P("a b -a -b")
        assert reduce_to_word(p) is p

    def test_one_join_step(self):
        w = reduce_to_word(P("a -b / -a b"))
        assert isinstance(w, SignedParagraph)
        assert str(w) == "a -b j1 -a b -j1"

    def test_prefix_collision_skipped(self):
        # Least shared symbol is b; the fresh counter skips the taken j1.
        p = P("j1 -b / -j1 b")
        w = reduce_to_word(p)
        assert str(w) == "b -j1 j2 -b j1 -j2"

    def test_three_components(self):
        p = P("a / -a b / -b")
        w = reduce_to_word(p)
        assert len(p._code) == 3  # input untouched
        assert len(w._code) == 1
        assert summarize(w).genus == summarize(p).genus

    def test_joins_onto_the_first_component(self):
        # The least symbol linking two words is a, between words 2 and 3;
        # the first step must use x, the least one shared with word 1.
        p = P("x -y / y -a / a -x")
        assert str(reduce_to_word(p)) == "a -j1 x -y j1 -x j2 -a y -j2"

    @pytest.mark.parametrize("text", ["a -b c -a b -c", "a -b / -a b"])
    def test_prefix_validated_before_any_join(self, text):
        # A one-word paragraph needs no join, and its prefix is checked all
        # the same.
        with pytest.raises(OperationError, match="^prefix '9' is not a valid symbol token$"):
            reduce_to_word(P(text), "9")

    def test_genus_preserved_on_examples(self):
        for text in ("a -b / -a b", "a b / -a -b", "a / -a"):
            p = P(text)
            assert summarize(reduce_to_word(p)).genus == summarize(p).genus


class TestFreshSymbol:
    def test_smallest_unused(self):
        assert fresh_symbol(frozenset({"a"}), "j") == "j1"
        assert fresh_symbol(frozenset({"j1", "j2"}), "j") == "j3"

    def test_prefix_validated(self):
        with pytest.raises(OperationError):
            fresh_symbol(frozenset(), "8x")

    def test_prefix_not_a_string(self):
        with pytest.raises(OperationError, match="^prefix 7 is not a valid symbol token$"):
            fresh_symbol(frozenset(), 7)


class TestCorpusProperties:
    def test_join_preserves_genus(self, paragraphs_le_3):
        for p in paragraphs_le_3:
            s = summarize(p)
            for sym, (plus, minus) in sorted(addresses(p).items()):
                if plus[0] == minus[0]:
                    continue
                sj = summarize(join(p, sym, fresh_symbol(p.alphabet, "z")))
                assert sj.genus == s.genus

    def test_join_shifts_circles_by_one(self, paragraphs_le_3):
        shifts = set()
        for p in paragraphs_le_3:
            s = summarize(p)
            for sym, (plus, minus) in sorted(addresses(p).items()):
                if plus[0] == minus[0]:
                    continue
                sj = summarize(join(p, sym, fresh_symbol(p.alphabet, "z")))
                shifts.add(sj.b - s.b)
        assert shifts == {1}

    def test_split_then_reduce_preserves_split_genus(self, words_le_3):
        # Joining back preserves the genus of the split paragraph.  It need
        # not recover the genus of the original word: smoothing a crossing
        # can lower the minimal genus (see the counterexample below).
        for p in words_le_3:
            for sym in sorted(p.alphabet):
                try:
                    parts = split(p, sym)
                except (OperationError, ValidationError):
                    continue
                assert summarize(reduce_to_word(parts)).genus == summarize(parts).genus

    def test_split_can_lower_genus(self):
        w = P("b a -c -b -a c")
        assert summarize(w).genus == 1
        parts = split(w, "b")
        assert render(parts) == "a -c / -a c"
        assert summarize(parts).genus == 0
        assert summarize(reduce_to_word(parts)).genus == 0
