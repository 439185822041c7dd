"""The single-pass kernels against their two-pass oracles (``twopass.py``):
``model._canonical_word``, ``model._canonical_search`` and
``surface._faces`` must return exactly what the oracles return, the face
orbits in the same order and each from the same dart.  ``verify._reverses``
must give the verdict of walking the mirror's circles and comparing them
with the object's read backwards (``twopass._backwards``), on the mirror
and on broken ones."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import twopass
from conftest import random_word, star, symmetric_chain, symmetric_word
from sgauss.model import _canonical_search, _canonical_word
from sgauss.surface import _faces, _mirror, _quads, _table
from sgauss.verify import KIND_PARAGRAPHS, _codes_of_size, _reverses


@pytest.fixture(scope="module")
def paragraph_codes_le_4():
    """Every two-component paragraph with 1..4 symbols, 11,722 codes."""
    return [c for n in range(1, 5) for c in _codes_of_size(n, KIND_PARAGRAPHS)]


def same_faces(code):
    quads = _quads(code)
    for q in (quads, _mirror(quads)):
        assert _faces(_table(q)) == twopass.faces(q)
    same_mirror_verdicts(quads)


def same_mirror_verdicts(quads):
    """The table identity against the walk on the mirror quads and on three
    broken ones (unreversed, one quad rotated by a slot, two slots of one
    quad swapped), all permutations: the same verdict on each.  A repeated
    dart, which is not a permutation, fails the identity."""
    succ = _table(quads)
    backwards = twopass._backwards(_faces(_table(quads)))
    mirror = _mirror(quads)
    (a, b, c, d), rest = mirror[0], mirror[1:]
    assert _faces(_table(mirror)) == backwards
    for m in [mirror, quads, [(b, c, d, a), *rest], [(b, a, c, d), *rest]]:
        assert _reverses(succ, _table(m)) == (_faces(_table(m)) == backwards)
    assert not _reverses(succ, _table([(a, a, c, d), *rest]))


def same_everything(code):
    assert _canonical_search(code) == twopass.canonical_search(code)
    if len(code) == 1:
        assert _canonical_word(code[0]) == twopass.canonical_word(code[0])
    same_faces(code)


@st.composite
def codes(draw, max_symbols=8, max_words=4):
    """Any code: the 2n letters in a random order, cut into 1..k words."""
    n = draw(st.integers(1, max_symbols))
    letters = draw(st.permutations(range(2 * n)))
    k = draw(st.integers(1, min(max_words, 2 * n)))
    cuts = sorted(draw(st.sets(st.integers(1, 2 * n - 1), min_size=k - 1, max_size=k - 1)))
    bounds = zip([0, *cuts], [*cuts, 2 * n])
    return tuple(tuple(letters[a:b]) for a, b in bounds)


class TestExhaustive:
    def test_every_word_up_to_5(self, word_codes_le_5):
        assert len(word_codes_le_5) == 32054
        for w in word_codes_le_5:
            same_everything((w,))

    def test_every_two_component_paragraph_up_to_4(self, paragraph_codes_le_4):
        assert len(paragraph_codes_le_4) == 11722
        for code in paragraph_codes_le_4:
            same_everything(code)


class TestFamilies:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_chains_and_stars(self, k):
        same_everything(symmetric_chain(k)._code)
        same_everything(star(k)._code)

    def test_symmetric_words_up_to_200(self):
        # x1 .. xn -x1 .. -xn: n starts tie for n letters.
        for n in range(1, 201):
            same_everything((symmetric_word(n),))

    @pytest.mark.parametrize("n", [50, 100, 200, 400])
    def test_random_words(self, n):
        rng = random.Random(1700 + n)
        for _ in range(3):
            same_everything((random_word(rng, n),))


class TestHypothesis:
    @given(codes())
    def test_codes(self, code):
        same_everything(code)

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.tuples(*[st.integers(0, 4 * n - 1)] * 4), min_size=n, max_size=n
            )
        )
    )
    def test_faces_on_any_table(self, quads):
        # Also a table that is not a permutation: both walks stop at the
        # first dart already visited.
        assert _faces(_table(quads)) == twopass.faces(quads)

    @given(codes())
    def test_mirror_table_not_a_permutation(self, code):
        # The mirror table with any one entry changed, or with a quad more,
        # which the walk on the mirror would also reject.
        quads = _quads(code)
        succ, mirror = _table(quads), _table(_mirror(quads))
        size = len(mirror)
        for k in range(size):
            broken = mirror.copy()
            broken[k] = (broken[k] + 1) % size
            assert not _reverses(succ, broken)
        extra = (size, size + 1, size + 2, size + 3)
        assert not _reverses(succ, _table([*_mirror(quads), extra]))
