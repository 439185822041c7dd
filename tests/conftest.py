"""Shared fixtures, hypothesis strategies and independent helpers."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations, product

import pytest
from hypothesis import strategies as st

from letters import SignedLetter, SignedWord, paragraph, words_of
from sgauss.model import Code, SignedParagraph, ValidationError, _canonical, parse_paragraph
from sgauss.verify import KIND_PARAGRAPHS, KIND_WORDS, _codes_of_size, _paragraph

LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Arbitrary short text, and short text over the characters of the paragraph
# grammar (CR, tab, "_" and a digit among them).
TEXTS = st.one_of(
    st.text(max_size=80),
    st.text(alphabet="ab-/ ^1#\n\r\t_x", max_size=80),
)


def rotate(w: SignedWord, k: int) -> SignedWord:
    """Cyclic left shift by ``k``: rotate(w, len(w)) == w."""
    k %= len(w) or 1
    return SignedWord(w.letters[k:] + w.letters[:k])


@st.composite
def signed_words(draw, min_symbols=1, max_symbols=5) -> SignedWord:
    n = draw(st.integers(min_symbols, max_symbols))
    pool = [SignedLetter(LETTERS[i], e) for i in range(n) for e in (1, -1)]
    return SignedWord(tuple(draw(st.permutations(pool))))


@st.composite
def signed_paragraphs(draw, min_symbols=2, max_symbols=4) -> SignedParagraph:
    """Valid paragraphs with 1 or 2 components."""
    w = draw(signed_words(min_symbols, max_symbols))
    cut = draw(st.integers(0, len(w) - 1))
    if cut == 0:
        return paragraph((w,))
    try:
        return paragraph((w.letters[:cut], w.letters[cut:]))
    except ValidationError:
        return paragraph((w,))  # disconnected cut; fall back to the word


def addresses(p: SignedParagraph) -> dict[str, tuple[tuple[int, int], tuple[int, int]]]:
    """Symbol -> the (word, position) of its +1 and -1 letters, read off
    ``p._code``; a paragraph stores no letter addresses."""
    where = {c: (wi, k) for wi, w in enumerate(p._code) for k, c in enumerate(w)}
    return {s: (where[2 * i], where[2 * i + 1]) for i, s in enumerate(p._names)}


def naive_isomorphic(p: SignedParagraph, q: SignedParagraph) -> bool:
    """Brute-force isomorphism decision, independent of canonicalize.

    Searches for a word-order permutation and per-word rotations of q whose
    letter stream matches p under some consistent exponent-preserving symbol
    bijection.
    """
    p_words, q_words = words_of(p), words_of(q)
    if sorted(map(len, p_words)) != sorted(map(len, q_words)):
        return False
    target = [w.letters for w in p_words]
    m = len(q_words)
    for order in permutations(range(m)):
        ws = [q_words[i] for i in order]
        if [len(w) for w in ws] != [len(w) for w in p_words]:
            continue
        for rots in product(*(range(len(w)) for w in ws)):
            cand = [rotate(w, r).letters for w, r in zip(ws, rots)]
            mapping: dict[str, str] = {}
            used: set[str] = set()
            ok = True
            for tw, cw in zip(target, cand):
                for tl, cl in zip(tw, cw):
                    if tl.exp != cl.exp:
                        ok = False
                        break
                    bound = mapping.get(cl.sym)
                    if bound is None:
                        if tl.sym in used:
                            ok = False
                            break
                        mapping[cl.sym] = tl.sym
                        used.add(tl.sym)
                    elif bound != tl.sym:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


# Each code's canonical form, found once per test run: the oracle below
# compares one code with many.
_form = lru_cache(maxsize=None)(_canonical)


def canonical_isomorphic(a: Code, b: Code) -> bool:
    """Whether codes ``a`` and ``b`` are isomorphic, decided by canonical
    forms: equal word counts and equal ``_canonical`` codes.  It shares no
    code with the propagation in ``is_isomorphic``; factorial on stars."""
    return len(a) == len(b) and _form(a) == _form(b)


def symmetric_chain(k: int) -> SignedParagraph:
    """x_i y_i -x_{i+1} -y_i, i = 0..k-1 (cyclically)."""
    return parse_paragraph(
        " / ".join(f"x{i} y{i} -x{(i + 1) % k} -y{i}" for i in range(k))
    )


def star(k: int) -> SignedParagraph:
    """-x_i y_i (i < k) linked only through x_0 -y_0 ... x_{k-1} -y_{k-1}:
    interchangeable symbol-disjoint short words, the pruned search's worst
    case."""
    short = " / ".join(f"-x{i} y{i}" for i in range(k))
    return parse_paragraph(short + " / " + " ".join(f"x{i} -y{i}" for i in range(k)))


def symmetric_word(n: int) -> tuple[int, ...]:
    """The code of x1 .. xn -x1 .. -xn, whose n starts at a -1 letter tie
    for n letters."""
    return tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))


def random_word(rng: random.Random, n: int) -> tuple[int, ...]:
    letters = list(range(2 * n))
    rng.shuffle(letters)
    return tuple(letters)


def double_factorial_count(n: int) -> int:
    """(2n-1)!! * 2^n: closed-form size of the exactly-n word corpus."""
    out = 2**n
    for k in range(1, 2 * n, 2):
        out *= k
    return out


@pytest.fixture(scope="session")
def words_le_3() -> list[SignedParagraph]:
    return [_paragraph(c) for n in range(1, 4) for c in _codes_of_size(n, KIND_WORDS)]


@pytest.fixture(scope="session")
def words_le_4() -> list[SignedParagraph]:
    return [_paragraph(c) for n in range(1, 5) for c in _codes_of_size(n, KIND_WORDS)]


@pytest.fixture(scope="session")
def paragraphs_le_3() -> list[SignedParagraph]:
    return [_paragraph(c) for n in range(1, 4) for c in _codes_of_size(n, KIND_PARAGRAPHS)]


@pytest.fixture(scope="session")
def word_codes_le_5() -> list[tuple[int, ...]]:
    """The code word of every word with 1..5 symbols, 32,054 of them."""
    return [w for n in range(1, 6) for (w,) in _codes_of_size(n, KIND_WORDS)]


@pytest.fixture(scope="session")
def paragraph_codes_le_4() -> list[tuple[tuple[int, ...], ...]]:
    """Every two-component paragraph with 1..4 symbols, 11,722 codes."""
    return [c for n in range(1, 5) for c in _codes_of_size(n, KIND_PARAGRAPHS)]
