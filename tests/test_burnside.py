"""Burnside's count of the classes of signed words, against ``--dedupe``.

Up to the names of its symbols, a signed word with n symbols is a perfect
matching of its 2n cyclic positions with a sign at each position, +1 at one
end of every chord and -1 at the other.  Written as the tuple of (sign,
offset to the partner) per position, it is left alone by a relabeling, and
a rotation of the word rotates the tuple.  So the classes of words are the
orbits of the 2n rotations on these tuples, and by Burnside their number is
the mean, over the rotations, of the tuples that each one fixes.

No package kernel is imported: a ``_canonical`` that merges or splits
classes, which ``canonical-idempotence`` cannot see, shows here as a
number of distinct canonical forms that differs from the count.
"""

from __future__ import annotations

from collections import Counter

import pytest

from sgauss.verify import CorpusSpec, enumerate_corpus

CLASSES = {1: 1, 2: 4, 3: 22, 4: 218, 5: 3028}


def matchings(free: tuple[int, ...]):
    """The perfect matchings of the ``free`` positions, as lists of pairs."""
    if not free:
        yield []
        return
    first, rest = free[0], free[1:]
    for i, other in enumerate(rest):
        for chords in matchings(rest[:i] + rest[i + 1 :]):
            yield [(first, other), *chords]


def signed_words(n: int):
    """Every signed word with n symbols up to relabeling, as the tuple of
    (sign, (partner - position) mod 2n) at each position."""
    size = 2 * n
    for chords in matchings(tuple(range(size))):
        for signs in range(2**n):
            word = [None] * size
            for k, (i, j) in enumerate(chords):
                sign = -1 if signs >> k & 1 else 1
                word[i] = (sign, (j - i) % size)
                word[j] = (-sign, (i - j) % size)
            yield tuple(word)


def burnside(n: int) -> int:
    """The number of rotation orbits of ``signed_words(n)``."""
    size = 2 * n
    fixed = sum(w[r:] + w[:r] == w for w in signed_words(n) for r in range(size))
    assert fixed % size == 0
    return fixed // size


@pytest.fixture(scope="module")
def counts() -> dict[int, int]:
    return {n: burnside(n) for n in CLASSES}


def test_burnside_counts(counts):
    assert counts == CLASSES


def test_dedupe_has_one_form_per_class(counts):
    forms = Counter(p.n for p in enumerate_corpus(CorpusSpec(max(CLASSES), dedupe=True)))
    assert dict(sorted(forms.items())) == counts
