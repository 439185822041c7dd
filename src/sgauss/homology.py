"""Homological planarity test for signed Gauss words.

Cutting a word w open at a symbol a gives w = a . seg . a^-1 . rest: a's
segment ``seg`` is read forward from the +1 occurrence.  Exponent sums over
such segments compute intersection numbers of the curve and its split-off
loops on the minimal realization surface:

* alpha(a) sums the exponents of the letters of a's segment;
* beta(i, j), for i != j, sums exponents over the intersection of the
  closed letter set of i's segment (the segment plus i itself, both signs)
  with the inverted letter set of j's segment; the diagonal is zero by
  convention;
* the two-component pairing sums p over letters a^p occurring in the first
  word whose inverse occurs in the second.

The word is realizable in the plane exactly when every alpha and beta entry
vanishes; this must agree with the boundary-walk count of
:mod:`sgauss.surface` on every valid word, and the two computations share no
code.

Each signed letter occurs once in a valid word, so a segment is fully
described by two symbol bitmasks, Sp[j] of the symbols whose +1 letter lies
in j's segment and Sm[j] of those whose -1 letter does.  The segments run on
the word's integer code (``SignedParagraph._code``), symbol s having bit
1 << s: one pass keeps prefix masks of the +1 and -1 letters seen so far and
the prefix exponent sum E.  With p and q the positions of j and j^-1, Sp[j]
is the XOR of the + prefix masks just after p and just before q (XORed once
more with the all-symbols mask when q < p, where the segment wraps),
likewise Sm[j]; alpha(j) = E[q] - E[p + 1] in both cases, as E sums to 0
over the word.  Then, with bit_i the bit of i,

    beta(i, j) = ((Sp[i] | bit_i) & Sm[j]).bit_count()
               - ((Sm[i] | bit_i) & Sp[j]).bit_count().

A profile of a word with n symbols therefore costs O(n) for the pass and n^2
entries of O(n / 64) machine-word operations each.  The sweep of
:mod:`sgauss.verify` reads two verdicts of a word's profile, whether it
vanishes and whether beta is antisymmetric; ``_verdicts`` gives both
straight from the masks, over the n(n - 1)/2 pairs, without the names and
the (name, name)-keyed dict that ``profile`` builds.  ``profile`` gives
every entry at once: alpha of every symbol and beta of every ordered pair of
distinct symbols.  It and ``word_is_planar_homology`` take a one-word
``SignedParagraph``, whose code they read as it is, and reject a paragraph
of more words.
"""

from __future__ import annotations

from .model import (
    Code,
    OperationError,
    SignedParagraph,
    _single_word,
    _Value,
)

__all__ = [
    "IntersectionProfile",
    "profile",
    "word_is_planar_homology",
    "pairing",
]


def _segments(word: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """One pass over a valid code word: per symbol index, (Sp, Sm, alpha)."""
    # (position, + mask, - mask, exponent sum) of the prefix just after a
    # symbol's +1 letter and of the prefix just before its -1 letter.
    ends: list = [None] * len(word)
    seen_plus = seen_minus = total = 0
    for k, c in enumerate(word):
        if c & 1:
            ends[c] = (k, seen_plus, seen_minus, total)
            seen_minus |= 1 << (c >> 1)
            total -= 1
        else:
            seen_plus |= 1 << (c >> 1)
            total += 1
            ends[c] = (k, seen_plus, seen_minus, total)
    segs = []
    for s in range(len(word) // 2):
        p, p0, m0, e0 = ends[2 * s]
        q, p1, m1, e1 = ends[2 * s + 1]
        if q < p:  # the segment wraps past the end of the word
            p1 ^= seen_plus
            m1 ^= seen_minus
        segs.append((p0 ^ p1, m0 ^ m1, e1 - e0))
    return segs


class IntersectionProfile(_Value):
    """All alpha values and off-diagonal beta values of a word.

    ``profile`` fills ``alpha`` in sorted symbol order and ``beta`` in sorted
    (i, j) order, and ``as_dict`` keeps that order.
    """

    _fields = __match_args__ = ("alpha", "beta")

    @property
    def is_zero(self) -> bool:
        return not any(self.alpha.values()) and not any(self.beta.values())

    def as_dict(self) -> dict:
        return {
            "alpha": dict(self.alpha),
            "beta": [[i, j, v] for (i, j), v in self.beta.items()],
            "planar": self.is_zero,
        }


def profile(p: SignedParagraph) -> IntersectionProfile:
    """alpha for every symbol and beta for every ordered pair of distinct
    symbols of the one-word paragraph ``p``; raises OperationError if it
    has more words."""
    _single_word(p)
    return _profile(p._code[0], p._names)


def _profile(word: tuple[int, ...], names) -> IntersectionProfile:
    """The profile of a valid code word, symbol s being named ``names[s]``."""
    segs = _segments(word)
    order = sorted(range(len(segs)), key=names.__getitem__)
    alphas = {names[s]: segs[s][2] for s in order}
    columns = [(names[s], *segs[s][:2]) for s in order]
    rows = [(i, sp | 1 << s, sm | 1 << s) for (i, sp, sm), s in zip(columns, order)]
    betas = {
        (i, j): (closed_plus & sm).bit_count() - (closed_minus & sp).bit_count()
        for i, closed_plus, closed_minus in rows
        for j, sp, sm in columns
        if i != j
    }
    return IntersectionProfile(alphas, betas)


def _verdicts(word: tuple[int, ...]) -> tuple[bool, bool]:
    """(whether the profile vanishes, whether beta is antisymmetric) for a
    valid code word, from its segment masks: ``_profile(word, names)``'s
    ``is_zero`` and ``beta[i, j] == -beta[j, i]`` for every pair, with no
    names and no dicts."""
    segs = _segments(word)
    zero = not any([seg[2] for seg in segs])
    antisymmetric = True
    rows = [(sp | 1 << s, sm | 1 << s, sp, sm) for s, (sp, sm, _) in enumerate(segs)]
    for i, (closed_plus_i, closed_minus_i, sp_i, sm_i) in enumerate(rows):
        for closed_plus_j, closed_minus_j, sp_j, sm_j in rows[i + 1 :]:
            ij = (closed_plus_i & sm_j).bit_count() - (closed_minus_i & sp_j).bit_count()
            ji = (closed_plus_j & sm_i).bit_count() - (closed_minus_j & sp_i).bit_count()
            zero = zero and not (ij or ji)
            antisymmetric = antisymmetric and ij == -ji
    return zero, antisymmetric


def word_is_planar_homology(p: SignedParagraph) -> bool:
    """Planarity by the vanishing of the whole intersection profile,
    decided from its masks (``_verdicts``), no named profile built."""
    _single_word(p)
    return _verdicts(p._code[0])[0]


def pairing(p: SignedParagraph) -> int:
    """Intersection pairing of the two components of a 2-word paragraph."""
    if len(p._code) != 2:
        raise OperationError(f"pairing needs exactly 2 components, got {len(p._code)}")
    return _pairing(p._code)


def _pairing(code: Code) -> int:
    """The pairing of a two-word code: the exponent sum of its first word,
    since a symbol with both letters in that word contributes +1 - 1."""
    return len(code[0]) - 2 * sum(c & 1 for c in code[0])
