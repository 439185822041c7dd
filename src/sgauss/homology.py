"""Homological planarity test for signed Gauss words.

Cutting a word w open at a symbol a gives w = a . seg . a^-1 . rest: ``seg``
(here ``segment_of``) is read forward from the +1 occurrence.  Exponent sums
over such segments compute intersection numbers of the curve and its
split-off loops on the minimal realization surface:

* alpha(w, a) sums the exponents of the letters of a's segment;
* beta(w, i, j) sums exponents over the intersection of the closed letter
  set of i's segment (the segment plus i itself, both signs) with the
  inverted letter set of j's segment;
* the two-component pairing sums p over letters a^p occurring in the first
  word whose inverse occurs in the second.

The word is realizable in the plane exactly when every alpha and beta entry
vanishes; this must agree with the boundary-walk count of
:mod:`sgauss.surface` on every valid word, and the two computations share no
code.

Each signed letter occurs once in a valid word, so a segment is fully
described by two symbol bitmasks, Sp[j] of the symbols whose +1 letter lies
in j's segment and Sm[j] of those whose -1 letter does.  One pass over the
word validates it, gives every symbol a bit, and keeps prefix masks of the +1
and -1 letters seen so far and the prefix exponent sum E.  With p and q the
positions of j and j^-1, Sp[j] is the XOR of the + prefix masks just after p
and just before q (XORed once more with the all-symbols mask when q < p,
where the segment wraps), likewise Sm[j]; alpha(j) = E[q] - E[p + 1] in both
cases, as E sums to 0 over the word.  Then, with bit_i the bit of i,

    beta(i, j) = ((Sp[i] | bit_i) & Sm[j]).bit_count()
               - ((Sm[i] | bit_i) & Sp[j]).bit_count().

A profile of a word with n symbols therefore costs O(n) for the pass and n^2
entries of O(n / 64) machine-word operations each.  ``segment_of``, ``alpha``
and ``beta`` make the same pass, so each call costs O(n) and rejects a word
that is not a valid standalone word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    POSITIVE,
    Code,
    OperationError,
    SignedLetter,
    SignedParagraph,
    SignedWord,
    _code,
)

__all__ = [
    "segment_of",
    "alpha",
    "beta",
    "IntersectionProfile",
    "profile",
    "word_is_planar_homology",
    "pairing",
]


def _segments(w: SignedWord, *required: str) -> dict[str, tuple[int, ...]]:
    """One pass over ``w``: per symbol, (bit, Sp, Sm, alpha, p, q) with p and q
    the positions of its +1 and -1 letters.  Raises OperationError unless
    every symbol occurs exactly once with each exponent and every
    ``required`` symbol occurs."""
    bit: dict[str, int] = {}
    # (position, + mask, - mask, exponent sum) of the prefix just after a
    # symbol's +1 letter and of the prefix just before its -1 letter.
    opened: dict[str, tuple[int, int, int, int]] = {}
    closed: dict[str, tuple[int, int, int, int]] = {}
    seen_plus = seen_minus = total = 0
    for k, l in enumerate(w.letters):
        sym = l.sym
        b = bit.setdefault(sym, 1 << len(bit))
        if l.exp == POSITIVE:
            if sym in opened:
                raise _not_standalone(w)
            seen_plus |= b
            total += 1
            opened[sym] = (k, seen_plus, seen_minus, total)
        else:
            if sym in closed:
                raise _not_standalone(w)
            closed[sym] = (k, seen_plus, seen_minus, total)
            seen_minus |= b
            total -= 1
    if not len(opened) == len(closed) == len(bit):
        raise _not_standalone(w)
    for sym in required:
        if sym not in bit:
            raise OperationError(f"symbol {sym!r} does not occur in {w}")
    segs = {}
    for sym, b in bit.items():
        p, p0, m0, e0 = opened[sym]
        q, p1, m1, e1 = closed[sym]
        if q < p:  # the segment wraps past the end of the word
            p1 ^= seen_plus
            m1 ^= seen_minus
        segs[sym] = (b, p0 ^ p1, m0 ^ m1, e1 - e0, p, q)
    return segs


def _not_standalone(w: SignedWord) -> OperationError:
    return OperationError(f"{w!r} is not a valid standalone word")


def segment_of(w: SignedWord, sym: str) -> tuple[SignedLetter, ...]:
    """Letters strictly between sym's +1 and -1 occurrences, read forward
    cyclically from the +1 occurrence.  Rotation-invariant.  ``w`` must be a
    valid standalone word."""
    p, q = _segments(w, sym)[sym][4:]
    if p < q:
        return w.letters[p + 1 : q]
    return w.letters[p + 1 :] + w.letters[:q]


def alpha(w: SignedWord, sym: str) -> int:
    """Exponent sum over the letters of sym's segment."""
    return _segments(w, sym)[sym][3]


def beta(w: SignedWord, i: str, j: str) -> int:
    """Exponent sum over the closed letter set of i's segment intersected
    with the inverted letter set of j's segment; zero on the diagonal by
    convention."""
    segs = _segments(w, i, j)
    if i == j:
        return 0
    b, sp_i, sm_i = segs[i][:3]
    _, sp_j, sm_j = segs[j][:3]
    return ((sp_i | b) & sm_j).bit_count() - ((sm_i | b) & sp_j).bit_count()


@dataclass(frozen=True)
class IntersectionProfile:
    """All alpha values and off-diagonal beta values of a word."""

    alpha: dict[str, int]
    beta: dict[tuple[str, str], int]

    def beta_of(self, i: str, j: str) -> int:
        return 0 if i == j else self.beta[(i, j)]

    @property
    def is_zero(self) -> bool:
        return not any(self.alpha.values()) and not any(self.beta.values())

    def as_dict(self) -> dict:
        return {
            "alpha": {s: v for s, v in sorted(self.alpha.items())},
            "beta": [[i, j, v] for (i, j), v in sorted(self.beta.items())],
            "planar": self.is_zero,
        }


def profile(w: SignedWord) -> IntersectionProfile:
    """alpha for every symbol and beta for every ordered pair of ``w``."""
    segs = _segments(w)
    syms = sorted(segs)
    alphas = {s: segs[s][3] for s in syms}
    columns = [(j, *segs[j][1:3]) for j in syms]
    rows = [(i, sp | segs[i][0], sm | segs[i][0]) for i, sp, sm in columns]
    betas = {
        (i, j): (closed_plus & sm).bit_count() - (closed_minus & sp).bit_count()
        for i, closed_plus, closed_minus in rows
        for j, sp, sm in columns
        if i != j
    }
    return IntersectionProfile(alphas, betas)


def word_is_planar_homology(w: SignedWord) -> bool:
    """Planarity by the vanishing of the whole intersection profile."""
    return profile(w).is_zero


def pairing(p: SignedParagraph) -> int:
    """Intersection pairing of the two components of a 2-word paragraph."""
    if len(p.words) != 2:
        raise OperationError(
            f"pairing needs exactly 2 components, got {len(p.words)}"
        )
    return _pairing(_code(p)[0])


def _pairing(code: Code) -> int:
    """The pairing of a two-word code: the exponent sum of its first word,
    since a symbol with both letters in that word contributes +1 - 1."""
    return len(code[0]) - 2 * sum(c & 1 for c in code[0])
