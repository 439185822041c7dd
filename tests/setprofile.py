"""Set-based intersection profile used as the test oracle for the bitmask kernel.

This is the direct transcription of the alpha/beta definitions:

* a symbol's segment is the run of letters strictly between its +1 and -1
  occurrences, read forward cyclically from the +1 occurrence, found by a
  linear scan of the word;
* alpha(w, a) sums the exponents of the letters of a's segment;
* beta(w, i, j) sums exponents over the intersection of the closed letter
  set of i's segment (the segment plus i itself, both signs) with the
  inverted letter set of j's segment.

Every entry is rebuilt from frozensets of signed letters, so a profile costs
O(n^3); it shares nothing with :mod:`sgauss.homology` beyond the result type,
which is the point.
"""

from __future__ import annotations

from letters import SignedLetter, SignedWord
from sgauss.homology import IntersectionProfile
from sgauss.model import NEGATIVE, POSITIVE, OperationError


def _position(w: SignedWord, sym: str, exp: int) -> int:
    for i, l in enumerate(w):
        if l.sym == sym and l.exp == exp:
            return i
    raise OperationError(f"symbol {sym!r} has no exponent-{exp:+d} letter in {w}")


def _positions(w: SignedWord, sym: str) -> tuple[int, int]:
    return _position(w, sym, POSITIVE), _position(w, sym, NEGATIVE)


def segment_of(w: SignedWord, sym: str) -> tuple[SignedLetter, ...]:
    """Letters strictly between sym's +1 and -1 occurrences, read forward
    cyclically from the +1 occurrence."""
    pos, neg = _positions(w, sym)
    out = []
    i = (pos + 1) % len(w)
    while i != neg:
        out.append(w[i])
        i = (i + 1) % len(w)
    return tuple(out)


def letter_set(w: SignedWord, sym: str) -> frozenset[SignedLetter]:
    """The signed letters occurring in sym's segment."""
    return frozenset(segment_of(w, sym))


def closed_letter_set(w: SignedWord, sym: str) -> frozenset[SignedLetter]:
    """The segment letters together with sym itself, both signs."""
    return letter_set(w, sym) | {
        SignedLetter(sym, POSITIVE),
        SignedLetter(sym, NEGATIVE),
    }


def inverse_set(letters: frozenset[SignedLetter]) -> frozenset[SignedLetter]:
    """Elementwise inverse; an involution."""
    return frozenset(l.inverse() for l in letters)


def alpha(w: SignedWord, sym: str) -> int:
    """Exponent sum over the distinct letters of sym's segment."""
    return sum(l.exp for l in letter_set(w, sym))


def beta(w: SignedWord, i: str, j: str) -> int:
    """Exponent sum over closed_letter_set(i) & inverse_set(letter_set(j));
    zero on the diagonal by convention."""
    if i == j:
        _positions(w, i)  # still require presence
        return 0
    common = closed_letter_set(w, i) & inverse_set(letter_set(w, j))
    return sum(l.exp for l in common)


def profile(w: SignedWord) -> IntersectionProfile:
    """alpha for every symbol and beta for every ordered pair of ``w``."""
    syms = sorted({l.sym for l in w})
    if 2 * len(syms) != len(w):
        raise OperationError(f"{w!r} is not a valid standalone word")
    for s in syms:
        _positions(w, s)  # both signs must be present
    alphas = {s: alpha(w, s) for s in syms}
    betas = {(i, j): beta(w, i, j) for i in syms for j in syms if i != j}
    return IntersectionProfile(alphas, betas)
