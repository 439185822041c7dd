"""Structural operations: split a word at a crossing, join two components.

Splitting w = t . u . t^-1 . v at t yields the 2-component paragraph {u, v}.
Joining two components at a shared symbol s with a fresh symbol f produces

    s . u . f . s^-1 . v . f^-1

where u is the first component rotated to start right after s^+1 and v the
second rotated to start right after s^-1.  A join adds one crossing, removes
one component and preserves the minimal-realization genus, so iterating it
reduces any paragraph to a single word of the same genus
(``reduce_to_word``).
"""

from __future__ import annotations

from .model import (
    Code,
    OperationError,
    SignedParagraph,
    SignedWord,
    SYMBOL_RE,
    _check_connected,
    _from_code,
)

__all__ = ["split", "join", "reduce_to_word", "fresh_symbol"]


def split(w: SignedWord | SignedParagraph, sym: str) -> SignedParagraph:
    """Cut the valid standalone word ``w`` (a word, or a one-word paragraph)
    at ``sym`` into the 2-component paragraph {u, v}.

    Raises ``OperationError`` if either part is empty (the occurrences of
    ``sym`` are adjacent) and ``ValidationError`` if ``w`` is not a valid
    word or the parts share no symbol.
    """
    p = w if isinstance(w, SignedParagraph) else SignedParagraph((w,))
    if len(p._code) != 1:
        raise OperationError(f"split needs a single word, got {len(p._code)} words")
    if sym not in p._index:
        raise OperationError(f"symbol {sym!r} does not occur in {p}")
    s = p._index[sym]
    word = p._code[0]
    pos = p._where[2 * s][1]
    k = (p._where[2 * s + 1][1] - pos) % len(word)
    # From sym's +1 letter, its -1 being letter k; the symbols after sym
    # move down one number.
    letters = [c - 2 if c > 2 * s + 1 else c for c in word[pos:] + word[:pos]]
    first, second = tuple(letters[1:k]), tuple(letters[k + 1 :])
    if not first or not second:
        raise OperationError(
            f"splitting at {sym!r} leaves an empty component (adjacent occurrences)"
        )
    parts = _from_code((first, second), p._names[:s] + p._names[s + 1 :])
    _check_connected(2, parts._where)
    return parts


def join(
    p: SignedParagraph, c1: int, c2: int, shared: str, fresh: str
) -> SignedParagraph:
    """Merge components ``c1`` and ``c2`` of ``p`` at ``shared``, inserting
    the new crossing ``fresh``.

    ``shared`` must have one occurrence in each of the two components; which
    one holds the +1 occurrence is immaterial (the roles swap).  The merged
    word replaces the earlier of the two components.
    """
    m = len(p._code)
    if not (0 <= c1 < m and 0 <= c2 < m) or c1 == c2:
        raise OperationError(f"bad component indices ({c1}, {c2}) for {m} words")
    pos, neg = p.occurrences(shared)
    if {pos.word, neg.word} != {c1, c2}:
        raise OperationError(
            f"symbol {shared!r} is not shared between components {c1} and {c2}"
        )
    if not SYMBOL_RE.fullmatch(fresh):
        raise OperationError(f"fresh symbol {fresh!r} is not a valid symbol token")
    if fresh in p._index:
        raise OperationError(f"fresh symbol {fresh!r} collides with the alphabet")
    merged = _join_code(p._code, (pos.word, pos.pos), (neg.word, neg.pos), p.n)
    return _from_code(merged, (*p._names, fresh))


def _join_code(code: Code, plus: tuple, minus: tuple, fresh: int) -> Code:
    """``code`` with the words holding the (word, position) addresses
    ``plus`` and ``minus`` of one symbol's letters merged at that symbol,
    the new crossing being symbol index ``fresh``."""
    (i, k), (j, m) = plus, minus
    w1, w2 = code[i], code[j]
    merged = w1[k:] + w1[:k] + (2 * fresh,) + w2[m:] + w2[:m] + (2 * fresh + 1,)
    lo, hi = min(i, j), max(i, j)
    return code[:lo] + (merged,) + code[lo + 1 : hi] + code[hi + 1 :]


def fresh_symbol(alphabet: frozenset[str], prefix: str = "j") -> str:
    """Smallest ``prefix + k`` (k >= 1) not already in the alphabet."""
    if not SYMBOL_RE.fullmatch(prefix):
        raise OperationError(f"prefix {prefix!r} is not a valid symbol token")
    k = 1
    while f"{prefix}{k}" in alphabet:
        k += 1
    return f"{prefix}{k}"


def reduce_to_word(p: SignedParagraph, prefix: str = "j") -> SignedWord:
    """Join components onto the first one until a single word remains.

    Each step uses the lexicographically least symbol shared between the
    first component and any other, with fresh symbols generated
    deterministically from ``prefix``; the result has the same genus as
    ``p``.
    """
    return _reduce(p, prefix).words[0]


def _reduce(p: SignedParagraph, prefix: str) -> SignedParagraph:
    """``reduce_to_word(p, prefix)`` as a one-word paragraph."""
    while len(p._code) > 1:
        candidates = []
        for sym, s in p._index.items():
            plus, minus = p._where[2 * s][0], p._where[2 * s + 1][0]
            if plus != minus and 0 in (plus, minus):
                candidates.append((sym, max(plus, minus)))
        shared, other = min(candidates)
        p = join(p, 0, other, shared, fresh_symbol(p.alphabet, prefix))
    return p
