"""Structural operations: split a word at a crossing, join two components.

Splitting w = t . u . t^-1 . v at t yields the 2-component paragraph {u, v}.
Joining the two components that hold the letters of a shared symbol s, with
a fresh symbol f, produces

    s . u . f . s^-1 . v . f^-1

where u is the component of s^+1 rotated to start right after it and v the
component of s^-1 rotated to start right after it.  A join adds one
crossing, removes one component and preserves the minimal-realization
genus, so iterating it reduces any paragraph to a one-word paragraph of the
same genus (``reduce_to_word`` joins on the code and builds one paragraph).
Each operation finds a symbol's letters in the code and returns a paragraph
built from its code without validation; ``split`` takes a one-word
paragraph, as the word functions of :mod:`sgauss.homology` do.
"""

from __future__ import annotations

from itertools import count

from .model import (
    Code,
    OperationError,
    SignedParagraph,
    ValidationError,
    _check_token,
    _from_code,
    _single_word,
)

__all__ = ["split", "join", "reduce_to_word"]


def split(p: SignedParagraph, sym: str) -> SignedParagraph:
    """Cut the one-word paragraph ``p`` at ``sym`` into the 2-component
    paragraph {u, v}.

    Raises ``OperationError`` if ``p`` has more words or either part is
    empty (the occurrences of ``sym`` are adjacent), and ``ValidationError``
    if the parts share no symbol.
    """
    _single_word(p)
    if sym not in p._names:
        raise OperationError(f"symbol {sym!r} does not occur in {p}")
    s = p._names.index(sym)
    word = p._code[0]
    pos = word.index(2 * s)
    k = (word.index(2 * s + 1) - pos) % len(word)
    # From sym's +1 letter, its -1 being letter k; the symbols after sym
    # move down one number.
    letters = [c - 2 if c > 2 * s + 1 else c for c in word[pos:] + word[:pos]]
    parts = tuple(letters[1:k]), tuple(letters[k + 1 :])
    if not parts[0] or not parts[1]:
        raise OperationError(
            f"splitting at {sym!r} leaves an empty component (adjacent occurrences)"
        )
    # The parts are a valid code but for whether they share a symbol.
    if {c >> 1 for c in parts[0]}.isdisjoint(c >> 1 for c in parts[1]):
        raise ValidationError(
            ValidationError.DISCONNECTED,
            "word 2 shares no symbols with the rest of the paragraph",
            where=(1, 0),
        )
    return _from_code(parts, p._names[:s] + p._names[s + 1 :])


def join(p: SignedParagraph, shared: str, fresh: str) -> SignedParagraph:
    """Merge the two components of ``p`` that hold the letters of
    ``shared``, inserting the new crossing ``fresh``.

    Which component holds the +1 letter is immaterial (the roles swap).
    The merged word replaces the earlier of the two components.
    """
    if shared not in p._names:
        raise OperationError(f"symbol {shared!r} not in paragraph")
    s = p._names.index(shared)
    plus, minus = _find(p._code, 2 * s), _find(p._code, 2 * s + 1)
    if plus[0] == minus[0]:
        raise OperationError(
            f"symbol {shared!r} occurs twice in one component; nothing to join"
        )
    _check_token("fresh symbol", fresh)
    if fresh in p._names:
        raise OperationError(f"fresh symbol {fresh!r} collides with the alphabet")
    return _from_code(_join_code(p._code, plus, minus, p.n), (*p._names, fresh))


def _find(code: Code, c: int) -> tuple[int, int]:
    """The (word, position) of letter ``c``, which occurs in ``code``."""
    for wi, w in enumerate(code):
        if c in w:
            return wi, w.index(c)


def _join_code(code: Code, plus: tuple, minus: tuple, fresh: int) -> Code:
    """``code`` with the words holding the (word, position) addresses
    ``plus`` and ``minus`` of one symbol's letters merged at that symbol,
    the new crossing being symbol index ``fresh``."""
    (i, k), (j, m) = plus, minus
    w1, w2 = code[i], code[j]
    merged = w1[k:] + w1[:k] + (2 * fresh,) + w2[m:] + w2[:m] + (2 * fresh + 1,)
    lo, hi = min(i, j), max(i, j)
    return code[:lo] + (merged,) + code[lo + 1 : hi] + code[hi + 1 :]


def reduce_to_word(p: SignedParagraph, prefix: str = "j") -> SignedParagraph:
    """Join components onto the first one until a single word remains, and
    return that one-word paragraph.

    Each step joins at the lexicographically least symbol with exactly one
    letter in the first component, adding a crossing named by the next
    ``prefix + k`` (k >= 1) not among the names of ``p``.  ``prefix`` must
    be a valid symbol token even when ``p`` is already one word; the result
    has the same genus as ``p``.
    """
    _check_token("prefix", prefix)
    if len(p._code) == 1:
        return p
    code, names, taken = p._code, list(p._names), set(p._names)
    fresh = (f for k in count(1) if (f := f"{prefix}{k}") not in taken)
    # The symbols with one letter in the first word: each word joined onto
    # it flips those it has one letter of (a +1 or a -1 letter, not both).
    first, w = set(), code[0]
    while True:
        first ^= {c >> 1 for c in w if c & 1} ^ {c >> 1 for c in w if not c & 1}
        if len(code) == 1:
            return _from_code(code, names)
        s = min(first, key=names.__getitem__)
        plus, minus = _find(code, 2 * s), _find(code, 2 * s + 1)
        w = code[plus[0] or minus[0]]
        code = _join_code(code, plus, minus, len(names))
        names.append(next(fresh))
