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

The sweep of :mod:`sgauss.verify` reads two verdicts of a word's profile,
whether it vanishes and whether beta is antisymmetric; ``_verdicts`` gives
both straight from the masks, over the n(n - 1)/2 pairs, in O(n / 64)
machine-word operations per pair.

``profile`` and the CLI need every entry, and build a whole row of beta at
once instead (``_packed``).  Each symbol gets a w-bit field of one integer,
w = 16 (32 once n >= 2^15), the fields in sorted-name order.  Read forward,
the closed segment of i is the letters from p_i to q_i, and a letter adds to
beta(i, j) for every j whose segment holds its partner: +1 for a +1 letter,
-1 for a -1 letter.  One pass records A, the packed set of symbols whose
segment holds the current letter, at every letter; a second pass sums, per
letter, A at its partner (negated at a -1 letter) into prefix rows P.  Row i
is then P[q_i + 1] - P[p_i], plus P[2n] when i's segment wraps, and its
field j is beta(i, j) (0 on the diagonal).  Each field lies in [-n, n], so
adding 2^(w - 1) to every field makes the row a plain base-2^w number, and
``struct`` decodes it into n ints in C.  A profile thus costs O(n^2 * w / 64)
machine-word operations for the passes and the rows, plus n^2 entries
decoded in C; the prefix rows take O(n^2 * w) bits, and a decoded row O(n).
``profile_rows`` gives the rows one at a time, which is how the CLI writes
the profile; ``profile`` collects them into its named dicts.
``word_is_planar_homology`` decodes nothing: the word is planar when every
alpha and every packed row is 0.  All three take a one-word
``SignedParagraph``, whose code they read as it is, and reject a paragraph
of more words.
"""

from __future__ import annotations

from typing import Iterator

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
    "profile_rows",
    "word_is_planar_homology",
    "pairing",
]

Row = tuple[int, ...]  # beta(i, j) for every j, in one order of the symbols


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


def profile_rows(p: SignedParagraph) -> tuple[list[str], list[int], Iterator[Row]]:
    """The profile of the one-word paragraph ``p`` a row at a time: its
    symbols in sorted order, their alpha values in that order, and an
    iterator of the beta rows in that order, row i holding beta(i, j) for
    every symbol j in that order (0 at j = i).  Raises OperationError, before
    any row is made, if ``p`` has more words."""
    _single_word(p)
    return _rows(p._code[0], p._names)


def _profile(word: tuple[int, ...], names, width: int = 0) -> IntersectionProfile:
    """The profile of a valid code word, symbol s being named ``names[s]``,
    collected from its rows (``_rows``)."""
    names, alphas, rows = _rows(word, names, width)
    betas = {(i, j): v for i, row in zip(names, rows) for j, v in zip(names, row) if i != j}
    return IntersectionProfile(dict(zip(names, alphas)), betas)


def _rows(
    word: tuple[int, ...], names, width: int = 0
) -> tuple[list[str], list[int], Iterator[Row]]:
    """``profile_rows`` of a valid code word, symbol s being named
    ``names[s]``, decoded from ``width``-bit fields (0: the least that
    holds them)."""
    import struct  # for the rows only: the package loads without it

    n = len(word) // 2
    order = sorted(range(n), key=names.__getitem__)
    width = width or _width(n)
    alphas, packed = _packed(word, order, width)
    # 2^(width - 1) in every field; XORed off again, it leaves each field
    # beta mod 2^width, which the signed format reads back as beta.
    bias = int.from_bytes((1 << width - 1).to_bytes(width // 8, "little") * n, "little")
    unpack = struct.Struct(f"<{n}{'h' if width == 16 else 'i'}").unpack
    size = n * width // 8
    rows = (unpack(((r + bias) ^ bias).to_bytes(size, "little")) for r in packed)
    return [names[s] for s in order], alphas, rows


def _width(n: int) -> int:
    """The bits of a row's field for n symbols: room for beta in [-n, n]
    with the bias 2^(w - 1) added."""
    return 16 if n < 1 << 15 else 32


def _packed(word: tuple[int, ...], order, width: int) -> tuple[list[int], Iterator[int]]:
    """alpha of each symbol of ``order`` and an iterator of their packed
    beta rows, symbol ``order[r]`` holding the ``width``-bit field r of
    every row."""
    at = [0] * len(word)
    for k, c in enumerate(word):
        at[c] = k
    unit = [0] * len(order)
    for r, s in enumerate(order):
        unit[s] = 1 << width * r
    # A: the symbols whose segment holds the current letter, at first those
    # whose segment wraps past the end of the word.  A symbol's segment
    # opens after its +1 letter and closes before its -1 letter.
    held = sum([unit[s] for s in range(len(unit)) if at[2 * s + 1] < at[2 * s]])
    holders = [0] * len(word)  # A at each letter, by letter
    exponent_sums = [0]  # E
    total = 0
    for c in word:
        if c & 1:
            held -= unit[c >> 1]
            holders[c] = held
            total -= 1
        else:
            holders[c] = held
            held += unit[c >> 1]
            total += 1
        exponent_sums.append(total)
    alphas = [exponent_sums[at[2 * s + 1]] - exponent_sums[at[2 * s] + 1] for s in order]
    prefix = [0]  # P
    summed = 0
    for c in word:
        if c & 1:
            summed -= holders[c ^ 1]
        else:
            summed += holders[c ^ 1]
        prefix.append(summed)
    del holders

    def rows() -> Iterator[int]:
        for s in order:
            p, q = at[2 * s], at[2 * s + 1]
            row = prefix[q + 1] - prefix[p]
            yield row + summed if q < p else row  # summed: P[2n]

    return alphas, rows()


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
    """Planarity by the vanishing of the whole intersection profile: every
    alpha and every packed beta row (``_packed``) is 0; nothing decoded, no
    named profile built."""
    _single_word(p)
    alphas, rows = _packed(p._code[0], range(p.n), _width(p.n))
    return not any(alphas) and not any(rows)


def pairing(p: SignedParagraph) -> int:
    """Intersection pairing of the two components of a 2-word paragraph."""
    if len(p._code) != 2:
        raise OperationError(f"pairing needs exactly 2 components, got {len(p._code)}")
    return _pairing(p._code)


def _pairing(code: Code) -> int:
    """The pairing of a two-word code: the exponent sum of its first word,
    since a symbol with both letters in that word contributes +1 - 1."""
    return len(code[0]) - 2 * sum(c & 1 for c in code[0])
