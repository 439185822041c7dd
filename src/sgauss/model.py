"""Signed Gauss words and paragraphs.

A signed Gauss paragraph is a finite list of nonempty cyclic words over an
alphabet of crossing symbols, where every symbol occurs exactly twice in the
whole paragraph, once with exponent +1 and once with exponent -1.  A one-word
paragraph is a signed Gauss word.  This module parses, renders, validates and
canonicalizes these objects; everything downstream (surface building, the
intersection profile, the transforms) consumes them.

Text grammar::

    PARAGRAPH := WORD (("/" | NEWLINE) WORD)*
    WORD      := LETTER+
    LETTER    := ["-"] SYMBOL | SYMBOL "^-1"
    SYMBOL    := [A-Za-z][A-Za-z0-9_]*

"#" starts a comment running to end of line; whitespace separates tokens and
"/" is self-delimiting.  Blank lines are ignored, but an explicit "/" with no
word on one side is an error.

``parse_paragraph`` reads each line with one regular-expression scan
(``_SCAN``) whose every match is a "/", a letter already split into its
sign, symbol and "^-1" suffix, or a bad token; each letter goes straight
into its word, and the words are validated once, by ``SignedParagraph``.
The parser keeps no positions: only when it fails does ``_token_at`` scan
the text again, up to the offending token, for the error's line and column.

A paragraph also holds its integer code, filled by the same pass that
validates it: ``_index`` numbers the symbols 0..n-1 (by first appearance),
``_code`` is a tuple of words, each a tuple of ints 2 * symbol + (exp == -1),
and ``_where`` maps a letter code to its (word, position).  The canonical
search, the ribbon graph, the joins, the pairing and the exhaustive verifier
run on codes; ``_from_code`` turns a code the package built back into a
paragraph, filling the same fields without validation.  The canonical form
is the least (word lengths, first-appearance letter stream) over every word
order and rotation (``_canonical``).

All values are immutable after construction and safe to share between
threads; operations never mutate their inputs.
"""

from __future__ import annotations

import json
import re
import string
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "GaussError",
    "ParseError",
    "ValidationError",
    "OperationError",
    "Occurrence",
    "SignedLetter",
    "SignedWord",
    "SignedParagraph",
    "parse_paragraph",
    "render",
    "rotate",
    "relabel",
    "canonicalize",
    "is_isomorphic",
    "check_pairwise",
]


class GaussError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(GaussError):
    """Lexical error in paragraph text (1-based line/column)."""

    kind = "syntax"

    def __init__(self, message: str, line: int, col: int):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class ValidationError(GaussError):
    """A structurally invalid paragraph.

    ``kind`` distinguishes the failure: SYMBOL_COUNT (a symbol does not occur
    exactly twice), EQUAL_EXPONENTS (twice with the same sign), EMPTY_WORD,
    DISCONNECTED (the word-sharing graph is not connected) or PAIRWISE (the
    optional strict check).  ``where`` is a (word index, position) pair when
    the failure is attributable to one letter; the parser additionally fills
    ``line``/``col`` from the offending token.
    """

    SYMBOL_COUNT = "symbol-count"
    EQUAL_EXPONENTS = "equal-exponents"
    EMPTY_WORD = "empty-word"
    DISCONNECTED = "disconnected"
    PAIRWISE = "pairwise"

    def __init__(
        self,
        kind: str,
        message: str,
        where: tuple[int, int] | None = None,
        line: int | None = None,
        col: int | None = None,
    ):
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.where = where
        self.line = line
        self.col = col

    def __str__(self) -> str:
        if self.line is not None:
            return f"{self.line}:{self.col}: {self.message}"
        return self.message


class OperationError(GaussError):
    """Precondition failure of an operation (absent symbol, bad component...)."""


POSITIVE = 1
NEGATIVE = -1


class Occurrence(NamedTuple):
    """One of the two appearances of a symbol: its sign and address."""

    sym: str
    exp: int
    word: int
    pos: int


@dataclass(frozen=True, slots=True)
class SignedLetter:
    """A crossing symbol traversed with exponent +1 or -1."""

    sym: str
    exp: int

    def __post_init__(self):
        if self.exp not in (POSITIVE, NEGATIVE):
            raise ValueError(f"exponent must be +1 or -1, got {self.exp!r}")

    def inverse(self) -> SignedLetter:
        return SignedLetter(self.sym, -self.exp)

    def __str__(self) -> str:
        return self.sym if self.exp == POSITIVE else f"-{self.sym}"

    def __repr__(self) -> str:
        return f"SignedLetter({str(self)!r})"


@dataclass(frozen=True, slots=True)
class SignedWord:
    """A cyclically-ordered sequence of signed letters.

    The stored sequence is a fixed representative; cyclic rotations of it
    describe the same closed curve and are identified by ``canonicalize``.
    """

    letters: tuple[SignedLetter, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[SignedLetter]:
        return iter(self.letters)

    def __getitem__(self, i: int) -> SignedLetter:
        return self.letters[i]

    def at(self, i: int) -> SignedLetter:
        """Letter at cyclic position ``i`` (any integer)."""
        return self.letters[i % len(self.letters)]

    def symbols(self) -> frozenset[str]:
        return frozenset(l.sym for l in self.letters)

    def find(self, sym: str, exp: int) -> int:
        """Position of the occurrence of ``sym`` with exponent ``exp``."""
        for i, l in enumerate(self.letters):
            if l.sym == sym and l.exp == exp:
                return i
        raise OperationError(f"symbol {sym!r} has no exponent-{exp:+d} occurrence in {self}")

    def as_paragraph(self) -> SignedParagraph:
        return SignedParagraph((self,))

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.letters)

    def __repr__(self) -> str:
        return f"SignedWord({str(self)!r})"


Code = tuple[tuple[int, ...], ...]


@dataclass(frozen=True, slots=True)
class SignedParagraph:
    """A validated signed Gauss paragraph.

    Construction validates the three structural invariants (every symbol
    exactly twice with opposite exponents, no empty word, connected sharing
    graph) and raises :class:`ValidationError` otherwise.  The validating
    pass also stores the integer code: ``_index`` (symbol -> number),
    ``_code`` (the words as letter codes 2 * number + (exp == -1)) and
    ``_where`` (letter code -> (word, position)).
    """

    words: tuple[SignedWord, ...]
    alphabet: frozenset[str] = field(init=False, repr=False, compare=False)
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _code: Code = field(init=False, repr=False, compare=False)
    _where: list[tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        words = tuple(
            w if isinstance(w, SignedWord) else SignedWord(tuple(w)) for w in self.words
        )
        _fill(self, words, *_validate(words))

    @property
    def n(self) -> int:
        """Number of crossing symbols."""
        return len(self._index)

    def occurrence(self, sym: str, exp: int) -> Occurrence:
        try:
            c = 2 * self._index[sym] + (exp == NEGATIVE)
        except KeyError:
            raise OperationError(f"symbol {sym!r} not in paragraph") from None
        return Occurrence(sym, exp, *self._where[c])

    def occurrences(self, sym: str) -> tuple[Occurrence, Occurrence]:
        """The (+1, -1) occurrence pair of ``sym``."""
        return self.occurrence(sym, POSITIVE), self.occurrence(sym, NEGATIVE)

    def __str__(self) -> str:
        return " / ".join(str(w) for w in self.words)

    def __repr__(self) -> str:
        return f"SignedParagraph({str(self)!r})"


def _fill(p: SignedParagraph, words, index: dict[str, int], code: Code, where):
    object.__setattr__(p, "words", words)
    object.__setattr__(p, "alphabet", frozenset(index))
    object.__setattr__(p, "_index", index)
    object.__setattr__(p, "_code", code)
    object.__setattr__(p, "_where", where)
    return p


def _letter_table(names: Iterable[str]) -> list[SignedLetter]:
    """Letter code -> letter: 2i is ``names[i]``, 2i + 1 its inverse."""
    return [SignedLetter(s, e) for s in names for e in (POSITIVE, NEGATIVE)]


def _from_code(code: Code, table: Sequence[SignedLetter]) -> SignedParagraph:
    """The paragraph of a code that is valid by construction, its letters
    looked up in ``table``; symbol i keeps number i, and nothing is checked."""
    where: list = [None] * sum(map(len, code))
    for wi, w in enumerate(code):
        for k, c in enumerate(w):
            where[c] = (wi, k)
    words = tuple(SignedWord(tuple(table[c] for c in w)) for w in code)
    index = {table[2 * i].sym: i for i in range(len(where) // 2)}
    return _fill(object.__new__(SignedParagraph), words, index, code, where)


def _validate(words: tuple[SignedWord, ...]) -> tuple[dict[str, int], Code, list]:
    """One pass over ``words``: the symbol numbering by first appearance, the
    code and the letter addresses, or the first structural failure."""
    if not words:
        raise ValidationError(ValidationError.EMPTY_WORD, "empty paragraph")
    index: dict[str, int] = {}
    where: list = []
    code = []
    for wi, w in enumerate(words):
        if len(w) == 0:
            raise ValidationError(
                ValidationError.EMPTY_WORD, f"word {wi + 1} is empty", where=(wi, 0)
            )
        cw = []
        for i, l in enumerate(w.letters):
            s = index.get(l.sym)
            if s is None:
                s = index[l.sym] = len(index)
                where += (None, None)
            c = 2 * s + (l.exp == NEGATIVE)
            if where[c] is not None:
                if where[c ^ 1] is not None:
                    raise ValidationError(
                        ValidationError.SYMBOL_COUNT,
                        f"symbol {l.sym!r} occurs more than twice",
                        where=(wi, i),
                    )
                raise ValidationError(
                    ValidationError.EQUAL_EXPONENTS,
                    f"symbol {l.sym!r} occurs twice with exponent {l.exp:+d}",
                    where=(wi, i),
                )
            where[c] = (wi, i)
            cw.append(c)
        code.append(tuple(cw))
    for sym, s in index.items():
        if where[2 * s] is None or where[2 * s + 1] is None:
            raise ValidationError(
                ValidationError.SYMBOL_COUNT,
                f"symbol {sym!r} occurs once, expected twice",
                where=where[2 * s] or where[2 * s + 1],
            )
    if len(words) > 1:
        _check_connected(len(words), where)
    return index, tuple(code), where


def _check_connected(m: int, where: list) -> None:
    # Union-find over word indices; a symbol whose letters sit in two
    # different words links them.
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (plus, _), (minus, _) in zip(where[0::2], where[1::2]):
        parent[find(plus)] = find(minus)
    root = find(0)
    for wi in range(m):
        if find(wi) != root:
            raise ValidationError(
                ValidationError.DISCONNECTED,
                f"word {wi + 1} shares no symbols with the rest of the paragraph",
                where=(wi, 0),
            )


def check_pairwise(p: SignedParagraph) -> None:
    """Strict sharing check: every pair of words must share a symbol.

    Connectivity of the sharing graph is what ordinary validation enforces;
    this raises ``ValidationError(PAIRWISE)`` when any two words are
    symbol-disjoint.
    """
    linked = {
        (min(plus, minus), max(plus, minus))
        for (plus, _), (minus, _) in zip(p._where[0::2], p._where[1::2])
    }
    m = len(p.words)
    for i in range(m):
        for j in range(i + 1, m):
            if (i, j) not in linked:
                raise ValidationError(
                    ValidationError.PAIRWISE,
                    f"words {i + 1} and {j + 1} share no symbols",
                    where=(j, 0),
                )


# --- parsing ---------------------------------------------------------------

SYMBOL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# One match per token: "/" (group 1), a letter (its "-", symbol and "^-1" in
# groups 2-4; the lookahead makes it the whole token), or a bad token.
_SCAN = re.compile(r"(/)|(-)?([A-Za-z][A-Za-z0-9_]*)(\^-1)?(?![^\s/])|[^\s/]+")


def parse_paragraph(text: str, *, pairwise: bool = False) -> SignedParagraph:
    """Parse paragraph text into a validated :class:`SignedParagraph`.

    Raises :class:`ParseError` on bad tokens and :class:`ValidationError`
    (with the offending token's line/column) on structural failures.  With
    ``pairwise=True`` additionally requires every pair of words to share a
    symbol.
    """
    words: list[SignedWord] = []
    cur: list[SignedLetter] = []
    slash = ""  # the last token's "/" group: set when no word follows a "/"
    for raw in text.splitlines():
        for slash, minus, sym, inverse in _SCAN.findall(raw.split("#", 1)[0]):
            if sym and not (minus and inverse):
                exp = NEGATIVE if minus or inverse else POSITIVE
                cur.append(SignedLetter(sym, exp))
            elif slash and cur:
                words.append(SignedWord(tuple(cur)))
                cur = []
            else:  # a bad token, or a "/" after no word
                raise _lexical_error(text, len(words), len(cur))
        if cur:
            words.append(SignedWord(tuple(cur)))
            cur = []
    if slash:
        raise _lexical_error(text, len(words) - 1, len(words[-1]))
    if not words:
        raise ValidationError(
            ValidationError.EMPTY_WORD, "empty paragraph", line=1, col=1
        )
    try:
        p = SignedParagraph(tuple(words))
        if pairwise:
            check_pairwise(p)
    except ValidationError as e:
        if e.where is not None and e.line is None:
            m, e.line = _token_at(text, *e.where)
            e.col = m.start() + 1
        raise
    return p


def _token_at(text: str, word: int, pos: int) -> tuple[re.Match, int]:
    """The match and line number of the token at (word, pos) in text that
    parses up to it: letter i of a word is at (word, i), and a "/" after
    the word's letters at (word, its length).  Run on the error path only."""
    w = k = 0
    for line, raw in enumerate(text.splitlines(), start=1):
        for m in _SCAN.finditer(raw.split("#", 1)[0]):
            if w == word and k == pos:
                return m, line
            if m[1]:
                w, k = w + 1, 0
            else:
                k += 1
        if k:
            w, k = w + 1, 0
    raise ValueError(f"no token at word {word}, position {pos}")


def _lexical_error(text: str, word: int, pos: int) -> GaussError:
    """The error for the token at (word, pos): a "/" with no word before or
    after it, or a token that is not a letter."""
    m, line = _token_at(text, word, pos)
    if m[1]:
        return ValidationError(
            ValidationError.EMPTY_WORD, "empty word", line=line, col=m.start() + 1
        )
    return ParseError(f"bad token {m[0]!r}", line, m.start() + 1)


def render(p: SignedParagraph, format: str = "text") -> str:
    """Render a paragraph as text (parses back to an equal paragraph) or JSON."""
    if format == "text":
        return str(p)
    if format == "json":
        return json.dumps(paragraph_dict(p))
    raise ValueError(f"unknown format {format!r}")


def paragraph_dict(p: SignedParagraph) -> dict:
    return {"words": [[{"sym": l.sym, "exp": l.exp} for l in w] for w in p.words]}


# --- isomorphism moves and canonical form ----------------------------------


def rotate(w: SignedWord, k: int) -> SignedWord:
    """Cyclic left shift by ``k``: rotate(w, len(w)) == w."""
    if not len(w):
        return w
    k %= len(w)
    return SignedWord(w.letters[k:] + w.letters[:k])


def relabel(p: SignedParagraph, mapping: dict[str, str]) -> SignedParagraph:
    """Exponent-preserving change of alphabet; ``mapping`` must be injective."""
    if len(set(mapping.values())) != len(mapping):
        raise OperationError("relabeling is not injective")
    words = tuple(
        SignedWord(tuple(SignedLetter(mapping.get(l.sym, l.sym), l.exp) for l in w))
        for w in p.words
    )
    return SignedParagraph(words)


def _canonical_name(i: int) -> str:
    return string.ascii_lowercase[i] if i < 26 else f"s{i}"


def canonicalize(p: SignedParagraph) -> SignedParagraph:
    """The least representative of the isomorphism class of ``p``
    (``_canonical``), its symbols named a, b, ... in order of appearance.
    Idempotent, and equal for any two isomorphic paragraphs."""
    canonical = _canonical(p._code)
    names = [_canonical_name(i) for i in range(p.n)]
    return _from_code(canonical, _letter_table(names))


def _canonical(code: Code) -> Code:
    """The canonical code of ``code``: its words in ascending length give the
    least (word lengths, letter stream) over word order x per-word rotation
    x first-appearance relabeling, with exponent -1 < +1, symbol i being the
    i-th to appear.

    Word lengths compare first, so words are taken in ascending length.  The
    search is breadth-first over the letter stream: every live candidate (a
    word order and rotations chosen so far) has emitted the same least prefix,
    hence assigned the same number of first-appearance ids, so its next
    letter, keyed ``2 * ids.get(sym, next_id) + (exp == +1)``, compares
    directly with the others', and only the candidates with the least next
    letter survive.  A candidate that finishes a word branches into every
    unused word of the next length at every rotation.  The cost is
    near-linear on random words, O(L^2) on a fully symmetric word of length
    L (``x1 .. xn -x1 .. -xn``, where n rotations tie for n letters), and
    factorial only when many interchangeable words tie for long, as in a
    star of symbol-disjoint short words linked through one long word.
    """
    # Letters with the exponent bit flipped, so that -1 keys below +1; each
    # word doubled, so rotation r of a word of length L is doubled[r : r + L].
    doubled = [tuple(c ^ 1 for c in w) * 2 for w in code]
    lengths = sorted(map(len, code))
    words: list[tuple[int, ...]] = []
    next_id = 0
    # A candidate: (its symbol -> id map, mask of used words, word, rotation).
    live: list[tuple[dict[int, int], int, tuple, int]] = [({}, 0, (), 0)]
    for length in lengths:
        live = [
            (ids, used | 1 << wi, w, r)
            for ids, used, _, _ in live
            for wi, w in enumerate(doubled)
            if len(w) == 2 * length and not used >> wi & 1
            for r in range(length)
        ]
        stream: list[int] = []  # of this word
        for pos in range(length):
            if len(live) == 1:
                # One candidate left: the rest of its word is the stream.
                ids, _, w, r = live[0]
                for x in w[r + pos : r + length]:
                    i = ids.get(x >> 1)
                    if i is None:
                        i = ids[x >> 1] = next_id
                        next_id += 1
                    stream.append(2 * i + (x & 1) ^ 1)
                break
            keys = [
                2 * ids.get((x := w[r + pos]) >> 1, next_id) + (x & 1)
                for ids, _, w, r in live
            ]
            least = min(keys)
            live = [c for c, key in zip(live, keys) if key == least]
            if pos == 0:
                # Branches share their parent's map until they survive.
                live = [(dict(ids), used, w, r) for ids, used, w, r in live]
            if least >> 1 == next_id:
                for ids, _, w, r in live:
                    ids[w[r + pos] >> 1] = next_id
                next_id += 1
            stream.append(least ^ 1)
        words.append(tuple(stream))
    return tuple(words)


def is_isomorphic(p: SignedParagraph, q: SignedParagraph) -> bool:
    """Whether two paragraphs differ only by rotations, relabeling and word order."""
    if len(p.words) != len(q.words) or p.n != q.n:
        return False
    return _canonical(p._code) == _canonical(q._code)
