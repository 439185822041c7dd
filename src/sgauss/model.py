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

A paragraph is stored as its symbol names and its integer code, and
nothing else: ``_names`` lists the symbols by number, and ``_code`` is a
tuple of words, each a tuple of ints 2 * symbol + (exp == -1).  There is no
letter or word object: an operation that needs a symbol's letters finds
them in the code.  The canonical search, the ribbon graph, the joins, the
pairing, the renderers and the exhaustive verifier run on codes;
``_from_code`` turns a code the package built, with its symbol names, back
into a paragraph without validation.  The canonical form is the least (word
lengths, first-appearance letter stream) over every word order and rotation
(``_canonical``).

``parse_paragraph`` splits each line into tokens with ``str.split`` and
numbers each letter's symbol by first appearance as it goes, so the text
becomes the code in one pass; one match of ``_NAMES`` then checks every
symbol name at once.  ``SignedParagraph.__post_init__`` is the one
validator, which the parser runs on the parsed code.  Only when parsing
fails does the text get scanned again, token by token with ``_SCAN``
(``_tokens``), for the error's token, line and column.

All values are immutable after construction and safe to share between
threads; operations never mutate their inputs.
"""

from __future__ import annotations

import re
from itertools import chain, combinations
from typing import Iterator, Sequence

__all__ = [
    "GaussError",
    "ParseError",
    "ValidationError",
    "OperationError",
    "SignedParagraph",
    "parse_paragraph",
    "render",
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
# The names of the first 26 symbols of a canonical form and of the sweep.
LETTERS = "abcdefghijklmnopqrstuvwxyz"


_set = object.__setattr__


class _Record:
    """Fields by name, as in a dataclass: ``__init__`` binds its arguments
    to ``__match_args__`` (with ``_defaults``), sets them and calls the
    validation hook ``__post_init__``; ``==`` and ``repr`` go by ``_fields``,
    the same names unless a subclass has its own ``__init__``.  Unhashable."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args))
            values = {**self._defaults, **given, **kwargs}
            if len(args) > len(names) or given.keys() & kwargs or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__}() takes {', '.join(names)}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        # From a list: a generator expression takes about twice as long.
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class _Value(_Record):
    """An immutable record: hashed by its fields, which cannot be assigned or
    deleted (dataclasses, slower to import than this package, loads only
    then), and pickled and copied by calling the class on them."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


Code = tuple[tuple[int, ...], ...]


class SignedParagraph(_Value):
    """A validated signed Gauss paragraph.

    A paragraph is stored as its integer code: ``_names`` (symbol number ->
    name, numbered by first appearance when parsed) and ``_code`` (the
    words as letter codes 2 * number + (exp == -1)).  It is made only by
    ``parse_paragraph`` from text and by the package's operations from
    codes they built (``_from_code``); calling the class raises
    ``TypeError``.  ``__post_init__`` is the validator that the parser runs:
    it checks the three structural invariants (every symbol exactly twice
    with opposite exponents, no empty word, connected sharing graph) and
    raises :class:`ValidationError` otherwise.  Two paragraphs are equal iff
    they have the same words, that is the same text: a symbol name is one
    token of the grammar.
    """

    __slots__ = ("_names", "_code")

    def __init__(self, *args, **kwargs):
        raise TypeError("SignedParagraph() cannot be called; use parse_paragraph(text)")

    def __post_init__(self):
        """Validate the code."""
        _validate(self._code, self._names)

    def _values(self) -> tuple:
        return (str(self),)

    @property
    def alphabet(self) -> frozenset[str]:
        return frozenset(self._names)

    @property
    def n(self) -> int:
        """Number of crossing symbols."""
        return len(self._names)

    def __reduce__(self):
        return _from_code, (self._code, self._names)

    def __str__(self) -> str:
        tokens = [t for s in self._names for t in (s, "-" + s)]
        return " / ".join(" ".join(map(tokens.__getitem__, w)) for w in self._code)

    def __repr__(self) -> str:
        return f"SignedParagraph({str(self)!r})"


def _from_code(code: Code, names: Sequence[str]) -> SignedParagraph:
    """The paragraph of ``code``, symbol i keeping number i and the name
    ``names[i]``, one name per symbol; nothing is checked, so the code is
    valid by construction or the caller validates it."""
    p = object.__new__(SignedParagraph)
    _set(p, "_names", tuple(names))
    _set(p, "_code", code)
    return p


def _single_word(p: SignedParagraph) -> None:
    """Raise ``OperationError`` unless ``p`` holds one word."""
    if len(p._code) != 1:
        raise OperationError(f"expected a single-word paragraph, got {len(p._code)} words")


def _links(code: Code) -> set[tuple[int, int]]:
    """The pairs (i, j), i <= j, of words of ``code`` holding one symbol's letters."""
    word = [0] * sum(map(len, code))
    for wi, w in enumerate(code):
        for c in w:
            word[c] = wi
    return {(i, j) if i <= j else (j, i) for i, j in zip(word[0::2], word[1::2])}


def _validate(code: Code, names: Sequence[str]) -> None:
    """Raise the first structural failure of ``code``, whose letters are all
    below 2 * len(names).  A code whose letters each occur once passes one set
    comparison; only one that fails it is scanned for its first failure."""
    size = 2 * len(names)
    letters = list(chain.from_iterable(code))
    if not (size and all(code) and len(letters) == size == len(set(letters))):
        if not code:
            raise ValidationError(ValidationError.EMPTY_WORD, "empty paragraph")
        where: list = [None] * size
        for wi, w in enumerate(code):
            if not w:
                raise ValidationError(
                    ValidationError.EMPTY_WORD, f"word {wi + 1} is empty", where=(wi, 0)
                )
            for i, c in enumerate(w):
                if where[c] is not None:
                    sym = names[c >> 1]
                    if where[c ^ 1] is not None:
                        raise ValidationError(
                            ValidationError.SYMBOL_COUNT,
                            f"symbol {sym!r} occurs more than twice",
                            where=(wi, i),
                        )
                    raise ValidationError(
                        ValidationError.EQUAL_EXPONENTS,
                        f"symbol {sym!r} occurs twice with exponent {1 - 2 * (c & 1):+d}",
                        where=(wi, i),
                    )
                where[c] = (wi, i)
        s = where.index(None) >> 1
        raise ValidationError(
            ValidationError.SYMBOL_COUNT,
            f"symbol {names[s]!r} occurs once, expected twice",
            where=where[2 * s] or where[2 * s + 1],
        )
    if len(code) == 1:
        return
    # Union-find over word indices, linking each pair of words that holds a symbol.
    parent = list(range(len(code)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in _links(code):
        parent[find(a)] = find(b)
    for wi in range(len(code)):
        if find(wi) != find(0):
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
    linked = _links(p._code)
    for i, j in combinations(range(len(p._code)), 2):
        if (i, j) not in linked:
            raise ValidationError(
                ValidationError.PAIRWISE,
                f"words {i + 1} and {j + 1} share no symbols",
                where=(j, 0),
            )


# --- parsing ---------------------------------------------------------------

SYMBOL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# Symbol names, each ended by a newline: every name of a text in one match.
_NAMES = re.compile(rf"(?:{SYMBOL_RE.pattern}\n)*")
# One match per token: "/" (group 1), a letter (its "-", symbol and "^-1" in
# groups 2-4; the lookahead makes it the whole token), or a bad token.
_SCAN = re.compile(rf"(/)|(-)?({SYMBOL_RE.pattern})(\^-1)?(?![^\s/])|[^\s/]+")


def _check_token(what: str, name: str) -> None:
    if not (isinstance(name, str) and SYMBOL_RE.fullmatch(name)):
        raise OperationError(f"{what} {name!r} is not a valid symbol token")


def parse_paragraph(text: str, *, pairwise: bool = False) -> SignedParagraph:
    """Parse paragraph text into a validated :class:`SignedParagraph`.

    Raises :class:`ParseError` on bad tokens and :class:`ValidationError`
    (with the offending token's line/column) on structural failures.  With
    ``pairwise=True`` additionally requires every pair of words to share a
    symbol.
    """
    index: dict[str, int] = {}
    number = index.setdefault
    code: list[tuple[int, ...]] = []
    cur: list[int] = []
    slash = False  # whether the last token was a "/"
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].replace("/", " / ").split()
        for tok in tokens:
            if tok[0] == "-":
                cur.append(2 * number(tok[1:], len(index)) + 1)
            elif tok == "/":
                if not cur:
                    raise _lexical_error(text)
                code.append(tuple(cur))
                cur = []
            elif tok.endswith("^-1"):
                cur.append(2 * number(tok[:-3], len(index)) + 1)
            else:
                cur.append(2 * number(tok, len(index)))
        if tokens:
            slash = tokens[-1] == "/"
        if cur:
            code.append(tuple(cur))
            cur = []
    names = tuple(index)
    # The token checks: no "/" ends the text, and the "-" and "^-1" taken
    # off every letter leave a symbol.
    if slash or not _NAMES.fullmatch("\n".join((*names, ""))):
        raise _lexical_error(text)
    if not code:
        raise ValidationError(
            ValidationError.EMPTY_WORD, "empty paragraph", line=1, col=1
        )
    p = _from_code(tuple(code), names)
    try:
        p.__post_init__()
        if pairwise:
            check_pairwise(p)
    except ValidationError as e:
        if e.where is not None and e.line is None:
            m, e.line = _token_at(text, *e.where)
            e.col = m.start() + 1
        raise
    return p


def _tokens(text: str) -> Iterator[tuple[re.Match, int, int, int]]:
    """Every token of ``text`` as (match, line, word, position): letter i of
    a word is at (word, i), and a "/" after the word's letters at (word, its
    length).  Run on the error path only."""
    w = k = 0
    for line, raw in enumerate(text.splitlines(), start=1):
        for m in _SCAN.finditer(raw.split("#", 1)[0]):
            yield m, line, w, k
            if m[1]:
                w, k = w + 1, 0
            else:
                k += 1
        if k:
            w, k = w + 1, 0


def _token_at(text: str, word: int, pos: int) -> tuple[re.Match, int]:
    """The match and line number of the token at (word, pos) in text that
    parses up to it."""
    for m, line, w, k in _tokens(text):
        if w == word and k == pos:
            return m, line
    raise ValueError(f"no token at word {word}, position {pos}")


def _lexical_error(text: str) -> GaussError:
    """The error for the first token of ``text`` that is not a letter, or
    for the first "/" with no word before or after it."""
    last = None
    for m, line, _, k in _tokens(text):
        if m[1] and not k or not m[1] and (not m[3] or m[2] and m[4]):
            break
        last = m, line
    else:  # the text ends with a "/"
        m, line = last
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
        import json
        return json.dumps(paragraph_dict(p))
    raise ValueError(f"unknown format {format!r}")


def paragraph_dict(p: SignedParagraph) -> dict:
    names = p._names
    return {
        "words": [
            [{"sym": names[c >> 1], "exp": NEGATIVE if c & 1 else POSITIVE} for c in w]
            for w in p._code
        ]
    }


# --- isomorphism moves and canonical form ----------------------------------


def relabel(p: SignedParagraph, mapping: dict[str, str]) -> SignedParagraph:
    """Exponent-preserving change of alphabet; ``mapping`` must be injective,
    map onto symbol tokens and give no two symbols of ``p`` one name."""
    for name in mapping.values():
        _check_token("target", name)
    if len(set(mapping.values())) != len(mapping):
        raise OperationError("relabeling is not injective")
    names = tuple(mapping.get(s, s) for s in p._names)
    if len(set(names)) != len(names):
        raise OperationError("relabeling gives two symbols one name")
    return _from_code(p._code, names)


def canonicalize(p: SignedParagraph) -> SignedParagraph:
    """The least representative of the isomorphism class of ``p``
    (``_canonical``), its symbols named a, b, ..., z, s26, s27, ... in order
    of appearance.  Idempotent, and equal for any two isomorphic paragraphs."""
    return _from_code(_canonical(p._code), _canonical_names(p.n))


def _canonical_names(n: int) -> tuple[str, ...]:
    """The names a, b, ..., z, s26, s27, ... of ``n`` canonical symbols."""
    return (*LETTERS[:n], *map("s{}".format, range(26, n)))


def _canonical(code: Code) -> Code:
    """The canonical code of ``code``: its words in ascending length give the
    least (word lengths, letter stream) over word order x per-word rotation
    x first-appearance relabeling, with exponent -1 < +1, symbol i being the
    i-th to appear.

    A one-word code has no word order to branch on and goes to
    ``_canonical_word``, which keeps no symbol maps: near-linear on random
    words, O(L^2) on a fully symmetric word of length L (``x1 .. xn -x1 ..
    -xn``, where n rotations tie for n letters).  Codes with more words go
    to ``_canonical_search``: near-linear on random paragraphs, and
    factorial only when many interchangeable words tie for long, as in a
    star of symbol-disjoint short words linked through one long word.
    """
    if len(code) == 1:
        return (_canonical_word(code[0]),)
    return _canonical_search(code)


def _canonical_search(code: Code) -> Code:
    """``_canonical`` for any code, by a search over word orders too.

    Word lengths compare first, so words are taken in ascending length.  The
    search is breadth-first over the letter stream: every live candidate (a
    word order and rotations chosen so far) has emitted the same least
    prefix, hence assigned the same number of first-appearance ids, so its
    next letter, keyed ``2 * ids.get(sym, next_id) + (exp == +1)``, compares
    directly with the others', and only the candidates with the least next
    letter survive.  One pass per letter prunes them: it keeps the least key
    so far and the candidates, in order, that share it.  A candidate that
    finishes a word branches into every unused word of the next length at
    every rotation.
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
            least = 2 * next_id + 2
            for cand in live:
                ids, _, w, r = cand
                key = 2 * ids.get((x := w[r + pos]) >> 1, next_id) + (x & 1)
                if key < least:
                    least = key
                    keep = [cand]
                elif key == least:
                    keep.append(cand)
            live = keep
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


def _canonical_word(w: tuple[int, ...]) -> tuple[int, ...]:
    """The canonical code of the one-word code ``(w,)``, as one word: the
    least first-appearance letter stream over the rotations of ``w``.

    Only a -1 letter can open the least stream, so the candidates are the
    rotations that start at one; the search keeps, step by step, those with
    the best next letter, and keeps no symbol-to-id map.  Every live
    candidate has emitted the same prefix, so at step ``pos`` a letter whose
    partner lies ``back <= pos`` letters behind it has the id of the letter
    at step ``pos - back`` for all of them: a larger ``back`` is an earlier,
    hence smaller, id.  A letter with ``back > pos`` is a new symbol and
    ranks after every old one, a -1 letter before a +1 letter.  One pass
    per step keeps the best key so far and the starts that share it.  The
    winner is relabeled once at the end.
    """
    size = len(w)
    # back[k]: how far back, cyclically, the partner of letter k lies.
    first = [-1] * (size // 2)
    back = [0] * size
    for k, c in enumerate(w):
        k0 = first[c >> 1]
        if k0 < 0:
            first[c >> 1] = k
        else:
            back[k] = k - k0
            back[k0] = size - k + k0
    # Doubled, so that rotation r reads positions r .. r + size - 1.
    back += back
    doubled = w + w
    # The starts of the live candidates.  The key of the next letter is its
    # back if its symbol is old, else 0 for a -1 letter and -1 for a +1
    # letter; the greatest key wins.
    live = [k for k, c in enumerate(w) if c & 1]
    pos = 1
    while len(live) > 1 and pos < size:
        best = -2
        for r in live:
            b = back[r + pos]
            if b > pos:
                b = (doubled[r + pos] & 1) - 1
            if b > best:
                best = b
                keep = [r]
            elif b == best:
                keep.append(r)
        live = keep
        pos += 1
    r = live[0]
    out: list[int] = []
    next_id = 0
    for pos, b, c in zip(range(size), back[r:], doubled[r:]):
        if b <= pos:
            out.append(out[pos - b] ^ 1)
        else:
            out.append(2 * next_id + (c & 1))
            next_id += 1
    return tuple(out)


def is_isomorphic(p: SignedParagraph, q: SignedParagraph) -> bool:
    """Whether two paragraphs differ only by rotations, relabeling and word order."""
    if len(p._code) != len(q._code) or p.n != q.n:
        return False
    return _canonical(p._code) == _canonical(q._code)
