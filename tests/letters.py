"""Letter objects: a paragraph as words of signed letters.

The package holds a paragraph only as its symbol names and integer code.
The test oracles work on letters instead, a form that shares nothing with
that code: ``SignedLetter`` is a symbol with exponent +1 or -1, and
``SignedWord`` a cyclic word of them.  ``paragraph`` turns words of letters
into a validated paragraph and ``words_of`` reads a paragraph's words back
as letters.

``paragraph`` builds the code itself and runs the package's validator,
``SignedParagraph.__post_init__``, on it: it does not render the words and
parse the text, so an error carries a letter address and no line or column,
and the parser's oracle (``tokenparse``) does not go through the parser it
checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from sgauss.model import SignedParagraph, _from_code


@dataclass(frozen=True, slots=True)
class SignedLetter:
    sym: str
    exp: int

    def inverse(self) -> SignedLetter:
        return SignedLetter(self.sym, -self.exp)

    def __str__(self) -> str:
        return self.sym if self.exp == 1 else f"-{self.sym}"

    def __repr__(self) -> str:
        return f"SignedLetter({str(self)!r})"


@dataclass(frozen=True, slots=True)
class SignedWord:
    """A cyclically-ordered sequence of signed letters."""

    letters: tuple

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i: int) -> SignedLetter:
        return self.letters[i]

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.letters)

    def __repr__(self) -> str:
        return f"SignedWord({str(self)!r})"


def paragraph(words: Iterable[Iterable[SignedLetter]]) -> SignedParagraph:
    """The paragraph of ``words``, its symbols numbered by first
    appearance, as the parser numbers them; raises ``ValidationError`` as
    the parser's validator does."""
    index: dict[str, int] = {}
    number = index.setdefault
    code = tuple(tuple(2 * number(l.sym, len(index)) + (l.exp == -1) for l in w) for w in words)
    p = _from_code(code, index)
    p.__post_init__()
    return p


def words_of(p: SignedParagraph) -> tuple[SignedWord, ...]:
    """The words of ``p`` as letters."""
    table = [SignedLetter(s, e) for s in p._names for e in (1, -1)]
    return tuple(SignedWord(tuple(map(table.__getitem__, w))) for w in p._code)
