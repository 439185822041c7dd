"""Token-by-token paragraph parser: the oracle for ``model.parse_paragraph``.

This is the parser ``sgauss.model`` used before its one-scan rewrite.  It
splits each line into tokens with their (line, column), matches every
letter token a second time against the letter grammar, keeps a span table
from every letter's (word, position) to its (line, column), and looks a
``ValidationError``'s position up in that table.  The fast parser must
return equal paragraphs and raise equal errors on every text.
"""

from __future__ import annotations

import re

from letters import SignedLetter, paragraph
from sgauss.model import (
    NEGATIVE,
    POSITIVE,
    ParseError,
    SignedParagraph,
    ValidationError,
    check_pairwise,
)

_TOKEN_RE = re.compile(r"/|[^\s/]+")
_LETTER_RE = re.compile(r"(-)?([A-Za-z][A-Za-z0-9_]*)(\^-1)?")


def _tokens(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for m in _TOKEN_RE.finditer(line):
            yield m.group(), lineno, m.start() + 1
        yield None, lineno, len(line) + 1  # soft word boundary at end of line


def parse_by_tokens(text: str, *, pairwise: bool = False) -> SignedParagraph:
    """``parse_paragraph`` as a token generator and a per-letter span table."""
    words: list[list[SignedLetter]] = []
    spans: dict[tuple[int, int], tuple[int, int]] = {}
    cur: list[tuple[SignedLetter, int, int]] = []
    dangling: tuple[int, int] | None = None

    def flush():
        wi = len(words)
        words.append([t[0] for t in cur])
        spans.update({(wi, i): (t[1], t[2]) for i, t in enumerate(cur)})
        cur.clear()

    for tok, line, col in _tokens(text):
        if tok is None:
            if cur:
                flush()
        elif tok == "/":
            if not cur:
                raise ValidationError(
                    ValidationError.EMPTY_WORD, "empty word", line=line, col=col
                )
            flush()
            dangling = (line, col)
        else:
            m = _LETTER_RE.fullmatch(tok)
            if not m or (m.group(1) and m.group(3)):
                raise ParseError(f"bad token {tok!r}", line, col)
            exp = NEGATIVE if (m.group(1) or m.group(3)) else POSITIVE
            cur.append((SignedLetter(m.group(2), exp), line, col))
            dangling = None
    if cur:
        flush()
    if dangling is not None:
        raise ValidationError(
            ValidationError.EMPTY_WORD, "empty word", line=dangling[0], col=dangling[1]
        )
    if not words:
        raise ValidationError(
            ValidationError.EMPTY_WORD, "empty paragraph", line=1, col=1
        )

    try:
        p = paragraph(words)
        if pairwise:
            check_pairwise(p)
    except ValidationError as e:
        if e.where is not None and e.line is None and e.where in spans:
            e.line, e.col = spans[e.where]
        raise
    return p
