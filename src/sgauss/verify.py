"""Exhaustive enumeration of small codes and cross-module consistency checks.

The enumerators generate every valid signed Gauss word (or two-component
paragraph) with exactly n symbols: lexicographic perfect matchings of the 2n
cyclic positions, symbols named by first appearance, times all 2^n choices
of which occurrence of each symbol is positive.  ``verify`` sweeps a corpus
and checks every inter-module property this package promises; failures are
collected as counterexamples, not raised, and two empirical quantities (beta
antisymmetry, the Carter-circle shift under join) are tallied and reported
rather than asserted.
"""

from __future__ import annotations

import json
import random
import string
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from .homology import pairing, profile
from .model import (
    POSITIVE,
    NEGATIVE,
    SignedLetter,
    SignedParagraph,
    SignedWord,
    _built,
    canonicalize,
    relabel,
    render,
    rotate,
)
from .surface import _faces, _quads, _summary, summarize
from .transforms import fresh_symbol, join

__all__ = [
    "KIND_WORDS",
    "KIND_PARAGRAPHS",
    "MAX_SYMBOLS",
    "CorpusSpec",
    "enumerate_words",
    "enumerate_two_component_paragraphs",
    "enumerate_corpus",
    "apply_random_moves",
    "Counterexample",
    "CheckStat",
    "VerificationReport",
    "verify",
]

KIND_WORDS = "words"
KIND_PARAGRAPHS = "two-component-paragraphs"
# The enumerators name symbols a..z.
MAX_SYMBOLS = len(string.ascii_lowercase)


@dataclass(frozen=True)
class CorpusSpec:
    """What to enumerate: all objects of ``kind`` with 1..max_symbols symbols."""

    max_symbols: int
    dedupe: bool = False
    kind: str = KIND_WORDS

    def __post_init__(self):
        if not 1 <= self.max_symbols <= MAX_SYMBOLS:
            raise ValueError(f"max_symbols must be in 1..{MAX_SYMBOLS}")
        if self.kind not in (KIND_WORDS, KIND_PARAGRAPHS):
            raise ValueError(f"unknown corpus kind {self.kind!r}")


def _matchings(items: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    # Perfect matchings in lexicographic order: always pair the smallest
    # remaining position first.
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for i in range(len(rest)):
        pair = (first, rest[i])
        for tail in _matchings(rest[:i] + rest[i + 1 :]):
            yield (pair,) + tail


def _names(n: int) -> list[str]:
    if n > MAX_SYMBOLS:
        raise ValueError(f"enumeration supports at most {MAX_SYMBOLS} symbols")
    return list(string.ascii_lowercase[:n])


def _letters_from(
    n: int, chords: tuple[tuple[int, int], ...], mask: int, total: int
) -> list[SignedLetter]:
    names = _names(n)
    letters: list[SignedLetter] = [None] * total  # type: ignore[list-item]
    for k, (i, j) in enumerate(chords):
        first_exp = NEGATIVE if (mask >> k) & 1 else POSITIVE
        letters[i] = SignedLetter(names[k], first_exp)
        letters[j] = SignedLetter(names[k], -first_exp)
    return letters


def enumerate_words(n: int) -> Iterator[SignedParagraph]:
    """Every valid signed Gauss word with exactly ``n`` symbols."""
    positions = tuple(range(2 * n))
    for chords in _matchings(positions):
        for mask in range(2**n):
            letters = _letters_from(n, chords, mask, 2 * n)
            yield _built((SignedWord(tuple(letters)),))


def enumerate_two_component_paragraphs(n: int) -> Iterator[SignedParagraph]:
    """Every valid two-component paragraph with exactly ``n`` symbols.

    Matchings with no chord crossing the word boundary would be
    disconnected and are skipped.
    """
    positions = tuple(range(2 * n))
    for len1 in range(1, 2 * n):
        for chords in _matchings(positions):
            if not any(i < len1 <= j for i, j in chords):
                continue
            for mask in range(2**n):
                letters = _letters_from(n, chords, mask, 2 * n)
                yield _built(
                    (
                        SignedWord(tuple(letters[:len1])),
                        SignedWord(tuple(letters[len1:])),
                    )
                )


def enumerate_corpus(spec: CorpusSpec) -> Iterator[SignedParagraph]:
    """All objects of the spec's kind with 1..max_symbols symbols, smallest
    first; with ``dedupe`` one representative per isomorphism class."""
    gen = (
        enumerate_words
        if spec.kind == KIND_WORDS
        else enumerate_two_component_paragraphs
    )
    stream: Iterable[SignedParagraph] = chain.from_iterable(
        gen(n) for n in range(1, spec.max_symbols + 1)
    )
    if not spec.dedupe:
        yield from stream
        return
    seen: set[SignedParagraph] = set()
    for p in stream:
        c = canonicalize(p)
        if c not in seen:
            seen.add(c)
            yield c


def apply_random_moves(
    p: SignedParagraph, rng: random.Random, moves: int | None = None
) -> SignedParagraph:
    """A random sequence of isomorphism moves: per-word rotations, word-order
    permutations and exponent-preserving relabelings."""
    count = rng.randint(1, 8) if moves is None else moves
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            i = rng.randrange(len(p.words))
            k = rng.randrange(len(p.words[i]))
            words = list(p.words)
            words[i] = rotate(words[i], k)
            p = _built(tuple(words))
        elif kind == 1:
            order = list(range(len(p.words)))
            rng.shuffle(order)
            p = _built(tuple(p.words[i] for i in order))
        else:
            names = sorted(p.alphabet)
            shuffled = names[:]
            rng.shuffle(shuffled)
            p = relabel(p, dict(zip(names, shuffled)))
    return p


class Counterexample(NamedTuple):
    paragraph: str
    prop: str
    observed: str
    expected: str


@dataclass
class CheckStat:
    checked: int = 0
    failed: int = 0


@dataclass
class VerificationReport:
    """Outcome of one corpus sweep.

    ``checks`` hold the hard properties (any failure makes ``ok`` false);
    ``empirical`` holds the tallied quantities that are reported either way.
    """

    spec: CorpusSpec
    size: int = 0
    checks: dict[str, CheckStat] = field(default_factory=dict)
    counterexamples: list[Counterexample] = field(default_factory=list)
    empirical: dict[str, dict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(s.failed == 0 for s in self.checks.values())

    def record(
        self, name: str, ok: bool, p: SignedParagraph, observed: str, expected: str
    ) -> None:
        stat = self.checks.setdefault(name, CheckStat())
        stat.checked += 1
        if not ok:
            stat.failed += 1
            self.counterexamples.append(
                Counterexample(render(p), name, observed, expected)
            )

    def as_dict(self) -> dict:
        return {
            "kind": self.spec.kind,
            "max_symbols": self.spec.max_symbols,
            "dedupe": self.spec.dedupe,
            "size": self.size,
            "checks": {
                name: {"checked": s.checked, "failed": s.failed}
                for name, s in self.checks.items()
            },
            "counterexamples": [c._asdict() for c in self.counterexamples],
            "empirical": self.empirical,
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    def to_text(self) -> str:
        lines = [
            f"corpus kind={self.spec.kind} max-n={self.spec.max_symbols} "
            f"dedupe={str(self.spec.dedupe).lower()} size={self.size}"
        ]
        for name, s in self.checks.items():
            lines.append(f"check {name}: checked={s.checked} failed={s.failed}")
        for name, data in self.empirical.items():
            detail = " ".join(f"{k}={json.dumps(v)}" for k, v in data.items())
            lines.append(f"empirical {name}: {detail}")
        shown = self.counterexamples[:20]
        for c in shown:
            lines.append(
                f"counterexample [{c.prop}] {c.paragraph!r}: "
                f"observed {c.observed}, expected {c.expected}"
            )
        if len(self.counterexamples) > len(shown):
            lines.append(f"... and {len(self.counterexamples) - len(shown)} more")
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def verify(spec: CorpusSpec, *, seed: int = 0) -> VerificationReport:
    """Run every applicable consistency property over the corpus."""
    report = VerificationReport(spec)
    shift_counter: Counter[int] = Counter()
    beta_checked = 0
    beta_holds = 0
    beta_violations: list[str] = []

    for idx, p in enumerate(enumerate_corpus(spec)):
        report.size += 1
        rng = random.Random((seed << 24) ^ idx)
        quads = list(_quads(p).values())
        # The circles partition the darts only if the table is a permutation.
        slots = sorted(chain.from_iterable(quads))
        partition = slots == list(range(4 * p.n))
        report.record(
            "carter-partition",
            partition,
            p,
            f"{len(set(slots))} distinct darts in {len(slots)} slots",
            f"each of 0..{4 * p.n - 1} once",
        )
        if not partition:
            continue
        s = _summary(p.n, len(_faces(quads)))
        report.record(
            "euler-parity", (s.b - s.n) % 2 == 0, p, f"b={s.b} n={s.n}", "b = n mod 2"
        )
        report.record(
            "genus-bounds",
            1 <= s.b <= s.n + 2 and 0 <= s.genus <= (s.n + 1) // 2,
            p,
            f"b={s.b} genus={s.genus}",
            "1 <= b <= n+2, 0 <= g <= (n+1)/2",
        )
        mirror_b = len(_faces([q[::-1] for q in quads]))
        report.record("mirror-circles", mirror_b == s.b, p, f"{mirror_b}", f"{s.b}")
        q = apply_random_moves(p, rng)
        c1 = canonicalize(p)
        report.record(
            "isomorphism-invariance",
            summarize(q) == s and canonicalize(q) == c1,
            p,
            f"moved to {render(q)!r}",
            "equal summary and canonical form",
        )
        c2 = canonicalize(c1)
        report.record("canonical-idempotence", c2 == c1, p, render(c2), render(c1))

        if len(p.words) == 1:
            pr = profile(p.words[0])
            report.record(
                "criterion-equivalence",
                pr.is_zero == s.geometric,
                p,
                f"profile zero={pr.is_zero}",
                f"geometric={s.geometric}",
            )
            syms = sorted(pr.alpha)
            holds = all(
                pr.beta_of(i, j) == -pr.beta_of(j, i) for i in syms for j in syms
            )
            beta_checked += 1
            beta_holds += holds
            if not holds:
                beta_violations.append(render(p))
        else:
            report.record(
                "null-pairing",
                s.genus > 0 or pairing(p) == 0,
                p,
                f"genus={s.genus} pairing={pairing(p)}",
                "pairing 0 on genus 0",
            )
            ok_join = True
            for sym in sorted(p.alphabet):
                pos, neg = p.occurrences(sym)
                if pos.word == neg.word:
                    continue
                joined = join(p, 0, 1, sym, fresh_symbol(p.alphabet, "z"))
                sj = summarize(joined)
                ok_join = ok_join and sj.genus == s.genus
                shift_counter[sj.b - s.b] += 1
            report.record(
                "join-genus", ok_join, p, "genus changed under some join", "preserved"
            )

    if spec.kind == KIND_WORDS:
        pct = 100.0 * beta_holds / beta_checked if beta_checked else 100.0
        report.empirical["beta-antisymmetry"] = {
            "checked": beta_checked,
            "holds": beta_holds,
            "percent": round(pct, 2),
            "violations": beta_violations[:20],
        }
    else:
        report.empirical["join-circle-shift"] = {
            "counts": {f"{k:+d}": v for k, v in sorted(shift_counter.items())},
            "constant": len(shift_counter) <= 1,
        }
    return report
