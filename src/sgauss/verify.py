"""Exhaustive enumeration of small codes and cross-module consistency checks.

``verify`` sweeps a corpus, every object of one kind with 1..n symbols, and
checks every inter-module property this package promises; failures are
collected as counterexamples, not raised.  A kind is one entry of
``_KINDS``: where its first word may end, its checks in report order, the
checks of one object that follow the six every kind shares, and the tally
of one empirical quantity, reported rather than asserted.  The enumeration
(``_codes_of_size``) takes the lexicographic perfect matchings of the 2n
positions, symbols named by first appearance, times all 2^n choices of
which occurrence of each symbol is positive, cut where the kind says.

The sweep runs on integer codes, the form a ``SignedParagraph`` stores: a
tuple of words, each a tuple of ints 2 * symbol + (exp == -1), symbol k
being the k-th letter of the alphabet.  The circles, the moved copy, the
canonical form (itself a code), the joins, the pairing and the two verdicts
read from a word's intersection profile (``homology._verdicts``) are
computed on them by the same kernels that the public functions wrap, and
``mirror-circles`` compares two successor tables (``_reverses``).  A
paragraph is built, text rendered and the mirror walked only for a
counterexample.

The sweep of one index range (``_sweep``) depends only on the range and
the seed.  A report's ``_state()`` is plain ``marshal``-able data, and
``VerificationReport._add`` merges the state of the range that follows, so
``verify`` runs the ranges in forked children (``_fork``), one per usable
core, adds their states in order, and its report is the same for any
number of them.
"""

from __future__ import annotations

import os
import random
import sys
from collections import Counter
from itertools import chain, islice
from math import factorial, prod
from typing import Callable, Iterable, Iterator, NamedTuple

from .homology import _pairing, _verdicts
from .model import (
    LETTERS,
    Code,
    SignedParagraph,
    _canonical,
    _canonical_names,
    _from_code,
    _Record,
    _Value,
    render,
)
from .surface import _faces, _mirror, _quads, _table
from .transforms import _find, _join_code

__all__ = [
    "KIND_WORDS",
    "KIND_PARAGRAPHS",
    "MAX_SYMBOLS",
    "CorpusSpec",
    "enumerate_corpus",
    "apply_random_moves",
    "Counterexample",
    "CheckStat",
    "VerificationReport",
    "verify",
]

KIND_WORDS = "words"
KIND_PARAGRAPHS = "two-component-paragraphs"
# The bound on ``--max-n`` and on ``CorpusSpec``, which the usage errors name.
MAX_SYMBOLS = len(LETTERS)
# The checks of every kind, in the order the report lists them.
_COMMON_CHECKS = ("carter-partition", "euler-parity", "genus-bounds", "mirror-circles",
                  "isomorphism-invariance", "canonical-idempotence")


class CorpusSpec(_Value):
    """What to enumerate: all objects of ``kind`` with 1..max_symbols symbols."""

    _fields = __match_args__ = ("max_symbols", "dedupe", "kind")
    _defaults = {"dedupe": False, "kind": KIND_WORDS}

    def __post_init__(self):
        m = self.max_symbols
        if not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= MAX_SYMBOLS:
            raise ValueError(f"max_symbols must be an int in 1..{MAX_SYMBOLS}, got {m!r}")
        if not isinstance(self.dedupe, bool):
            raise ValueError(f"dedupe must be a bool, got {self.dedupe!r}")
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValueError(f"unknown corpus kind {self.kind!r}")


def _matchings(free: tuple[int, ...], base: list[int]) -> Iterator[tuple[int, ...]]:
    # Perfect matchings of the ``free`` positions in lexicographic order
    # (always pair the smallest free position first); chord k is written
    # into ``base`` as the letters 2k, 2k + 1, and each yielded as a code.
    if not free:
        yield tuple(base)
        return
    first, rest, k = free[0], free[1:], (len(base) - len(free)) // 2
    for i in range(len(rest)):
        base[first], base[rest[i]] = 2 * k, 2 * k + 1
        yield from _matchings(rest[:i] + rest[i + 1 :], base)


def _codes_of_size(n: int, kind: str) -> Iterator[Code]:
    """The codes of the objects of ``kind`` with ``n`` symbols: chord k of
    each matching is symbol k, and bit k of the mask makes its first letter
    the -1 one.  The first word ends after each of the kind's cuts, a cut
    short of 2n skipping the matchings with no chord across it (disconnected)."""
    for cut in _KINDS[kind].cuts(n):
        for base in _matchings(tuple(range(2 * n)), [0] * (2 * n)):
            if cut < 2 * n and 2 * len({c >> 1 for c in base[:cut]}) == cut:
                continue
            for mask in range(2**n):
                letters = tuple(c ^ (mask >> (c >> 1) & 1) for c in base)
                yield (letters[:cut], letters[cut:]) if cut < 2 * n else (letters,)


def _pairings(k: int) -> int:
    """The number of perfect matchings of ``k`` positions."""
    return prod(range(k - 1, 0, -2)) if k % 2 == 0 else 0


def _size_of(n: int, kind: str) -> int:
    """The number of codes of ``_codes_of_size(n, kind)``: 2^n masks for
    each matching but those, at a cut short of 2n, with no chord across."""
    m = 2 * n
    cuts = _KINDS[kind].cuts(n)
    return 2**n * sum(_pairings(m) - (c < m) * _pairings(c) * _pairings(m - c) for c in cuts)


def _corpus_codes(spec: CorpusSpec) -> Iterator[Code]:
    """The codes of the spec's kind with 1..max_symbols symbols, smallest first."""
    sizes = range(1, spec.max_symbols + 1)
    return chain.from_iterable(_codes_of_size(n, spec.kind) for n in sizes)


def enumerate_corpus(spec: CorpusSpec) -> Iterator[SignedParagraph]:
    """All objects of the spec's kind with 1..max_symbols symbols, smallest
    first; with ``dedupe`` those that are their own canonical form, one per
    isomorphism class."""
    for code in _corpus_codes(spec):
        if not spec.dedupe or _canonical(code) == code:
            yield _paragraph(code)


def _paragraph(code: Code) -> SignedParagraph:
    return _from_code(code, _canonical_names(sum(map(len, code)) // 2))


def _text(code: Code) -> str:
    return render(_paragraph(code))


def apply_random_moves(p: SignedParagraph, rng: random.Random) -> SignedParagraph:
    """One uniform random isomorph of ``p`` (``_moved``, ``_draw``), its
    symbols numbered in sorted-name order: the copy depends only on the text
    of ``p`` and the state of ``rng``."""
    names = sorted(p._names)
    rank = {s: 2 * i for i, s in enumerate(names)}
    to_sorted = [rank[s] for s in p._names]
    code = tuple(tuple(to_sorted[c >> 1] | c & 1 for c in w) for w in p._code)
    return _from_code(_moved(code, p.n, _draw(rng.getrandbits, code, p.n)), names)


def _draw(getrandbits, code: Code, n: int) -> int:
    """A uniform number below |G| = prod len(w) * M! * n!, the isomorphisms
    of a code of M words and ``n`` symbols, drawn as ``randrange(|G|)`` draws
    it: ``getrandbits(|G|.bit_length())``, again while it is |G| or more."""
    size = prod(map(len, code)) * factorial(len(code)) * factorial(n)
    k = size.bit_length()
    while (x := getrandbits(k)) >= size:
        pass
    return x


def _moved(code: Code, n: int, x: int) -> Code:
    """The copy of ``code``, with ``n`` symbols, moved by isomorphism ``x``
    below |G| (``_draw``).  The mixed-radix digits of x, lowest first, give
    each word's left rotation (x mod its length), then the swaps of a
    Fisher-Yates shuffle (slot i with slot x mod (i + 1), i from the last
    down to 1) of the words and of the symbol numbers 0..n-1.  Distinct x
    give distinct (rotations, order, permutation) triples."""
    slots = []
    for w in code:
        x, r = divmod(x, len(w))
        slots.append(w[r:] + w[:r])
    perm = list(range(n))
    for items in (slots, perm):
        for i in range(len(items) - 1, 0, -1):
            x, j = divmod(x, i + 1)
            items[i], items[j] = items[j], items[i]
    letter = [2 * s + e for s in perm for e in (0, 1)]
    return tuple(tuple(map(letter.__getitem__, w)) for w in slots)


class Counterexample(NamedTuple):
    paragraph: str
    prop: str
    observed: str
    expected: str


class CheckStat(_Record):
    _fields = __match_args__ = ("checked", "failed")
    _defaults = {"checked": 0, "failed": 0}


class VerificationReport(_Record):
    """Outcome of one corpus sweep.

    ``checks`` hold the hard properties (any failure makes ``ok`` false),
    every check of the corpus kind from the start, so one that no object
    reaches is listed with checked=0; ``empirical`` holds the tallied
    quantities that are reported either way.
    """

    _fields = ("spec", "size", "checks", "counterexamples", "empirical")
    __match_args__ = ("spec", "size", "counterexamples", "empirical")

    def __init__(self, spec: CorpusSpec, size: int = 0, counterexamples=None, empirical=None):
        self.spec = spec
        self.size = size
        self.checks = {name: CheckStat() for name in _KINDS[spec.kind].checks}
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.empirical = {} if empirical is None else empirical
        # What the kind's checks count and ``empirical`` is made from.
        self._tally: Counter = Counter()

    @property
    def ok(self) -> bool:
        return all(s.failed == 0 for s in self.checks.values())

    def check(self, name: str, ok: bool) -> bool:
        """Count one object under check ``name``; returns ``ok``."""
        stat = self.checks[name]
        stat.checked += 1
        stat.failed += not ok
        return ok

    def fail(self, paragraph: str, name: str, observed: str, expected: str) -> None:
        """Add a counterexample to check ``name``."""
        self.counterexamples.append(Counterexample(paragraph, name, observed, expected))

    def _state(self) -> tuple:
        """This report as ``marshal``-able data for ``_add``, its spec and
        empirical left out."""
        stats = [(s.checked, s.failed) for s in self.checks.values()]
        examples = [tuple(c) for c in self.counterexamples]
        return self.size, stats, examples, list(self._tally.items())

    def _add(self, state: tuple) -> None:
        """Add the ``_state()`` of the index range that follows this
        report's in the same sweep, so that this one is the report of both."""
        size, stats, examples, tally = state
        self.size += size
        for stat, (checked, failed) in zip(self.checks.values(), stats):
            stat.checked += checked
            stat.failed += failed
        self.counterexamples += map(Counterexample._make, examples)
        self._tally.update(dict(tally))
        self.empirical = _KINDS[self.spec.kind].empirical(self)

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
        import json
        return json.dumps(self.as_dict())

    def to_text(self) -> str:
        import json
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


def _reverses(succ: list[int], mirror: list[int]) -> bool:
    """Whether ``mirror`` is rho succ^-1 rho, rho(d) = d ^ 1, that is
    mirror[succ[d] ^ 1] = d ^ 1 for every dart d, ``surface._table`` of the
    quads and of the mirror quads.  The cycles of rho succ^-1 rho are those
    of ``succ`` read backwards on the reverse darts, and a permutation is
    determined by its cycles listed in order, so this compares the circles
    of the two tables; a mirror table that is not a permutation fails."""
    if len(mirror) != len(succ):
        return False
    for d, s in enumerate(succ):
        if mirror[s ^ 1] != d ^ 1:
            return False
    return True


class _Kind(NamedTuple):
    """A corpus kind.  ``cuts(n)``: where the first word may end (2n: one
    word); ``own``: the object's checks after the common ones, each a name
    and a function ``(report, code, n, b)`` that may count into
    ``report._tally``; ``empirical(report)``."""

    cuts: Callable[[int], Iterable[int]]
    own: tuple[tuple[str, Callable[..., None]], ...]
    empirical: Callable[..., dict]

    @property
    def checks(self) -> tuple[str, ...]:
        """The report's checks, in order: the common ones, then ``own``."""
        return (*_COMMON_CHECKS, *(name for name, _ in self.own))


def _criterion_equivalence(report, code: Code, n: int, b: int) -> None:
    """The profile vanishes just when the word is geometric; the tally
    holds the text of each word whose beta is not antisymmetric, once."""
    zero, holds = _verdicts(code[0])
    geometric = b == n + 2
    if not report.check("criterion-equivalence", zero == geometric):
        observed = f"profile zero={zero}"
        report.fail(_text(code), "criterion-equivalence", observed, f"geometric={geometric}")
    if not holds:
        report._tally[_text(code)] += 1


def _beta_antisymmetry(report) -> dict:
    checked = report.checks["criterion-equivalence"].checked
    holds = checked - len(report._tally)
    pct = 100.0 * holds / checked if checked else 100.0
    beta = {"checked": checked, "holds": holds, "percent": round(pct, 2)}
    beta["violations"] = list(report._tally)[:20]
    return {"beta-antisymmetry": beta}


def _null_pairing(report, code: Code, n: int, b: int) -> None:
    """The pairing is 0 on genus 0."""
    pair = _pairing(code)
    if not report.check("null-pairing", b < n + 2 or pair == 0):
        observed = f"genus={(n + 2 - b) // 2} pairing={pair}"
        report.fail(_text(code), "null-pairing", observed, "pairing 0 on genus 0")


def _join_genus(report, code: Code, n: int, b: int) -> None:
    """Every join keeps the genus; the tally counts the joins by the number
    of circles they add."""
    ok_join = True
    for sym in range(n):
        plus, minus = _find(code, 2 * sym), _find(code, 2 * sym + 1)
        if plus[0] == minus[0]:
            continue
        # The join adds crossing n, so it keeps the genus if it adds a circle.
        bj = len(_faces(_table(_quads(_join_code(code, plus, minus, n)))))
        ok_join = ok_join and bj == b + 1
        report._tally[bj - b] += 1
    if not report.check("join-genus", ok_join):
        report.fail(_text(code), "join-genus", "genus changed under some join", "preserved")


def _join_circle_shift(report) -> dict:
    counts = {f"{k:+d}": v for k, v in sorted(report._tally.items())}
    return {"join-circle-shift": {"counts": counts, "constant": len(counts) <= 1}}


_KINDS = {
    KIND_WORDS: _Kind(
        cuts=lambda n: [2 * n],
        own=(("criterion-equivalence", _criterion_equivalence),),
        empirical=_beta_antisymmetry,
    ),
    KIND_PARAGRAPHS: _Kind(
        cuts=lambda n: range(1, 2 * n),
        own=(("null-pairing", _null_pairing), ("join-genus", _join_genus)),
        empirical=_join_circle_shift,
    ),
}


def verify(spec: CorpusSpec, *, seed: int = 0) -> VerificationReport:
    """Run every applicable consistency property over the corpus.

    The corpus is cut into contiguous index ranges, one per process: this
    one and a child forked for each other range, one per core that
    ``os.sched_getaffinity`` allows (at most ``os.cpu_count()``), so
    ``taskset`` limits it.  The ranges' states (``_state``) are added in
    enumeration order (``_add``), so the report is the same for any number
    of processes.  The sweep stays in this process when one core is usable,
    when another thread is running, where ``os.fork`` is missing, and when
    the corpus holds fewer than ``2 * _MIN_OBJECTS`` objects.  A child that
    raises or dies makes ``verify`` raise ``RuntimeError``; every child is
    reaped before ``verify`` returns or raises.

    Each object first draws its moved copy's number (``_draw``) from
    ``random.Random((seed << 24) ^ idx)``, made at each idx divisible by
    1,024: a copy depends only on the seed and its block's objects before
    it, and a range that starts inside a block replays the block's draws
    before it.  A kernel that raises is a counterexample of the check that
    called it, and the object's later checks are skipped.

    With ``dedupe`` a range checks only its objects that are their own form,
    after their draws (a copy is keyed by the full index), and of the others
    only that the form is its own, counted when it fails.  Idempotence is
    computed once per form a process keeps: 58,813 (13 MiB) for words n <= 6.
    """
    size = sum(_size_of(n, spec.kind) for n in range(1, spec.max_symbols + 1))
    workers = _workers(size)
    if workers == 1:
        return _sweep(spec, seed)
    from ._fork import sweep  # compiled only when a sweep forks

    report = VerificationReport(spec)
    run = lambda start, stop: _sweep(spec, seed, start, stop)._state()
    for state in sweep(run, [size * k // workers for k in range(workers + 1)]):
        report._add(state)
    return report


# A fork, pipe and reap round trip takes about 2 ms, and the checks of one
# object 80-130 us, so each process gets at least this many objects, 20 to
# 30 ms of work.
_MIN_OBJECTS = 256


def _workers(size: int) -> int:
    """How many processes sweep a corpus of ``size`` objects: one per
    usable core, each with ``_MIN_OBJECTS`` objects at least; 1 without
    ``os.fork`` or while another thread runs, since a fork copies only the
    calling thread and a lock another one holds stays held in the child."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or threading and threading.active_count() > 1:
        return 1
    cores = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        cores = min(cores, len(os.sched_getaffinity(0)))
    return max(1, min(cores, size // _MIN_OBJECTS))


def _sweep(
    spec: CorpusSpec, seed: int, start: int = 0, stop: int | None = None
) -> VerificationReport:
    """The report of codes ``start`` to ``stop - 1`` of ``_corpus_codes(spec)``
    (``verify``), the draws from the start of ``start``'s block replayed first."""
    report = VerificationReport(spec)
    kind = _KINDS[spec.kind]
    idempotent: set[Code] = set()
    first = start - start % 1024
    for idx, code in enumerate(islice(_corpus_codes(spec), first, stop), first):
        if idx % 1024 == 0:
            getrandbits = random.Random((seed << 24) ^ idx).getrandbits
        n = sum(map(len, code)) // 2
        x = _draw(getrandbits, code, n)
        if idx < start:
            continue
        # The check whose kernels run: a raise fails it.
        check = "canonical-idempotence"
        try:
            if spec.dedupe and (form := _canonical(code)) != code:
                _idempotent(report, idempotent, code, form) or report.check(check, False)
                continue
            report.size += 1
            check = "carter-partition"
            quads = _quads(code)
            # The circles partition the darts only if the table is a permutation.
            slots = sorted(chain.from_iterable(quads))
            if not report.check(check, slots == list(range(4 * n))):
                observed = f"{len(set(slots))} distinct darts in {len(slots)} slots"
                report.fail(_text(code), check, observed, f"each of 0..{4 * n - 1} once")
                continue
            check = "mirror-circles"
            mirror = _table(_mirror(quads))
            check = "euler-parity"
            succ = _table(quads)
            # Decided before the walk consumes ``succ``; recorded after the
            # genus checks, which skip it on failure.
            mirrored = _reverses(succ, mirror)
            b = len(_faces(succ))
            twice_genus = n + 2 - b
            parity = twice_genus % 2 == 0
            if not report.check(check, parity):
                report.fail(_text(code), check, f"b={b} n={n}", "b = n mod 2")
            bounded = 1 <= b <= n + 2 and 0 <= twice_genus <= 2 * ((n + 1) // 2)
            if not report.check("genus-bounds", bounded):
                observed = f"b={b} genus={twice_genus / 2:g}"
                expected = "1 <= b <= n+2, 0 <= g <= (n+1)/2"
                report.fail(_text(code), "genus-bounds", observed, expected)
            if not (parity and bounded):
                continue
            # The next three are counted after their counterexample, whose
            # text reads kernel output: a raise there is the one failure.
            check = "mirror-circles"
            if not mirrored:
                observed = f"{len(_faces(mirror))} circles, not the reversed ones"
                report.fail(_text(code), check, observed, f"the {b} circles read backwards")
            report.check(check, mirrored)
            check = "isomorphism-invariance"
            moved = _moved(code, n, x)
            c1 = code if spec.dedupe else _canonical(code)
            same = len(_faces(_table(_quads(moved)))) == b and _canonical(moved) == c1
            if not same:
                observed = f"moved to {_text(moved)!r}"
                report.fail(_text(code), check, observed, "equal summary and canonical form")
            report.check(check, same)
            check = "canonical-idempotence"
            report.check(check, _idempotent(report, idempotent, code, c1))
            for check, own in kind.own:
                own(report, code, n, b)
        except Exception as e:
            report.check(check, False)
            report.fail(_text(code), check, f"raised {type(e).__name__}: {e}", "a verdict")
    report.empirical = kind.empirical(report)
    return report


def _idempotent(report: VerificationReport, idempotent: set[Code], code: Code, form: Code) -> bool:
    """Whether ``code``'s canonical form ``form`` is its own; if not, ``code`` fails."""
    if form not in idempotent and (again := _canonical(form)) != form:
        report.fail(_text(code), "canonical-idempotence", _text(again), _text(form))
        return False
    idempotent.add(form)
    return True
