"""The ``verify`` sweep on paragraph objects, used as the test oracle for the
integer-code sweep in ``sgauss.verify``.

It runs every check on ``SignedParagraph`` objects through the public
functions: ``enumerate_corpus``, ``build_ribbon``, ``trace_circles``,
``RotationSystem.mirror``, ``canonicalize``, ``summarize``, ``profile``,
``pairing`` and ``join``, and renders every counterexample eagerly.  Each
object draws the number of its moved copy with ``random.Random.randrange``,
from a generator seeded at every 1,024th object, and the copy is made on
letter objects by ``conftest.rotate`` and ``relabel`` (``moves_by_objects``).
Its report must equal the one ``verify`` gives, check by check and
counterexample by counterexample.  ``record`` counts one object under a
check and renders its counterexample on failure.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain
from math import factorial, prod

from conftest import addresses, rotate
from letters import paragraph, words_of
from sgauss.homology import pairing, profile
from sgauss.model import SignedParagraph, canonicalize, relabel, render
from sgauss.surface import SurfaceSummary, build_ribbon, summarize, trace_circles
from sgauss.transforms import fresh_symbol, join
from sgauss.verify import (
    KIND_WORDS,
    CorpusSpec,
    VerificationReport,
    enumerate_corpus,
)


def record(
    report: VerificationReport,
    name: str,
    ok: bool,
    p: SignedParagraph,
    observed: str,
    expected: str,
) -> None:
    if not report.check(name, ok):
        report.fail(render(p), name, observed, expected)


def isomorphisms(p: SignedParagraph) -> int:
    """The order of the isomorphism group that ``moves_by_objects`` numbers:
    a rotation of each word, an order of the words and a symbol permutation."""
    words = words_of(p)
    return prod(map(len, words)) * factorial(len(words)) * factorial(p.n)


def moves_by_objects(p: SignedParagraph, x: int) -> SignedParagraph:
    """The isomorph of ``p`` numbered ``x`` below ``isomorphisms(p)``, made
    on letter objects.  x is cut into its mixed-radix digits, lowest first:
    one rotation per word (radix its length), then the swaps of a
    Fisher-Yates shuffle of the words (radices M, M - 1, .., 2) and of the
    sorted names (n, n - 1, .., 2); each word is rotated by ``rotate``, the
    words reordered and the names moved by ``relabel``."""
    words = list(words_of(p))
    names = sorted(p.alphabet)
    radices = [*map(len, words), *range(len(words), 1, -1), *range(len(names), 1, -1)]
    digits = []
    for radix in radices:
        x, d = divmod(x, radix)
        digits.append(d)
    digit = iter(digits).__next__
    words = [rotate(w, digit()) for w in words]
    shuffled = names[:]
    for items in (words, shuffled):
        for i in range(len(items) - 1, 0, -1):
            j = digit()
            items[i], items[j] = items[j], items[i]
    return relabel(paragraph(words), dict(zip(names, shuffled)))


def cyclic_backwards(darts: tuple[int, ...]) -> tuple[int, ...]:
    """A circle read backwards on the reverse darts, from its least dart."""
    r = [d ^ 1 for d in reversed(darts)]
    i = r.index(min(r))
    return tuple(r[i:] + r[:i])


def verify_by_objects(spec: CorpusSpec, *, seed: int = 0) -> VerificationReport:
    report = VerificationReport(spec)
    shift_counter: Counter[int] = Counter()
    beta_checked = 0
    beta_holds = 0
    beta_violations: list[str] = []

    for idx, p in enumerate(enumerate_corpus(spec)):
        report.size += 1
        if idx % 1024 == 0:
            rng = random.Random((seed << 24) ^ idx)
        x = rng.randrange(isomorphisms(p))
        r = build_ribbon(p)
        slots = sorted(chain.from_iterable(r.quads.values()))
        partition = slots == list(range(4 * p.n))
        record(
            report,
            "carter-partition",
            partition,
            p,
            f"{len(set(slots))} distinct darts in {len(slots)} slots",
            f"each of 0..{4 * p.n - 1} once",
        )
        if not partition:
            continue
        circles = trace_circles(r)
        n, b = p.n, len(circles)
        parity = (b - n) % 2 == 0
        record(report, "euler-parity", parity, p, f"b={b} n={n}", "b = n mod 2")
        genus = (n + 2 - b) / 2
        bounded = 1 <= b <= n + 2 and 0 <= genus <= (n + 1) // 2
        record(
            report,
            "genus-bounds",
            bounded,
            p,
            f"b={b} genus={genus:g}",
            "1 <= b <= n+2, 0 <= g <= (n+1)/2",
        )
        if not (parity and bounded):
            continue
        s = SurfaceSummary(n, 2 * n, b, b - n, int(genus))
        mirror = trace_circles(r.mirror())
        record(
            report,
            "mirror-circles",
            {c.darts for c in mirror} == {cyclic_backwards(c.darts) for c in circles},
            p,
            f"{len(mirror)} circles, not the reversed ones",
            f"the {b} circles read backwards",
        )
        q = moves_by_objects(p, x)
        c1 = canonicalize(p)
        record(
            report,
            "isomorphism-invariance",
            summarize(q) == s and canonicalize(q) == c1,
            p,
            f"moved to {render(q)!r}",
            "equal summary and canonical form",
        )
        c2 = canonicalize(c1)
        record(report, "canonical-idempotence", c2 == c1, p, render(c2), render(c1))

        if len(p._code) == 1:
            pr = profile(p)
            record(
                report,
                "criterion-equivalence",
                pr.is_zero == s.geometric,
                p,
                f"profile zero={pr.is_zero}",
                f"geometric={s.geometric}",
            )
            holds = all(v == -pr.beta[j, i] for (i, j), v in pr.beta.items())
            beta_checked += 1
            beta_holds += holds
            if not holds:
                beta_violations.append(render(p))
        else:
            record(
                report,
                "null-pairing",
                s.genus > 0 or pairing(p) == 0,
                p,
                f"genus={s.genus} pairing={pairing(p)}",
                "pairing 0 on genus 0",
            )
            ok_join = True
            for sym, (plus, minus) in sorted(addresses(p).items()):
                if plus[0] == minus[0]:
                    continue
                joined = join(p, sym, fresh_symbol(p.alphabet, "z"))
                bj = len(trace_circles(build_ribbon(joined)))
                ok_join = ok_join and (joined.n + 2 - bj) == 2 * s.genus
                shift_counter[bj - s.b] += 1
            record(
                report, "join-genus", ok_join, p, "genus changed under some join", "preserved"
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
