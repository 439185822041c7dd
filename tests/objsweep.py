"""The ``verify`` sweep on paragraph objects, used as the test oracle for the
integer-code sweep in ``sgauss.verify``.

It runs every check on ``SignedParagraph`` objects through the public
functions: ``enumerate_corpus``, ``build_ribbon``, ``trace_circles``,
``RotationSystem.mirror``, ``canonicalize``, ``summarize``, ``profile``,
``pairing`` and ``join``, and renders every counterexample eagerly.  The
random moves are made on objects by ``conftest.rotate`` and ``relabel``
(``moves_by_objects``).  Its report must equal the one ``verify`` gives,
check by check and counterexample by counterexample.  ``record`` counts one
object under a check and renders its counterexample on failure.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain

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


def moves_by_objects(p: SignedParagraph, rng: random.Random) -> SignedParagraph:
    """1 to 8 random per-word rotations, word-order permutations and
    relabelings, drawing from ``rng`` as ``apply_random_moves`` does."""
    for _ in range(rng.randint(1, 8)):
        kind = rng.randrange(3)
        if kind == 0:
            words = list(words_of(p))
            i = rng.randrange(len(words))
            k = rng.randrange(len(words[i]))
            words[i] = rotate(words[i], k)
            p = paragraph(words)
        elif kind == 1:
            words = words_of(p)
            order = list(range(len(words)))
            rng.shuffle(order)
            p = paragraph(words[i] for i in order)
        else:
            names = sorted(p.alphabet)
            shuffled = names[:]
            rng.shuffle(shuffled)
            p = relabel(p, dict(zip(names, shuffled)))
    return p


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
        rng = random.Random((seed << 24) ^ idx)
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
        q = moves_by_objects(p, rng)
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
