"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; every
expected value here is an exact integer, frozen from hand orbit/segment
enumeration and double-checked by the independent band-side oracle.
"""

from __future__ import annotations

import io
import random
import time
from pathlib import Path

import pytest

from bandwalk import boundary_count
from conftest import addresses
from letters import SignedLetter, paragraph, words_of
from sgauss.cli import main
from sgauss.homology import pairing, profile, word_is_planar_homology
from sgauss.model import canonicalize, parse_paragraph, render
from sgauss.surface import build_ribbon, is_geometric, summarize, trace_circles
from sgauss.transforms import fresh_symbol, join
from sgauss.verify import apply_random_moves


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"acceptance {num} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_equivalence_exhaustive(words_le_4):
    t0 = time.perf_counter()
    disagreements = [
        render(p)
        for p in words_le_4
        if word_is_planar_homology(p) != is_geometric(p)
    ]
    elapsed = time.perf_counter() - t0
    ok = not disagreements and elapsed < 60.0
    report(
        1,
        "criterion-equivalence",
        ok,
        f"corpus={len(words_le_4)} disagreements={len(disagreements)} "
        f"elapsed={elapsed:.2f}s",
    )


def test_criterion_2_spot_values():
    s = summarize(parse_paragraph("a -a"))
    ok = (s.b, s.genus) == (3, 0) and word_is_planar_homology(parse_paragraph("a -a"))

    w = parse_paragraph("a b -a -b")
    s2 = summarize(w)
    pr = profile(w)
    ok = ok and (s2.b, s2.genus) == (2, 1)
    ok = ok and pr.alpha == {"a": 1, "b": -1}
    ok = ok and pr.beta.get(("a", "b"), 0) == 1 and pr.beta.get(("b", "a"), 0) == -1

    s3 = summarize(parse_paragraph("a -a b -b"))
    ok = ok and (s3.b, s3.genus) == (4, 0)
    ok = ok and profile(parse_paragraph("a -a b -b")).is_zero

    p4 = parse_paragraph("a -b / -a b")
    s4 = summarize(p4)
    ok = ok and (s4.b, s4.genus, pairing(p4)) == (4, 0, 0)

    p5 = parse_paragraph("a b / -a -b")
    ok = ok and pairing(p5) == 2 and summarize(p5).genus >= 1

    report(2, "spot-values", ok)


def test_criterion_3_genus_formula(words_le_4, paragraphs_le_3):
    bad = []
    for p in words_le_4 + paragraphs_le_3:
        s = summarize(p)
        rhs = s.n + 2 - s.b
        if rhs < 0 or rhs % 2 or s.genus != rhs // 2:
            bad.append(render(p))
    report(
        3,
        "genus-formula",
        not bad,
        f"corpus={len(words_le_4) + len(paragraphs_le_3)} violations={len(bad)}",
    )


def test_criterion_4_carter_partition(words_le_4, paragraphs_le_3):
    bad = []
    for p in words_le_4 + paragraphs_le_3:
        circles = trace_circles(build_ribbon(p))
        darts = [d for c in circles for d in c.darts]
        if len(darts) != 4 * p.n or len(set(darts)) != 4 * p.n:
            bad.append(render(p))
        if len(circles) != boundary_count(p):  # independent oracle
            bad.append(render(p))
    report(
        4,
        "carter-partition",
        not bad,
        f"corpus={len(words_le_4) + len(paragraphs_le_3)} violations={len(bad)}",
    )


def test_criterion_5_isomorphism_invariance():
    rng = random.Random(20260810)
    letters = "abcdef"
    failures = 0
    for _ in range(1000):
        n = rng.randint(1, 6)
        pool = [(letters[i], e) for i in range(n) for e in (1, -1)]
        rng.shuffle(pool)
        p = paragraph(([SignedLetter(s, e) for s, e in pool],))
        q = apply_random_moves(p, rng)
        same_summary = summarize(q) == summarize(p)
        same_verdict = word_is_planar_homology(q) == word_is_planar_homology(p)
        same_canon = canonicalize(q) == canonicalize(p)
        if not (same_summary and same_verdict and same_canon):
            failures += 1
    report(5, "isomorphism-invariance", failures == 0, f"samples=1000 failures={failures}")


def test_criterion_6_join_genus_preservation(paragraphs_le_3):
    violations = 0
    shifts = set()
    joins = 0
    for p in paragraphs_le_3:
        s = summarize(p)
        for sym, (plus, minus) in sorted(addresses(p).items()):
            if plus[0] == minus[0]:
                continue
            joined = join(p, sym, fresh_symbol(p.alphabet, "z"))
            sj = summarize(joined)
            joins += 1
            shifts.add(sj.b - s.b)
            if sj.genus != s.genus:
                violations += 1
    # Fresh-name choice is immaterial: spot-check two names on one paragraph.
    p = parse_paragraph("a -b / -a b")
    same = summarize(join(p, "a", "c")) == summarize(join(p, "a", "q7"))
    ok = violations == 0 and len(shifts) == 1 and same
    report(
        6,
        "join-genus-preservation",
        ok,
        f"joins={joins} violations={violations} measured b-shift={sorted(shifts)}",
    )


def test_criterion_7_pairing_antisymmetry(paragraphs_le_3):
    bad = 0
    for p in paragraphs_le_3:
        swapped = paragraph(reversed(words_of(p)))
        if pairing(swapped) != -pairing(p):
            bad += 1
    report(
        7,
        "pairing-antisymmetry",
        bad == 0,
        f"corpus={len(paragraphs_le_3)} violations={bad}",
    )


def test_criterion_8_beta_antisymmetry(words_le_4):
    holds = 0
    violations = []
    for p in words_le_4:
        pr = profile(p)
        if all(v == -pr.beta[j, i] for (i, j), v in pr.beta.items()):
            holds += 1
        else:
            violations.append(render(p))
    fraction = holds / len(words_le_4)
    for v in violations:
        print(f"  beta-antisymmetry violated by {v!r}")
    # Measured at 100% on the exhaustive corpus, so promoted to a hard invariant.
    report(
        8,
        "beta-antisymmetry",
        fraction == 1.0,
        f"fraction={fraction:.4f} ({holds}/{len(words_le_4)})",
    )


def test_criterion_9_round_trip_and_golden(
    words_le_4, paragraphs_le_3, capsys, monkeypatch
):
    bad = sum(
        1 for p in words_le_4 + paragraphs_le_3 if parse_paragraph(render(p)) != p
    )

    golden_dir = Path(__file__).parent / "golden"
    spot = {"kink": "a -a", "torus": "a b -a -b", "twokinks": "a -a b -b"}
    commands = [
        (["summary"], "summary.txt"),
        (["summary", "--json"], "summary.json"),
        (["circles"], "circles.txt"),
        (["profile", "--json"], "profile.json"),
        (["canon"], "canon.txt"),
    ]
    monkeypatch.setenv("GAUSS_COLOR", "0")
    stable = True
    for name, text in spot.items():
        for argv, suffix in commands:
            outs = []
            for _ in range(2):
                stdin = io.TextIOWrapper(io.BytesIO(text.encode()), "utf-8")
                monkeypatch.setattr("sys.stdin", stdin)
                assert main(argv) == 0
                outs.append(capsys.readouterr().out.encode())
            golden = (golden_dir / f"{name}_{suffix}").read_bytes()
            if not (outs[0] == outs[1] == golden):
                stable = False
    report(
        9,
        "round-trip-and-golden",
        bad == 0 and stable,
        f"round-trip-failures={bad} golden-stable={stable}",
    )
