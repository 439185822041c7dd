"""Ribbon construction, Carter circle tracing, genus; checked against the
independent band-side oracle."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bandwalk import boundary_count
from conftest import signed_paragraphs, signed_words
from letters import paragraph, words_of
from darttrace import successor, trace_circles_by_objects
from sgauss.model import SignedParagraph, parse_paragraph
from sgauss.surface import build_ribbon, is_geometric, summarize, trace_circles
from sgauss.verify import apply_random_moves


def P(text: str) -> SignedParagraph:
    return parse_paragraph(text)


class TestBuildRibbon:
    def test_smallest_word_quadruple(self):
        # Arcs: 1 = a+ -> a- (darts 0, 1), 2 = a- -> a+ (darts 2, 3).
        # Slots (out+, in-, in+, out-).
        r = build_ribbon(P("a -a"))
        assert r.quads["a"] == (0, 1, 3, 2)
        assert (r.names, r.codes) == (("a",), (0, 1))
        assert r.heads == (1, 0)

    def test_arc_count(self):
        r = build_ribbon(P("a b -a -b"))
        assert len(r.heads) == 4
        assert set(r.quads) == {"a", "b"}

    @given(signed_paragraphs())
    def test_every_dart_in_exactly_one_slot(self, p):
        r = build_ribbon(p)
        slots = [d for quad in r.quads.values() for d in quad]
        assert sorted(slots) == list(range(4 * p.n))

    def test_length_one_words(self):
        r = build_ribbon(P("a / -a"))
        assert r.heads == (0, 1)
        # Both arcs are loops at the single crossing.
        assert all(
            r.names[r.codes[k] >> 1] == r.names[r.codes[h] >> 1] == "a"
            for k, h in enumerate(r.heads)
        )


class TestTraceCircles:
    @pytest.mark.parametrize(
        "text,b",
        [
            ("a -a", 3),
            ("a b -a -b", 2),
            ("a -a b -b", 4),
            ("a -b / -a b", 4),
            ("a b / -a -b", 2),
            ("a / -a", 1),
        ],
    )
    def test_hand_enumerated_counts(self, text, b):
        assert len(trace_circles(build_ribbon(P(text)))) == b

    def test_smallest_word_orbits(self):
        circles = trace_circles(build_ribbon(P("a -a")))
        assert [c.signed_ids() for c in circles] == [(1,), (-1, 2), (-2,)]

    @given(signed_paragraphs())
    def test_partition(self, p):
        circles = trace_circles(build_ribbon(p))
        darts = [d for c in circles for d in c.darts]
        assert len(darts) == 4 * p.n
        assert len(set(darts)) == 4 * p.n

    @given(signed_paragraphs())
    def test_matches_band_oracle(self, p):
        assert len(trace_circles(build_ribbon(p))) == boundary_count(p)

    @given(signed_paragraphs())
    def test_consecutive_darts_satisfy_successor_rule(self, p):
        r = build_ribbon(p)
        for c in trace_circles(r):
            for i, d in enumerate(c.darts):
                assert successor(r, d) == c.darts[(i + 1) % len(c)]

    def test_band_oracle_on_corpus(self, words_le_4, paragraphs_le_3):
        for p in words_le_4 + paragraphs_le_3:
            assert len(trace_circles(build_ribbon(p))) == boundary_count(p)


class TestAgainstObjectTracer:
    """The integer successor table against the dart-object oracle."""

    @staticmethod
    def check(p):
        r = build_ribbon(p)
        circles = trace_circles(r)
        assert circles == trace_circles_by_objects(r)
        mirror = r.mirror()
        assert len(trace_circles(mirror)) == len(trace_circles_by_objects(mirror))
        assert summarize(p).b == len(circles) == boundary_count(p)

    def test_corpus(self, words_le_4, paragraphs_le_3):
        for p in words_le_4 + paragraphs_le_3:
            self.check(p)

    @given(signed_paragraphs(max_symbols=8))
    def test_hypothesis_paragraphs(self, p):
        self.check(p)


class TestSummarize:
    @pytest.mark.parametrize(
        "text,n,b,genus",
        [
            ("a -a", 1, 3, 0),
            ("a b -a -b", 2, 2, 1),
            ("a -b / -a b", 2, 4, 0),
            ("a -a b -b", 2, 4, 0),
            ("a / -a", 1, 1, 1),
        ],
    )
    def test_spot_values(self, text, n, b, genus):
        s = summarize(P(text))
        assert (s.n, s.b, s.genus) == (n, b, genus)
        assert s.edges == 2 * n
        assert s.euler == b - n

    @pytest.mark.parametrize(
        "text,geo",
        [("a -a", True), ("a b -a -b", False), ("a -b / -a b", True)],
    )
    def test_is_geometric(self, text, geo):
        assert is_geometric(P(text)) is geo

    def test_as_dict(self):
        assert summarize(P("a -a")).as_dict() == {
            "n": 1,
            "edges": 2,
            "b": 3,
            "euler": 2,
            "genus": 0,
            "geometric": True,
        }

    @given(signed_paragraphs())
    def test_parity_and_bounds(self, p):
        s = summarize(p)
        assert (s.b - s.n) % 2 == 0
        assert 1 <= s.b <= s.n + 2
        assert 0 <= s.genus <= (s.n + 1) // 2

    def test_internal_consistency_guard(self, monkeypatch):
        # An impossible circle count must be reported as a bug, not as data.
        import sgauss.surface as surface

        monkeypatch.setattr(surface, "_faces", lambda succ: [])
        with pytest.raises(RuntimeError, match="internal consistency"):
            surface.summarize(P("a -a"))


def symbolic(p: SignedParagraph) -> list[tuple[str, ...]]:
    """The Carter circles rendered as signed edges, in trace order."""
    r = build_ribbon(p)
    return [tuple(map(r._edges.__getitem__, c.darts)) for c in trace_circles(r)]


def crossings(edge: str) -> tuple[str, str]:
    """The crossings a rendered dart leaves and arrives at."""
    tail, head = (t.removesuffix("^-1") for t in edge[2:-1].split(","))
    return (tail, head) if edge[0] == "+" else (head, tail)


class TestSymbolicCircles:
    """Darts rendered by ``RotationSystem._edges``, as ``circles`` shows them."""

    def test_smallest_word(self):
        assert symbolic(P("a -a")) == [
            ("+[a,a^-1]",),
            ("-[a,a^-1]", "+[a^-1,a]"),
            ("-[a^-1,a]",),
        ]

    def test_partitions_signed_edges(self):
        circles = symbolic(P("a -a"))
        tokens = [t for c in circles for t in c]
        assert sorted(tokens) == sorted(
            ["+[a,a^-1]", "-[a,a^-1]", "+[a^-1,a]", "-[a^-1,a]"]
        )

    @given(signed_paragraphs())
    def test_total_length(self, p):
        circles = symbolic(p)
        assert sum(len(c) for c in circles) == 4 * p.n

    def test_same_orbit_sizes_as_trace(self):
        p = P("a b -a -b")
        sym = symbolic(p)
        tr = trace_circles(build_ribbon(p))
        assert sorted(map(len, sym)) == sorted(map(len, tr))
        assert sum(map(len, sym)) == 8

    def test_dart_numbering(self):
        r = build_ribbon(P("a -b / -a b"))
        assert r._edges[:4] == [
            "+[a,b^-1]",
            "-[a,b^-1]",
            "+[b^-1,a]",
            "-[b^-1,a]",
        ]
        assert r._edges[4:8:2] == ["+[a^-1,b]", "+[b,a^-1]"]

    @given(signed_paragraphs())
    def test_distinct_and_reversible(self, p):
        r = build_ribbon(p)
        edges = r._edges
        assert len(edges) == len(set(edges)) == 4 * p.n
        for d in range(0, 4 * p.n, 2):
            assert (edges[d][0], edges[d + 1][0]) == ("+", "-")
            assert edges[d][1:] == edges[d + 1][1:]

    @given(signed_paragraphs())
    def test_circles_turn_at_crossings(self, p):
        # Each dart of a circle arrives at the crossing the next one leaves.
        for c in symbolic(p):
            ends = list(map(crossings, c))
            for i, (_, head) in enumerate(ends):
                assert ends[(i + 1) % len(ends)][0] == head


class TestInvariance:
    @given(signed_paragraphs(), st.randoms(use_true_random=False))
    def test_isomorphism_moves_preserve_summary(self, p, rng):
        q = apply_random_moves(p, rng)
        assert summarize(q) == summarize(p)

    @given(signed_paragraphs())
    def test_mirror_preserves_b(self, p):
        r = build_ribbon(p)
        assert len(trace_circles(r.mirror())) == len(trace_circles(r))

    def test_kink_deletion(self, words_le_4):
        # Removing an adjacent +/- pair drops n and b by one, fixing genus.
        for p in words_le_4:
            (w,) = words_of(p)
            if len(w) <= 2:
                continue
            length = len(w)
            for i in range(length):
                if w[i].sym == w[(i + 1) % length].sym:
                    rest = [
                        w[j] for j in range(length) if j not in (i, (i + 1) % length)
                    ]
                    s0 = summarize(p)
                    s1 = summarize(paragraph((rest,)))
                    assert s1.n == s0.n - 1
                    assert s1.b == s0.b - 1
                    assert s1.genus == s0.genus
                    break


def cyclic(darts) -> tuple[int, ...]:
    """A cyclic sequence of distinct darts, read from its least dart."""
    i = darts.index(min(darts))
    return tuple(darts[i:] + darts[:i])


class TestMirror:
    """The mirror surface has the same boundary walks traversed the other
    way: each circle read backwards, on the reverse darts."""

    @staticmethod
    def check(p):
        r = build_ribbon(p)
        backwards = {
            cyclic([d ^ 1 for d in reversed(c.darts)]) for c in trace_circles(r)
        }
        assert {cyclic(list(c.darts)) for c in trace_circles(r.mirror())} == backwards

    def test_corpus(self, words_le_4, paragraphs_le_3):
        for p in words_le_4 + paragraphs_le_3:
            self.check(p)

    @given(signed_paragraphs(max_symbols=8))
    def test_hypothesis_paragraphs(self, p):
        self.check(p)
