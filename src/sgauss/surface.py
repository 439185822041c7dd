"""Ribbon graph of a signed Gauss paragraph and its boundary walks.

A paragraph with n symbols induces a 4-valent graph: one vertex per symbol,
one arc per consecutive-letter pair of each cyclic word (2n arcs in total).
Fixing, at every vertex, the counterclockwise order of the four incident arc
ends

    (out+, in-, in+, out-)

(the strand traversed with exponent -1 crosses the +1 strand from its left
to its right) turns the graph into a ribbon graph.  Tracing the boundary of
a regular neighborhood -- turn left at every crossing -- partitions the 4n
directed arc sides (darts) into Carter circles.  With b of them, the closed
surface obtained by capping the boundary has Euler characteristic
n - 2n + b, so its genus is (n + 2 - b) / 2; the paragraph is geometric
(realizable in the sphere) exactly when b = n + 2.

The opposite chirality would produce the mirror surface, which has the same
number of boundary walks, so b, the genus and the planarity verdict do not
depend on the convention (see ``RotationSystem.mirror``).

The circles are counted on integers, as in the permutation-triple view of a
map (sigma, alpha, phi = sigma alpha) of Lando & Zvonkin, *Graphs on
Surfaces and Their Applications* (2004), ch. 1.  Letters are numbered
0..2n-1 across the words in order; letter k starts arc k+1, whose forward
dart is 2k and whose backward dart is 2k+1, so reverse(d) = d ^ 1.  With P
and M the indices of a symbol's +1 and -1 letters and prev the previous
letter of the same cyclic word, the symbol's rotation is

    (2P, 2 prev(M) + 1, 2 prev(P) + 1, 2M)

(``_quads``).  The left-turn successor of a dart arriving at a crossing is
the slot before its reverse, succ[q[k] ^ 1] = q[k-1] for every slot k of
every quad, and the circles are the cycles of that table (``_faces``); the
mirror surface is the same call on the reversed quads.  Both take O(n) time
and 4n ints.  ``Arc``, ``Dart`` and ``RotationSystem`` are object views of
the same numbering, for the ``circles`` output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .model import NEGATIVE, POSITIVE, Occurrence, SignedLetter, SignedParagraph

__all__ = [
    "Arc",
    "Dart",
    "RotationSystem",
    "CarterCircle",
    "SurfaceSummary",
    "build_ribbon",
    "trace_circles",
    "summarize",
    "is_geometric",
    "carter_circles_symbolic",
]


class Arc(NamedTuple):
    """A directed edge between consecutive letters of a cyclic word (1-based id)."""

    id: int
    tail: Occurrence
    head: Occurrence


class Dart(NamedTuple):
    """One of the two directed sides of an arc."""

    arc: int
    forward: bool

    def reverse(self) -> "Dart":
        return Dart(self.arc, not self.forward)

    @property
    def signed_id(self) -> int:
        return self.arc if self.forward else -self.arc

    def __str__(self) -> str:
        return f"{self.signed_id:+d}"


@dataclass(frozen=True)
class RotationSystem:
    """Counterclockwise dart order at every crossing.

    ``rotations[sym]`` holds the quadruple (out+, in-, in+, out-) of darts
    based at ``sym``; incoming arc ends are represented by the reverse dart of
    the arriving arc, so each of the 4n darts occupies exactly one slot.
    """

    arcs: tuple[Arc, ...]
    rotations: dict[str, tuple[Dart, Dart, Dart, Dart]]

    @property
    def n(self) -> int:
        return len(self.rotations)

    def arc(self, id: int) -> Arc:
        return self.arcs[id - 1]

    def darts(self) -> Iterator[Dart]:
        for a in self.arcs:
            yield Dart(a.id, True)
            yield Dart(a.id, False)

    def vertex_of(self, d: Dart) -> str:
        """Symbol of the crossing the dart arrives at."""
        a = self.arc(d.arc)
        return (a.head if d.forward else a.tail).sym

    def successor(self, d: Dart) -> Dart:
        """Left-turn rule: the outgoing dart immediately preceding reverse(d)
        in the counterclockwise order at the crossing d arrives at."""
        rot = self.rotations[self.vertex_of(d)]
        return rot[rot.index(d.reverse()) - 1]

    def mirror(self) -> "RotationSystem":
        """Reverse every cyclic order; the mirror embedding."""
        return RotationSystem(
            self.arcs, {s: tuple(reversed(q)) for s, q in self.rotations.items()}
        )


@dataclass(frozen=True)
class CarterCircle:
    """One boundary walk: a cyclically-ordered orbit of darts."""

    darts: tuple[Dart, ...]

    def __len__(self) -> int:
        return len(self.darts)

    def signed_ids(self) -> tuple[int, ...]:
        return tuple(d.signed_id for d in self.darts)


class SurfaceSummary(NamedTuple):
    """Size data of the minimal realization surface."""

    n: int
    edges: int
    b: int
    euler: int
    genus: int

    @property
    def geometric(self) -> bool:
        return self.genus == 0

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "edges": self.edges,
            "b": self.b,
            "euler": self.euler,
            "genus": self.genus,
            "geometric": self.geometric,
        }


def _quads(p: SignedParagraph) -> dict[str, tuple[int, int, int, int]]:
    """The integer rotation (out+, in-, in+, out-) of every symbol of ``p``."""
    ends: tuple[dict, dict] = ({}, {})  # by exponent: sym -> (out dart, in dart)
    k = 0
    for w in p.words:
        arriving = 2 * (k + len(w)) - 1  # backward dart of the arc into letter k
        for l in w.letters:
            ends[l.exp == NEGATIVE][l.sym] = (2 * k, arriving)
            arriving = 2 * k + 1
            k += 1
    plus, minus = ends
    quads = {}
    for sym, (out_p, in_p) in plus.items():
        out_m, in_m = minus[sym]
        quads[sym] = (out_p, in_m, in_p, out_m)
    return quads


def _faces(quads) -> list[list[int]]:
    """Orbits of the left-turn successor table on the 4n darts of ``quads``
    (a collection of integer rotations), in order of least dart, each listed
    from it."""
    size = 4 * len(quads)
    succ = [0] * size
    for a, b, c, d in quads:
        succ[a ^ 1] = d
        succ[b ^ 1] = a
        succ[c ^ 1] = b
        succ[d ^ 1] = c
    seen = bytearray(size)
    faces = []
    for start in range(size):
        if seen[start]:
            continue
        orbit = []
        d = start
        while not seen[d]:
            seen[d] = 1
            orbit.append(d)
            d = succ[d]
        faces.append(orbit)
    return faces


def _dart(d: int) -> Dart:
    return Dart(d // 2 + 1, not d & 1)


def build_ribbon(p: SignedParagraph) -> RotationSystem:
    """The rotation system induced by ``p`` under the fixed chirality.

    The arc following the +1 occurrence of a symbol supplies its out+ end,
    the arc preceding the -1 occurrence supplies in-, and so on.
    """
    arcs: list[Arc] = []
    for wi, w in enumerate(p.words):
        length = len(w)
        for i in range(length):
            a, b = w[i], w.at(i + 1)
            arcs.append(
                Arc(
                    len(arcs) + 1,
                    Occurrence(a.sym, a.exp, wi, i),
                    Occurrence(b.sym, b.exp, wi, (i + 1) % length),
                )
            )
    quads = _quads(p)
    rotations = {sym: tuple(map(_dart, quads[sym])) for sym in sorted(quads)}
    return RotationSystem(tuple(arcs), rotations)


def trace_circles(r: RotationSystem) -> list[CarterCircle]:
    """Orbits of the left-turn successor map; they partition all 4n darts.

    Circles are returned sorted by their least dart, each listed starting
    from it, so the output is deterministic.
    """
    darts = list(r.darts())  # dart number d is darts[d]
    quads = [
        tuple(2 * d.arc - 1 - d.forward for d in quad) for quad in r.rotations.values()
    ]
    return [CarterCircle(tuple(darts[d] for d in f)) for f in _faces(quads)]


def _summary(n: int, b: int) -> SurfaceSummary:
    twice_genus = n + 2 - b
    if twice_genus < 0 or twice_genus % 2:
        raise RuntimeError(
            f"internal consistency failure: n={n}, b={b} gives no integer genus"
        )
    return SurfaceSummary(n=n, edges=2 * n, b=b, euler=b - n, genus=twice_genus // 2)


def summarize(p: SignedParagraph) -> SurfaceSummary:
    """Crossing count, Carter circle count, Euler characteristic and genus."""
    return _summary(p.n, len(_faces(_quads(p).values())))


def is_geometric(p: SignedParagraph) -> bool:
    """Whether ``p`` is realizable in the sphere (genus 0, i.e. b = n + 2)."""
    return summarize(p).genus == 0


def _letter_token(o: Occurrence) -> str:
    return o.sym if o.exp == POSITIVE else f"{o.sym}^-1"


def edge_token(d: Dart, r: RotationSystem) -> str:
    """Render a dart as a signed edge, e.g. ``+[a,b^-1]``."""
    a = r.arc(d.arc)
    sign = "+" if d.forward else "-"
    return f"{sign}[{_letter_token(a.tail)},{_letter_token(a.head)}]"


def carter_circles_symbolic(p: SignedParagraph) -> list[tuple[str, ...]]:
    """The Carter circles rendered as signed-edge words, in trace order."""
    r = build_ribbon(p)
    return [tuple(edge_token(d, r) for d in c.darts) for c in trace_circles(r)]
