"""Independent boundary-circle counter used as the test oracle for b(w).

Thicken every arc of the code into a band with a left and a right side
(relative to its travel direction; well defined because the neighborhood is
orientable).  At a crossing, draw the +1 strand west-to-east and the -1
strand north-to-south; the four corners of the crossing square then glue
band sides pairwise:

    NE: left(out+)  ~ left(in-)
    NW: left(in+)   ~ right(in-)
    SW: right(in+)  ~ right(out-)
    SE: right(out+) ~ left(out-)

Every side end receives exactly one gluing, so the side segments fall into
closed curves: the boundary circles of the thickened code.  Counting them
with a union-find over sides shares nothing with the package's
rotation-system face tracing, which is the point.
"""

from __future__ import annotations

from letters import words_of
from sgauss.model import SignedParagraph


def boundary_count(p: SignedParagraph) -> int:
    start_at: dict[tuple[str, int], int] = {}
    end_at: dict[tuple[str, int], int] = {}
    arcs = 0
    for w in words_of(p):
        length = len(w)
        for i in range(length):
            a, b = w[i], w[(i + 1) % length]
            start_at[(a.sym, a.exp)] = arcs
            end_at[(b.sym, b.exp)] = arcs
            arcs += 1

    parent = list(range(2 * arcs))  # side 2k = left of arc k, 2k+1 = right

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    def left(arc: int) -> int:
        return 2 * arc

    def right(arc: int) -> int:
        return 2 * arc + 1

    for sym in p.alphabet:
        out_pos = start_at[(sym, 1)]
        in_pos = end_at[(sym, 1)]
        out_neg = start_at[(sym, -1)]
        in_neg = end_at[(sym, -1)]
        union(left(out_pos), left(in_neg))
        union(left(in_pos), right(in_neg))
        union(right(in_pos), right(out_neg))
        union(right(out_pos), left(out_neg))

    return len({find(x) for x in range(2 * arcs)})
