"""Dart-by-dart Carter circle tracer used as the test oracle for the integer
successor table in ``sgauss.surface``.

It applies the left-turn rule to one dart at a time, reading the ribbon off
``RotationSystem`` the way the rule is stated: the crossing a dart arrives
at (from ``names``, ``codes`` and ``heads``), the slot of the reverse dart in that
crossing's rotation, and the slot before it.  It does not use the successor
table that ``surface._table`` builds.
"""

from __future__ import annotations

from sgauss.surface import CarterCircle, RotationSystem


def arrival(r: RotationSystem, d: int) -> str:
    """Symbol of the crossing dart ``d`` arrives at: the head of its arc if
    ``d`` is forward (even), the tail if backward (odd)."""
    k = d // 2
    return r.names[(r.codes[k] if d % 2 else r.codes[r.heads[k]]) >> 1]


def successor(r: RotationSystem, d: int) -> int:
    """Left-turn rule: the outgoing dart immediately preceding reverse(d)
    in the counterclockwise order at the crossing ``d`` arrives at."""
    rot = r.quads[arrival(r, d)]
    reverse = d + 1 if d % 2 == 0 else d - 1
    return rot[rot.index(reverse) - 1]


def trace_circles_by_objects(r: RotationSystem) -> list[CarterCircle]:
    """Orbits of ``successor``, in order of least dart, each from it."""
    seen: set[int] = set()
    circles: list[CarterCircle] = []
    for start in range(2 * len(r.codes)):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        d = successor(r, start)
        while d != start:
            orbit.append(d)
            seen.add(d)
            d = successor(r, d)
        circles.append(CarterCircle(tuple(orbit)))
    return circles
