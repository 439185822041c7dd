"""Object-based Carter circle tracer used as the test oracle for the
integer successor table in ``sgauss.surface``.

It follows ``RotationSystem.successor`` one dart object at a time (the
crossing a dart arrives at, the position of the reverse dart in that
crossing's rotation, the slot before it), which is how the package traced
circles before the dart table replaced it.
"""

from __future__ import annotations

from sgauss.surface import CarterCircle, Dart, RotationSystem


def trace_circles_by_objects(r: RotationSystem) -> list[CarterCircle]:
    """Orbits of ``r.successor``, in order of least dart, each from it."""
    seen: set[Dart] = set()
    circles: list[CarterCircle] = []
    for start in r.darts():
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        d = r.successor(start)
        while d != start:
            orbit.append(d)
            seen.add(d)
            d = r.successor(d)
        circles.append(CarterCircle(tuple(orbit)))
    return circles
