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
0..2n-1 across the words of the integer code the paragraph stores
(``SignedParagraph._code``) in order; letter k starts arc k+1, whose forward
dart is 2k and whose backward dart is 2k+1, so reverse(d) = d ^ 1.  With P
and M the indices of a symbol's +1 and -1 letters and prev the previous
letter of the same cyclic word, the symbol's rotation is

    (2P, 2 prev(M) + 1, 2 prev(P) + 1, 2M)

(``_quads``, on the code).  The left-turn successor of a dart arriving at
a crossing is the slot before its reverse, succ[q[k] ^ 1] = q[k-1] for every
slot k of every quad (``_table``), and the circles are the cycles of that
table (``_faces``), which marks a visited dart by setting its entry to -1, so
the walk needs no seen array and consumes the table; the mirror surface is
the same two calls on the reversed quads (``_mirror``).  Both take O(n) time
and 4n ints.

The mirror's table is rho phi^-1 rho, with phi the table of the quads and
rho(d) = d ^ 1: reversing quad q gives mirror[q[k] ^ 1] = q[k+1], so
mirror[phi[d] ^ 1] = d ^ 1 for every dart d, and its cycles are those of phi
read backwards on the reverse darts.  ``verify`` checks the mirror by this
identity on the tables, without walking the mirror's circles.

``RotationSystem`` holds this numbering and nothing else: the paragraph's
symbol ``names`` and the ``codes`` of its 2n letters in order, ``heads``
(arc k+1 runs from letter k to letter ``heads[k]``) and ``quads`` (the
rotation of every symbol).  It renders each of the 2n arcs once, as
``[a,b^-1]``, and a dart as its arc behind a sign (``_edges``) and as its
signed arc id (``_ids``) for the ``circles`` output.  A ``CarterCircle`` is
a tuple of dart numbers.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .model import Code, SignedParagraph, _Value

__all__ = [
    "RotationSystem",
    "CarterCircle",
    "SurfaceSummary",
    "build_ribbon",
    "trace_circles",
    "summarize",
    "is_geometric",
]


class RotationSystem(_Value):
    """Counterclockwise dart order at every crossing, on the dart numbering.

    Letter k, counted across the words in order, has code ``codes[k]``
    (2i + (exp == -1) for symbol ``names[i]``); arc k+1 runs from letter k
    to letter ``heads[k]``.  ``quads[sym]`` holds the darts (out+, in-, in+,
    out-) at ``sym``; an incoming arc end is held as the reverse dart of the
    arriving arc, so each of the 4n darts occupies exactly one slot.
    """

    _fields = __match_args__ = ("names", "codes", "heads", "quads")

    def mirror(self) -> "RotationSystem":
        """Reverse every cyclic order; the mirror embedding."""
        quads = dict(zip(self.quads, _mirror(self.quads.values())))
        return RotationSystem(self.names, self.codes, self.heads, quads)

    @cached_property
    def _edges(self) -> list[str]:
        """Every dart rendered once: the 2n arc labels ``[a,b^-1]``, each
        behind "+" (dart 2k) and "-" (dart 2k + 1).

        The labels are made in whole-list passes, not one format per arc:
        each arc's tail and head letters are slice-assigned twice into one
        list of pieces, between the fixed pieces "," and "]\\n-[" or
        "]\\n+[", and the joined text is split at its newlines.  So no
        symbol name may hold "\\n"; the grammar of names and
        ``model._check_token`` guarantee it.
        """
        names = self.names
        tokens = [""] * (2 * len(names))
        tokens[0::2] = names
        tokens[1::2] = [s + "^-1" for s in names]
        letters = [tokens[c] for c in self.codes]
        heads = [letters[h] for h in self.heads]
        parts = ["", ",", "", "]\n-[", "", ",", "", "]\n+["] * len(letters)
        parts[0::8] = parts[4::8] = letters
        parts[2::8] = parts[6::8] = heads
        return ("+[" + "".join(parts)[:-3]).split("\n")

    @cached_property
    def _ids(self) -> list[str]:
        """Every dart's ``CarterCircle.signed_ids`` id as text, "+k" or "-k"
        for arc k, made in whole-list passes as ``_edges`` makes its labels."""
        numbers = list(map(str, range(1, len(self.codes) + 1)))
        parts = ["", "\n-", "", "\n+"] * len(numbers)
        parts[0::4] = parts[2::4] = numbers
        return ("+" + "".join(parts)[:-2]).split("\n")


class CarterCircle(_Value):
    """One boundary walk: a cyclically-ordered orbit of darts."""

    _fields = __match_args__ = ("darts",)

    def __len__(self) -> int:
        return len(self.darts)

    def signed_ids(self) -> tuple[int, ...]:
        """Arc ids, negated for backward darts: dart d lies on arc d // 2 + 1."""
        return tuple(-(d // 2 + 1) if d & 1 else d // 2 + 1 for d in self.darts)


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


def _quads(code: Code) -> list[tuple[int, int, int, int]]:
    """The integer rotation (out+, in-, in+, out-) of every symbol of
    ``code``, listed by symbol index."""
    # ends[2c] and ends[2c + 1]: the darts leaving and reaching letter c.
    ends = [0] * (2 * sum(map(len, code)))
    k = 0
    for w in code:
        arriving = 2 * (k + len(w)) - 1  # backward dart of the arc into letter k
        for c in w:
            ends[2 * c] = 2 * k
            ends[2 * c + 1] = arriving
            arriving = 2 * k + 1
            k += 1
    return list(zip(ends[0::4], ends[3::4], ends[1::4], ends[2::4]))


def _mirror(quads):
    """Every rotation of ``quads`` reversed: the mirror embedding."""
    return [q[::-1] for q in quads]


def _table(quads) -> list[int]:
    """The left-turn successor table on the 4n darts of ``quads`` (a
    collection of integer rotations): succ[q[k] ^ 1] = q[k-1] for every
    slot k of every quad."""
    succ = [0] * (4 * len(quads))
    for a, b, c, d in quads:
        succ[a ^ 1] = d
        succ[b ^ 1] = a
        succ[c ^ 1] = b
        succ[d ^ 1] = c
    return succ


def _faces(succ: list[int]) -> list[list[int]]:
    """Orbits of the successor table ``succ``, in order of least dart, each
    listed from it.

    The walk marks a dart visited by setting its entry in the table to -1,
    so it keeps no seen array; a start whose entry is -1 lies on an orbit
    already listed.  The walk consumes the table.
    """
    faces = []
    for start in range(len(succ)):
        if succ[start] < 0:
            continue
        orbit = []
        d = start
        while succ[d] >= 0:
            orbit.append(d)
            succ[d], d = -1, succ[d]
        faces.append(orbit)
    return faces


def build_ribbon(p: SignedParagraph) -> RotationSystem:
    """The rotation system induced by ``p`` under the fixed chirality."""
    heads: list[int] = []
    for w in p._code:
        k = len(heads)
        heads.extend(range(k + 1, k + len(w)))
        heads.append(k)
    quads = dict(zip(p._names, _quads(p._code)))
    return RotationSystem(p._names, tuple(chain.from_iterable(p._code)), tuple(heads), quads)


def trace_circles(r: RotationSystem) -> list[CarterCircle]:
    """Orbits of the left-turn successor map; they partition all 4n darts.

    Circles are returned sorted by their least dart, each listed starting
    from it, so the output is deterministic.
    """
    return [CarterCircle(tuple(f)) for f in _faces(_table(r.quads.values()))]


def _summary(n: int, b: int) -> SurfaceSummary:
    twice_genus = n + 2 - b
    if twice_genus < 0 or twice_genus % 2:
        raise RuntimeError(
            f"internal consistency failure: n={n}, b={b} gives no integer genus"
        )
    return SurfaceSummary(n=n, edges=2 * n, b=b, euler=b - n, genus=twice_genus // 2)


def summarize(p: SignedParagraph) -> SurfaceSummary:
    """Crossing count, Carter circle count, Euler characteristic and genus."""
    return _summary(p.n, len(_faces(_table(_quads(p._code)))))


def is_geometric(p: SignedParagraph) -> bool:
    """Whether ``p`` is realizable in the sphere (genus 0, i.e. b = n + 2)."""
    return summarize(p).genus == 0
