"""The canonical and circle kernels in their two-pass form, and the
``circles`` labels rendered one dart at a time, kept as test oracles for the
single-pass kernels in ``sgauss.model`` and ``sgauss.surface`` and the
whole-list rendering of ``RotationSystem._edges`` and ``sgauss circles``.

``canonical_search`` and ``canonical_word`` prune the live candidates in two
passes per step: a list of keys, its ``min``/``max``, then a filter of the
candidates.  ``faces`` marks visited darts in a separate ``seen`` array and
leaves the successor table intact.  Each must return exactly what its
counterpart in the package returns, including the order of the orbits and
of the darts in each.  ``_backwards`` reads circles backwards on the
reverse darts; with it, the mirror's walked circles are the oracle of the
table identity that ``verify._reverses`` checks in their place.
``edges`` formats each arc label and adds each sign by a concatenation, and
``circles_stdout`` renders the output of ``sgauss circles`` from it, the text
dart ids made one f-string at a time.
"""

from __future__ import annotations

import json

from sgauss.surface import RotationSystem, build_ribbon, trace_circles


def canonical_search(code):
    """``model._canonical_search`` with a key list per step."""
    doubled = [tuple(c ^ 1 for c in w) * 2 for w in code]
    lengths = sorted(map(len, code))
    words = []
    next_id = 0
    live = [({}, 0, (), 0)]
    for length in lengths:
        live = [
            (ids, used | 1 << wi, w, r)
            for ids, used, _, _ in live
            for wi, w in enumerate(doubled)
            if len(w) == 2 * length and not used >> wi & 1
            for r in range(length)
        ]
        stream = []
        for pos in range(length):
            if len(live) == 1:
                ids, _, w, r = live[0]
                for x in w[r + pos : r + length]:
                    i = ids.get(x >> 1)
                    if i is None:
                        i = ids[x >> 1] = next_id
                        next_id += 1
                    stream.append(2 * i + (x & 1) ^ 1)
                break
            keys = [
                2 * ids.get((x := w[r + pos]) >> 1, next_id) + (x & 1)
                for ids, _, w, r in live
            ]
            least = min(keys)
            live = [c for c, key in zip(live, keys) if key == least]
            if pos == 0:
                live = [(dict(ids), used, w, r) for ids, used, w, r in live]
            if least >> 1 == next_id:
                for ids, _, w, r in live:
                    ids[w[r + pos] >> 1] = next_id
                next_id += 1
            stream.append(least ^ 1)
        words.append(tuple(stream))
    return tuple(words)


def canonical_word(w):
    """``model._canonical_word`` with a key list per step."""
    size = len(w)
    first = [-1] * (size // 2)
    back = [0] * size
    for k, c in enumerate(w):
        k0 = first[c >> 1]
        if k0 < 0:
            first[c >> 1] = k
        else:
            back[k] = k - k0
            back[k0] = size - k + k0
    back += back
    doubled = w + w
    live = [k for k, c in enumerate(w) if c & 1]
    pos = 1
    while len(live) > 1 and pos < size:
        keys = [
            b if (b := back[r + pos]) <= pos else (doubled[r + pos] & 1) - 1 for r in live
        ]
        best = max(keys)
        live = [r for r, key in zip(live, keys) if key == best]
        pos += 1
    r = live[0]
    out = []
    next_id = 0
    for pos, b, c in zip(range(size), back[r:], doubled[r:]):
        if b <= pos:
            out.append(out[pos - b] ^ 1)
        else:
            out.append(2 * next_id + (c & 1))
            next_id += 1
    return tuple(out)


def faces(quads):
    """``surface._faces`` with a ``seen`` array beside the successor table."""
    size = 4 * len(quads)
    succ = [0] * size
    for a, b, c, d in quads:
        succ[a ^ 1] = d
        succ[b ^ 1] = a
        succ[c ^ 1] = b
        succ[d ^ 1] = c
    seen = bytearray(size)
    out = []
    for start in range(size):
        if seen[start]:
            continue
        orbit = []
        d = start
        while not seen[d]:
            seen[d] = 1
            orbit.append(d)
            d = succ[d]
        out.append(orbit)
    return out


def _backwards(faces: list[list[int]]) -> list[list[int]]:
    """The circles read backwards on the reverse darts (d -> d ^ 1), listed
    as ``_faces`` lists them: each from its least dart, in order of it."""
    out = []
    for f in faces:
        r = [d ^ 1 for d in f]
        if r:
            # Backwards from the least reverse dart, round to the one after it.
            i = r.index(min(r))
            r = r[i::-1] + r[:i:-1]
        out.append(r)
    out.sort()
    return out


def edges(r: RotationSystem) -> list[str]:
    """``RotationSystem._edges`` with one format per arc and one
    concatenation per dart."""
    tokens = [t for s in r.names for t in (s, s + "^-1")]
    letters = [tokens[c] for c in r.codes]
    arcs = map("[{},{}]".format, letters, map(letters.__getitem__, r.heads))
    return [e for arc in arcs for e in ("+" + arc, "-" + arc)]


def dart_ids(n: int) -> list[str]:
    """The text id of every dart of an ``n``-symbol paragraph: "+k" or "-k"
    for arc k = d // 2 + 1."""
    return [f"{sign}{k}" for k in range(1, 2 * n + 1) for sign in "+-"]


def circles_stdout(p, as_json: bool) -> str:
    """What ``sgauss circles`` (with ``--json`` if ``as_json``) prints for
    ``p``, rendered with ``edges`` and ``dart_ids``."""
    r = build_ribbon(p)
    circles = trace_circles(r)
    labels = edges(r)
    if as_json:
        return json.dumps({
            "n": p.n,
            "edges": 2 * p.n,
            "b": len(circles),
            "circles": [
                {"darts": list(c.signed_ids()), "edges": [labels[d] for d in c.darts]}
                for c in circles
            ],
        }) + "\n"
    ids = dart_ids(p.n)
    lines = [f"n={p.n} b={len(circles)}"]
    for i, c in enumerate(circles, start=1):
        lines.append(
            f"circle {i}: {' '.join(ids[d] for d in c.darts)}"
            f" | {' '.join(labels[d] for d in c.darts)}"
        )
    return "".join(line + "\n" for line in lines)
