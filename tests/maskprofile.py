"""The profile built as one (name, name)-keyed dict from the segment masks,
and ``sgauss profile`` rendered from that dict, kept as the test oracles of
the packed rows (``homology._rows``) and of the row-by-row output of the
CLI.

``mask_profile`` computes each beta entry on its own, by two popcounts of
the masks of ``homology._segments``, and fills ``IntersectionProfile`` in
sorted order.  It reads ``_segments`` off the module at every call, so a
test that breaks the masks breaks this oracle with them.  ``profile_stdout``
is the stdout of ``sgauss profile`` (``--json`` if asked) made from the
whole profile at once, by ``as_dict`` and one f-string per entry.
"""

from __future__ import annotations

import json

from sgauss import homology
from sgauss.homology import IntersectionProfile


def mask_profile(word: tuple[int, ...], names) -> IntersectionProfile:
    """The profile of a valid code word, symbol s being named ``names[s]``."""
    segs = homology._segments(word)
    order = sorted(range(len(segs)), key=names.__getitem__)
    alphas = {names[s]: segs[s][2] for s in order}
    columns = [(names[s], *segs[s][:2]) for s in order]
    rows = [(i, sp | 1 << s, sm | 1 << s) for (i, sp, sm), s in zip(columns, order)]
    betas = {
        (i, j): (closed_plus & sm).bit_count() - (closed_minus & sp).bit_count()
        for i, closed_plus, closed_minus in rows
        for j, sp, sm in columns
        if i != j
    }
    return IntersectionProfile(alphas, betas)


def profile_stdout(pr: IntersectionProfile, as_json: bool) -> str:
    """What ``sgauss profile`` printed for ``pr`` before it wrote by rows."""
    if as_json:
        return json.dumps(pr.as_dict()) + "\n"
    return (
        "alpha: " + " ".join(f"{s}={v}" for s, v in pr.alpha.items()) + "\n"
        + "beta:" + "".join(f" {i},{j}={v}" for (i, j), v in pr.beta.items()) + "\n"
        + f"planar: {str(pr.is_zero).lower()}\n"
    )
