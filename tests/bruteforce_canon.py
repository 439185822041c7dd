"""Brute-force canonical form used as the test oracle for ``canonicalize``.

This is the direct transcription of the definition: build the letter stream
of every word order x per-word rotation (k! * prod |w_i| candidates), relabel
each by first appearance, and keep the least (word lengths, letter stream)
key.  It is exponential in the number of components and quadratic on one
word, so it only suits small inputs; the pruned search in
:func:`sgauss.model.canonicalize` must return the identical paragraph.
"""

from __future__ import annotations

from itertools import permutations, product

from conftest import rotate
from letters import SignedWord, paragraph, words_of
from sgauss.model import LETTERS, SignedParagraph, relabel


def canonical_name(i: int) -> str:
    """The name of canonical symbol ``i``: a, b, ..., z, then s26, s27, ..."""
    return LETTERS[i] if i < 26 else f"s{i}"


def _stream_key(words: list[SignedWord]) -> tuple:
    # First-appearance relabeling: letters become (symbol index, exponent)
    # pairs, compared with -1 < +1.
    ids: dict[str, int] = {}
    out = []
    for w in words:
        for l in w:
            if l.sym not in ids:
                ids[l.sym] = len(ids)
            out.append((ids[l.sym], l.exp))
    return tuple(out)


def bruteforce_canonicalize(p: SignedParagraph) -> SignedParagraph:
    """The least representative of the isomorphism class of ``p``, found by
    trying every word order and every rotation of every word."""
    best_key = None
    best: list[SignedWord] | None = None
    words = words_of(p)
    for order in permutations(range(len(words))):
        ws = [words[i] for i in order]
        lengths = tuple(len(w) for w in ws)
        if best_key is not None and (lengths,) > best_key[:1]:
            continue
        for rots in product(*(range(len(w)) for w in ws)):
            cand = [rotate(w, r) for w, r in zip(ws, rots)]
            key = (lengths, _stream_key(cand))
            if best_key is None or key < best_key:
                best_key, best = key, cand
    assert best is not None
    ids: dict[str, int] = {}
    for w in best:
        for l in w:
            ids.setdefault(l.sym, len(ids))
    mapping = {sym: canonical_name(i) for sym, i in ids.items()}
    return relabel(paragraph(best), mapping)
