"""The union-find that the connectivity check of ``_validate`` replaced,
kept as its test oracle.

``first_unjoined`` links every pair of words that holds one symbol's two
letters, with path halving, and returns the first word whose root is not
word 0's.  ``_validate`` must raise ``DISCONNECTED`` at exactly that word,
and only when there is one.
"""

from __future__ import annotations

from sgauss.model import Code


def first_unjoined(code: Code) -> int | None:
    """The index of the first word of ``code`` (every letter below
    2n occurring once) not joined to word 0 by shared symbols, or None."""
    word = [0] * sum(map(len, code))
    for wi, w in enumerate(code):
        for c in w:
            word[c] = wi
    parent = list(range(len(code)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(word[0::2], word[1::2]):
        parent[find(a)] = find(b)
    for wi in range(len(code)):
        if find(wi) != find(0):
            return wi
    return None
