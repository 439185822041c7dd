"""The join loop that ``reduce_to_word`` replaced, kept as its test oracle.

``reduce_by_joins`` reduces a paragraph to one word through the public
``join``, one component at a time, rescanning the first word for its
once-used symbols at every step and naming each new crossing with
``fresh_symbol`` over the paragraph's alphabet so far.  ``reduce_to_word``
must return exactly the same text and symbol names.
"""

from __future__ import annotations

from sgauss.model import SignedParagraph, _check_token
from sgauss.transforms import join


def fresh_symbol(alphabet: frozenset[str], prefix: str = "j") -> str:
    """Smallest ``prefix + k`` (k >= 1) not already in the alphabet."""
    _check_token("prefix", prefix)
    k = 1
    while f"{prefix}{k}" in alphabet:
        k += 1
    return f"{prefix}{k}"


def reduce_by_joins(p: SignedParagraph, prefix: str = "j") -> SignedParagraph:
    """Join at the least symbol with one letter in the first word, with the
    smallest fresh name, until one word remains."""
    _check_token("prefix", prefix)
    while len(p._code) > 1:
        first = p._code[0]
        once = {c >> 1 for c in first if c & 1} ^ {c >> 1 for c in first if not c & 1}
        shared = min(map(p._names.__getitem__, once))
        p = join(p, shared, fresh_symbol(p.alphabet, prefix))
    return p
