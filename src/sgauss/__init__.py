"""Realizability of signed Gauss words and paragraphs.

Carter circles and minimal-realization genus via rotation-system boundary
walks, the alpha/beta homological planarity criterion, and the split/join
transformations between words and paragraphs, with an exhaustive small-case
verifier tying the routes together.
"""

from .model import (
    GaussError,
    OperationError,
    ParseError,
    SignedParagraph,
    ValidationError,
    canonicalize,
    check_pairwise,
    is_isomorphic,
    parse_paragraph,
    relabel,
    render,
)
from .surface import (
    CarterCircle,
    RotationSystem,
    SurfaceSummary,
    build_ribbon,
    is_geometric,
    summarize,
    trace_circles,
)
from .homology import (
    IntersectionProfile,
    pairing,
    profile,
    word_is_planar_homology,
)
from .transforms import join, reduce_to_word, split
from .verify import CorpusSpec, VerificationReport, verify

__version__ = "0.1.0"

__all__ = [
    "GaussError",
    "ParseError",
    "ValidationError",
    "OperationError",
    "SignedParagraph",
    "parse_paragraph",
    "render",
    "relabel",
    "canonicalize",
    "is_isomorphic",
    "check_pairwise",
    "RotationSystem",
    "CarterCircle",
    "SurfaceSummary",
    "build_ribbon",
    "trace_circles",
    "summarize",
    "is_geometric",
    "IntersectionProfile",
    "profile",
    "word_is_planar_homology",
    "pairing",
    "split",
    "join",
    "reduce_to_word",
    "CorpusSpec",
    "VerificationReport",
    "verify",
]
