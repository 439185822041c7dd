"""The public surface: ``sgauss.__all__`` lists the names that the CLI, the
benchmark or the README's library examples use, and the helpers that only
tests used are gone from the package."""

from __future__ import annotations

import importlib

import pytest

import sgauss

PUBLIC = [
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
    "profile_rows",
    "word_is_planar_homology",
    "pairing",
    "split",
    "join",
    "reduce_to_word",
    "CorpusSpec",
    "VerificationReport",
    "verify",
]

# Test-only helpers that left the package namespace but stay in their module.
MODULE_ONLY = {"verify": ["enumerate_corpus", "apply_random_moves"]}

# Module -> the removed names it defined.
REMOVED = {
    "model": ["Occurrence", "rotate", "SignedLetter", "SignedWord"],
    "homology": ["segment_of", "alpha", "beta"],
    "verify": ["enumerate_words", "enumerate_two_component_paragraphs"],
    "transforms": ["fresh_symbol"],
}

# (module, class) -> the removed methods and properties.
REMOVED_MEMBERS = {
    ("model", "SignedParagraph"): ["occurrence", "occurrences", "words"],
    ("model", "SignedWord"): ["at", "find", "as_paragraph", "symbols"],
    ("homology", "IntersectionProfile"): ["beta_of"],
    ("surface", "RotationSystem"): ["letters", "edge", "n"],
}


def module(name: str):
    # ``sgauss.verify`` is the function, which hides the module of that name.
    return importlib.import_module(f"sgauss.{name}")


def test_all_is_exactly_the_public_names():
    assert sgauss.__all__ == PUBLIC
    assert len(set(PUBLIC)) == 29


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_resolves(name):
    assert getattr(sgauss, name) is not None


@pytest.mark.parametrize(
    "where,name", [(where, name) for where, names in REMOVED.items() for name in names]
)
def test_removed_name_is_gone(where, name):
    assert not hasattr(sgauss, name)
    assert not hasattr(module(where), name)
    assert name not in module(where).__all__


@pytest.mark.parametrize(
    "where,name", [(where, name) for where, names in MODULE_ONLY.items() for name in names]
)
def test_module_only_name_stays_in_its_module(where, name):
    assert not hasattr(sgauss, name)
    assert name in module(where).__all__
    assert callable(getattr(module(where), name))


@pytest.mark.parametrize(
    "where,cls,member",
    [(where, cls, m) for (where, cls), members in REMOVED_MEMBERS.items() for m in members],
)
def test_removed_member_is_gone(where, cls, member):
    # A removed class (``SignedWord``) takes its members with it.
    assert not hasattr(getattr(module(where), cls, None), member)


def test_paragraph_dict_is_renders_helper_only():
    assert not hasattr(sgauss, "paragraph_dict")
    assert "paragraph_dict" not in module("model").__all__
    assert hasattr(module("model"), "paragraph_dict")
