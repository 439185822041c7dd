"""The value classes: the dataclass contract they keep without dataclasses,
pickling and copying, and ``CorpusSpec``'s checks on its bounds."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
from types import SimpleNamespace

import pytest

import sgauss
import twins
from sgauss import model, surface
from sgauss.homology import IntersectionProfile, profile
from sgauss.verify import (
    CheckStat,
    Counterexample,
    CorpusSpec,
    VerificationReport,
    apply_random_moves,
)

REAL = SimpleNamespace(
    RotationSystem=surface.RotationSystem,
    CarterCircle=surface.CarterCircle,
    IntersectionProfile=IntersectionProfile,
    CorpusSpec=CorpusSpec,
    CheckStat=CheckStat,
    VerificationReport=VerificationReport,
)
PARAGRAPHS = "two-component-paragraphs"

# Calls of each class, on values built from the same namespace (the
# package's classes or their twins): positional, keyword, with and without
# the defaults.
CALLS = {
    "RotationSystem": [
        lambda ns: ns.RotationSystem(("a",), (0, 1), (1, 0), {"a": (0, 3, 2, 1)}),
        lambda ns: ns.RotationSystem(("a",), (0, 1), (1, 0), quads={"a": (0, 1, 2, 3)}),
    ],
    "CarterCircle": [
        lambda ns: ns.CarterCircle((0, 3, 2)),
        lambda ns: ns.CarterCircle(darts=(1,)),
        lambda ns: ns.CarterCircle(()),
    ],
    "IntersectionProfile": [
        lambda ns: ns.IntersectionProfile({"a": 1, "b": -1}, {("a", "b"): 1, ("b", "a"): -1}),
        lambda ns: ns.IntersectionProfile(alpha={"a": 0}, beta={}),
    ],
    "CorpusSpec": [
        lambda ns: ns.CorpusSpec(4),
        lambda ns: ns.CorpusSpec(4, dedupe=False, kind="words"),
        lambda ns: ns.CorpusSpec(3, True, PARAGRAPHS),
        lambda ns: ns.CorpusSpec(kind=PARAGRAPHS, max_symbols=3),
        lambda ns: ns.CorpusSpec(3, dedupe=True),
    ],
    "CheckStat": [
        lambda ns: ns.CheckStat(),
        lambda ns: ns.CheckStat(1, 0),
        lambda ns: ns.CheckStat(failed=2),
        lambda ns: ns.CheckStat(checked=1, failed=0),
    ],
    "VerificationReport": [
        lambda ns: ns.VerificationReport(ns.CorpusSpec(2)),
        lambda ns: ns.VerificationReport(ns.CorpusSpec(2, kind=PARAGRAPHS), 5),
        lambda ns: ns.VerificationReport(
            spec=ns.CorpusSpec(1),
            size=2,
            counterexamples=[Counterexample("a -a", "check", "seen", "wanted")],
            empirical={"shift": {"constant": True}},
        ),
        lambda ns: ns.VerificationReport(ns.CorpusSpec(1), counterexamples=[]),
    ],
}
# Calls that bind no arguments: too many, too few, repeated or unknown.
BAD_CALLS = [
    lambda ns: ns.IntersectionProfile({"a": 0}),
    lambda ns: ns.IntersectionProfile({}, {}, {}),
    lambda ns: ns.IntersectionProfile({}, {}, alpha={}),
    lambda ns: ns.RotationSystem(("a",), (0, 1), (1, 0), quads={}, extra=0),
    lambda ns: ns.CarterCircle(),
    lambda ns: ns.CorpusSpec(),
    lambda ns: ns.CorpusSpec(dedupe=True),
    lambda ns: ns.CorpusSpec(3, False, "words", 4),
    lambda ns: ns.CorpusSpec(3, max_symbols=3),
    lambda ns: ns.CorpusSpec(3, size=3),
    lambda ns: ns.CheckStat(1, 2, 3),
    lambda ns: ns.CheckStat(0, checked=1),
    lambda ns: ns.VerificationReport(),
    lambda ns: ns.VerificationReport(ns.CorpusSpec(1), checks={}),
]
FROZEN = [name for name in CALLS if getattr(twins, name).__dataclass_params__.frozen]


def pairs(name: str):
    """(package object, twin object) for every call of class ``name``."""
    return [(call(REAL), call(twins)) for call in CALLS[name]]


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError as e:
        return type(e)


@pytest.mark.parametrize("name", CALLS)
class TestDataclassContract:
    def test_construction_and_repr(self, name):
        for real, twin in pairs(name):
            assert type(real) is getattr(REAL, name)
            assert repr(real) == repr(twin)

    def test_eq(self, name):
        made = pairs(name)
        for real_x, twin_x in made:
            assert real_x != twin_x and twin_x != real_x
            for real_y, twin_y in made:
                assert (real_x == real_y) == (twin_x == twin_y)
                assert (real_x != real_y) == (twin_x != twin_y)

    def test_hash(self, name):
        for real, twin in pairs(name):
            assert hash_or_error(real) == hash_or_error(twin)

    def test_match_args(self, name):
        assert getattr(REAL, name).__match_args__ == getattr(twins, name).__match_args__

    def test_assignment_and_deletion(self, name):
        real, twin = pairs(name)[0]
        field = dataclasses.fields(twin)[0].name
        if name in FROZEN:
            # A slotted frozen dataclass raises TypeError, not
            # FrozenInstanceError, for a name that is not a field (Python 3.11).
            for obj, attr in [(real, field), (twin, field), (real, "extra")]:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, attr, 0)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(obj, attr)
        else:
            for obj in (real, twin):
                setattr(obj, field, 7)
                obj.extra = 0
                del obj.extra
            assert repr(real) == repr(twin)
            assert getattr(real, field) == 7


@pytest.mark.parametrize("call", BAD_CALLS)
def test_bad_calls(call):
    with pytest.raises(TypeError):
        call(twins)
    with pytest.raises(TypeError):
        call(REAL)


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_every_record_class_has_a_twin():
    records = {cls.__name__ for cls in subclasses(model._Record)}
    # The base of the immutable ones, and a class that was never a dataclass.
    assert records - {"_Value", "SignedParagraph"} == set(CALLS)


def test_match_on_fields():
    match CorpusSpec(3, kind=PARAGRAPHS):
        case CorpusSpec(n, dedupe, kind):
            assert (n, dedupe, kind) == (3, False, PARAGRAPHS)
        case _:
            pytest.fail("no match")


# --- pickling and copying --------------------------------------------------


def moved_paragraph():
    """A paragraph whose symbols are numbered in sorted-name order, not by
    first appearance."""
    p = model.parse_paragraph("z y -z -y x -x")
    return apply_random_moves(p, random.Random(1))


def public_values():
    p = model.parse_paragraph("a b -a c / -b d -c -d")
    word = model.parse_paragraph("a b -a -b")
    ribbon = surface.build_ribbon(p)
    ribbon._edges  # fills its cached edge labels
    report = sgauss.verify(CorpusSpec(2, kind=PARAGRAPHS))
    return [
        p,
        word,
        moved_paragraph(),
        sgauss.canonicalize(p),
        sgauss.relabel(p, {"a": "q"}),
        ribbon,
        surface.trace_circles(ribbon)[0],
        surface.summarize(p),
        profile(word),
        CorpusSpec(3, True, PARAGRAPHS),
        CheckStat(4, 1),
        report,
        Counterexample("a -a", "check", "seen", "wanted"),
    ]


COPIES = {
    **{
        f"pickle-{protocol}": lambda x, protocol=protocol: pickle.loads(pickle.dumps(x, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    },
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", COPIES)
def test_round_trip(how):
    for x in public_values():
        c = COPIES[how](x)
        assert type(c) is type(x)
        assert c == x and not c != x
        assert hash_or_error(c) == hash_or_error(x)
        assert repr(c) == repr(x)


def test_round_trip_covers_every_public_value_type():
    covered = {type(x) for x in public_values()}
    public = {
        cls
        for name in sgauss.__all__
        if isinstance(cls := getattr(sgauss, name), type)
        and not issubclass(cls, BaseException)
    }
    assert public <= covered


def test_copied_paragraph_keeps_its_code_and_names():
    moved = moved_paragraph()
    assert (str(moved), moved._names) == ("-y -x z -z y x", ("x", "y", "z"))
    for how in COPIES.values():
        c = how(moved)
        assert (c._code, c._names) == (moved._code, moved._names)
        assert str(c) == str(moved)


# --- CorpusSpec's bounds ----------------------------------------------------


@pytest.mark.parametrize("bound", [2.5, 3.0, True, False, "3", None, 0, -1, 27])
def test_corpus_spec_rejects_bad_max_symbols(bound):
    with pytest.raises(ValueError, match="max_symbols must be an int in 1..26"):
        CorpusSpec(bound)
    with pytest.raises(ValueError, match="max_symbols must be an int in 1..26"):
        CorpusSpec(max_symbols=bound, kind=PARAGRAPHS)


@pytest.mark.parametrize("dedupe", ["no", "", 0, 1, None, 1.0])
def test_corpus_spec_rejects_bad_dedupe(dedupe):
    with pytest.raises(ValueError, match="^dedupe must be a bool, got "):
        CorpusSpec(1, dedupe)
    with pytest.raises(ValueError, match="^dedupe must be a bool, got "):
        CorpusSpec(max_symbols=1, dedupe=dedupe, kind=PARAGRAPHS)


def test_corpus_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown corpus kind"):
        CorpusSpec(2, kind="knots")


@pytest.mark.parametrize("bound", [1, 26])
def test_corpus_spec_accepts_int_bounds(bound):
    assert CorpusSpec(bound).max_symbols == bound
