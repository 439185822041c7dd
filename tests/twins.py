"""Dataclass twins of the package's value classes.

Each twin declares the fields, defaults and flags that the package's class
had as a dataclass, so that tests can hold the plain classes to the
dataclass contract: construction, ``repr``, ``==``, ``hash``,
``__match_args__`` and frozenness.  A twin has the same name as its class,
so that the two ``repr`` texts can be compared, and copies the
``__post_init__`` that sets state, which a dataclass calls.  Validation is
the package's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from sgauss.verify import _KINDS, KIND_WORDS


@dataclass(frozen=True)
class RotationSystem:
    names: tuple
    codes: tuple
    heads: tuple
    quads: dict


@dataclass(frozen=True)
class CarterCircle:
    darts: tuple


@dataclass(frozen=True)
class IntersectionProfile:
    alpha: dict
    beta: dict


@dataclass(frozen=True)
class CorpusSpec:
    max_symbols: int
    dedupe: bool = False
    kind: str = KIND_WORDS


@dataclass
class CheckStat:
    checked: int = 0
    failed: int = 0


@dataclass
class VerificationReport:
    spec: CorpusSpec
    size: int = 0
    checks: dict = field(init=False)
    counterexamples: list = field(default_factory=list)
    empirical: dict = field(default_factory=dict)

    def __post_init__(self):
        self.checks = {name: CheckStat() for name in _KINDS[self.spec.kind].checks}
