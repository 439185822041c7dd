"""Dataclass twins of the package's value classes.

Each twin declares the fields, defaults and flags that the package's class
had as a dataclass, so that tests can hold the plain classes to the
dataclass contract: construction, ``repr``, ``==``, ``hash``,
``__match_args__`` and frozenness.  A twin has the same name as its class,
so that the two ``repr`` texts can be compared, and copies the methods
that class defines which a dataclass would otherwise generate or use:
the ``__str__`` and ``__repr__`` of the letter and the word, and the
``__post_init__`` that set state.  Validation is the package's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from sgauss.verify import _CHECKS, KIND_WORDS


@dataclass(frozen=True, slots=True)
class SignedLetter:
    sym: str
    exp: int

    def __str__(self) -> str:
        return self.sym if self.exp == 1 else f"-{self.sym}"

    def __repr__(self) -> str:
        return f"SignedLetter({str(self)!r})"


@dataclass(frozen=True, slots=True)
class SignedWord:
    letters: tuple

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.letters)

    def __repr__(self) -> str:
        return f"SignedWord({str(self)!r})"


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
        self.checks = {name: CheckStat() for name in _CHECKS[self.spec.kind]}
