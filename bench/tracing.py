"""Per-layer tracing of sgauss from outside the package.

The layers are the six modules of ``sgauss``.  ``Tracer.install`` replaces
each public function named in ``TARGETS`` by a wrapper that records a span,
in every ``sgauss.*`` namespace that binds it: ``verify`` and ``cli`` import
with ``from ... import``, so patching only the defining module would miss
their calls.  ``SignedParagraph`` construction (validation) is counted
through its ``__post_init__``, and ``enumerate_corpus`` is timed per yielded
object.  Spans stay in memory until the run ends; a function's self time is
its spans' duration minus the time of their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from time import perf_counter

TARGETS = {
    "model": (
        "parse_paragraph",
        "SignedParagraph",
        "canonicalize",
        "is_isomorphic",
        "relabel",
        "render",
    ),
    "surface": ("build_ribbon", "trace_circles", "summarize"),
    "homology": ("profile", "word_is_planar_homology", "pairing"),
    "transforms": ("split", "join", "reduce_to_word"),
    "verify": ("verify", "enumerate_corpus", "apply_random_moves"),
    "cli": ("main",),
}
GENERATORS = {"verify.enumerate_corpus"}
NAMES = [f"{module}.{fn}" for module, fns in TARGETS.items() for fn in fns]

# Span fields, kept as lists for speed.
NAME, START, END, PARENT, OBJECT, FAILED = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.object = 0  # id of the corpus object or query being processed
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------

    def _enter(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.object, False])
        self._stack.append(i)
        return i

    def _exit(self, i: int, failed: bool = False) -> None:
        span = self.spans[i]
        span[END] = perf_counter()
        span[FAILED] = failed
        self._stack.pop()

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            i = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(i, failed=True)
                raise
            self._exit(i)
            return result

        return functools.wraps(fn)(wrapper)

    def _wrap_generator(self, name: str, fn):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            count = 0
            while True:
                self.object = count
                i = self._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    # The exhausting call yields no object; its time stays
                    # with the caller.
                    self._stack.pop()
                    self.spans.pop()
                    return
                except BaseException:
                    self._exit(i, failed=True)
                    raise
                self._exit(i)
                count += 1
                yield item

        return functools.wraps(fn)(wrapper)

    # --- patching ----------------------------------------------------------

    def install(self) -> None:
        namespaces = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "sgauss" or name.startswith("sgauss."))
        ]
        for module, fns in TARGETS.items():
            defining = sys.modules[f"sgauss.{module}"]
            for fn_name in fns:
                name = f"{module}.{fn_name}"
                target = getattr(defining, fn_name, None)
                if target is None:
                    raise LookupError(f"sgauss.{module} has no {fn_name}; update tracing.TARGETS")
                if isinstance(target, type):
                    original = target.__dict__["__post_init__"]
                    self._set(target, "__post_init__", self._wrap(name, original))
                    continue
                wrap = self._wrap_generator if name in GENERATORS else self._wrap
                wrapper = wrap(name, target)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is target:
                            self._set(ns, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # --- results -----------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Calls, self seconds and errors per traced function."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        stats = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name in NAMES}
        for i, span in enumerate(self.spans):
            s = stats[span[NAME]]
            s["calls"] += 1
            s["self_s"] += span[END] - span[START] - child[i]
            s["errors"] += span[FAILED]
        return stats

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for i, s in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": s[NAME],
                    "start": s[START] - t0,
                    "end": s[END] - t0,
                    "parent": s[PARENT],
                    "object": s[OBJECT],
                    "failed": s[FAILED],
                }
                f.write(json.dumps(record) + "\n")
