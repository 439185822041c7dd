"""The benchmark's tracer wraps package functions by name; every name it
lists must exist, or the benchmark run stops before measuring anything."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_targets() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_exists():
    missing = [
        f"{module}.{name}"
        for module, names in traced_targets().items()
        for name in names
        if not hasattr(importlib.import_module(f"sgauss.{module}"), name)
    ]
    assert missing == []


def test_traced_classes_define_post_init():
    # The tracer counts a class through the ``__post_init__`` in the class's
    # own namespace; without one, a traced run stops with a KeyError.
    classes = [
        (f"{module}.{name}", getattr(importlib.import_module(f"sgauss.{module}"), name))
        for module, names in traced_targets().items()
        for name in names
    ]
    classes = [(name, obj) for name, obj in classes if isinstance(obj, type)]
    assert classes
    assert [name for name, cls in classes if "__post_init__" not in vars(cls)] == []
