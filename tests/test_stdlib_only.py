"""The runtime stays stdlib-only: every module of the package imports the
standard library and the package itself, nothing else."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sgauss"


def imported(path: Path):
    """The top-level name of every module ``path`` imports; a relative
    import is the package's own."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "sgauss" if node.level else node.module.split(".")[0]


def test_imports_are_stdlib_or_sgauss():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    outside = [
        f"{path.name}: {name}"
        for path in modules
        for name in imported(path)
        if name != "sgauss" and name not in sys.stdlib_module_names
    ]
    assert outside == []


def test_a_third_party_import_is_caught(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("import json\nfrom numpy import linalg\nfrom . import model\n")
    assert list(imported(module)) == ["json", "numpy", "sgauss"]
