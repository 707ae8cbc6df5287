"""Source hygiene: every name a module imports is used in that module.

Package ``__init__.py`` files are skipped (their imports are re-exports),
and so are ``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treevault"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".", 1)[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotation_strings(tree: ast.Module):
    """Quoted annotations, e.g. ``-> "SaveSession"``."""
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            annotations = [a.annotation for a in every] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield sub.value


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for text in _annotation_strings(tree):
        try:
            expr = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used
    )


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_and_spares_used():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Optional, Any\n"
        "from dataclasses import field as fld\n"
        "def f(x: 'Any') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["Optional (line 3)", "fld (line 4)"]
