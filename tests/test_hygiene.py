"""Source hygiene: every name a module imports is used in that module, and
every private (``_``-prefixed) function, class or module constant of the
package is referenced somewhere in it besides its definition.

Package ``__init__.py`` files are skipped (their imports are re-exports),
and so are ``from __future__`` imports. The benchmark tracer's targets are
checked here too, so a renamed binding fails the test suite. The controller
mode has one home: protocols run through ``SimulatedRuntime.run_program``,
so only the runtime, the CLI's ``--mode`` flag and the package exports
name ``Mode``.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "treevault"
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


MODE_HOMES = {"coordination.py", "cli.py", "__init__.py"}


def names_mode(source: str) -> bool:
    """Whether a module imports ``Mode`` or reaches it as an attribute."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "Mode" for alias in node.names):
                return True
        elif isinstance(node, ast.Attribute) and node.attr == "Mode":
            return True
    return False


def test_only_mode_homes_name_mode():
    naming = {
        p.name
        for p in PACKAGE.glob("*.py")
        if names_mode(p.read_text(encoding="utf-8"))
    }
    assert naming <= MODE_HOMES
    assert "cli.py" in naming  # the scan sees a real import


def test_mode_checker_flags_imports_and_attributes():
    assert names_mode("from .coordination import SimulatedRuntime, Mode\n")
    assert names_mode("from .coordination import Mode as M\n")
    assert names_mode("from . import coordination\nx = coordination.Mode\n")
    assert not names_mode("def f(runtime, options):\n    return options.mode\n")
    assert not names_mode("from .coordination import SimulatedRuntime\n")


def test_tracer_targets_are_bound_on_their_owners():
    """perfbench/tracer.py patches ``owner.__dict__[attr]`` for each target,
    so each must be defined on its owner itself, including names a module
    imports from another (``save_pipeline.shards_of``)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.wrap_targets()
    assert len(targets) >= 40
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in targets
        if attr not in vars(owner)
    ]
    assert missing == []


def store_op_kinds(source: str) -> set[str]:
    """The op kinds a module passes to ``Store._run``; a kind that is not a
    string constant is reported as ``<dynamic>``."""
    kinds = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_run"
        ):
            first = node.args[0] if node.args else None
            constant = isinstance(first, ast.Constant) and isinstance(first.value, str)
            kinds.add(first.value if constant else "<dynamic>")
    return kinds


def test_every_store_op_kind_has_a_tracer_target():
    """perfbench's traced runs reconcile each counter op kind against the
    spans of a wrapped ``Store`` method named ``backend.<kind>``; an op kind
    without one makes every traced run fail its reconciliation."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    spans = {name for _, _, name, _ in tracer.wrap_targets()}
    kinds = store_op_kinds((PACKAGE / "backend.py").read_text(encoding="utf-8"))
    assert {"put", "get", "list"} <= kinds  # the scan sees the real calls
    assert sorted(k for k in kinds if f"backend.{k}" not in spans) == []


def test_op_kind_checker_reads_constants_and_flags_the_rest():
    source = (
        "class Store:\n"
        "    def put(self, key):\n"
        "        self._run('put', key, None)\n"
        "    def stat(self, key, kind):\n"
        "        self._run(kind, key, None)\n"
        "        return self.other('list')\n"
    )
    assert store_op_kinds(source) == {"put", "<dynamic>"}


def _references(node: ast.AST) -> Counter:
    """Names read under ``node``, as a bare name or as an attribute."""
    out: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
    return out


def private_definitions(source: str) -> list[tuple[str, ast.AST | None]]:
    """``_``-prefixed functions and classes (at any depth) and module-level
    constants a module defines, each with the node whose body is its own
    definition (None for a constant); dunder names are not private."""
    tree = ast.parse(source)
    defs: list[tuple[str, ast.AST | None]] = [
        (node.name, node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        defs += [(t.id, None) for t in targets if isinstance(t, ast.Name)]
    return [(n, d) for n, d in defs if n.startswith("_") and not n.startswith("__")]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private names whose every reference lies inside their own definition
    (a recursive call, say), or that have none at all."""
    used = sum((_references(ast.parse(s)) for s in sources.values()), Counter())
    return sorted(
        f"{module}.{name}"
        for module, source in sources.items()
        for name, node in private_definitions(source)
        if used[name] <= (_references(node)[name] if node is not None else 0)
    )


def test_every_private_name_has_a_caller():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    defined = {n for s in sources.values() for n, _ in private_definitions(s)}
    assert {"_finalized", "_Rendezvous", "_POLL_INTERVAL"} <= defined
    assert unreferenced_private_names(sources) == []


def test_private_name_checker_flags_only_dead_names():
    source = (
        "_LIMIT = 3\n"
        "_DEAD = 4\n"
        "class _Box:\n"
        "    def _open(self):\n"
        "        return _LIMIT\n"
        "    def _dead(self):\n"
        "        pass\n"
        "    def __repr__(self):\n"
        "        return 'box'\n"
        "def _helper():\n"
        "    return _Box()._open()\n"
        "def _unused():\n"
        "    return _helper()\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else 0\n"
    )
    assert unreferenced_private_names({"m": source}) == [
        "m._DEAD", "m._dead", "m._recursive", "m._unused",
    ]
