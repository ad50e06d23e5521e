"""Every name a solvdiag module imports is used in that module, every name a
function binds (other than `_`-prefixed ones) is read in it, and every
module it imports is in the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "solvdiag"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(name for name in imported if name not in used)
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    outside = sorted(modules - sys.stdlib_module_names)
    assert outside == [], f"{path.name} imports modules outside the standard library: {outside}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_locals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [n for n in ast.walk(func) if isinstance(n, ast.Name)]
        read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        bound = {n.id for n in names if isinstance(n.ctx, ast.Store)}
        unused += [f"{func.name}.{b}" for b in sorted(bound - read) if not b.startswith("_")]
    assert unused == [], f"{path.name} binds names it never reads: {unused}"


def test_every_linalg_function_has_a_caller():
    """Each top-level function of linalg.py is called from another module of
    src/, from a linalg function that is itself called, or is traced by
    name in `perfbench/tracer.py` (its `LAYERS` or `COUNTED`), so that a
    toolkit only the tests use cannot grow back."""
    from test_tracer_names import _tracer

    tracer = _tracer()
    linalg = ast.parse((SRC / "linalg.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in linalg.body if isinstance(node, ast.FunctionDef)}
    live = set(tracer.LAYERS.get("linalg", ()))
    live |= {name.split(".", 1)[1] for name in tracer.COUNTED if name.startswith("linalg.")}
    for path in SRC.glob("*.py"):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "linalg":
                live.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "linalg":
                live.update(alias.name for alias in node.names)
    todo = list(live & defs.keys())
    while todo:
        func = defs[todo.pop()]
        called = {n.id for n in ast.walk(func) if isinstance(n, ast.Name)} & defs.keys()
        todo += sorted(called - live)
        live |= called
    assert sorted(defs.keys() - live) == []
