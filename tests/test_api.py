"""The public names each module exports, and how the modules import each other."""

import ast
from pathlib import Path

import pytest

import homodyne_shadows
from homodyne_shadows import fockcore, povm, records, shadow, sim, states

PACKAGE = Path(homodyne_shadows.__file__).parent


@pytest.mark.parametrize(
    "module", [fockcore, povm, records, shadow, sim, states], ids=lambda m: m.__name__
)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def _package_imports(node):
    """The package modules an import node names, or [] for an import from outside."""
    if isinstance(node, ast.ImportFrom) and (node.level or node.module == PACKAGE.name):
        if node.module and node.module != PACKAGE.name:
            return [node.module.split(".")[-1]]
        return [alias.name for alias in node.names]  # from . import a, b
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith(PACKAGE.name + ".")]
    return []


def test_import_graph():
    graph, nested, whole = {}, [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = set(map(id, tree.body))
        graph[path.stem] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_whole":
                whole.append(path.stem)
            names = _package_imports(node)
            graph[path.stem].update(names)
            if names and id(node) not in top:
                nested.append("%s.py:%d" % (path.stem, node.lineno))
    # Every import of a package module is at module top level.
    assert nested == []
    # The import graph is acyclic: repeatedly drop the modules that import no module left.
    left = {name: deps & set(graph) for name, deps in graph.items()}
    while left:
        leaves = {name for name, deps in left.items() if not deps}
        assert leaves, "import cycle among %s" % sorted(left)
        left = {name: deps - leaves for name, deps in left.items() if name not in leaves}
    # The record stream depends on nothing in the package but its error types.
    assert graph["records"] == {"errors"}
    # One rule for every count, errors._whole, so the POVM needs nothing from states.
    assert whole == ["errors"]
    assert "states" not in graph["povm"]
