"""Nothing in the package is reached only by the tests.

Every top-level function and class of ``src/cluttercov`` must be loaded,
by name or as an attribute, on some other line of the package. The
``__init__`` re-exports do not count: an import is not a use. Oracles that
only the tests need live in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cluttercov"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}


def _definitions(trees):
    """(module, name, line) of every top-level def and class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (module, node.name, node.lineno)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, kinds)
    ]


def _loads(trees):
    """(module, line) of every load of each name, as a Name or an Attribute."""
    loads = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            loads.setdefault(name, set()).add((module, node.lineno))
    return loads


TREES = _trees()
LOADS = _loads(TREES)
DEFINITIONS = _definitions(TREES)


@pytest.mark.parametrize(
    "module,name,line", DEFINITIONS, ids=[f"{module}::{name}" for module, name, _ in DEFINITIONS]
)
def test_definition_is_loaded_elsewhere_in_the_package(module, name, line):
    assert LOADS.get(name, set()) - {(module, line)}, (
        f"{module}:{line} {name} is reached by no other line of the package"
    )


def test_every_module_is_scanned():
    assert {"metrics.py", "rmt.py", "shrinkage.py", "validate.py"} <= set(TREES)
