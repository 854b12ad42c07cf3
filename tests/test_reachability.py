"""Nothing in the package is reached only by the tests, and no import is left unread.

Every top-level function and class of ``src/cluttercov`` must be loaded,
by name or as an attribute, on some other line of the package. The
``__init__`` re-exports do not count: an import is not a use. Oracles that
only the tests need live in ``tests/oracles.py``. Every name a module
imports (``__init__`` aside) must be loaded in that module. The estimating,
scoring and detecting layers import no scene, Monte Carlo or command
module. No module imports scipy at module level: ``rmt`` loads scipy's
compiled LAPACK and BLAS extension modules from their files, and imports
scipy's package only inside ``_scipy_extension``, where a module does not
load from its file alone.
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


def _imports(trees):
    """(module, name, line) of every name an import binds, ``__future__`` features aside."""
    out = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            out.extend((module, name, node.lineno) for name in names)
    return out


TREES = _trees()
LOADS = _loads(TREES)
DEFINITIONS = _definitions(TREES)
IMPORTS = _imports(TREES)


@pytest.mark.parametrize(
    "module,name,line", DEFINITIONS, ids=[f"{module}::{name}" for module, name, _ in DEFINITIONS]
)
def test_definition_is_loaded_elsewhere_in_the_package(module, name, line):
    assert LOADS.get(name, set()) - {(module, line)}, (
        f"{module}:{line} {name} is reached by no other line of the package"
    )


@pytest.mark.parametrize(
    "module,name,line", IMPORTS, ids=[f"{module}::import {name}" for module, name, _ in IMPORTS]
)
def test_imported_name_is_loaded_in_its_module(module, name, line):
    assert any(where == module for where, _ in LOADS.get(name, ())), (
        f"{module}:{line} imports {name}, which the module never loads"
    )


def test_every_module_is_scanned():
    assert {"metrics.py", "rmt.py", "shrinkage.py", "validate.py"} <= set(TREES)


def test_no_top_level_name_is_named_like_a_test():
    # a test_* function imported into a test module is collected as a test
    names = [(module, name, line) for module, name, line in DEFINITIONS + IMPORTS]
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [(module, t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    offenders = [f"{module}:{line} {name}" for module, name, line in names if name.startswith("test_")]
    assert not offenders, f"named like a test: {offenders}"


def _scipy_imports():
    """(module, enclosing top-level def or None, dotted name) of every scipy module or name the package imports."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):  # ``__init__`` included
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                else:
                    continue
                out.extend((path.name, scope, name) for name in names)
    return [entry for entry in out if entry[2].split(".")[0] == "scipy"]


def test_scipy_is_imported_only_where_its_extensions_do_not_load_from_their_files():
    # import is most of a command's set-up: scipy's package init costs about
    # 1.4 MB and 8 ms, and any subpackage, scipy.linalg included, 0.2 s or more
    assert _scipy_imports() == [("rmt.py", "_scipy_extension", "scipy")]


# the layers below the scene: they read arrays and spiked models, never a scene
LOWER_LAYERS = ("rng", "rmt", "shrinkage", "rcml", "metrics", "detector", "matio")
UPPER_LAYERS = {"scenario", "validate", "cli"}


def _package_imports(tree) -> set[str]:
    """The ``cluttercov`` modules a module imports, relatively or by the package name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("cluttercov." if node.level else "") + (node.module or "")
            base = base.rstrip(".")
            dotted = [base, *(f"{base}.{alias.name}" for alias in node.names)]
        else:
            continue
        out |= {name.split(".")[1] for name in dotted if name.startswith("cluttercov.")}
    return out


@pytest.mark.parametrize("module", LOWER_LAYERS)
def test_lower_layer_imports_no_scene_monte_carlo_or_command_module(module):
    assert _package_imports(TREES[f"{module}.py"]) & UPPER_LAYERS == set()


def test_package_imports_sees_every_import_form():
    tree = ast.parse("from .scenario import a\nfrom . import validate\nimport cluttercov.cli\n"
                     "from cluttercov import rmt\nfrom cluttercov.rcml import b\nimport numpy\n")
    assert _package_imports(tree) == {"scenario", "validate", "cli", "rmt", "rcml"}
