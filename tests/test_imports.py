"""Every import in the package, the test suite and the tools is read
somewhere, and no package module imports a sibling's private name."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# __init__.py is left out: its imports are the package's exports.
MODULES = sorted(
    path for path in [*(ROOT / "src" / "vqenoise").glob("*.py"),
                      *(ROOT / "tests").glob("*.py"),
                      *(ROOT / "tools").glob("*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source):
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_scan_sees_plain_aliased_and_dotted_imports():
    source = ("import os\nimport numpy as np\nimport os.path\n"
              "from math import sqrt, pi as PI\nprint(np, PI)\n")
    assert unused_imports(source) == ["os", "sqrt"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source):
    """Underscore-prefixed names that a relative or ``vqenoise`` import
    takes from a sibling module (dunder names such as ``__version__`` are
    not private)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("vqenoise")):
            found.extend(alias.name for alias in node.names
                         if alias.name.startswith("_")
                         and not alias.name.endswith("__"))
    return sorted(found)


def test_private_scan_sees_relative_and_absolute_imports():
    source = ("from .simulator import _core, run\n"
              "from vqenoise.operators import _build, expectation\n"
              "from . import __version__\nfrom numpy import _private\n")
    assert private_imports(source) == ["_build", "_core"]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "vqenoise").glob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_cross_module_imports(path):
    assert private_imports(path.read_text()) == []
