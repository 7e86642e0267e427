"""Every import in the package and the test suite is read somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# __init__.py is left out: its imports are the package's exports.
MODULES = sorted(
    path for path in [*(ROOT / "src" / "vqenoise").glob("*.py"),
                      *(ROOT / "tests").glob("*.py")]
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
