"""The package has one memory guard: ``ResourceLimitError`` is raised only
by ``operators.check_memory``, which every dense allocator charges with its
own bytes, and by the CLI's ``dense_limit`` key, so no qubit cap can come
back into the library unnoticed."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vqenoise"
RAISERS = {("operators", "check_memory"), ("cli", "_adapt_config")}


def resource_raisers(source):
    """The dotted names of the functions (``<module>`` at top level) whose
    bodies raise ``ResourceLimitError``, by name or by attribute."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", None) or getattr(exc, "attr", None)
            if name == "ResourceLimitError":
                found.add(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_scan_sees_plain_dotted_and_nested_raises():
    source = (
        "def a():\n    raise ResourceLimitError('x')\n"
        "class B:\n    def c(self):\n"
        "        raise errors.ResourceLimitError\n"
        "def d():\n    raise ConfigError('y')\n"
        "raise ResourceLimitError()\n"
    )
    assert resource_raisers(source) == {"a", "B.c", "<module>"}


def test_resource_limit_raised_only_by_the_memory_guard_and_the_cli_key():
    raisers = {(path.stem, scope)
               for path in sorted(PACKAGE.glob("*.py"))
               for scope in resource_raisers(path.read_text())}
    assert raisers == RAISERS
