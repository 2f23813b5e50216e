"""Every name a `qdsl` module imports is used in that module.

Each module under `src/qdsl` is parsed with `ast`, and a name bound by an
`import` or `from ... import` fails the test unless the module reads it
somewhere else. `from __future__` imports, and the names the package's
`__init__.py` re-exports in `__all__`, are exempt.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "qdsl")
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """The names `tree` imports and never reads, each with its line."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= _exported(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def _exported(tree: ast.Module) -> set[str]:
    """The names in a top-level `__all__` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("module", MODULES)
def test_each_imported_name_is_used(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), module)
    assert unused_imports(tree) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "from .values import Pauli, Result\n"
        "import os.path\n"
        "def f():\n"
        "    return Result\n"
    )
    assert unused_imports(ast.parse(source)) == ["Pauli (line 2)", "os (line 3)"]
