"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import uptest

MODULES = sorted(Path(uptest.__file__).parent.glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    """Names bound by the module's imports that nothing in it reads.

    Import statements marked ``# noqa: F401`` re-export or expose a name on
    purpose and are skipped, as is ``from __future__ import ...``.
    """
    source = path.read_text("utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    imported: dict[str, int] = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []


def test_the_check_sees_the_whole_package():
    assert {p.name for p in MODULES} >= {"engine.py", "planner.py", "model.py", "__init__.py"}
