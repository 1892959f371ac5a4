"""Every name a module of the package imports is used in that module, the
package's modules import each other without a cycle, and the names the
benchmark's traced mode patches are there."""

import ast
import sys
from pathlib import Path

import pytest

import uptest
from uptest import engine, refinement

MODULES = sorted(Path(uptest.__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def package_imports(paths: list[Path]) -> dict[str, set[str]]:
    """Module name -> the modules among ``paths`` it imports by a relative
    import anywhere in its source, inside functions too."""
    names = {p.stem for p in paths}
    graph: dict[str, set[str]] = {}
    for path in paths:
        edges = graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is not None:
                    targets = [node.module.split(".")[0]]
                else:
                    targets = [alias.name for alias in node.names]
                edges.update(t for t in targets if t in names)
    return graph


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """The modules along one cycle of ``graph``, first one repeated at the
    end, or ``[]`` when there is none."""
    done: set[str] = set()
    path: list[str] = []  # the depth-first walk from its root to here

    def visit(module: str) -> list[str]:
        path.append(module)
        for imported in sorted(graph[module]):
            if imported in path:
                return path[path.index(imported):] + [imported]
            if imported not in done:
                cycle = visit(imported)
                if cycle:
                    return cycle
        path.pop()
        done.add(module)
        return []

    for module in sorted(graph):
        if module not in done:
            cycle = visit(module)
            if cycle:
                return cycle
    return []


def test_the_package_has_no_import_cycle():
    assert import_cycle(package_imports(MODULES)) == []


def test_an_import_inside_a_function_can_close_a_cycle(tmp_path):
    (tmp_path / "a.py").write_text("from .b import f\n")
    (tmp_path / "b.py").write_text("def f():\n    from .a import g\n")
    (tmp_path / "c.py").write_text("from . import a, b\n")
    graph = package_imports(sorted(tmp_path.glob("*.py")))
    assert graph == {"a": {"b"}, "b": {"a"}, "c": {"a", "b"}}
    assert import_cycle(graph) == ["a", "b", "a"]
    assert import_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) == []


def test_the_check_sees_the_whole_package():
    assert {p.name for p in MODULES} >= {"engine.py", "planner.py", "model.py", "__init__.py"}


def test_the_benchmark_can_trace_the_names_it_patches():
    """``perfbench/stages.py`` wraps names that the package's modules look up,
    one of them an import ``refinement`` keeps only for it; entering its
    traced mode fails when one has gone, and leaving it restores them all."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
        import stages
    finally:
        sys.path.pop(0)
    before = {module: dict(vars(module)) for module in (engine, refinement)}
    with stages.traced_internals(spans.Tracer()):
        assert any(vars(module) != names for module, names in before.items())
    assert all(vars(module) == names for module, names in before.items())
