"""Every function the package defines is called or named by the program.

The program is ``src/uptest`` and ``perfbench`` outside its tests; a function
that only tests reach is API kept for the tests alone.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uptest"
PERFBENCH = ROOT / "perfbench"
# kept until online refinement uses it to pick the level that tells two
# outcomes apart
EXCEPTIONS = {"refine_level"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def defined_functions(paths) -> dict[str, list[str]]:
    """Name -> ``file:line`` of each function or method with that name."""
    defined: dict[str, list[str]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
    return defined


def referenced_names(paths) -> set[str]:
    """Every ``Name`` and ``Attribute`` name, except one a function reads of
    its own name inside its own body."""
    names: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        if isinstance(node, ast.Name) and node.id not in enclosing:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            names.add(node.attr)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in paths:
        visit(ast.parse(path.read_text("utf-8"), str(path)), frozenset())
    return names


def unreferenced_functions(package_paths, program_paths) -> list[str]:
    used = referenced_names(program_paths)
    return [
        f"{name} ({', '.join(where)})"
        for name, where in sorted(defined_functions(package_paths).items())
        if name not in used and name not in EXCEPTIONS and not _is_dunder(name)
    ]


def program_files() -> list[Path]:
    perfbench = [p for p in PERFBENCH.rglob("*.py") if "tests" not in p.relative_to(PERFBENCH).parts]
    return sorted(PACKAGE.glob("*.py")) + sorted(perfbench)


def test_every_function_of_the_package_is_referenced_by_the_program():
    assert unreferenced_functions(sorted(PACKAGE.glob("*.py")), program_files()) == []


def test_the_check_sees_the_package_and_the_benchmark():
    names = {p.relative_to(ROOT).as_posix() for p in program_files()}
    assert {"src/uptest/engine.py", "src/uptest/planner.py", "perfbench/run.py"} <= names
    assert not any("tests" in name for name in names)


def test_a_function_only_its_own_body_names_is_unreferenced(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "class Node:\n"
        "    def __len__(self):\n"
        "        return self.size()\n"
        "    def walk(self):\n"
        "        return [c.walk() for c in self.children]\n"
        "    def size(self):\n"
        "        return len(self.children)\n"
        "def refine_level():\n"
        "    pass\n"
    )
    assert unreferenced_functions([module], [module]) == ["walk (mod.py:4)"]
