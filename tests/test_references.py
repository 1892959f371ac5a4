"""Every function and data name the package defines is used by the program.

The program is ``src/uptest`` and ``perfbench`` outside its tests; a function
that only tests reach is API kept for the tests alone, and a constant, field
or attribute that only tests read is data kept for the tests alone.  A member
the program only grows or empties in place, such as a log it appends to, is
written and never read, and so is one the program only hands on under its
own name, as in ``Result(log=self.log)``.  Every parameter of a package
function is read in that function's body.  Every dataclass of the package
is slotted, with no per-instance dict, unless ``UNSLOTTED`` names it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uptest"
PERFBENCH = ROOT / "perfbench"
# kept until online refinement uses it to pick the level that tells two
# outcomes apart
EXCEPTIONS = {"refine_level"}
# methods that change their receiver in place; a call whose result is
# discarded writes to the receiver and reads nothing out of it
MUTATORS = {"append", "extend", "add", "update", "insert", "discard", "remove", "clear"}
# the dataclasses left with a per-instance dict: each is built once per app,
# version, model, session, report, run or plan, never once per element of a
# loaded document
UNSLOTTED = {
    "AppSpec": "one per loaded app",
    "VersionSpec": "one per version of a loaded app",
    "Ewtg": "one window graph per version",
    "Dstg": "one learned graph per model",
    "Gstg": "one session trace per model",
    "AppModel": "one per version a run carries",
    "DiffResult": "one per carry",
    "SessionResult": "one per session",
    "TargetSet": "one per session",
    "CoverageLedger": "one per session",
    "UtaRecord": "one per unique target action of a session's report",
    "EngineConfig": "one per run",
    "AbstractionLevel": "five, one per level, built at import",
    "Planner": "one per session",
    "ActionSequence": "one per plan",
    "GuiNode": "one per node of a distinct screen, which the driver builds once",
}


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


def _assigned_names(statement: ast.stmt) -> list[ast.Name]:
    """The names an assignment statement binds; none for other statements."""
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [n for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


def _is_enum(cls: ast.ClassDef) -> bool:
    return any(getattr(b, "id", getattr(b, "attr", "")).endswith("Enum") for b in cls.bases)


def defined_data(paths) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Module constants, and members: class constants, dataclass fields and
    ``self.`` attributes, each name -> ``file:line``.  ``Enum`` members are
    left out."""
    constants: dict[str, list[str]] = {}
    members: dict[str, list[str]] = {}

    def add(table, name, path, node):
        table.setdefault(name, []).append(f"{path.name}:{node.lineno}")

    for path in paths:
        tree = ast.parse(path.read_text("utf-8"), str(path))
        for statement in tree.body:
            for name in _assigned_names(statement):
                add(constants, name.id, path, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and not _is_enum(node):
                for statement in node.body:
                    for name in _assigned_names(statement):
                        add(members, name.id, path, name)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                add(members, node.attr, path, node)
    return constants, members


def _mutated_in_place(tree: ast.AST) -> set[int]:
    """Ids of the loads that only receive a mutator call as a statement,
    like ``self.log`` in ``self.log.append(event)``, or that only hand a
    member on under its own name, like ``self.log`` in ``Result(log=self.log)``."""
    receivers = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr in MUTATORS
        ):
            receivers.add(id(node.value.func.value))
        elif (
            isinstance(node, ast.keyword)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == node.arg
        ):
            receivers.add(id(node.value))
    return receivers


def loaded_names(paths) -> tuple[set[str], set[str]]:
    """The names of every ``Name`` load and of every ``Attribute`` load,
    except a load that only receives a mutator call."""
    names: set[str] = set()
    attributes: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text("utf-8"), str(path))
        written = _mutated_in_place(tree)
        for node in ast.walk(tree):
            if id(node) in written:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return names, attributes


def unread_data(package_paths, program_paths) -> list[str]:
    """Constants no load reads, and members no attribute load reads."""
    names, attributes = loaded_names(program_paths)
    constants, members = defined_data(package_paths)
    unread = [(n, w) for n, w in constants.items() if n not in names and n not in attributes]
    unread += [(n, w) for n, w in members.items() if n not in attributes]
    return sorted(f"{n} ({', '.join(w)})" for n, w in unread if not _is_dunder(n))


def unread_parameters(paths) -> list[str]:
    """``function.parameter (file:line)`` of each parameter that no ``Name``
    load in its function's body reads, nested functions included; ``self``,
    ``cls`` and the parameters of dunder methods, whose signature a protocol
    fixes, are left out."""
    unread = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            if _is_dunder(name):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for statement in body
                for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [
                f"{name}.{param} ({path.name}:{node.lineno})"
                for param in params
                if param not in read and param not in ("self", "cls")
            ]
    return sorted(unread)


def unslotted_dataclasses(paths) -> list[str]:
    """``Class (file:line)`` of each ``@dataclass`` class whose decorator
    does not pass ``slots=True`` and whose body assigns no ``__slots__``."""
    unslotted = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                call = decorator if isinstance(decorator, ast.Call) else None
                target = decorator.func if call else decorator
                if getattr(target, "id", getattr(target, "attr", "")) != "dataclass":
                    continue
                slots = call is not None and any(
                    k.arg == "slots" and getattr(k.value, "value", False) is True
                    for k in call.keywords
                )
                declared = any(
                    name.id == "__slots__"
                    for statement in node.body
                    for name in _assigned_names(statement)
                )
                if not slots and not declared:
                    unslotted.append(f"{node.name} ({path.name}:{node.lineno})")
    return sorted(unslotted)


def program_files() -> list[Path]:
    perfbench = [p for p in PERFBENCH.rglob("*.py") if "tests" not in p.relative_to(PERFBENCH).parts]
    return sorted(PACKAGE.glob("*.py")) + sorted(perfbench)


def test_every_function_of_the_package_is_referenced_by_the_program():
    assert unreferenced_functions(sorted(PACKAGE.glob("*.py")), program_files()) == []


def test_every_data_name_of_the_package_is_read_by_the_program():
    assert unread_data(sorted(PACKAGE.glob("*.py")), program_files()) == []


def test_every_parameter_of_the_package_is_read_by_its_function():
    assert unread_parameters(sorted(PACKAGE.glob("*.py"))) == []


def test_every_dataclass_of_the_package_is_slotted_or_named_unslotted():
    unslotted = unslotted_dataclasses(sorted(PACKAGE.glob("*.py")))
    assert sorted(entry.split(" ")[0] for entry in unslotted) == sorted(UNSLOTTED)


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


def test_data_only_assigned_or_read_by_bare_name_is_unread(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from dataclasses import dataclass\n"
        "from enum import Enum\n"
        "LIMIT = 3\n"
        "UNUSED, ALSO_UNUSED = 1, 2\n"
        "__all__ = ['Color']\n"
        "class Color(Enum):\n"
        "    RED = 'red'\n"
        "@dataclass\n"
        "class Step:\n"
        "    COLUMNS = ('kind',)\n"
        "    kind: str\n"
        "    note: str = ''\n"
        "    def __post_init__(self):\n"
        "        self.seen = LIMIT\n"
        "        self.count = len(self.COLUMNS)\n"
        "def show(step, note):\n"
        "    return step.kind, step.count, note\n"
    )
    assert unread_data([module], [module]) == [
        "ALSO_UNUSED (mod.py:4)",
        "UNUSED (mod.py:4)",
        "note (mod.py:12)",
        "seen (mod.py:14)",
    ]


def test_a_member_only_grown_or_emptied_in_place_is_unread(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "class Log:\n"
        "    def __init__(self):\n"
        "        self.events = []\n"
        "        self.kept = []\n"
        "        self.seen = set()\n"
        "        self.counts = {}\n"
        "    def note(self, event):\n"
        "        self.events.append(event)\n"
        "        self.kept.append(event)\n"
        "        self.seen.add(event)\n"
        "        self.counts.update({event: 1})\n"
        "        self.counts.clear()\n"
        "        return self.seen.pop()\n"
        "    def all(self):\n"
        "        return list(self.kept)\n"
    )
    assert unread_data([module], [module]) == ["counts (mod.py:6)", "events (mod.py:3)"]


def test_a_member_only_handed_on_under_its_own_name_is_unread(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "class Result:\n"
        "    def __init__(self, seen, log, count):\n"
        "        self.log = log\n"
        "        self.count = count\n"
        "class Session:\n"
        "    def __init__(self):\n"
        "        self.log = []\n"
        "        self.steps = 0\n"
        "        self.seen = set()\n"
        "    def result(self):\n"
        "        return Result(self.seen, log=self.log, count=self.steps)\n"
        "def summary(result):\n"
        "    return result.count\n"
    )
    # ``log=self.log`` reads nothing; a member handed on under another
    # name or by position is read
    assert unread_data([module], [module]) == ["log (mod.py:3, mod.py:7)"]


def test_a_parameter_its_body_does_not_load_is_unread(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "class Driver:\n"
        "    def __exit__(self, kind, value, tb):\n"
        "        return False\n"
        "    def perform(self, action, widget_id, *extra, **options):\n"
        "        self.last = action\n"
        "        return options\n"
        "    @classmethod\n"
        "    def make(cls, seed=0):\n"
        "        return cls()\n"
        "def outer(limit, step):\n"
        "    def inner(value):\n"
        "        return value < limit\n"
        "    return inner\n"
        "pick = lambda first, second: first\n"
    )
    # a nested function that reads ``limit`` reads it for ``outer``
    assert unread_parameters([module]) == [
        "<lambda>.second (mod.py:14)",
        "make.seed (mod.py:8)",
        "outer.step (mod.py:10)",
        "perform.extra (mod.py:4)",
        "perform.widget_id (mod.py:4)",
    ]


def test_a_dataclass_that_declares_no_slots_is_unslotted(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Plain:\n"
        "    x: int\n"
        "@dataclass(frozen=True)\n"
        "class Frozen:\n"
        "    x: int\n"
        "@dataclasses.dataclass(slots=False)\n"
        "class Qualified:\n"
        "    x: int\n"
        "@dataclasses.dataclass(slots=True)\n"
        "class Slotted:\n"
        "    x: int\n"
        "@dataclass\n"
        "class Declared:\n"
        "    __slots__ = ('x',)\n"
        "    x: int\n"
        "class Record:\n"
        "    x: int = 0\n"
    )
    assert unslotted_dataclasses([module]) == [
        "Frozen (mod.py:7)",
        "Plain (mod.py:4)",
        "Qualified (mod.py:10)",
    ]
