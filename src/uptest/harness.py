"""Deterministic simulated app platform.

Apps are declared as versioned JSON documents: windows with widgets, inputs
wired to guarded-command handlers over named state variables, and optional
per-launch content generators.  A driver session renders GUI trees, executes
handlers with per-instruction-range coverage reporting, and is fully
deterministic given (spec, seed, action sequence).  The same documents also
yield the static window graph and the per-version updated-method manifest.

A loaded spec is read-only.  Its per-element records are slotted
dataclasses, with no per-instance dict, because a carried app loads every
version in full: a 60-window app of five versions holds over 12,000
widgets.  Widgets with the same eight flags share one property dict.

Each record's ``from_dict`` reads every key of its JSON object once,
computes a default only when its key is missing, checks every field's type
inline and then calls the record's constructor positionally.  A widget,
window or input with a wrong field raises one message that names it; the
other records raise through ``require`` or ``require_int``, whose messages
name the expected type.  No check takes a boolean for an integer.  Besides
malformed documents and dangling references, ``load_spec`` rejects a
version id used twice and a method id that two handlers of one version
declare.
"""

from __future__ import annotations

import json
import operator
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from .model import (
    _ACTION_TYPES,
    _WINDOW_KINDS,
    OPTIONAL_STR,
    SHAPE_ERRORS,
    Action,
    ActionType,
    Ewtg,
    EwtgWidget,
    GuiNode,
    Input,
    Window,
    WindowKind,
    WindowTransition,
    own_ancestor,
    require,
    require_int,
    without_gc,
)


class SpecError(Exception):
    pass


class DriverRejection(Exception):
    """Action on a hidden, absent, or non-interactable node."""


_WIDGET_BOOL_PROPS = (
    "password",
    "clickable",
    "longClickable",
    "scrollable",
    "checked",
    "enabled",
    "selected",
    "isInputField",
)
# every property off except ``enabled`` unless the spec says otherwise
_DEFAULT_FLAGS = tuple(p == "enabled" for p in _WIDGET_BOOL_PROPS)
_BOOL_ONLY = frozenset((bool,))
# flag tuple -> the property dict every widget with those flags shares; at
# most 2^8 entries.  Nothing writes to these dicts.
_PROPERTY_DICTS: dict[tuple[bool, ...], dict[str, bool]] = {}


@dataclass(slots=True)
class WidgetSpec:
    """One widget of a window.  ``properties`` maps each of the eight flags
    in ``_WIDGET_BOOL_PROPS`` to its value; it is shared by every widget
    with the same flags, so it is read-only."""

    id: str
    resource_id: str
    class_name: str
    xpath: str
    content_description: str = ""
    parent: Optional[str] = None
    text: str = ""
    visible: bool = True
    dynamic_only: bool = False
    tiny: bool = False
    properties: dict[str, bool] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "WidgetSpec":
        get = d.get
        flags = tuple(map(get, _WIDGET_BOOL_PROPS, _DEFAULT_FLAGS))
        # checked before the lookup: 0 == False and the two hash alike, so
        # the table would hand a widget with a 0 the dict of a false flag
        if not _BOOL_ONLY.issuperset(map(type, flags)):  # JSON true or false only
            p = next(p for p, flag in zip(_WIDGET_BOOL_PROPS, flags) if type(flag) is not bool)
            raise TypeError(f"widget {d['id']!r} flag {p!r} has the wrong type")
        props = _PROPERTY_DICTS.get(flags)
        if props is None:
            props = _PROPERTY_DICTS[flags] = dict(zip(_WIDGET_BOOL_PROPS, flags))
        widget_id = d["id"]
        resource_id = get("resourceId", widget_id)
        class_name = get("className", "View")
        xpath = d["xpath"] if "xpath" in d else f"/{resource_id}"
        content_description = get("contentDescription", "")
        parent = get("parent")
        text = get("text", "")
        visible = get("visible", True)
        dynamic_only = get("dynamicOnly", False)
        tiny = get("tiny", False)
        # inline checks: this runs once per widget of every version
        if not (
            isinstance(widget_id, str)
            and isinstance(resource_id, str)
            and isinstance(class_name, str)
            and isinstance(xpath, str)
            and xpath  # a window graph rejects a widget with no xpath
            and isinstance(content_description, str)
            and isinstance(text, str)
            and (parent is None or isinstance(parent, str))
            and type(visible) is bool
            and type(dynamic_only) is bool
            and type(tiny) is bool
        ):
            raise TypeError(f"widget {widget_id!r} has a field of the wrong type or an empty xpath")
        return cls(
            widget_id,
            resource_id,
            class_name,
            xpath,
            content_description,
            parent,
            text,
            visible,
            dynamic_only,
            tiny,
            props,
        )


@dataclass(slots=True)
class WindowSpec:
    id: str
    name: str
    kind: WindowKind
    class_name: str
    launcher: bool = False
    dynamic_only: bool = False
    widgets: dict[str, WidgetSpec] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "WindowSpec":
        widgets = _by_id(list(map(WidgetSpec.from_dict, d.get("widgets", ()))), "widget")
        get = d.get
        window_id = d["id"]
        name = get("name", window_id)
        kind = _WINDOW_KINDS[get("kind", "Activity")]
        class_name = d["className"] if "className" in d else name
        launcher = get("launcher", False)
        dynamic_only = get("dynamicOnly", False)
        if not (
            isinstance(window_id, str)
            and isinstance(name, str)
            and isinstance(class_name, str)
            and type(launcher) is bool
            and type(dynamic_only) is bool
        ):
            raise TypeError(f"window {window_id!r} has a field of the wrong type")
        return cls(window_id, name, kind, class_name, launcher, dynamic_only, widgets)


@dataclass(slots=True)
class InputSpec:
    id: str
    window: str
    action_type: ActionType
    widget: Optional[str] = None
    handler: Optional[str] = None

    @classmethod
    def from_dict(cls, d: dict) -> "InputSpec":
        input_id = d["id"]
        window = d["window"]
        action_type = _ACTION_TYPES[d["actionType"]]
        widget = d.get("widget")
        handler = d.get("handler")
        if not (
            isinstance(input_id, str)
            and isinstance(window, str)
            and (widget is None or isinstance(widget, str))
            and (handler is None or isinstance(handler, str))
        ):
            raise TypeError(f"input {input_id!r} has a field of the wrong type")
        return cls(input_id, window, action_type, widget, handler)


@dataclass(slots=True)
class CommandSpec:
    guard: list[dict]
    effects: list[dict]
    instructions: tuple[int, int]
    hidden: bool = False  # window navigation invisible to static analysis

    @classmethod
    def from_dict(cls, d: dict) -> "CommandSpec":
        lo, hi = d["instructions"]
        guard = list(d.get("guard", ()))
        effects = list(d.get("effects", ()))
        hidden = d.get("hidden", False)
        if not (type(lo) is int and type(hi) is int and type(hidden) is bool):
            # raise with the checks' own messages; an int subclass passes them
            require_int(lo, hi)
            require(bool, hidden)
        return cls(guard, effects, (lo, hi), hidden)


@dataclass(slots=True)
class HandlerSpec:
    method_id: str
    instruction_count: int
    body: list[CommandSpec]

    @classmethod
    def from_dict(cls, d: dict) -> "HandlerSpec":
        method_id = d["methodId"]
        instruction_count = d["instructionCount"]
        body = list(map(CommandSpec.from_dict, d.get("body", ())))
        if not (isinstance(method_id, str) and type(instruction_count) is int):
            require(str, method_id)
            require_int(instruction_count)
        return cls(method_id, instruction_count, body)

    def canonical(self) -> str:
        return json.dumps(
            {
                "methodId": self.method_id,
                "instructionCount": self.instruction_count,
                "body": [
                    {
                        "guard": c.guard,
                        "effects": c.effects,
                        "instructions": list(c.instructions),
                        "hidden": c.hidden,
                    }
                    for c in self.body
                ],
            },
            sort_keys=True,
        )


@dataclass(slots=True)
class VariableSpec:
    name: str
    type: str
    initial: Any
    persistent: bool = False

    @classmethod
    def from_dict(cls, d: dict) -> "VariableSpec":
        var = cls(d["name"], d.get("type", "int"), d.get("initial", 0), d.get("persistent", False))
        require(str, var.name, var.type)
        require((str, int, float, type(None)), var.initial)
        require(bool, var.persistent)
        return var


@dataclass(slots=True)
class GeneratorSpec:
    pool: list[Any]
    widget: Optional[str] = None
    var: Optional[str] = None

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorSpec":
        gen = cls(d["pool"], d.get("widget"), d.get("var"))
        require(list, gen.pool)
        require(OPTIONAL_STR, gen.widget, gen.var)
        return gen


def _lists_of_strings(d: dict, key: str) -> dict[str, list[str]]:
    lists = {k: list(v) for k, v in d.get(key, {}).items()}
    for items in lists.values():
        require(str, *items)
    return lists


def _first_repeat(keys: list[str]) -> str:
    """The first of ``keys`` that an earlier one repeats; there must be one."""
    seen: set[str] = set()
    return next(k for k in keys if k in seen or seen.add(k))


def _by_id(records: list, what: str) -> dict:
    """``records`` by id.  A repeated id raises ``SpecError`` naming the first
    repeat: the dict's size is compared with the record count instead of
    testing each id on insertion."""
    by_id = {r.id: r for r in records}
    if len(by_id) != len(records):
        raise SpecError(f"duplicate {what} id {_first_repeat([r.id for r in records])}")
    return by_id


@dataclass
class VersionSpec:
    version: str
    windows: dict[str, WindowSpec]
    inputs: dict[str, InputSpec]
    handlers: dict[str, HandlerSpec]
    variables: dict[str, VariableSpec]
    related_windows: dict[str, list[str]] = field(default_factory=dict)
    generators: list[GeneratorSpec] = field(default_factory=list)
    text_inputs: dict[str, list[str]] = field(default_factory=dict)

    @property
    def launcher_window(self) -> WindowSpec:
        for window in self.windows.values():
            if window.launcher:
                return window
        raise SpecError("no launcher window")

    def methods(self) -> dict[str, HandlerSpec]:
        return {h.method_id: h for h in self.handlers.values()}

    @classmethod
    def from_dict(cls, d: dict) -> "VersionSpec":
        windows = _by_id(list(map(WindowSpec.from_dict, d.get("windows", ()))), "window")
        inputs = _by_id(list(map(InputSpec.from_dict, d.get("inputs", ()))), "input")
        variables = {}
        for vd in d.get("stateVariables", ()):
            spec = VariableSpec.from_dict(vd)
            if spec.name in variables:
                raise SpecError(f"duplicate state variable {spec.name}")
            variables[spec.name] = spec
        version = d["version"]
        handlers = {k: HandlerSpec.from_dict(v) for k, v in d.get("handlers", {}).items()}
        related_windows = _lists_of_strings(d, "relatedWindows")
        generators = list(map(GeneratorSpec.from_dict, d.get("generators", ())))
        text_inputs = _lists_of_strings(d, "textInputs")
        require(str, version)
        return cls(
            version, windows, inputs, handlers, variables, related_windows, generators, text_inputs
        )


@dataclass
class AppSpec:
    app_id: str
    versions: list[VersionSpec]

    def version_index(self, version: str) -> int:
        for i, v in enumerate(self.versions):
            if v.version == version:
                return i
        raise SpecError(f"unknown version {version!r}")


#: Comparison operators a handler guard may use; ``==`` when omitted.
GUARD_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _validate_version(v: VersionSpec) -> None:
    launchers = [w for w in v.windows.values() if w.launcher]
    if len(launchers) != 1:
        raise SpecError(
            f"version {v.version}: expected exactly one launcher window, found {len(launchers)}"
        )
    if launchers[0].dynamic_only:
        raise SpecError(f"version {v.version}: launcher window cannot be dynamic-only")
    spec_widgets: set[str] = set()
    parent_of: dict[str, str] = {}
    for window in v.windows.values():
        # a version has one id space of widgets: the window graph keys them by id
        if not spec_widgets.isdisjoint(window.widgets):
            repeated = min(spec_widgets.intersection(window.widgets))
            raise SpecError(f"version {v.version}: widget id {repeated} is in two windows")
        spec_widgets.update(window.widgets)
        for widget in window.widgets.values():
            if widget.parent is not None:
                if widget.parent not in window.widgets:
                    raise SpecError(
                        f"widget {widget.id} references unknown parent {widget.parent}"
                    )
                parent_of[widget.id] = widget.parent
    cyclic = own_ancestor(parent_of)
    if cyclic is not None:
        raise SpecError(f"widget {cyclic} is its own ancestor")
    for window_id, related in v.related_windows.items():
        for name in (window_id, *related):
            if name not in v.windows:
                raise SpecError(f"relatedWindows names unknown window {name}")
    for widget_id in v.text_inputs:
        if widget_id not in spec_widgets:
            raise SpecError(f"textInputs names unknown widget {widget_id}")
    for inp in v.inputs.values():
        if inp.window not in v.windows:
            raise SpecError(f"input {inp.id} references unknown window {inp.window}")
        if inp.widget is not None and inp.widget not in v.windows[inp.window].widgets:
            raise SpecError(f"input {inp.id} references unknown widget {inp.widget}")
        if inp.handler is not None and inp.handler not in v.handlers:
            raise SpecError(f"input {inp.id} references unknown handler {inp.handler}")
    # variables that are incremented or compared by order must only ever hold numbers
    numeric: set[str] = set()
    written = [(name, var.initial) for name, var in v.variables.items()]
    # coverage counts a method's instructions by its id, so one id is one handler
    handler_of: dict[str, str] = {}
    for key, handler in v.handlers.items():
        first = handler_of.setdefault(handler.method_id, key)
        if first != key:
            raise SpecError(
                f"version {v.version}: method {handler.method_id} is declared by "
                f"handlers {first} and {key}"
            )
        if handler.instruction_count < 1:
            raise SpecError(f"handler {key} must declare a positive instruction count")
        for cmd in handler.body:
            lo, hi = cmd.instructions
            if not (1 <= lo <= hi <= handler.instruction_count):
                raise SpecError(
                    f"handler {key} command instruction range {cmd.instructions} "
                    f"outside [1, {handler.instruction_count}]"
                )
            for cond in cmd.guard:
                if cond.get("var") not in v.variables:
                    raise SpecError(f"handler {key} guard references unknown variable")
                op = cond.get("op", "==")
                if op not in GUARD_OPS:
                    raise SpecError(f"handler {key} guard has unknown op {op!r}")
                if op not in ("==", "!="):
                    numeric.add(cond["var"])
                    written.append((cond["var"], cond.get("value")))
            # the effects DriverSession._apply_effects applies, and nothing else
            for effect in cmd.effects:
                for name, arg in effect.items():
                    if name in ("set", "inc", "setVarFromPayload"):
                        var = arg if name == "setVarFromPayload" else arg.get("var")
                        if var not in v.variables:
                            raise SpecError(f"handler {key} effect references unknown variable")
                        if name == "set":
                            written.append((var, arg["value"]))
                        elif name == "inc":
                            numeric.add(var)
                            written.append((var, arg.get("by", 1)))
                        else:
                            written.append((var, ""))
                    elif name in ("show", "hide", "toggle", "setTextFromPayload"):
                        if arg not in spec_widgets:
                            raise SpecError(f"handler {key} {name} targets unknown widget")
                    elif name in ("setText", "setChecked"):
                        if arg.get("widget") not in spec_widgets or "value" not in arg:
                            raise SpecError(f"handler {key} {name} needs a widget and a value")
                    elif name == "goto":
                        if arg not in v.windows:
                            raise SpecError(f"handler {key} goto references unknown window")
                    elif name != "back":
                        raise SpecError(f"handler {key} has unknown effect {name!r}")
    for gen in v.generators:
        if not gen.pool:
            raise SpecError("generator pool must be non-empty")
        if gen.widget is not None and gen.widget not in spec_widgets:
            raise SpecError(f"generator references unknown widget {gen.widget}")
        if gen.var is not None and gen.var not in v.variables:
            raise SpecError(f"generator references unknown variable {gen.var}")
    for name, value in written:
        if name in numeric and not isinstance(value, (int, float)):
            raise SpecError(f"variable {name} is used as a number but may hold {value!r}")


@without_gc
def load_spec(source: Union[str, Path, bytes, dict]) -> AppSpec:
    """Parse and validate an app spec; any malformed document raises ``SpecError``."""
    try:
        if isinstance(source, dict):
            doc = source
        elif isinstance(source, bytes):
            doc = json.loads(source.decode("utf-8"))
        else:
            # a path only: ``open`` alone would take an int as a file descriptor
            with open(os.fspath(source), encoding="utf-8") as f:
                doc = json.load(f)
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise SpecError(f"app spec is not a JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("app spec must be a JSON object")
    if "appId" not in doc or "versions" not in doc:
        raise SpecError("app spec must declare appId and versions")
    try:
        versions = [VersionSpec.from_dict(v) for v in doc["versions"]]
        if not versions:
            raise SpecError("app spec declares no versions")
        # ``AppSpec.version_index`` finds a version by its id
        ids = [v.version for v in versions]
        if len(set(ids)) != len(ids):
            raise SpecError(f"duplicate version id {_first_repeat(ids)}")
        for v in versions:
            if not v.windows:
                raise SpecError(f"version {v.version} declares no windows")
            _validate_version(v)
        require(str, doc["appId"])
    except SHAPE_ERRORS as exc:
        raise SpecError(f"malformed app spec: {type(exc).__name__}: {exc}") from exc
    return AppSpec(app_id=doc["appId"], versions=versions)


# --- static export -------------------------------------------------------


@without_gc
def export_ewtg(spec: AppSpec, version: str) -> Ewtg:
    """Static model of one version, blind to dynamic-only elements."""
    v = spec.versions[spec.version_index(version)]
    ewtg = Ewtg()
    windows, widgets = ewtg.windows, ewtg.widgets
    for window in v.windows.values():
        if window.dynamic_only:
            continue
        window_id = window.id
        windows[window_id] = Window(window_id, window.name, window.kind, window.class_name)
        if window.launcher:
            ewtg.launcher_window_id = window_id
        specs = window.widgets
        for widget in specs.values():
            if widget.dynamic_only:
                continue
            parent = widget.parent
            if parent is not None and specs[parent].dynamic_only:
                parent = None
            widgets[widget.id] = EwtgWidget(
                widget.id,
                window_id,
                widget.class_name,
                widget.resource_id,
                widget.content_description,
                widget.xpath,
                parent,
            )
    handlers = v.handlers
    for inp in sorted(v.inputs.values(), key=operator.attrgetter("id")):
        if inp.window not in windows:
            continue
        if inp.widget is not None and inp.widget not in widgets:
            continue
        handler = None if inp.handler is None else handlers[inp.handler]
        methods = set() if handler is None else {handler.method_id}
        ewtg.inputs[inp.id] = Input(inp.id, inp.window, inp.action_type, inp.widget, methods)
        if handler is None:
            continue
        for ci, cmd in enumerate(handler.body):
            if cmd.hidden:
                continue
            for effect in cmd.effects:
                dest = effect.get("goto")
                if dest is None or dest not in windows:
                    continue
                tid = f"wt-{inp.id}-{ci}-{dest}"
                ewtg.window_transitions[tid] = WindowTransition(tid, dest, inp.id)
    return ewtg


def updated_methods(spec: AppSpec, version: str) -> set[str]:
    """Methods new or changed relative to the previous version (all, for the first)."""
    index = spec.version_index(version)
    current = spec.versions[index].methods()
    if index == 0:
        return set(current)
    previous = spec.versions[index - 1].methods()
    changed = set()
    for method_id, handler in current.items():
        old = previous.get(method_id)
        if old is None or old.canonical() != handler.canonical():
            changed.add(method_id)
    return changed


def method_instruction_counts(spec: AppSpec, version: str) -> dict[str, int]:
    v = spec.versions[spec.version_index(version)]
    return {h.method_id: h.instruction_count for h in v.handlers.values()}


def target_manifest(spec: AppSpec) -> dict:
    return {
        "appId": spec.app_id,
        "versions": [
            {
                "version": v.version,
                "updatedMethodIds": sorted(updated_methods(spec, v.version)),
                "instructionCounts": dict(
                    sorted(method_instruction_counts(spec, v.version).items())
                ),
            }
            for v in spec.versions
        ],
    }


# --- driver --------------------------------------------------------------


# members ``perform`` compares with, bound once: on CPython 3.11, reading a
# member off its enum class costs about ten times a module global
_RESET_APP = ActionType.RESET_APP
_TEXT_FILL = ActionType.TEXT_FILL
_PRESS_BACK = ActionType.PRESS_BACK

# the order ``DriverSession._apply_effects`` applies the kinds of one effect in
_EFFECT_ORDER = (
    "set",
    "inc",
    "show",
    "hide",
    "setText",
    "setTextFromPayload",
    "setVarFromPayload",
    "setChecked",
    "toggle",
    "goto",
    "back",
)


def _compile_effects(effects: list[dict]) -> tuple[tuple[str, Any], ...]:
    """A command's effects as ``(name, argument)`` pairs, effect by effect
    and within one effect in ``_EFFECT_ORDER``.  An argument is what its
    effect reads of the spec: a window or widget id, a variable name,
    ``(var, value)`` for ``set``, ``(var, by)`` for ``inc`` and
    ``(widget, value)`` for ``setText`` and ``setChecked``, the value
    already a string or a flag, and None for ``back``."""
    pairs = []
    for effect in effects:
        for name in _EFFECT_ORDER:
            if name not in effect:
                continue
            arg = effect[name]
            if name == "set":
                arg = (arg["var"], arg["value"])
            elif name == "inc":
                arg = (arg["var"], arg.get("by", 1))
            elif name == "setText":
                arg = (arg["widget"], str(arg["value"]))
            elif name == "setChecked":
                arg = (arg["widget"], bool(arg["value"]))
            elif name == "back":
                arg = None
            pairs.append((name, arg))
    return tuple(pairs)


@dataclass(frozen=True, slots=True, eq=False)
class PerformResult:
    """What a reset or an action left on screen and the instruction span it
    executed.  A driver runs at most one command per action, so ``executed``
    is ``()`` or ``(span,)``, and the screen and that span decide the whole
    result: the driver hands back one shared result per pair, which nobody
    can write to.  A result hashes and compares by identity, like a
    ``GuiNode``: the shared result stands for its pair, so the session keys
    the steps it has taken by it without hashing its fields."""

    window_id: str
    window_kind: WindowKind
    window_class_name: str
    root: GuiNode
    executed: tuple[tuple[str, int, int], ...]  # (method id, range lo, range hi)


class DriverSession:
    """One app run; deterministic given (spec, version, seed, actions).

    An action's node path refers to the screen in the driver's last result,
    the one its last ``reset`` or ``perform`` returned.  A rejected action
    changes nothing, so that screen stays current.

    The driver renders each distinct screen once: whenever it comes back to
    the same window with the same visible widgets, texts and checked flags,
    it returns the same ``GuiNode`` tree as before.  Callers share these
    trees and must never mutate them.  It keeps each window's current screen
    and returns it without looking at the window's widgets until a runtime
    override of one of them: an override forgets the current screen of the
    windows that hold the overridden widget, and of no other window.

    The driver works out each action once per (screen, node path, action
    type): the node the path reaches, the checks that its widget takes the
    action, the input declared for it and that input's handler, whose guards
    it compiles to operator calls.  A screen's identity is a sound key for
    all of that, because the driver builds one screen object per window and
    set of visible widgets, texts and checked flags and never changes it, and
    the rest is the spec's.  Each action then reads only the state variables
    its handler's guards compare, and applies its command's effects compiled
    to ``(name, argument)`` pairs, one dispatch each.

    Results are shared like screens: the driver keeps one ``PerformResult``
    per (screen, executed span) and hands it back whenever an action or a
    reset ends on that screen having run that span.  A result is frozen and
    its ``executed`` a tuple.

    A version has one id space of widgets (``load_spec`` rejects an id in two
    windows), so each widget id names one widget of one window.
    """

    def __init__(self, spec: AppSpec, version: str, seed: int = 0):
        self.version_spec = spec.versions[spec.version_index(version)]
        self.seed = seed
        # (window, widget, action type) -> the lowest-id input declared for it
        self._inputs: dict[tuple[str, Optional[str], ActionType], InputSpec] = {}
        for inp in sorted(self.version_spec.inputs.values(), key=lambda i: i.id):
            self._inputs.setdefault((inp.window, inp.widget, inp.action_type), inp)
        self._windows = self.version_spec.windows
        # widget id -> its spec and the window that holds it
        self._widgets: dict[str, WidgetSpec] = {}
        self._window_of: dict[str, str] = {}
        for window in self._windows.values():
            self._widgets.update(window.widgets)
            self._window_of.update(dict.fromkeys(window.widgets, window.id))
        self._launcher_id = self.version_spec.launcher_window.id
        self.launch_counter = 0
        self.variables: dict[str, Any] = {}
        self.window_stack: list[str] = []
        # per-widget runtime overrides
        self._visible: dict[str, bool] = {}
        self._text: dict[str, str] = {}
        self._checked: dict[str, bool] = {}
        # (window, each widget's text and checked flag or None when hidden) -> screen
        self._screens: dict[tuple, GuiNode] = {}
        # window id -> its screen; holds while the overrides above are unchanged
        self._current: dict[str, GuiNode] = {}
        # (screen, node path, action type) -> what ``_resolve`` made of it
        self._resolved: dict[tuple, Union[str, tuple]] = {}
        # (screen, executed span or None) -> the one result for it
        self._results: dict[tuple, PerformResult] = {}
        self.reset()

    # -- state management

    def reset(self) -> PerformResult:
        persistent = {
            name: self.variables[name]
            for name, var in self.version_spec.variables.items()
            if var.persistent and name in self.variables
        }
        self.variables = {
            name: var.initial for name, var in self.version_spec.variables.items()
        }
        self.variables.update(persistent)
        self._visible = {}
        self._text = {}
        self._checked = {}
        self._current = {}
        self.window_stack = [self._launcher_id]
        self.launch_counter += 1
        self._apply_generators()
        return self._result(None)

    def _result(self, span: Optional[tuple[str, int, int]]) -> PerformResult:
        """The result for the current screen and ``span``, the one command's
        executed span or None; built the first time.  A screen belongs to
        one window, so the pair decides the window too."""
        window_id = self.window_stack[-1]
        screen = self._current.get(window_id)
        if screen is None:
            screen = self.render()
        self._screen = screen  # what the next action's node path refers to
        key = (screen, span)
        result = self._results.get(key)
        if result is None:
            window = self._windows[window_id]
            result = self._results[key] = PerformResult(
                window_id, window.kind, window.class_name, screen,
                () if span is None else (span,),
            )
        return result

    def _apply_generators(self) -> None:
        for gi, gen in enumerate(self.version_spec.generators):
            rng = random.Random(f"{self.seed}:{self.launch_counter}:{gi}")
            index = rng.randrange(len(gen.pool))
            if gen.widget is not None:
                self._text[gen.widget] = str(gen.pool[index])
            if gen.var is not None:
                self.variables[gen.var] = index

    @property
    def current_window_id(self) -> str:
        return self.window_stack[-1]

    def widget_visible(self, widget: WidgetSpec) -> bool:
        return self._visible.get(widget.id, widget.visible)

    def widget_text(self, widget: WidgetSpec) -> str:
        return self._text.get(widget.id, widget.text)

    def widget_checked(self, widget: WidgetSpec) -> bool:
        return self._checked.get(widget.id, widget.properties["checked"])

    # -- rendering

    def render(self) -> GuiNode:
        """The current screen, built only the first time the driver is in its state."""
        window_id = self.window_stack[-1]
        screen = self._current.get(window_id)
        if screen is not None:
            return screen
        window = self._windows[window_id]
        visible, text, checked = self._visible, self._text, self._checked
        key = (window_id, *[
            (text.get(w.id, w.text), checked.get(w.id, w.properties["checked"]))
            if visible.get(w.id, w.visible)
            else None
            for w in window.widgets.values()
        ])
        screen = self._screens.get(key)
        if screen is None:
            screen = self._screens[key] = self._build_screen(window)
        self._current[window.id] = screen
        return screen

    def _build_screen(self, window: WindowSpec) -> GuiNode:
        visible = [w for w in window.widgets.values() if self.widget_visible(w)]
        visible_ids = {w.id for w in visible}
        children_of: dict[Optional[str], list[WidgetSpec]] = {}
        for widget in visible:
            parent = widget.parent if widget.parent in visible_ids else None
            children_of.setdefault(parent, []).append(widget)
        root_props = {
            "resourceId": window.name,
            "className": window.class_name,
            "contentDescription": "",
            "text": "",
            "password": False,
            "clickable": False,
            "longClickable": False,
            "scrollable": False,
            "checked": False,
            "enabled": True,
            "selected": False,
            "isInputField": False,
            "hasChildren": bool(children_of.get(None)),
        }
        return GuiNode(
            properties=root_props,
            children=[self._build_node(w, children_of) for w in children_of.get(None, [])],
            widget_ref=None,
        )

    def _build_node(
        self, widget: WidgetSpec, children_of: dict[Optional[str], list[WidgetSpec]]
    ) -> GuiNode:
        # a method, not a closure: a nested recursive function refers to
        # itself through its own cell, and with ``self`` captured that cycle
        # would keep the session and its screens alive until a collection
        kids = [self._build_node(c, children_of) for c in children_of.get(widget.id, [])]
        props = {
            "resourceId": widget.resource_id,
            "className": widget.class_name,
            "contentDescription": widget.content_description,
            "text": self.widget_text(widget),
            "checked": self.widget_checked(widget),
            "hasChildren": bool(kids),
        }
        for p in _WIDGET_BOOL_PROPS:
            if p == "checked":
                continue
            props[p] = widget.properties[p]
        return GuiNode(
            properties=props,
            children=kids,
            bounds_hint={"tiny": True} if widget.tiny else None,
            widget_ref=widget.id,
        )

    # -- execution

    _ACTION_PROPERTY = {
        ActionType.CLICK: "clickable",
        ActionType.LONG_CLICK: "longClickable",
        ActionType.ITEM_CLICK: "clickable",
        ActionType.ITEM_LONG_CLICK: "longClickable",
        ActionType.SWIPE: "scrollable",
        ActionType.TEXT_FILL: "isInputField",
    }

    def perform(self, action: Action) -> PerformResult:
        action_type = action.action_type
        if action_type == _RESET_APP:
            return self.reset()

        path = action.concrete_node_path
        key = (self._screen, path, action_type)
        resolved = self._resolved.get(key)
        if resolved is None:
            resolved = self._resolved[key] = self._resolve(path, action_type)
        if type(resolved) is str:
            raise DriverRejection(resolved)
        widget_id, commands = resolved

        if action_type == _TEXT_FILL and widget_id is not None:
            # typing fills the field; a handler (if any) reacts afterwards
            self._text[widget_id] = action.data_payload or ""
            self._forget_screens(widget_id)

        if commands is None:
            self._go_back()
            return self._result(None)
        # the first command whose guard holds runs, and no other
        variables = self.variables
        for guard, effects, span in commands:
            for holds, var, value in guard:
                if not holds(variables.get(var), value):
                    break
            else:
                self._apply_effects(effects, action)
                return self._result(span)
        return self._result(None)

    def _resolve(
        self, path: Optional[tuple[int, ...]], action_type: ActionType
    ) -> Union[str, tuple]:
        """What an action of ``action_type`` at ``path`` on the current
        screen does: the message it is rejected with, or the widget it acts
        on and the commands of its input's handler, each its guard as
        ``(operator, var, value)`` triples, its effects and its executed
        span.  The effects are ``_compile_effects``'s pairs.  The commands
        are None for a press-back that no input handles, which goes back a
        window."""
        window = self._windows[self.current_window_id]
        widget_id: Optional[str] = None
        if path is not None:
            try:
                node = self._screen.node_at(path)
            except IndexError:
                return "node path no longer resolves"
            widget_id = node.widget_ref
            if widget_id is None:
                return "window root is not interactable"
            widget = window.widgets[widget_id]
            # a rendered screen holds visible widgets only
            if not widget.properties["enabled"]:
                return f"widget {widget_id} is not interactable"
            required = self._ACTION_PROPERTY.get(action_type)
            if required is not None and not widget.properties[required]:
                return f"widget {widget_id} does not support {action_type.value}"
            if widget.tiny:
                return f"widget {widget_id} is below the size hint"

        inp = self._inputs.get((window.id, widget_id, action_type))
        if inp is None:
            return widget_id, None if action_type == _PRESS_BACK else ()
        if inp.handler is None:
            return widget_id, ()
        handler = self.version_spec.handlers[inp.handler]
        return widget_id, tuple(
            (
                tuple(
                    (GUARD_OPS[cond.get("op", "==")], cond["var"], cond.get("value"))
                    for cond in cmd.guard
                ),
                _compile_effects(cmd.effects),
                (handler.method_id, *cmd.instructions),
            )
            for cmd in handler.body
        )

    def _go_back(self) -> None:
        if len(self.window_stack) > 1:
            self.window_stack.pop()

    def _forget_screens(self, widget_id: str) -> None:
        """Drop the current screen of the window that holds ``widget_id``,
        whose runtime override just changed."""
        self._current.pop(self._window_of[widget_id], None)

    def _apply_effects(self, effects: tuple[tuple[str, Any], ...], action: Action) -> None:
        for name, arg in effects:
            apply = self._EFFECTS.get(name)
            if apply is not None:
                apply(self, arg)
            else:
                self._PAYLOAD_EFFECTS[name](self, arg, action.data_payload or "")

    # one method per effect kind, each taking its compiled argument, and the
    # action's payload if the effect reads it

    def _set(self, arg: tuple[str, Any]) -> None:
        var, value = arg
        self.variables[var] = value

    def _inc(self, arg: tuple[str, Any]) -> None:
        var, by = arg
        self.variables[var] = self.variables.get(var, 0) + by

    def _show(self, widget_id: str) -> None:
        self._visible[widget_id] = True
        self._forget_screens(widget_id)

    def _hide(self, widget_id: str) -> None:
        self._visible[widget_id] = False
        self._forget_screens(widget_id)

    def _set_text(self, arg: tuple[str, str]) -> None:
        widget_id, text = arg
        self._text[widget_id] = text
        self._forget_screens(widget_id)

    def _set_text_from_payload(self, widget_id: str, payload: str) -> None:
        self._text[widget_id] = payload
        self._forget_screens(widget_id)

    def _set_var_from_payload(self, var: str, payload: str) -> None:
        self.variables[var] = payload

    def _set_checked(self, arg: tuple[str, bool]) -> None:
        widget_id, flag = arg
        self._checked[widget_id] = flag
        self._forget_screens(widget_id)

    def _toggle(self, widget_id: str) -> None:
        self._checked[widget_id] = not self.widget_checked(self._widgets[widget_id])
        self._forget_screens(widget_id)

    def _navigate(self, window_id: Optional[str]) -> None:
        """Go to ``window_id``, or back a window when it is None."""
        if window_id is None:
            self._go_back()
        else:
            self.window_stack.append(window_id)

    _EFFECTS = {
        "set": _set,
        "inc": _inc,
        "show": _show,
        "hide": _hide,
        "setText": _set_text,
        "setChecked": _set_checked,
        "toggle": _toggle,
        "goto": _navigate,
        "back": _navigate,
    }
    _PAYLOAD_EFFECTS = {
        "setTextFromPayload": _set_text_from_payload,
        "setVarFromPayload": _set_var_from_payload,
    }
