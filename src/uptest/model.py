"""Three-layer app model: static window graph, learned state graph, session trace.

The static layer (windows, widgets, inputs, window transitions) is produced by
the harness or hand-authored.  The dynamic layer (abstract states, abstract
transitions) is learned during test sessions and drives planning.  The session
layer is the trace of executed actions, each given as the abstract transition
it took and the node it acted on; it is what replay re-runs, and it is
discarded when a model is carried over to a new app version.  Concrete
screens, trees of ``GuiNode``, are not part of the model: the driver hands
one back per action, and a session report writes the ones its unique target
actions acted on and reached.

The model stores each fact once: a window's widgets are the widgets whose
``window_id`` names it, a window transition's source window is its input's
``window_id``, a trace step's action type, payload and reached state are
those of its transition, and an AVM bound to a widget takes its identity
from the widget.

A model document (schema 9) writes every list of records as a table,
``{"columns": [...], "rows": [[...], ...]}``: the column names once, then one
row per record with one cell per column.  The columns are the record's fields
in declaration order, named in camelCase (a trace step's are ``transitionId,
concreteNodePath``).  The tables are the window graph's ``windows``,
``widgets``, ``inputs`` and ``windowTransitions``, the state graph's
``abstractStates`` (whose ``avms`` cell is itself a table) and
``abstractTransitions``, and the session layer's ``steps``.  Rows come in id
order, except that an ``avms`` table keeps its state's order of AVMs, the
order derivation found them in, and a round trip keeps it.  The window graph
file ``uptest harness export-ewtg`` writes is the ``ewtg`` object of a model
document.  A reader takes a table only with exactly the writer's columns and
rows of exactly that width.

An AVM's identity is its ``R_RID``, ``R_CN`` and ``R_CD`` valuations, which
are a widget's resource id, class name and content description.  In memory
an AVM holds them as it holds every valuation: a state derived from a screen
reads them from its nodes, and ``bind_widget`` copies them from the widget
when adaptation rebinds an AVM and when loading reads one.  The ``avms`` row
of an AVM with an ``ewtgWidgetId`` leaves the three out, and a reader
rejects such a row that holds one; an AVM of no widget keeps them in its
row.  Integrity validation rejects a bound AVM whose identity is not its
widget's, so a document never drops a value that loading would not give
back.

A session repeats a few steps many times, so the session layer is
``{"steps": <table>, "trace": [<int>, ...]}``: ``steps`` holds each distinct
trace step once, in order of first use, and ``trace`` one ``steps`` row index
per executed action, in execution order.  A reader rejects a repeated row, a
row no index names and an index that names no row.  In memory the trace is
the list of steps, and a repeated index gives the same ``TraceStep`` object.

An abstract transition names only states and a widget: its ``widgetId`` is
the widget it acted on, bound to an AVM of its source state, or null, and
its ``layoutGuard`` the id of the state whose layout guards it, or null.
Integrity validation rejects a widget no AVM of the source is bound to and
a guard that names no state, and dropping a state drops the transitions it
guards, so a guard always has a layout to stand for.
"""

from __future__ import annotations

import functools
import gc
import json
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Any, Callable, Iterable, Optional

SCHEMA_VERSION = 9

#: Abstraction levels from coarsest to finest.
LEVEL_ORDER = ("L1", "L2", "L3", "L4", "L5")


class ModelError(Exception):
    """Raised for malformed or inconsistent model documents."""


#: What a ``from_dict`` or ``from_row`` raises on a decoded JSON document of
#: the wrong shape: a missing key, a table with another header or a row of
#: another width, a value of the wrong JSON type, or an unknown enum value.
#: ``ValueError`` also covers undecodable bytes and malformed JSON.
SHAPE_ERRORS = (LookupError, TypeError, ValueError, AttributeError)

OPTIONAL_STR = (str, type(None))


def require(kind, *values) -> None:
    """Raise ``TypeError``, one of ``SHAPE_ERRORS``, unless every value is a ``kind``."""
    for value in values:
        if not isinstance(value, kind):
            names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
            raise TypeError(f"expected {names}, got {value!r}")


def require_int(*values) -> None:
    """``require(int, ...)`` that also rejects booleans, which JSON keeps apart."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"expected int, got {value!r}")


def without_gc(fn: Callable) -> Callable:
    """Run ``fn`` with the cyclic garbage collector paused.

    Wrap only a function that builds data with no reference cycles, such as
    the window graph, a diff or a model: reference counting frees all of it,
    so a collection started by its allocations frees nothing while it walks
    every live object, the loaded app spec included.  A function that drives
    the app or keeps objects that refer back to each other must not be
    wrapped, or its cycles wait for the next collection outside it.  The
    collector's state on entry is restored on exit, so one that was off
    stays off.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


def _reject_repeats(ids: list, what: str) -> None:
    """Raise ``ValueError`` naming the first id that repeats, if one does."""
    seen = set()
    for id_ in ids:
        if id_ in seen:
            raise ValueError(f"duplicate {what} id {id_!r}")
        seen.add(id_)


_TABLE_KEYS = {"columns", "rows"}
_BY_ID = attrgetter("id")


def _table(cls, records) -> dict:
    """``records``, in the order given, as a table of ``cls`` rows."""
    return {"columns": list(cls.COLUMNS), "rows": [r.to_row() for r in records]}


def _id_table(cls, records: dict) -> dict:
    return _table(cls, sorted(records.values(), key=_BY_ID))


def _records(table: Any, cls) -> list:
    """``cls.from_row`` of each row of a table written with ``cls.COLUMNS``.

    Raises ``TypeError`` or ``ValueError`` unless ``table`` is an object of
    exactly ``columns`` and ``rows``, its ``columns`` equal ``cls.COLUMNS``
    and each row is a list of one cell per column.
    """
    columns = cls.COLUMNS
    if type(table) is not dict or table.keys() != _TABLE_KEYS:
        raise TypeError(f"expected a table of {', '.join(columns)}")
    if table["columns"] != list(columns):
        raise ValueError(f"expected the columns {', '.join(columns)}")
    rows = table["rows"]
    require(list, rows)
    width = len(columns)
    for row in rows:
        if type(row) is not list or len(row) != width:
            raise ValueError(f"expected rows of {width} cells: {', '.join(columns)}")
    return list(map(cls.from_row, rows))


def _by_id(table: Any, cls, what: str) -> dict:
    """The records of ``table`` keyed by id; an id may not repeat."""
    records = _records(table, cls)
    items = {record.id: record for record in records}
    if len(items) != len(records):
        _reject_repeats([record.id for record in records], what)
    return items


class WindowKind(str, Enum):
    ACTIVITY = "Activity"
    DIALOG = "Dialog"
    OPTIONS_MENU = "OptionsMenu"
    CONTEXT_MENU = "ContextMenu"
    LAUNCHER = "Launcher"
    OUT_OF_APP = "OutOfApp"


class ActionType(str, Enum):
    CLICK = "Click"
    LONG_CLICK = "LongClick"
    SWIPE = "Swipe"
    TEXT_FILL = "TextFill"
    CLOSE_KEYBOARD = "CloseKeyboard"
    PRESS_BACK = "PressBack"
    PRESS_MENU = "PressMenu"
    ROTATE_SCREEN = "RotateScreen"
    RESET_APP = "ResetApp"
    INTENT = "Intent"
    ITEM_CLICK = "ItemClick"
    ITEM_LONG_CLICK = "ItemLongClick"


#: Enum members by value; a dict lookup is about ten times faster than the
#: enum call.
_WINDOW_KINDS = {kind.value: kind for kind in WindowKind}
_ACTION_TYPES = {action.value: action for action in ActionType}


def action_cost(action_type: ActionType) -> int:
    """App reset is an order of magnitude slower than any other action."""
    return 10 if action_type == ActionType.RESET_APP else 1


@dataclass(slots=True)
class Window:
    id: str
    name: str
    kind: WindowKind
    class_name: str
    runtime_created: bool = False

    COLUMNS = ("id", "name", "kind", "className", "runtimeCreated")

    def to_row(self) -> list:
        return [self.id, self.name, self.kind.value, self.class_name, self.runtime_created]

    @classmethod
    def from_row(cls, row: list) -> "Window":
        id_, name, kind, class_name, runtime_created = row
        require(str, id_, name, class_name)
        require(bool, runtime_created)
        return cls(id_, name, _WINDOW_KINDS[kind], class_name, runtime_created)


@dataclass(slots=True)
class EwtgWidget:
    id: str
    window_id: str
    class_name: str
    resource_id: str
    content_description: str
    xpath: str
    parent_id: Optional[str] = None
    runtime_created: bool = False

    COLUMNS = (
        "id",
        "windowId",
        "className",
        "resourceId",
        "contentDescription",
        "xpath",
        "parentId",
        "runtimeCreated",
    )

    def to_row(self) -> list:
        return [
            self.id,
            self.window_id,
            self.class_name,
            self.resource_id,
            self.content_description,
            self.xpath,
            self.parent_id,
            self.runtime_created,
        ]

    @classmethod
    def from_row(cls, row: list) -> "EwtgWidget":
        w = cls(*row)
        # inline checks: this runs once per widget of every loaded model
        if not (
            isinstance(w.id, str)
            and isinstance(w.window_id, str)
            and isinstance(w.class_name, str)
            and isinstance(w.resource_id, str)
            and isinstance(w.content_description, str)
            and isinstance(w.xpath, str)
            and isinstance(w.parent_id, OPTIONAL_STR)
            and isinstance(w.runtime_created, bool)
        ):
            raise TypeError(f"widget {w.id!r} has a field of the wrong type")
        return w


@dataclass(slots=True)
class Input:
    id: str
    window_id: str
    action_type: ActionType
    widget_id: Optional[str] = None
    handler_method_ids: set[str] = field(default_factory=set)

    COLUMNS = ("id", "windowId", "actionType", "widgetId", "handlerMethodIds")

    def to_row(self) -> list:
        return [
            self.id,
            self.window_id,
            self.action_type.value,
            self.widget_id,
            sorted(self.handler_method_ids),
        ]

    @classmethod
    def from_row(cls, row: list) -> "Input":
        id_, window_id, action_type, widget_id, handler_method_ids = row
        if not (
            isinstance(id_, str)
            and isinstance(window_id, str)
            and isinstance(widget_id, OPTIONAL_STR)
            and isinstance(handler_method_ids, list)
        ):
            raise TypeError(f"input {id_!r} has a field of the wrong type")
        require(str, *handler_method_ids)
        return cls(id_, window_id, _ACTION_TYPES[action_type], widget_id, set(handler_method_ids))


@dataclass(slots=True)
class WindowTransition:
    id: str
    destination_window_id: str
    input_id: str

    COLUMNS = ("id", "destinationWindowId", "inputId")

    def to_row(self) -> list:
        return [self.id, self.destination_window_id, self.input_id]

    @classmethod
    def from_row(cls, row: list) -> "WindowTransition":
        t = cls(*row)
        if not (
            isinstance(t.id, str)
            and isinstance(t.destination_window_id, str)
            and isinstance(t.input_id, str)
        ):
            raise TypeError(f"window transition {t.id!r} has a field of the wrong type")
        return t


#: The valuations of a widget's own resource id, class name and content
#: description: a bound AVM holds its widget's identity under these keys.
IDENTITY_KEYS = ("R_RID", "R_CN", "R_CD")


def _identity(widget: EwtgWidget) -> tuple:
    return (widget.resource_id, widget.class_name, widget.content_description)


@dataclass(slots=True)
class AttributeValuationMap:
    """Record of reducer outputs for one group of look-alike widgets."""

    valuations: dict[str, Any]
    cardinality: int = 1
    ewtg_widget_id: Optional[str] = None

    def valuation_key(self) -> tuple:
        """Hashable canonical form of the valuations, used for comparisons."""
        return tuple(sorted(self.valuations.items()))

    COLUMNS = ("valuations", "cardinality", "ewtgWidgetId")

    def to_row(self) -> list:
        if self.ewtg_widget_id is None:
            valuations = dict(self.valuations)
        else:  # the widget holds the identity
            valuations = {k: v for k, v in self.valuations.items() if k not in IDENTITY_KEYS}
        return [valuations, self.cardinality, self.ewtg_widget_id]

    @classmethod
    def from_row(cls, row: list) -> "AttributeValuationMap":
        """The AVM of a row; a bound AVM's identity is filled in by
        ``AppModel.from_dict``, and its row may not hold it."""
        avm = cls(*row)
        require(dict, avm.valuations)
        require_int(avm.cardinality)
        require(OPTIONAL_STR, avm.ewtg_widget_id)
        require((str, int, float, type(None)), *avm.valuations.values())
        if avm.ewtg_widget_id is not None and not avm.valuations.keys().isdisjoint(IDENTITY_KEYS):
            raise ValueError(f"an AVM holds valuations that widget {avm.ewtg_widget_id!r} gives it")
        return avm


def bind_widget(avm: AttributeValuationMap, widget: EwtgWidget) -> None:
    """Bind ``avm`` to ``widget``: its widget id and its identity valuations."""
    avm.ewtg_widget_id = widget.id
    avm.valuations.update(zip(IDENTITY_KEYS, _identity(widget)))


@dataclass(slots=True)
class AbstractState:
    id: str
    window_id: str
    avms: list[AttributeValuationMap] = field(default_factory=list)
    abstraction_level: str = "L1"
    obsolete: bool = False
    observed_in_versions: set[str] = field(default_factory=set)

    def valuation_multiset(self) -> dict[tuple, int]:
        counts: dict[tuple, int] = {}
        for avm in self.avms:
            key = avm.valuation_key()
            counts[key] = counts.get(key, 0) + avm.cardinality
        return counts

    COLUMNS = ("id", "windowId", "avms", "abstractionLevel", "obsolete", "observedInVersions")

    def to_row(self) -> list:
        return [
            self.id,
            self.window_id,
            _table(AttributeValuationMap, self.avms),
            self.abstraction_level,
            self.obsolete,
            sorted(self.observed_in_versions),
        ]

    @classmethod
    def from_row(cls, row: list) -> "AbstractState":
        id_, window_id, avms, abstraction_level, obsolete, observed_in_versions = row
        require(str, id_, window_id, abstraction_level)
        require(bool, obsolete)
        require(list, observed_in_versions)
        require(str, *observed_in_versions)
        avms = _records(avms, AttributeValuationMap)
        return cls(id_, window_id, avms, abstraction_level, obsolete, set(observed_in_versions))


@dataclass(slots=True)
class AbstractTransition:
    id: str
    source_state_id: str
    widget_id: Optional[str]  # the widget acted on, bound to an AVM of the source
    action_type: ActionType
    destination_state_id: str
    data_payload: Optional[str] = None
    layout_guard: Optional[str] = None  # the state whose layout guards it

    COLUMNS = (
        "id",
        "sourceStateId",
        "widgetId",
        "actionType",
        "destinationStateId",
        "dataPayload",
        "layoutGuard",
    )

    def to_row(self) -> list:
        return [
            self.id,
            self.source_state_id,
            self.widget_id,
            self.action_type.value,
            self.destination_state_id,
            self.data_payload,
            self.layout_guard,
        ]

    @classmethod
    def from_row(cls, row: list) -> "AbstractTransition":
        t = cls(*row)
        t.action_type = _ACTION_TYPES[t.action_type]
        require(str, t.id, t.source_state_id, t.destination_state_id)
        require(OPTIONAL_STR, t.widget_id, t.data_payload, t.layout_guard)
        return t


@dataclass(eq=False)
class GuiNode:
    """One node of a concrete screen; a screen is its root node.

    A screen is never mutated once built: the driver hands the same root back
    whenever it shows the same screen again, and the engine and the replay
    remember what they work out from a screen under its root.  So nodes
    compare and hash by identity; compare ``to_dict()`` for equal content.
    No type wraps a root: whoever needs a screen's window keeps it beside the
    root.
    """

    properties: dict[str, Any]
    children: list["GuiNode"] = field(default_factory=list)
    bounds_hint: Optional[dict] = None
    widget_ref: Optional[str] = None  # association to a static widget; not a property

    def node_at(self, path: tuple[int, ...]) -> "GuiNode":
        """The node at ``path``; ``IndexError`` when a step has no such child."""
        node = self
        for i in path:
            if i < 0:
                raise IndexError(f"negative child index {i}")
            node = node.children[i]
        return node

    def to_dict(self) -> dict:
        return {
            "properties": dict(sorted(self.properties.items())),
            "children": [c.to_dict() for c in self.children],
            "boundsHint": self.bounds_hint,
            "widgetRef": self.widget_ref,
        }


@dataclass(slots=True)
class Action:
    input_id: Optional[str]  # None for an exploration action not yet reported
    action_type: ActionType
    concrete_node_path: Optional[tuple[int, ...]] = None
    data_payload: Optional[str] = None

    @property
    def cost(self) -> int:
        return action_cost(self.action_type)

    def to_dict(self) -> dict:
        return {
            "inputId": self.input_id,
            "actionType": self.action_type.value,
            "concreteNodePath": list(self.concrete_node_path)
            if self.concrete_node_path is not None
            else None,
            "dataPayload": self.data_payload,
        }


@dataclass(slots=True)
class TraceStep:
    """One executed action: the abstract transition it took and the node it
    acted on.  Its action type, payload and reached state are the
    transition's."""

    transition_id: str
    concrete_node_path: Optional[tuple[int, ...]] = None

    COLUMNS = ("transitionId", "concreteNodePath")

    def to_row(self) -> list:
        path = self.concrete_node_path
        return [self.transition_id, None if path is None else list(path)]

    @classmethod
    def from_row(cls, row: list) -> "TraceStep":
        transition_id, path = row
        require(str, transition_id)
        if path is not None:
            require(list, path)
            for i in path:
                # type(), not isinstance: a JSON boolean is no index
                if type(i) is not int or i < 0:
                    raise TypeError(f"node path {path} holds {i!r}, not an index >= 0")
            path = tuple(path)
        return cls(transition_id, path)


@dataclass
class Ewtg:
    windows: dict[str, Window] = field(default_factory=dict)
    widgets: dict[str, EwtgWidget] = field(default_factory=dict)
    inputs: dict[str, Input] = field(default_factory=dict)
    window_transitions: dict[str, WindowTransition] = field(default_factory=dict)
    launcher_window_id: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "windows": _id_table(Window, self.windows),
            "widgets": _id_table(EwtgWidget, self.widgets),
            "inputs": _id_table(Input, self.inputs),
            "windowTransitions": _id_table(WindowTransition, self.window_transitions),
            "launcherWindowId": self.launcher_window_id,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Ewtg":
        """Raises one of ``SHAPE_ERRORS`` for a document of the wrong shape or
        one whose widget parents form a cycle."""
        ewtg = cls(
            windows=_by_id(d["windows"], Window, "window"),
            widgets=_by_id(d["widgets"], EwtgWidget, "widget"),
            inputs=_by_id(d["inputs"], Input, "input"),
            window_transitions=_by_id(
                d["windowTransitions"], WindowTransition, "window transition"
            ),
            launcher_window_id=d.get("launcherWindowId"),
        )
        require(OPTIONAL_STR, ewtg.launcher_window_id)
        # a missing parent ends a chain; integrity validation reports it
        cyclic = own_ancestor(
            {w.id: w.parent_id for w in ewtg.widgets.values() if w.parent_id is not None}
        )
        if cyclic is not None:
            raise ValueError(f"widget {cyclic} is its own ancestor")
        return ewtg


def own_ancestor(parent_of: dict[str, str]) -> Optional[str]:
    """The first widget found to be its own ancestor in ``parent_of``
    (widget id -> parent id), or None.  One pass: a chain stops at a widget
    already known to end, so each widget is walked once.  A parent that is
    not a key ends its chain."""
    ended: set[str] = set()
    for node in parent_of:
        chain: dict[str, None] = {}  # the chain so far, as an ordered set
        while node in parent_of and node not in ended:
            if node in chain:
                return node
            chain[node] = None
            node = parent_of[node]
        ended.update(chain)
    return None


@dataclass
class Dstg:
    abstract_states: dict[str, AbstractState] = field(default_factory=dict)
    abstract_transitions: dict[str, AbstractTransition] = field(default_factory=dict)
    abstraction_policy: dict[str, str] = field(default_factory=dict)  # window id -> level

    def level_for(self, window_id: str) -> str:
        return self.abstraction_policy.get(window_id, "L1")

    def drop_states(self, ids: Iterable[str]) -> None:
        """Delete the states ``ids`` names and every transition into, out of
        or guarded by them."""
        doomed = set(ids)
        if not doomed:
            return
        for sid in doomed:
            del self.abstract_states[sid]
        for tr_id, tr in list(self.abstract_transitions.items()):
            ends = (tr.source_state_id, tr.destination_state_id, tr.layout_guard)
            if not doomed.isdisjoint(ends):
                del self.abstract_transitions[tr_id]

    def to_dict(self) -> dict:
        return {
            "abstractStates": _id_table(AbstractState, self.abstract_states),
            "abstractTransitions": _id_table(AbstractTransition, self.abstract_transitions),
            "abstractionPolicy": dict(sorted(self.abstraction_policy.items())),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Dstg":
        policy = d.get("abstractionPolicy", {})
        require(dict, policy)
        return cls(
            abstract_states=_by_id(d["abstractStates"], AbstractState, "abstract state"),
            abstract_transitions=_by_id(
                d["abstractTransitions"], AbstractTransition, "abstract transition"
            ),
            abstraction_policy=dict(policy),
        )


def _step_key(step: TraceStep) -> tuple:
    return (step.transition_id, step.concrete_node_path)


@dataclass
class Gstg:
    trace: list[TraceStep] = field(default_factory=list)

    def to_dict(self) -> dict:
        rows: dict[tuple, int] = {}  # step key -> row, in order of first use
        trace = [rows.setdefault(_step_key(step), len(rows)) for step in self.trace]
        steps = (TraceStep(*key) for key in rows)
        return {"steps": _table(TraceStep, steps), "trace": trace}

    @classmethod
    def from_dict(cls, d: dict) -> "Gstg":
        """Raises one of ``SHAPE_ERRORS`` unless the ``steps`` rows are
        distinct and ``trace`` is a list of row indices that names each row."""
        steps = _records(d["steps"], TraceStep)
        _reject_repeats(list(map(_step_key, steps)), "trace step")
        trace = d["trace"]
        require(list, trace)
        require_int(*trace)
        rows, named = set(range(len(steps))), set(trace)
        if named != rows:
            if named - rows:
                raise ValueError(f"trace index {min(named - rows)} names no step row")
            raise ValueError(f"step row {min(rows - named)} is named by no trace index")
        # a repeated index names one shared step; nothing mutates a step
        return cls(trace=[steps[i] for i in trace])


@dataclass
class AppModel:
    version: str
    ewtg: Ewtg = field(default_factory=Ewtg)
    dstg: Dstg = field(default_factory=Dstg)
    gstg: Gstg = field(default_factory=Gstg)
    # Added/replaced widget ids from the diff that produced this model;
    # consumed by backward-equivalence checks during the next session.
    diff_context: dict[str, list[str]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "version": self.version,
            "ewtg": self.ewtg.to_dict(),
            "dstg": self.dstg.to_dict(),
            "gstg": self.gstg.to_dict(),
            "diffContext": {k: sorted(v) for k, v in sorted(self.diff_context.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AppModel":
        model = cls(
            version=d["version"],
            ewtg=Ewtg.from_dict(d["ewtg"]),
            dstg=Dstg.from_dict(d["dstg"]),
            gstg=Gstg.from_dict(d["gstg"]),
            diff_context={k: list(v) for k, v in d.get("diffContext", {}).items()},
        )
        widgets = model.ewtg.widgets
        for state in model.dstg.abstract_states.values():
            for avm in state.avms:
                widget = widgets.get(avm.ewtg_widget_id)  # a missing one fails validation
                if widget is not None:
                    bind_widget(avm, widget)
        require(str, model.version)
        require(list, *d.get("diffContext", {}).values())
        for ids in model.diff_context.values():
            require(str, *ids)
        return model


def validate_integrity(model: AppModel) -> list[str]:
    """Check cross-layer referential integrity; returns human-readable violations."""
    violations: list[str] = []
    ewtg = model.ewtg

    for widget in ewtg.widgets.values():
        if widget.window_id not in ewtg.windows:
            violations.append(f"widget {widget.id} references missing window {widget.window_id}")
        if not widget.xpath:
            violations.append(f"widget {widget.id} has empty xpath")
        if widget.parent_id is not None:
            parent = ewtg.widgets.get(widget.parent_id)
            if parent is None:
                violations.append(f"widget {widget.id} references missing parent {widget.parent_id}")
            elif parent.window_id != widget.window_id:
                violations.append(
                    f"widget {widget.id} has parent {widget.parent_id} in another window"
                )

    for inp in ewtg.inputs.values():
        if inp.window_id not in ewtg.windows:
            violations.append(f"input {inp.id} references missing window {inp.window_id}")
        if inp.widget_id is not None:
            widget = ewtg.widgets.get(inp.widget_id)
            if widget is None:
                violations.append(f"input {inp.id} references missing widget {inp.widget_id}")
            elif widget.window_id != inp.window_id:
                violations.append(f"input {inp.id} widget {inp.widget_id} is in another window")

    for wt in ewtg.window_transitions.values():
        if wt.destination_window_id not in ewtg.windows:
            violations.append(
                f"transition {wt.id} references missing destination {wt.destination_window_id}"
            )
        if wt.input_id not in ewtg.inputs:
            violations.append(f"transition {wt.id} references missing input {wt.input_id}")

    if ewtg.launcher_window_id is not None and ewtg.launcher_window_id not in ewtg.windows:
        violations.append(f"launcher window {ewtg.launcher_window_id} missing")

    dstg = model.dstg
    for state in dstg.abstract_states.values():
        if state.window_id not in ewtg.windows:
            violations.append(f"state {state.id} references missing window {state.window_id}")
        if state.abstraction_level not in LEVEL_ORDER:
            violations.append(f"state {state.id} has unknown abstraction level")
        for i, avm in enumerate(state.avms):
            if avm.cardinality < 1:
                violations.append(f"avm {i} of state {state.id} has cardinality < 1")
            if avm.ewtg_widget_id is None:
                continue
            widget = ewtg.widgets.get(avm.ewtg_widget_id)
            if widget is None:
                violations.append(
                    f"avm {i} of state {state.id} references missing widget {avm.ewtg_widget_id}"
                )
            elif tuple(map(avm.valuations.get, IDENTITY_KEYS)) != _identity(widget):
                violations.append(
                    f"avm {i} of state {state.id} does not hold the identity of widget {widget.id}"
                )

    for tr in dstg.abstract_transitions.values():
        src = dstg.abstract_states.get(tr.source_state_id)
        if src is None:
            violations.append(f"abstract transition {tr.id} references missing source state "
                              f"{tr.source_state_id}")
        elif tr.widget_id is not None and all(
            avm.ewtg_widget_id != tr.widget_id for avm in src.avms
        ):
            violations.append(
                f"abstract transition {tr.id} widget {tr.widget_id} is bound to no avm of "
                f"state {src.id}"
            )
        if tr.destination_state_id not in dstg.abstract_states:
            violations.append(
                f"abstract transition {tr.id} references missing destination state "
                f"{tr.destination_state_id}"
            )
        if tr.layout_guard is not None and tr.layout_guard not in dstg.abstract_states:
            violations.append(
                f"abstract transition {tr.id} has a layout guard of missing state {tr.layout_guard}"
            )

    for window_id, level in dstg.abstraction_policy.items():
        if window_id not in ewtg.windows:
            violations.append(f"abstraction policy references missing window {window_id}")
        if level not in LEVEL_ORDER:
            violations.append(f"abstraction policy of window {window_id} has unknown level")

    missing: dict[str, int] = {}  # missing transition id -> first step taking it
    for i, step in enumerate(model.gstg.trace):
        if step.transition_id not in dstg.abstract_transitions:
            missing.setdefault(step.transition_id, i)
    for transition_id, i in missing.items():
        violations.append(f"trace step {i} references missing transition {transition_id}")

    return violations


def compact_json(doc) -> bytes:
    """``doc`` as ASCII JSON with sorted keys and no whitespace, which
    ``json`` encodes in C (an indent makes it fall back to its Python encoder).

    Every ``doc`` the program encodes is a tree built fresh, by a ``to_dict``
    or from parsed JSON, and holds no cycle, so the encoder skips its
    circular-reference check: that check records the id of every container
    it enters and would find nothing.  Skipping it changes no byte."""
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), check_circular=False
    ).encode("utf-8")


@without_gc
def serialize_model(model: AppModel) -> bytes:
    """Serialize a validated model to a canonical JSON document.

    The document is ``compact_json``; any layout of the same document loads.
    """
    violations = validate_integrity(model)
    if violations:
        raise ModelError("model failed integrity validation: " + "; ".join(violations))
    return compact_json(model.to_dict())


@without_gc
def deserialize_model(data: bytes) -> AppModel:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelError(f"malformed model document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError("malformed model document: top level must be an object")
    schema = doc.get("schema_version")
    if schema != SCHEMA_VERSION:
        raise ModelError(f"unsupported schema version {schema!r}, expected {SCHEMA_VERSION}")
    if "version" not in doc:
        raise ModelError("model document missing version tag")
    try:
        model = AppModel.from_dict(doc)
    except SHAPE_ERRORS as exc:
        raise ModelError(f"malformed model document: {type(exc).__name__}: {exc}") from exc
    violations = validate_integrity(model)
    if violations:
        raise ModelError("model failed integrity validation: " + "; ".join(violations))
    return model
