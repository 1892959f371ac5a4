"""Seeded random pairs of window graphs for diff regression tests.

The base graph has nested widgets, runtime-created windows and widgets, and
both widget-level and window-level transitions.  The updated graph is a copy
with small edits: renamed ids, one-character name edits, class-name and
window-kind changes, deletions, additions and changed destinations.
Widgetless inputs only use window-level action types and widget inputs never
do, so a widget-level transition can never meet a widgetless one with the
same action type.  A ``Shape`` sets how many windows and widgets the base
graph draws and how its resource ids look; ``LARGE`` draws windows of 30+
widgets with long and empty resource ids.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, replace

from uptest.model import (
    ActionType,
    Ewtg,
    EwtgWidget,
    Input,
    Window,
    WindowKind,
    WindowTransition,
)

#: Window-level inputs act on no particular widget.
WINDOW_LEVEL_ACTIONS = {
    ActionType.PRESS_BACK,
    ActionType.PRESS_MENU,
    ActionType.ROTATE_SCREEN,
    ActionType.RESET_APP,
    ActionType.INTENT,
    ActionType.CLOSE_KEYBOARD,
}

WORDS = ["main", "edit", "save", "list", "item", "title", "menu", "note", "date", "done"]
CLASSES = ["Button", "TextView", "EditText", "ImageView", "CheckBox"]
KINDS = [WindowKind.ACTIVITY, WindowKind.DIALOG, WindowKind.OPTIONS_MENU]
WIDGET_ACTIONS = [ActionType.CLICK, ActionType.LONG_CLICK, ActionType.TEXT_FILL, ActionType.ITEM_CLICK]
WINDOW_ACTIONS = sorted(WINDOW_LEVEL_ACTIONS, key=lambda a: a.value)


@dataclass(frozen=True)
class Shape:
    """How large a base graph is drawn.  The defaults draw the original small pairs,
    with the same sequence of random draws."""

    windows: tuple[int, int] = (2, 6)
    widgets: tuple[int, int] = (0, 20)
    id_words: int = 1  # words joined into each resource id
    empty_ids: float = 0.0  # share of widgets given an empty resource id


#: windows of 30+ widgets whose unpaired resource ids together pass 64 characters
LARGE = Shape(windows=(2, 3), widgets=(80, 120), id_words=3, empty_ids=0.15)


def _tweak(rng: random.Random, s: str) -> str:
    """One-character substitution, insertion or deletion."""
    if not s:
        return rng.choice("xyz")
    i = rng.randrange(len(s))
    op = rng.randrange(3)
    if op == 0:
        return s[:i] + rng.choice("xyz") + s[i + 1:]
    if op == 1:
        return s[:i] + rng.choice("xyz") + s[i:]
    return s[:i] + s[i + 1:]


def _add_window(ewtg: Ewtg, rng: random.Random, window_id: str, runtime: bool) -> None:
    name = rng.choice(WORDS).title() + rng.choice(["Activity", "Dialog", ""])
    ewtg.windows[window_id] = Window(
        id=window_id, name=name, kind=rng.choice(KINDS),
        class_name="com.app." + name, runtime_created=runtime,
    )


def _widgets_of(ewtg: Ewtg, window_id: str) -> list[str]:
    """The sorted ids of the widgets in ``window_id``."""
    return sorted(w.id for w in ewtg.widgets.values() if w.window_id == window_id)


def _add_widget(
    ewtg: Ewtg, rng: random.Random, widget_id: str, window_id: str, shape: Shape
) -> None:
    siblings = _widgets_of(ewtg, window_id)
    parent = rng.choice(siblings) if siblings and rng.random() < 0.5 else None
    cls = rng.choice(CLASSES)
    xpath = (ewtg.widgets[parent].xpath if parent else "/LinearLayout") + "/" + cls
    resource_id = "".join(rng.choice(WORDS) for _ in range(shape.id_words))
    resource_id += rng.choice(["", "Button", "Text"])
    if shape.empty_ids and rng.random() < shape.empty_ids:
        resource_id = ""
    ewtg.widgets[widget_id] = EwtgWidget(
        id=widget_id, window_id=window_id, class_name=cls, resource_id=resource_id,
        content_description=rng.choice(["", "", rng.choice(WORDS)]),
        xpath=xpath, parent_id=parent, runtime_created=rng.random() < 0.1,
    )


def _add_transition(ewtg: Ewtg, rng: random.Random, tag: str, window_id: str) -> None:
    widgets = _widgets_of(ewtg, window_id)
    if widgets and rng.random() < 0.7:
        widget, action = rng.choice(widgets), rng.choice(WIDGET_ACTIONS)
    else:
        widget, action = None, rng.choice(WINDOW_ACTIONS)
    ewtg.inputs[f"i{tag}"] = Input(
        id=f"i{tag}", window_id=window_id, action_type=action, widget_id=widget
    )
    ewtg.window_transitions[f"wt{tag}"] = WindowTransition(
        id=f"wt{tag}", destination_window_id=rng.choice(sorted(ewtg.windows)),
        input_id=f"i{tag}",
    )


def _random_base(rng: random.Random, shape: Shape) -> Ewtg:
    ewtg = Ewtg(launcher_window_id="w0")
    for i in range(rng.randint(*shape.windows)):
        _add_window(ewtg, rng, f"w{i}", runtime=i > 0 and rng.random() < 0.15)
    for n in range(rng.randint(*shape.widgets)):
        _add_widget(ewtg, rng, f"wd{n}", rng.choice(sorted(ewtg.windows)), shape)
    for t in range(rng.randint(0, 12)):
        _add_transition(ewtg, rng, str(t), rng.choice(sorted(ewtg.windows)))
    return ewtg


def _delete_widget(ewtg: Ewtg, widget_id: str) -> None:
    ewtg.widgets.pop(widget_id)
    for other in ewtg.widgets.values():
        if other.parent_id == widget_id:
            other.parent_id = None
    for inp in [i for i in ewtg.inputs.values() if i.widget_id == widget_id]:
        del ewtg.inputs[inp.id]
    for wt in [t for t in ewtg.window_transitions.values() if t.input_id not in ewtg.inputs]:
        del ewtg.window_transitions[wt.id]


def _delete_window(ewtg: Ewtg, window_id: str) -> None:
    for widget_id in _widgets_of(ewtg, window_id):
        _delete_widget(ewtg, widget_id)
    del ewtg.windows[window_id]
    for inp in [i for i in ewtg.inputs.values() if i.window_id == window_id]:
        del ewtg.inputs[inp.id]
    for wt in list(ewtg.window_transitions.values()):
        if wt.destination_window_id == window_id or wt.input_id not in ewtg.inputs:
            del ewtg.window_transitions[wt.id]


def _rename_ids(ewtg: Ewtg, rng: random.Random) -> Ewtg:
    """Copy with about one id in six renamed, all references following."""

    def renames(ids):
        return {i: i + "r" if rng.random() < 0.17 else i for i in sorted(ids)}

    win = renames(ewtg.windows)
    wid = renames(ewtg.widgets)
    inp = renames(ewtg.inputs)
    tr = renames(ewtg.window_transitions)
    out = Ewtg(launcher_window_id=win.get(ewtg.launcher_window_id))
    for w in ewtg.windows.values():
        out.windows[win[w.id]] = Window(
            id=win[w.id], name=w.name, kind=w.kind, class_name=w.class_name,
            runtime_created=w.runtime_created,
        )
    for w in ewtg.widgets.values():
        out.widgets[wid[w.id]] = replace(
            w, id=wid[w.id], window_id=win[w.window_id],
            parent_id=wid[w.parent_id] if w.parent_id else None,
        )
    for i in ewtg.inputs.values():
        out.inputs[inp[i.id]] = Input(
            id=inp[i.id], window_id=win[i.window_id], action_type=i.action_type,
            widget_id=wid[i.widget_id] if i.widget_id else None,
        )
    for t in ewtg.window_transitions.values():
        out.window_transitions[tr[t.id]] = WindowTransition(
            id=tr[t.id], destination_window_id=win[t.destination_window_id],
            input_id=inp[t.input_id],
        )
    return out


def _random_update(base: Ewtg, rng: random.Random, shape: Shape) -> Ewtg:
    ewtg = copy.deepcopy(base)
    for window_id in sorted(ewtg.windows):
        r = rng.random()
        if r < 0.08 and window_id != ewtg.launcher_window_id:
            _delete_window(ewtg, window_id)
            continue
        window = ewtg.windows[window_id]
        if r < 0.25:
            window.name = _tweak(rng, window.name)
            window.class_name = "com.app." + window.name
        elif r < 0.33:
            window.class_name = _tweak(rng, window.class_name)
        elif r < 0.40:
            window.kind = rng.choice([k for k in KINDS if k != window.kind])
    for widget_id in sorted(ewtg.widgets):
        r = rng.random()
        if r < 0.1:
            _delete_widget(ewtg, widget_id)
            continue
        widget = ewtg.widgets[widget_id]
        if r < 0.25:
            widget.resource_id = _tweak(rng, widget.resource_id)
        elif r < 0.35:
            widget.class_name = rng.choice([c for c in CLASSES if c != widget.class_name])
        elif r < 0.40:
            widget.content_description = _tweak(rng, widget.content_description)
        elif r < 0.45:
            widget.runtime_created = not widget.runtime_created
    for wt in ewtg.window_transitions.values():
        if rng.random() < 0.15:
            wt.destination_window_id = rng.choice(sorted(ewtg.windows))
    if rng.random() < 0.4:
        _add_window(ewtg, rng, "wn", runtime=rng.random() < 0.2)
    for n in range(rng.randint(0, 4)):
        _add_widget(ewtg, rng, f"wdn{n}", rng.choice(sorted(ewtg.windows)), shape)
    for t in range(rng.randint(0, 3)):
        _add_transition(ewtg, rng, f"n{t}", rng.choice(sorted(ewtg.windows)))
    return _rename_ids(ewtg, rng)


def random_ewtg_pair(seed: int, shape: Shape = Shape()) -> tuple[Ewtg, Ewtg]:
    rng = random.Random(seed)
    base = _random_base(rng, shape)
    return base, _random_update(base, rng, shape)
