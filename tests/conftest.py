"""Shared builders for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

from uptest.model import GuiNode

# the benchmark's app generator, which tests draw generated apps from
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
try:
    import appgen  # noqa: F401
finally:
    sys.path.pop(0)


# The exact property set GUI nodes expose; reducers read nothing else.
GUI_NODE_PROPERTIES = (
    "resourceId",
    "className",
    "contentDescription",
    "text",
    "password",
    "clickable",
    "longClickable",
    "scrollable",
    "checked",
    "enabled",
    "selected",
    "isInputField",
    "hasChildren",
)

_PROPERTY_DEFAULTS = {
    "resourceId": "",
    "className": "View",
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
    "hasChildren": False,
}

assert set(_PROPERTY_DEFAULTS) == set(GUI_NODE_PROPERTIES)


def make_node(children=None, widget_ref=None, bounds_hint=None, **overrides) -> GuiNode:
    props = dict(_PROPERTY_DEFAULTS)
    props.update(overrides)
    children = list(children or [])
    props["hasChildren"] = bool(children)
    return GuiNode(
        properties=props,
        children=children,
        bounds_hint=bounds_hint,
        widget_ref=widget_ref,
    )


def walk(node: GuiNode, path: tuple[int, ...] = ()) -> list[tuple[tuple[int, ...], GuiNode]]:
    """``(path, node)`` of the node and every node below it, in pre-order."""
    out = [(path, node)]
    for i, child in enumerate(node.children):
        out.extend(walk(child, path + (i,)))
    return out


def diff_is_empty(diff) -> bool:
    """Whether the diff adds, deletes and replaces nothing."""
    return not any(
        value
        for key, value in diff.to_dict().items()
        if key.startswith(("added", "deleted", "replaced"))
    )


def path_of(root: GuiNode, widget_ref: str):
    for path, node in walk(root):
        if node.widget_ref == widget_ref:
            return path
    raise AssertionError(f"no node references widget {widget_ref}")
