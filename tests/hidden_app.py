"""A two-version app whose hidden variable sends one click to different screens.

``main``'s "go" button leads to ``left``, to ``right`` or back to ``main``
depending on ``mode``, a variable no screen shows; "flip" cycles ``mode``.
So the session records several outcomes for one (state, widget, action) and
refines ``main``.  Version v2 swaps where "go" leads, so edges learned on v1
turn out stale and online refinement deletes them.
"""

from __future__ import annotations


def _button(widget_id: str, **extra) -> dict:
    return {"id": widget_id, "resourceId": widget_id[2:], "className": "Button",
            "clickable": True, **extra}


def _version(version: str, go_order: tuple[str, str], item_size: int) -> dict:
    first, second = go_order

    def cycle(value_from: int, value_to: int) -> dict:
        return {"guard": [{"var": "mode", "value": value_from}],
                "effects": [{"set": {"var": "mode", "value": value_to}}],
                "instructions": [1, 2]}

    return {
        "version": version,
        "stateVariables": [{"name": "mode", "type": "int", "initial": 0}],
        "windows": [
            {"id": "main", "className": "com.hidden.Main", "launcher": True,
             "widgets": [
                 _button("w-flip"), _button("w-go"), _button("w-note-set"),
                 {"id": "w-note", "resourceId": "note", "className": "TextView"},
                 {"id": "w-field", "resourceId": "field", "className": "EditText",
                  "isInputField": True},
             ]},
            {"id": "left", "className": "com.hidden.Left",
             "widgets": [_button("w-left-item"), _button("w-left-back")]},
            {"id": "right", "className": "com.hidden.Right",
             "widgets": [_button("w-right-item"), _button("w-right-back")]},
        ],
        "inputs": [
            {"id": "i-flip", "window": "main", "widget": "w-flip",
             "actionType": "Click", "handler": "h-flip"},
            {"id": "i-go", "window": "main", "widget": "w-go",
             "actionType": "Click", "handler": "h-go"},
            {"id": "i-note", "window": "main", "widget": "w-note-set",
             "actionType": "Click", "handler": "h-note"},
            {"id": "i-field", "window": "main", "widget": "w-field",
             "actionType": "TextFill", "handler": "h-field"},
            {"id": "i-left-item", "window": "left", "widget": "w-left-item",
             "actionType": "Click", "handler": "h-left-item"},
            {"id": "i-left-back", "window": "left", "widget": "w-left-back",
             "actionType": "Click", "handler": "h-back"},
            {"id": "i-right-item", "window": "right", "widget": "w-right-item",
             "actionType": "Click", "handler": "h-right-item"},
            {"id": "i-right-back", "window": "right", "widget": "w-right-back",
             "actionType": "Click", "handler": "h-back"},
        ],
        "handlers": {
            "h-flip": {"methodId": "m-flip", "instructionCount": 2,
                       "body": [cycle(0, 1), cycle(1, 2), cycle(2, 0)]},
            "h-go": {"methodId": "m-go", "instructionCount": 3, "body": [
                {"guard": [{"var": "mode", "value": 0}],
                 "effects": [{"goto": first}], "instructions": [1, 1]},
                {"guard": [{"var": "mode", "value": 1}],
                 "effects": [{"goto": second}], "instructions": [2, 2]},
                {"guard": [], "effects": [{"set": {"var": "mode", "value": 0}}],
                 "instructions": [3, 3]},
            ]},
            # the note's text depends on the hidden mode, so a level that
            # reads texts tells some of main's screens apart
            "h-note": {"methodId": "m-note", "instructionCount": 2, "body": [
                {"guard": [{"var": "mode", "value": 0}],
                 "effects": [{"setText": {"widget": "w-note", "value": "zero"}}],
                 "instructions": [1, 1]},
                {"guard": [], "effects": [{"setText": {"widget": "w-note", "value": "more"}}],
                 "instructions": [2, 2]},
            ]},
            "h-field": {"methodId": "m-field", "instructionCount": 1, "body": [
                {"guard": [], "effects": [{"setTextFromPayload": "w-note"}],
                 "instructions": [1, 1]},
            ]},
            "h-left-item": {"methodId": "m-left-item", "instructionCount": item_size,
                            "body": [{"guard": [], "effects": [],
                                      "instructions": [1, item_size]}]},
            "h-right-item": {"methodId": "m-right-item", "instructionCount": item_size,
                             "body": [{"guard": [], "effects": [],
                                       "instructions": [1, item_size]}]},
            "h-back": {"methodId": "m-back", "instructionCount": 1,
                       "body": [{"guard": [], "effects": [{"back": True}],
                                 "instructions": [1, 1]}]},
        },
        "textInputs": {"w-field": ["one", "two"]},
    }


def hidden_spec_doc() -> dict:
    return {
        "appId": "hidden",
        "versions": [
            _version("v1", ("left", "right"), item_size=4),
            # v2 swaps the destinations and edits both items, so v2 plans
            # follow v1 edges to the items and find them stale
            _version("v2", ("right", "left"), item_size=5),
        ],
    }
