"""A two-version app whose one row widget has children that change.

``inbox``'s "row" is a clickable container of three widgets that are not
interactable themselves: a title, a badge whose text "mark" sets from "new"
to "read", and a star whose checked flag "star" toggles.  So the row's own
valuations never change, and only a level that reads its children tells the
inbox screens apart: L4 sees the star (L1 reducers on the children), L5 also
the badge text (L2 reducers).  Opening the row leads to ``detail`` when the
star is set, to ``archive`` when the badge was read, and nowhere otherwise,
so a session at L2 records several outcomes for one click and refines.
Version v2 makes "mark" an ImageButton and edits the detail item's handler,
so adaptation rebinds the AVMs of "mark" to a widget of another class.
"""

from __future__ import annotations


def _button(widget_id: str, **extra) -> dict:
    return {"id": widget_id, "resourceId": widget_id[2:], "className": "Button",
            "clickable": True, **extra}


def _child(widget_id: str, resource_id: str, class_name: str, **extra) -> dict:
    return {"id": widget_id, "resourceId": resource_id, "className": class_name,
            "parent": "w-row", **extra}


def _version(version: str, mark_class: str, detail_size: int) -> dict:
    return {
        "version": version,
        "stateVariables": [
            {"name": "starred", "type": "int", "initial": 0},
            {"name": "read", "type": "int", "initial": 0},
        ],
        "windows": [
            {"id": "inbox", "className": "com.nested.Inbox", "launcher": True,
             "widgets": [
                 {"id": "w-row", "resourceId": "row", "className": "LinearLayout",
                  "clickable": True},
                 _child("w-title", "title", "TextView", text="Hello"),
                 _child("w-badge", "badge", "TextView", text="new"),
                 _child("w-star", "star", "CheckBox"),
                 _button("w-mark", className=mark_class),
                 _button("w-toggle"),
             ]},
            {"id": "detail", "className": "com.nested.Detail",
             "widgets": [_button("w-detail-item"), _button("w-detail-back")]},
            {"id": "archive", "className": "com.nested.Archive",
             "widgets": [_button("w-archive-back")]},
        ],
        "inputs": [
            {"id": "i-row", "window": "inbox", "widget": "w-row",
             "actionType": "Click", "handler": "h-open"},
            {"id": "i-mark", "window": "inbox", "widget": "w-mark",
             "actionType": "Click", "handler": "h-mark"},
            {"id": "i-toggle", "window": "inbox", "widget": "w-toggle",
             "actionType": "Click", "handler": "h-toggle"},
            {"id": "i-detail-item", "window": "detail", "widget": "w-detail-item",
             "actionType": "Click", "handler": "h-detail"},
            {"id": "i-detail-back", "window": "detail", "widget": "w-detail-back",
             "actionType": "Click", "handler": "h-back"},
            {"id": "i-archive-back", "window": "archive", "widget": "w-archive-back",
             "actionType": "Click", "handler": "h-back"},
        ],
        "handlers": {
            "h-open": {"methodId": "m-open", "instructionCount": 3, "body": [
                {"guard": [{"var": "starred", "value": 1}],
                 "effects": [{"goto": "detail"}], "instructions": [1, 1]},
                {"guard": [{"var": "read", "value": 1}],
                 "effects": [{"goto": "archive"}], "instructions": [2, 2]},
                {"guard": [], "effects": [], "instructions": [3, 3]},
            ]},
            "h-mark": {"methodId": "m-mark", "instructionCount": 1, "body": [
                {"guard": [], "effects": [
                    {"set": {"var": "read", "value": 1}},
                    {"setText": {"widget": "w-badge", "value": "read"}},
                ], "instructions": [1, 1]},
            ]},
            "h-toggle": {"methodId": "m-toggle", "instructionCount": 2, "body": [
                {"guard": [{"var": "starred", "value": 0}], "effects": [
                    {"set": {"var": "starred", "value": 1}}, {"toggle": "w-star"},
                ], "instructions": [1, 1]},
                {"guard": [], "effects": [
                    {"set": {"var": "starred", "value": 0}}, {"toggle": "w-star"},
                ], "instructions": [2, 2]},
            ]},
            "h-detail": {"methodId": "m-detail", "instructionCount": detail_size,
                         "body": [{"guard": [], "effects": [],
                                   "instructions": [1, detail_size]}]},
            "h-back": {"methodId": "m-back", "instructionCount": 1,
                       "body": [{"guard": [], "effects": [{"back": True}],
                                 "instructions": [1, 1]}]},
        },
    }


def nested_spec_doc() -> dict:
    return {
        "appId": "nested",
        "versions": [
            _version("v1", "Button", detail_size=2),
            _version("v2", "ImageButton", detail_size=3),
        ],
    }
