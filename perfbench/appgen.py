"""Deterministic, stdlib-only generator of multi-version app specs.

``generate_app(seed, windows, widgets, perturbation, versions)`` returns an
app spec document in the format ``uptest.harness.load_spec`` reads.  The
first version is generated whole; each later version copies the previous
one and perturbs it: resource ids are renamed, handler bodies edited, widgets
added and deleted, and one window added or deleted.

The apps exercise every spec feature the engine handles: dialogs closed by
``back`` (layout guards), handlers guarded on hidden state variables,
``show``/``hide``, text fields, ``goto``/``back``, navigation hidden from
static analysis, dynamic-only windows and widgets (runtime folding), check
boxes, tiny widgets, and content generators.

Only lists and insertion-ordered dicts are iterated, and every random choice
comes from one ``random.Random`` seeded by a string, so the same arguments
give the same bytes in every process.
"""

from __future__ import annotations

import json
import random

# widget kinds: (className, xpath tag, properties)
_KINDS = {
    "button": ("Button", "Button", {"clickable": True}),
    "text": ("TextView", "TextView", {"clickable": True}),
    "check": ("CheckBox", "CheckBox", {"clickable": True}),
    "edit": ("EditText", "EditText", {"isInputField": True, "clickable": True}),
    "long": ("ImageView", "ImageView", {"clickable": True, "longClickable": True}),
    "list": ("ListView", "ListView", {"scrollable": True}),
    "label": ("TextView", "TextView", {}),
}
_KIND_WEIGHTS = (
    ("button", 40),
    ("text", 15),
    ("check", 10),
    ("edit", 10),
    ("long", 8),
    ("list", 5),
    ("label", 40),
)
_WORDS = (
    "save", "open", "edit", "share", "next", "prev", "title", "body", "menu",
    "item", "photo", "search", "filter", "sort", "note", "tag", "help", "more",
)


def _pick_kind(rng: random.Random) -> str:
    total = sum(w for _, w in _KIND_WEIGHTS)
    roll = rng.randrange(total)
    for kind, weight in _KIND_WEIGHTS:
        if roll < weight:
            return kind
        roll -= weight
    raise AssertionError("unreachable")


def _exact(rng: random.Random, n: int, shares: list[tuple[object, float]]) -> list:
    """``n`` items in the given shares (largest remainder), in random order.

    Fixed composition keeps apps of one size alike from seed to seed, so the
    seed changes the arrangement rather than how much work an app is.
    """
    total = sum(share for _, share in shares)
    quotas = [(item, n * share / total) for item, share in shares]
    counts = [int(q) for _, q in quotas]
    by_remainder = sorted(range(len(quotas)), key=lambda i: int(quotas[i][1]) - quotas[i][1])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    items = [item for (item, _), c in zip(quotas, counts) for _ in range(c)]
    rng.shuffle(items)
    return items


class _AppDraft:
    """Mutable working copy of one version; ``emit`` renders the spec dict."""

    def __init__(self, rng: random.Random, n_vars: int):
        self.rng = rng
        self.windows: list[dict] = []
        self.inputs: list[dict] = []
        self.handlers: dict[str, dict] = {}
        self.variables = [
            {"name": f"v{i}", "type": "int", "initial": 0} for i in range(n_vars)
        ]
        # text payloads land here; never guarded on or incremented
        self.text_var = {"name": "typed", "type": "str", "initial": ""}
        self.generators: list[dict] = []
        self.related: dict[str, list[str]] = {}
        self.text_inputs: dict[str, list[str]] = {}
        self.serial = 0  # fresh-name counter, carried across versions

    # -- lookups

    def window(self, wid: str) -> dict:
        for w in self.windows:
            if w["id"] == wid:
                return w
        raise KeyError(wid)

    def next_serial(self) -> int:
        self.serial += 1
        return self.serial

    # -- construction

    def add_window(self, index_name: str, kind: str, dynamic: bool, launcher: bool, n_widgets: int) -> dict:
        wid = f"win{index_name}"
        name = f"Screen{index_name}{'Dialog' if kind == 'Dialog' else 'Activity'}"
        window = {
            "id": wid,
            "name": name,
            "kind": kind,
            "className": f"com.gen.{name}",
            "widgets": [],
        }
        if launcher:
            window["launcher"] = True
        if dynamic:
            window["dynamicOnly"] = True
        self.windows.append(window)
        container = {
            "id": f"{wid}-root",
            "resourceId": f"{wid}_root",
            "className": "LinearLayout",
            "xpath": "/FrameLayout/LinearLayout",
        }
        if dynamic:
            container["dynamicOnly"] = True
        window["widgets"].append(container)
        if kind == "Dialog":
            for role in ("ok", "cancel"):
                self.add_widget(window, "button", role=role)
            n_widgets = max(0, n_widgets - 3)
        else:
            n_widgets = max(0, n_widgets - 1)
        kinds = _exact(self.rng, n_widgets, list(_KIND_WEIGHTS))
        dynamic_flags = _exact(self.rng, n_widgets, [(True, 0.1), (False, 0.9)])
        hidden_flags = _exact(self.rng, n_widgets, [(True, 0.15), (False, 0.85)])
        for kind, dyn, hidden in zip(kinds, dynamic_flags, hidden_flags):
            self.add_widget(window, kind, dynamic=dyn, hidden=hidden)
        return window

    def add_widget(
        self, window: dict, kind: str, role: str = "", dynamic: bool | None = None, hidden: bool | None = None
    ) -> dict:
        """A widget and its inputs; ``dynamic``/``hidden`` are drawn when not given."""
        rng = self.rng
        wid = window["id"]
        n = self.next_serial()
        word = role or rng.choice(_WORDS)
        class_name, tag, props = _KINDS[kind]
        widget = {
            "id": f"{wid}-x{n}",
            "resourceId": f"{word}_{kind}_{n}",
            "className": class_name,
            "xpath": f"/FrameLayout/LinearLayout/{tag}[{n}]",
        }
        widget.update(props)
        if rng.random() < 0.6:
            widget["parent"] = f"{wid}-root"
        dynamic_window = window.get("dynamicOnly", False)
        if dynamic is None:
            dynamic = not role and rng.random() < 0.1
        if hidden is None:
            hidden = not role and rng.random() < 0.15
        if dynamic_window or dynamic:
            widget["dynamicOnly"] = True
        if hidden:
            widget["visible"] = False
        if kind in ("text", "label"):
            widget["text"] = rng.choice(("", "Hello", "Item"))
        if not role and kind == "button" and rng.random() < 0.03:
            widget["tiny"] = True
        if kind == "check":
            widget["checked"] = rng.random() < 0.5
        window["widgets"].append(widget)
        if kind == "label":
            return widget
        if kind == "edit":
            self.text_inputs[widget["id"]] = [
                rng.choice(_WORDS) for _ in range(rng.randint(1, 3))
            ]
        self._add_inputs(window, widget, kind, role)
        return widget

    def _add_inputs(self, window: dict, widget: dict, kind: str, role: str) -> None:
        action = {
            "button": "Click",
            "text": "Click",
            "check": "Click",
            "edit": "TextFill",
            "long": "Click",
            "list": "Swipe",
        }[kind]
        self._add_input(window, widget, action, kind, role)
        if kind == "long":
            self._add_input(window, widget, "LongClick", kind, role)

    def _add_input(self, window: dict, widget: dict, action: str, kind: str, role: str) -> None:
        iid = f"i-{widget['id']}-{action}"
        hid = f"h-{widget['id']}-{action}"
        self.inputs.append(
            {
                "id": iid,
                "window": window["id"],
                "widget": widget["id"],
                "actionType": action,
                "handler": hid,
            }
        )
        self.handlers[hid] = {
            "methodId": f"m-{widget['id']}-{action}",
            "instructionCount": 1,
            "body": [],
            "_kind": kind,
            "_role": role,
            "_window": window["id"],
            "_widget": widget["id"],
        }

    def add_back_input(self, window: dict) -> None:
        iid = f"i-{window['id']}-back"
        hid = f"h-{window['id']}-back"
        self.inputs.append(
            {"id": iid, "window": window["id"], "actionType": "PressBack", "handler": hid}
        )
        self.handlers[hid] = {
            "methodId": f"m-{window['id']}-back",
            "instructionCount": 1,
            "body": [],
            "_kind": "back",
            "_role": "back",
            "_window": window["id"],
            "_widget": None,
        }

    # -- handler bodies

    def _effect_pool(self, handler: dict) -> list[dict]:
        """Local effects a handler of this window may apply."""
        rng = self.rng
        window = self.window(handler["_window"])
        others = [
            x for x in window["widgets"] if x["id"] != handler["_widget"] and "parent" in x
        ] or window["widgets"][1:] or window["widgets"]
        effects = []
        target = rng.choice(others)["id"]
        effects.append({rng.choice(("show", "hide")): target})
        texts = [x["id"] for x in window["widgets"] if x["className"] == "TextView"]
        if texts:
            effects.append({"setText": {"widget": rng.choice(texts), "value": rng.choice(_WORDS)}})
        var = rng.choice(self.variables)["name"]
        effects.append(rng.choice(({"set": {"var": var, "value": rng.randint(0, 2)}}, {"inc": {"var": var}})))
        return effects

    def write_body(self, handler: dict, destinations: list[str]) -> None:
        """(Re)write a handler body: guarded commands with instruction ranges."""
        rng = self.rng
        kind = handler["_kind"]
        commands: list[dict] = []
        widget = handler["_widget"]
        if handler["_role"] in ("ok", "cancel", "back"):
            effects = [{"back": True}]
            if handler["_role"] == "ok":
                effects.insert(0, {"inc": {"var": rng.choice(self.variables)["name"]}})
            commands.append({"guard": [], "effects": effects})
        elif kind == "edit":
            if rng.random() < 0.5:
                effect = {"setTextFromPayload": widget}
            else:
                effect = {"setVarFromPayload": self.text_var["name"]}
            commands.append({"guard": [], "effects": [effect]})
        elif kind == "check":
            if rng.random() < 0.7:
                effect = {"toggle": widget}
            else:
                effect = {"setChecked": {"widget": widget, "value": rng.random() < 0.5}}
            commands.append({"guard": [], "effects": [effect]})
        else:
            navigates = destinations and rng.random() < 0.45
            if rng.random() < 0.4:
                # guarded on a hidden variable: the same screen and action can
                # lead to different outcomes
                var = rng.choice(self.variables)["name"]
                first = self._effect_pool(handler)[: rng.randint(1, 2)]
                if navigates:
                    first.append({"goto": rng.choice(destinations)})
                commands.append(
                    {"guard": [{"var": var, "op": rng.choice(("==", "<=", "!=")), "value": rng.randint(0, 1)}],
                     "effects": first}
                )
                commands.append({"guard": [], "effects": self._effect_pool(handler)[:1]})
            else:
                effects = self._effect_pool(handler)[: rng.randint(1, 3)]
                if navigates:
                    effects.append({"goto": rng.choice(destinations)})
                commands.append({"guard": [], "effects": effects})
        # instruction ranges: consecutive, each command 1..6 instructions
        lo = 1
        for cmd in commands:
            hi = lo + rng.randint(0, 5)
            cmd["instructions"] = [lo, hi]
            if any("goto" in e for e in cmd["effects"]) and rng.random() < 0.15:
                cmd["hidden"] = True
            lo = hi + 1
        handler["instructionCount"] = lo - 1 + rng.randint(0, 3)
        handler["body"] = commands

    # -- output

    def emit(self, version: str) -> dict:
        def clean(h: dict) -> dict:
            return {k: v for k, v in h.items() if not k.startswith("_")}

        doc = {
            "version": version,
            "windows": self.windows,
            "inputs": self.inputs,
            "handlers": {k: clean(h) for k, h in self.handlers.items()},
            "stateVariables": self.variables + [self.text_var],
        }
        if self.generators:
            doc["generators"] = self.generators
        if self.related:
            doc["relatedWindows"] = self.related
        if self.text_inputs:
            doc["textInputs"] = self.text_inputs
        # a detached copy: later versions keep mutating the draft
        return json.loads(json.dumps(doc))


def _wire(b: _AppDraft, handler_ids: list[str]) -> None:
    """Write the bodies of ``handler_ids``; any non-launcher window is a destination."""
    targets = [w["id"] for w in b.windows if not w.get("launcher")]
    for hid in handler_ids:
        h = b.handlers[hid]
        b.write_body(h, [t for t in targets if t != h["_window"]])


def _add_opener(b: _AppDraft, source: dict, destination: str) -> None:
    """A visible button of ``source`` whose fixed handler opens ``destination``."""
    opener = b.add_widget(source, "button", role="open")
    opener.pop("visible", None)
    opener.pop("tiny", None)
    handler = b.handlers[f"h-{opener['id']}-Click"]
    hi = b.rng.randint(1, 4)
    handler["body"] = [{"guard": [], "effects": [{"goto": destination}], "instructions": [1, hi]}]
    handler["instructionCount"] = hi
    handler["_fixed"] = True


def _activities(b: _AppDraft, among: set[str]) -> list[dict]:
    return [w for w in b.windows if w["id"] in among and w["kind"] == "Activity"]


def _ensure_reachable(b: _AppDraft) -> None:
    """Give every window an incoming ``goto`` from an already reachable one."""
    reached = {b.windows[0]["id"]}
    for w in b.windows[1:]:
        _add_opener(b, b.rng.choice(_activities(b, reached)), w["id"])
        reached.add(w["id"])


def _prune_references(b: _AppDraft) -> None:
    """Drop inputs, effects and generator links that name removed elements."""
    window_ids = {w["id"] for w in b.windows}
    widget_ids = {x["id"] for w in b.windows for x in w["widgets"]}
    for w in b.windows:
        for x in w["widgets"]:
            if x.get("parent") is not None and x["parent"] not in widget_ids:
                del x["parent"]
    widget_ids.add(None)
    kept_inputs = []
    for inp in b.inputs:
        if inp["window"] in window_ids and inp.get("widget") in widget_ids:
            kept_inputs.append(inp)
        else:
            del b.handlers[inp["handler"]]
    b.inputs = kept_inputs
    widget_effect_keys = ("show", "hide", "toggle", "setTextFromPayload")
    for h in b.handlers.values():
        for cmd in h["body"]:
            effects = []
            for e in cmd["effects"]:
                if "goto" in e and e["goto"] not in window_ids:
                    continue
                if any(k in e and e[k] not in widget_ids for k in widget_effect_keys):
                    continue
                if any(k in e and e[k]["widget"] not in widget_ids for k in ("setText", "setChecked")):
                    continue
                effects.append(e)
            cmd["effects"] = effects
    b.generators = [g for g in b.generators if g.get("widget") in widget_ids]
    b.related = {
        k: [r for r in v if r in window_ids]
        for k, v in b.related.items()
        if k in window_ids
    }
    b.related = {k: v for k, v in b.related.items() if v}
    b.text_inputs = {k: v for k, v in b.text_inputs.items() if k in widget_ids}


def _first_version(rng: random.Random, windows: int, widgets: int) -> _AppDraft:
    b = _AppDraft(rng, n_vars=max(2, windows // 4))
    shapes = [("Activity", False)] + _exact(
        rng, windows - 1, [(("Dialog", False), 0.15), (("Activity", True), 0.1), (("Activity", False), 0.75)]
    )
    for i, (kind, dynamic) in enumerate(shapes):
        window = b.add_window(f"{i:03d}", kind, dynamic, launcher=(i == 0), n_widgets=widgets)
        if i > 0 and kind == "Activity" and rng.random() < 0.3:
            b.add_back_input(window)
    _ensure_reachable(b)
    _wire(b, [hid for hid, h in b.handlers.items() if not h.get("_fixed")])
    # content generators on labels and texts of static windows
    texts = [
        x["id"]
        for w in b.windows
        if not w.get("dynamicOnly")
        for x in w["widgets"]
        if x["className"] == "TextView" and not x.get("dynamicOnly")
    ]
    for gi in range(min(3, len(texts))):
        b.generators.append(
            {
                "widget": rng.choice(texts),
                "var": b.variables[gi % len(b.variables)]["name"],
                "pool": [f"{rng.choice(_WORDS)} {k}" for k in range(rng.randint(2, 3))],
            }
        )
    ids = [w["id"] for w in b.windows]
    for wid in ids[1:]:
        if rng.random() < 0.2:
            b.related[wid] = rng.sample([x for x in ids if x != wid], 2)
    return b


def _perturb(b: _AppDraft, rate: float, step: int) -> None:
    rng = b.rng
    # rename resource ids (the diff sees a replaced widget)
    for w in b.windows:
        for x in w["widgets"][1:]:
            if rng.random() < rate:
                x["resourceId"] = x["resourceId"] + f"_r{step}"
    # edit handler bodies (the harness reports an updated method)
    edited = [hid for hid, h in b.handlers.items() if not h.get("_fixed") and rng.random() < rate]
    # delete and add widgets; openers and dialog buttons stay
    protected = {h["_widget"] for h in b.handlers.values() if h.get("_fixed") or h["_role"]}
    for w in b.windows:
        doomed = {
            x["id"]
            for x in w["widgets"][1:]
            if x["id"] not in protected and rng.random() < rate / 2
        }
        w["widgets"] = [x for x in w["widgets"] if x["id"] not in doomed]
    existing = set(b.handlers)
    for w in b.windows:
        for _ in range(sum(1 for x in w["widgets"] if rng.random() < rate / 2)):
            b.add_widget(w, _pick_kind(rng))
    # add a window on even steps, delete one on odd steps
    if step % 2 == 0 or len(b.windows) < 4:
        kind = "Dialog" if rng.random() < 0.3 else "Activity"
        window = b.add_window(f"N{step}", kind, dynamic=False, launcher=False, n_widgets=max(3, len(b.windows[0]["widgets"]) // 2))
        _add_opener(b, rng.choice(_activities(b, _reachable(b))), window["id"])
    else:
        # never the launcher, and never a window that alone keeps others reachable
        graph = _goto_graph(b)
        candidates = [w for w in b.windows[1:] if not _sole_entry_for_others(b, graph, w["id"])]
        if candidates:
            doomed = rng.choice(candidates)["id"]
            b.windows = [w for w in b.windows if w["id"] != doomed]
    added = [h for h in b.handlers if h not in existing]
    _prune_references(b)
    _wire(b, [h for h in edited + added if h in b.handlers and not b.handlers[h].get("_fixed")])
    _repair_reachability(b)


def _goto_graph(b: _AppDraft) -> dict[str, set[str]]:
    graph: dict[str, set[str]] = {w["id"]: set() for w in b.windows}
    for h in b.handlers.values():
        for cmd in h["body"]:
            for e in cmd["effects"]:
                if "goto" in e:
                    graph[h["_window"]].add(e["goto"])
    return graph


def _reachable(b: _AppDraft, graph: dict[str, set[str]] | None = None, without: str = "") -> set[str]:
    graph = graph if graph is not None else _goto_graph(b)
    start = b.windows[0]["id"]
    seen = {start}
    frontier = [start]
    while frontier:
        for dest in graph[frontier.pop()]:
            if dest != without and dest not in seen:
                seen.add(dest)
                frontier.append(dest)
    return seen


def _sole_entry_for_others(b: _AppDraft, graph: dict[str, set[str]], wid: str) -> bool:
    return len(_reachable(b, graph, without=wid)) < len(_reachable(b, graph)) - 1


def _repair_reachability(b: _AppDraft) -> None:
    """Re-attach windows whose only entry pointed through a removed element."""
    reached = _reachable(b)
    for w in b.windows:
        if w["id"] not in reached:
            _add_opener(b, b.rng.choice(_activities(b, reached)), w["id"])
            reached = _reachable(b)


def generate_app(
    seed: int,
    windows: int = 30,
    widgets: int = 20,
    perturbation: float = 0.15,
    versions: int = 2,
) -> dict:
    """A ``versions``-version app of ``windows`` x ``widgets``, fixed by ``seed``."""
    if windows < 2 or widgets < 4 or versions < 1 or not 0 <= perturbation <= 1:
        raise ValueError("need windows >= 2, widgets >= 4, versions >= 1, 0 <= perturbation <= 1")
    rng = random.Random(f"perfbench-app:{seed}:{windows}:{widgets}:{perturbation}")
    b = _first_version(rng, windows, widgets)
    docs = [b.emit("v1")]
    for step in range(2, versions + 1):
        _perturb(b, perturbation, step)
        docs.append(b.emit(f"v{step}"))
    return {"appId": f"gen-{seed}-{windows}x{widgets}", "versions": docs}


def spec_bytes(doc: dict) -> bytes:
    """Canonical bytes of a generated spec (what determinism is checked on)."""
    return json.dumps(doc, sort_keys=True).encode("utf-8")
