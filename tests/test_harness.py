"""Simulated app platform: spec loading, static export, driver semantics."""

import copy
import dataclasses
import random

import pytest

from uptest.abstraction import LEVELS
from uptest.cli import pipeline_run
from uptest.config import EngineConfig
from uptest.engine import TargetSet, run_session
from uptest.harness import (
    GUARD_OPS,
    DriverRejection,
    DriverSession,
    SpecError,
    export_ewtg,
    load_spec,
    method_instruction_counts,
    target_manifest,
    updated_methods,
)
from uptest.model import Action, ActionType, AppModel

from uptest import fixture_path
from conftest import GUI_NODE_PROPERTIES, path_of, walk
from nested_app import nested_spec_doc


def base_spec_doc() -> dict:
    return {
        "appId": "toy",
        "versions": [
            {
                "version": "v1",
                "windows": [
                    {
                        "id": "main",
                        "name": "Main",
                        "className": "com.toy.Main",
                        "launcher": True,
                        "widgets": [
                            {"id": "w-go", "resourceId": "go", "className": "Button",
                             "xpath": "/L/Button", "clickable": True},
                            {"id": "w-name", "resourceId": "name", "className": "EditText",
                             "xpath": "/L/EditText", "isInputField": True},
                            {"id": "w-tiny", "resourceId": "tiny", "className": "Button",
                             "xpath": "/L/Button[2]", "clickable": True, "tiny": True},
                            {"id": "w-hidden", "resourceId": "hidden", "className": "Button",
                             "xpath": "/L/Button[3]", "clickable": True, "visible": False},
                        ],
                    },
                    {
                        "id": "second",
                        "name": "Second",
                        "className": "com.toy.Second",
                        "widgets": [
                            {"id": "w-label", "resourceId": "label", "className": "TextView",
                             "xpath": "/L/TextView", "clickable": True},
                        ],
                    },
                ],
                "inputs": [
                    {"id": "i-go", "window": "main", "widget": "w-go",
                     "actionType": "Click", "handler": "h-go"},
                    {"id": "i-name", "window": "main", "widget": "w-name",
                     "actionType": "TextFill", "handler": "h-name"},
                    {"id": "i-back", "window": "second", "actionType": "PressBack",
                     "handler": "h-back"},
                ],
                "handlers": {
                    "h-go": {
                        "methodId": "m-go",
                        "instructionCount": 6,
                        "body": [
                            {"guard": [{"var": "clicks", "op": ">=", "value": 1}],
                             "effects": [{"goto": "second"}], "instructions": [1, 4]},
                            {"guard": [],
                             "effects": [{"inc": {"var": "clicks"}}], "instructions": [5, 6]},
                        ],
                    },
                    "h-name": {
                        "methodId": "m-name",
                        "instructionCount": 3,
                        "body": [
                            {"guard": [], "effects": [{"setTextFromPayload": "w-name"}],
                             "instructions": [1, 3]},
                        ],
                    },
                    "h-back": {
                        "methodId": "m-back",
                        "instructionCount": 2,
                        "body": [
                            {"guard": [], "effects": [{"back": True}], "instructions": [1, 2]}
                        ],
                    },
                },
                "stateVariables": [
                    {"name": "clicks", "type": "int", "initial": 0},
                    {"name": "stars", "type": "int", "initial": 0, "persistent": True},
                ],
            }
        ],
    }


def toy_session(seed=0) -> DriverSession:
    return DriverSession(load_spec(base_spec_doc()), "v1", seed=seed)


def click(session, result, widget_id, input_id="i"):
    return session.perform(
        Action(input_id, ActionType.CLICK, concrete_node_path=path_of(result.root, widget_id))
    )


# --- spec validation ------------------------------------------------------


def test_load_spec_rejects_malformed_documents_with_spec_error():
    with pytest.raises(SpecError, match="not a JSON document"):
        load_spec(b"{not json")
    with pytest.raises(SpecError, match="not a JSON document"):
        load_spec(b"\xff\xfe")
    with pytest.raises(SpecError, match="JSON object"):
        load_spec(b"[1, 2]")
    missing_id = base_spec_doc()
    del missing_id["versions"][0]["windows"][0]["id"]
    bad_kind = base_spec_doc()
    bad_kind["versions"][0]["windows"][0]["kind"] = "Spaceship"
    bad_handlers = base_spec_doc()
    bad_handlers["versions"][0]["handlers"] = []
    for doc in (missing_id, bad_kind, bad_handlers, {"appId": "a", "versions": [3]}):
        with pytest.raises(SpecError, match="malformed app spec"):
            load_spec(doc)


def test_load_spec_requires_exactly_one_launcher():
    doc = base_spec_doc()
    doc["versions"][0]["windows"][1]["launcher"] = True
    with pytest.raises(SpecError):
        load_spec(doc)
    doc = base_spec_doc()
    doc["versions"][0]["windows"][0]["launcher"] = False
    with pytest.raises(SpecError):
        load_spec(doc)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["versions"][0]["inputs"].append(
            {"id": "i-bad", "window": "nope", "actionType": "Click"}
        ),
        lambda d: d["versions"][0]["inputs"].append(
            {"id": "i-bad", "window": "main", "widget": "nope", "actionType": "Click"}
        ),
        lambda d: d["versions"][0]["inputs"].append(
            {"id": "i-bad", "window": "main", "actionType": "Click", "handler": "nope"}
        ),
        lambda d: d["versions"][0]["handlers"]["h-go"]["body"][0].update(
            {"instructions": [0, 4]}
        ),
        lambda d: d["versions"][0]["handlers"]["h-go"]["body"][0].update(
            {"instructions": [1, 99]}
        ),
        lambda d: d["versions"][0]["handlers"]["h-go"]["body"][0]["guard"].append(
            {"var": "nope", "op": "==", "value": 0}
        ),
        lambda d: d["versions"][0]["handlers"]["h-go"]["body"][0]["effects"].append(
            {"goto": "nope"}
        ),
        lambda d: d["versions"][0].update(
            {"generators": [{"widget": "w-go", "var": "clicks", "pool": []}]}
        ),
        lambda d: d["versions"][0]["windows"][0]["widgets"].append(
            {"id": "w-go", "xpath": "/dup"}
        ),
        lambda d: d["versions"][0]["stateVariables"].append(
            {"name": "clicks", "type": "int", "initial": 5, "persistent": True}
        ),
    ],
)
def test_load_spec_rejects_broken_documents(mutate):
    doc = base_spec_doc()
    mutate(doc)
    with pytest.raises(SpecError):
        load_spec(doc)


def go_command(doc) -> dict:
    return doc["versions"][0]["handlers"]["h-go"]["body"][1]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: go_command(d)["guard"].append({"var": "clicks", "op": "=~", "value": 1}),
         "unknown op '=~'"),
        (lambda d: go_command(d)["effects"].append({"launch": "second"}),
         "unknown effect 'launch'"),
        (lambda d: go_command(d)["effects"].append({"show": "w-nope"}), "show targets"),
        (lambda d: go_command(d)["effects"].append({"hide": "w-nope"}), "hide targets"),
        (lambda d: go_command(d)["effects"].append({"toggle": "w-nope"}), "toggle targets"),
        (lambda d: go_command(d)["effects"].append({"setTextFromPayload": "w-nope"}),
         "setTextFromPayload targets"),
        (lambda d: go_command(d)["effects"].append(
            {"setText": {"widget": "w-nope", "value": "x"}}), "setText needs"),
        (lambda d: go_command(d)["effects"].append({"setChecked": {"widget": "w-go"}}),
         "setChecked needs"),
        (lambda d: go_command(d)["effects"].append({"setVarFromPayload": "nope"}),
         "unknown variable"),
        (lambda d: go_command(d)["effects"].append({"setVarFromPayload": "clicks"}),
         "variable clicks is used as a number"),
        (lambda d: go_command(d)["effects"].append({"set": {"var": "clicks", "value": "a"}}),
         "variable clicks is used as a number"),
        (lambda d: d["versions"][0]["windows"][0]["widgets"][0].update({"parent": "w-go"}),
         "own ancestor"),
        (lambda d: d["versions"][0]["windows"][0]["widgets"][0].update({"resourceId": 5}),
         "wrong type"),
        (lambda d: d["versions"][0]["windows"][0]["widgets"][0].update({"parent": ["w-name"]}),
         "wrong type"),
        # the eight widget flags take JSON booleans only
        (lambda d: d["versions"][0]["windows"][0]["widgets"][0].update({"clickable": "no"}),
         "wrong type"),
        (lambda d: d["versions"][0]["windows"][0]["widgets"][0].update({"enabled": 0}),
         "wrong type"),
        (lambda d: d["versions"][0]["windows"][0]["widgets"][1].update({"password": None}),
         "wrong type"),
        # w-go, loaded first, has real booleans, and w-tiny's flags compare and
        # hash equal to w-go's: only a type check before the lookup of the
        # shared property dict tells them apart
        (lambda d: [d["versions"][0]["windows"][0]["widgets"][i].update(flags)
                    for i, flags in ((0, {"enabled": False}), (2, {"enabled": 0}))],
         "wrong type"),
        (lambda d: d["versions"][0]["windows"][0]["widgets"][2].update({"clickable": 1}),
         "wrong type"),
        (lambda d: d["versions"][0]["windows"][0]["widgets"][2].update({"checked": 0.0}),
         "wrong type"),
        (lambda d: d["versions"][0].update({"relatedWindows": {"nope": ["main"]}}),
         "relatedWindows names unknown window nope"),
        (lambda d: d["versions"][0].update({"relatedWindows": {"second": ["main", "nope"]}}),
         "relatedWindows names unknown window nope"),
        (lambda d: d["versions"][0].update({"textInputs": {"w-nope": ["a"]}}),
         "textInputs names unknown widget w-nope"),
        (lambda d: go_command(d).update({"instructions": [5]}), "malformed app spec"),
        (lambda d: go_command(d).pop("instructions"), "'instructions'"),
        (lambda d: d["versions"][0].update({"textInputs": {"w-name": ["a", None]}}),
         "malformed app spec"),
        (lambda d: go_command(d).update({"instructions": [True, 3]}), "malformed app spec"),
        (lambda d: go_command(d).update({"instructions": [1, False]}), "malformed app spec"),
        (lambda d: d["versions"][0]["handlers"]["h-go"].update({"instructionCount": True}),
         "malformed app spec"),
    ],
)
def test_load_spec_rejects_what_would_fail_mid_session(mutate, message):
    doc = base_spec_doc()
    mutate(doc)
    with pytest.raises(SpecError, match=message):
        load_spec(doc)


def test_related_windows_and_text_inputs_may_name_any_window_and_widget_of_the_version():
    doc = base_spec_doc()
    doc["versions"][0].update(
        {"relatedWindows": {"second": ["main"]}, "textInputs": {"w-label": ["a"]}}
    )
    version = load_spec(doc).versions[0]
    assert version.related_windows == {"second": ["main"]}
    assert version.text_inputs == {"w-label": ["a"]}


def test_effect_targets_may_be_widgets_of_another_window():
    doc = base_spec_doc()
    go_command(doc)["effects"].append({"toggle": "w-label"})
    load_spec(doc)


def _spec_records(spec):
    """Every per-element record of a loaded spec."""
    for version in spec.versions:
        for window in version.windows.values():
            yield window
            yield from window.widgets.values()
        yield from version.inputs.values()
        for handler in version.handlers.values():
            yield handler
            yield from handler.body
        yield from version.variables.values()
        yield from version.generators


def test_widgets_with_the_same_flags_share_one_property_dict_and_records_are_slotted():
    spec = load_spec(base_spec_doc())
    widgets = spec.versions[0].windows["main"].widgets
    assert widgets["w-go"].properties is widgets["w-tiny"].properties
    assert widgets["w-go"].properties is not widgets["w-name"].properties
    records = [*_spec_records(spec), *_spec_records(load_spec(fixture_path("news")))]
    assert {type(r).__name__ for r in records} == {
        "WindowSpec", "WidgetSpec", "InputSpec", "HandlerSpec", "CommandSpec",
        "VariableSpec", "GeneratorSpec",
    }
    assert not [r for r in records if hasattr(r, "__dict__")]


# --- static export --------------------------------------------------------


def test_export_skips_dynamic_only_elements():
    spec = load_spec(fixture_path("dialog"))
    ewtg = export_ewtg(spec, "v1")
    assert "dlg" not in ewtg.windows  # dynamic-only dialog window
    assert all(w.window_id != "dlg" for w in ewtg.widgets.values())
    assert all(i.window_id != "dlg" for i in ewtg.inputs.values())


def test_export_hidden_commands_produce_no_transitions():
    spec = load_spec(fixture_path("deep"))
    ewtg = export_ewtg(spec, "v1")
    # every navigation in the deep fixture is hidden from static analysis
    assert ewtg.window_transitions == {}
    assert "i-deep" in ewtg.inputs


def test_export_records_handler_methods_and_transitions():
    ewtg = export_ewtg(load_spec(base_spec_doc()), "v1")
    assert ewtg.launcher_window_id == "main"
    assert ewtg.inputs["i-go"].handler_method_ids == {"m-go"}
    wt = list(ewtg.window_transitions.values())
    assert len(wt) == 1
    source = ewtg.inputs[wt[0].input_id].window_id
    assert (source, wt[0].destination_window_id) == ("main", "second")


def test_updated_methods_first_version_is_everything():
    spec = load_spec(base_spec_doc())
    assert updated_methods(spec, "v1") == {"m-go", "m-name", "m-back"}


def test_updated_methods_later_versions_diff_handlers():
    spec = load_spec(fixture_path("deep"))
    assert "m-deep" in updated_methods(spec, "v2")
    assert "m-next1" not in updated_methods(spec, "v2")


def test_target_manifest_shape():
    spec = load_spec(base_spec_doc())
    manifest = target_manifest(spec)
    assert manifest["appId"] == "toy"
    entry = manifest["versions"][0]
    assert entry["version"] == "v1"
    assert set(entry["updatedMethodIds"]) == {"m-go", "m-name", "m-back"}
    assert entry["instructionCounts"] == method_instruction_counts(spec, "v1")


# --- driver semantics -----------------------------------------------------


def test_render_excludes_invisible_widgets():
    session = toy_session()
    refs = {n.widget_ref for _, n in walk(session.render())}
    assert "w-go" in refs and "w-hidden" not in refs


def test_guarded_commands_fire_first_match_only():
    session = toy_session()
    result = session.reset()
    # first click: the guard clicks >= 1 fails, the fallback command runs
    r1 = click(session, result, "w-go")
    assert r1.executed == (("m-go", 5, 6),)
    assert r1.window_id == "main"
    # second click: the guard holds and navigation fires
    r2 = click(session, r1, "w-go")
    assert r2.executed == (("m-go", 1, 4),)
    assert r2.window_id == "second"


def test_the_same_screen_and_span_return_the_one_result():
    session = toy_session()
    first = session.reset()
    clicked = click(session, first, "w-go")
    assert clicked.executed == (("m-go", 5, 6),) and clicked.root is first.root
    # a reset forgets the click, so the same click ends the same way again
    assert session.reset() is first
    assert click(session, first, "w-go") is clicked


def test_a_shared_result_cannot_be_written():
    result = toy_session().reset()
    for name in ("window_id", "window_kind", "window_class_name", "root", "executed"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(result, name, None)
    assert result.executed == ()


def test_each_drivers_results_still_hold_their_key_after_a_run(tmp_path, monkeypatch):
    import uptest.cli

    drivers = []

    class KeptDriverSession(DriverSession):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            drivers.append(self)

    monkeypatch.setattr(uptest.cli, "DriverSession", KeptDriverSession)
    versions = 0
    for app in ("diary", "dialog", "news", "deep"):
        spec = load_spec(fixture_path(app))
        workdir = tmp_path / app
        workdir.mkdir()
        pipeline_run(
            spec, spec.versions[0].version, spec.versions[-1].version,
            budget=300, seed=1, workdir=workdir, config=EngineConfig(),
        )
        versions += len(spec.versions)
    # a session and a replay driver per version
    assert len(drivers) == 2 * versions
    spans = 0
    for driver in drivers:
        for (screen, span), result in driver._results.items():
            assert result.root is screen
            assert result.executed == (() if span is None else (span,))
            window = driver._windows[result.window_id]
            assert (result.window_kind, result.window_class_name) == (window.kind, window.class_name)
            spans += span is not None
    assert spans > 0


def test_every_guard_operator_fires_as_its_comparison_decides():
    # one probe button per operator that compares n with 1, one that leaves
    # the operator out and one with two conditions; each probe's guarded
    # command covers [1, 1] and its fallback [2, 2]
    guards = [[{"var": "n", "op": op, "value": 1}] for op in GUARD_OPS]
    guards.append([{"var": "n", "value": 1}])
    guards.append([{"var": "n", "op": ">", "value": -1}, {"var": "n", "op": "<", "value": 2}])
    widgets = [{"id": "w-inc", "clickable": True}]
    inputs = [{"id": "i-inc", "window": "main", "widget": "w-inc", "actionType": "Click",
               "handler": "h-inc"}]
    handlers = {"h-inc": {"methodId": "m-inc", "instructionCount": 1, "body": [
        {"guard": [], "effects": [{"inc": {"var": "n"}}], "instructions": [1, 1]}]}}
    for index, guard in enumerate(guards):
        widgets.append({"id": f"w-{index}", "clickable": True})
        inputs.append({"id": f"i-{index}", "window": "main", "widget": f"w-{index}",
                       "actionType": "Click", "handler": f"h-{index}"})
        handlers[f"h-{index}"] = {"methodId": f"m-{index}", "instructionCount": 2, "body": [
            {"guard": guard, "effects": [], "instructions": [1, 1]},
            {"guard": [], "effects": [], "instructions": [2, 2]},
        ]}
    doc = {"appId": "guards", "versions": [{
        "version": "v1",
        "windows": [{"id": "main", "launcher": True, "widgets": widgets}],
        "inputs": inputs,
        "handlers": handlers,
        "stateVariables": [{"name": "n", "type": "int", "initial": -2}],
    }]}
    session = DriverSession(load_spec(doc), "v1")
    result = session.reset()
    fired = {index: set() for index in range(len(guards))}
    for n in range(-2, 5):  # below, at and above each compared value
        assert session.variables["n"] == n
        for index, guard in enumerate(guards):
            holds = all(GUARD_OPS[c.get("op", "==")](n, c["value"]) for c in guard)
            result = click(session, result, f"w-{index}")
            assert result.executed == ((f"m-{index}", *((1, 1) if holds else (2, 2))),)
            fired[index].add(holds)
        result = click(session, result, "w-inc")
    # every guard both held and failed on the way
    assert all(outcomes == {True, False} for outcomes in fired.values())


def test_executed_ranges_stay_within_declared_bounds():
    spec = load_spec(base_spec_doc())
    counts = method_instruction_counts(spec, "v1")
    session = DriverSession(spec, "v1")
    result = session.reset()
    for _ in range(3):
        result = click(session, result, "w-go") if result.window_id == "main" else (
            session.perform(Action("i-back", ActionType.PRESS_BACK))
        )
        for method_id, lo, hi in result.executed:
            assert 1 <= lo <= hi <= counts[method_id]


def test_press_back_pops_the_window_stack():
    session = toy_session()
    result = session.reset()
    click(session, result, "w-go")
    r = click(session, result, "w-go")
    assert r.window_id == "second"
    r = session.perform(Action("i-back", ActionType.PRESS_BACK))
    assert r.window_id == "main"
    # at the stack bottom, back is a no-op
    r = session.perform(Action("x", ActionType.PRESS_BACK))
    assert r.window_id == "main"


def test_text_fill_updates_the_rendered_text():
    session = toy_session()
    result = session.reset()
    session.perform(
        Action("i-name", ActionType.TEXT_FILL,
               concrete_node_path=path_of(result.root, "w-name"),
               data_payload="hello")
    )
    node = [n for _, n in walk(session.render()) if n.widget_ref == "w-name"][0]
    assert node.properties["text"] == "hello"


def test_rejections():
    session = toy_session()
    result = session.reset()
    with pytest.raises(DriverRejection):  # tiny widget
        click(session, result, "w-tiny")
    with pytest.raises(DriverRejection):  # click on an input field without clickable
        session.perform(
            Action("x", ActionType.CLICK, concrete_node_path=path_of(result.root, "w-name"))
        )
    with pytest.raises(DriverRejection):  # stale node path
        session.perform(Action("x", ActionType.CLICK, concrete_node_path=(9, 9)))


def test_negative_node_path_is_rejected_not_resolved_from_the_end():
    session = DriverSession(load_spec(fixture_path("diary")), "v0")
    session.reset()
    # (-1,) would be the launcher's last child, whose click runs m-add
    with pytest.raises(DriverRejection):
        session.perform(Action("x", ActionType.CLICK, concrete_node_path=(-1,)))


def test_inputs_sharing_a_widget_and_action_run_the_lowest_input_id():
    doc = base_spec_doc()
    inputs = doc["versions"][0]["inputs"]
    # the lowest id is neither the first nor the last one listed for w-go
    for index, (input_id, handler) in enumerate(
        (("i-z", "h-name"), ("i-a", "h-back"), ("i-y", "h-name"))
    ):
        inputs.insert(2 * index, {"id": input_id, "window": "main", "widget": "w-go",
                                  "actionType": "Click", "handler": handler})
    session = DriverSession(load_spec(doc), "v1")
    result = click(session, session.reset(), "w-go")
    assert result.executed == (("m-back", 1, 2),)


def test_node_path_after_a_rejected_action_resolves_on_the_unchanged_screen():
    session = toy_session()
    result = session.reset()
    with pytest.raises(DriverRejection):
        click(session, result, "w-tiny")
    assert click(session, result, "w-go").executed == (("m-go", 5, 6),)


def test_node_path_after_a_show_effect_resolves_on_the_new_screen():
    doc = base_spec_doc()
    version = doc["versions"][0]
    version["windows"][0]["widgets"].append(
        {"id": "w-show", "resourceId": "show", "className": "Button",
         "xpath": "/L/Button[4]", "clickable": True}
    )
    version["inputs"] += [
        {"id": "i-show", "window": "main", "widget": "w-show",
         "actionType": "Click", "handler": "h-show"},
        {"id": "i-hidden", "window": "main", "widget": "w-hidden",
         "actionType": "Click", "handler": "h-hidden"},
    ]
    version["handlers"]["h-show"] = {
        "methodId": "m-show", "instructionCount": 1,
        "body": [{"guard": [], "effects": [{"show": "w-hidden"}], "instructions": [1, 1]}],
    }
    version["handlers"]["h-hidden"] = {
        "methodId": "m-hidden", "instructionCount": 1,
        "body": [{"guard": [], "effects": [], "instructions": [1, 1]}],
    }
    session = DriverSession(load_spec(doc), "v1")
    before = session.reset()
    shown = click(session, before, "w-show")
    # the shown widget takes the path "w-show" had on the screen before
    assert path_of(shown.root, "w-hidden") == path_of(before.root, "w-show")
    assert click(session, shown, "w-hidden").executed == (("m-hidden", 1, 1),)


def test_reset_restores_state_except_persistent_variables():
    session = toy_session()
    result = session.reset()
    click(session, result, "w-go")
    assert session.variables["clicks"] == 1
    session.variables["stars"] = 5
    session.reset()
    assert session.variables["clicks"] == 0
    assert session.variables["stars"] == 5  # persistent survives relaunch


def test_reset_app_action_is_a_reset():
    session = toy_session()
    result = session.reset()
    click(session, result, "w-go")
    r = session.perform(Action("x", ActionType.RESET_APP))
    assert r.window_id == "main"
    assert session.variables["clicks"] == 0


def test_sessions_are_deterministic_given_spec_seed_and_actions():
    def transcript(seed):
        spec = load_spec(fixture_path("news"))
        session = DriverSession(spec, "v1", seed=seed)
        out = [session.reset().root.to_dict()]
        result = session.perform(
            Action("i-open", ActionType.CLICK,
                   concrete_node_path=path_of(session.render(), "w-article"))
        )
        out.append(result.root.to_dict())
        return out

    assert transcript(11) == transcript(11)
    texts = set()
    for seed in range(6):
        spec = load_spec(fixture_path("news"))
        session = DriverSession(spec, "v1", seed=seed)
        root = session.reset().root
        node = [n for _, n in walk(root) if n.widget_ref == "w-article"][0]
        texts.add(node.properties["text"])
    assert len(texts) > 1  # the generator varies content across seeds


def test_generator_follows_the_documented_seeding_scheme():
    spec = load_spec(fixture_path("news"))
    pool = spec.versions[0].generators[0].pool
    for seed in (0, 3, 9):
        session = DriverSession(spec, "v1", seed=seed)
        # the constructor launches once; reset() launches again
        session.reset()
        expected = pool[random.Random(f"{seed}:2:0").randrange(len(pool))]
        node = [n for _, n in walk(session.render()) if n.widget_ref == "w-article"][0]
        assert node.properties["text"] == expected
        assert session.variables["vi"] == pool.index(expected)


# --- rendering each distinct screen once ----------------------------------


def screens_spec_doc() -> dict:
    """Three windows.  The main one nests two widgets in a panel, has one
    button per effect kind and a text field without an input, and a generator
    sets its title on every launch.
    The other two show the same texts, so only their window tells them apart."""

    def button(widget_id, **extra):
        return {"id": widget_id, "resourceId": widget_id[2:], "className": "Button",
                "clickable": True, **extra}

    def handler(*effects):
        return {"methodId": f"m{len(handlers)}", "instructionCount": 1,
                "body": [{"guard": [], "effects": list(effects), "instructions": [1, 1]}]}

    handlers: dict = {}
    inputs = []
    for window, widget, action_type, effects in (
        ("main", "w-hide", "Click", [{"hide": "w-panel"}]),
        ("main", "w-show", "Click", [{"show": "w-panel"}]),
        ("main", "w-check", "Click", [{"toggle": "w-check"}]),
        ("main", "w-set", "Click", [{"setChecked": {"widget": "w-check", "value": False}},
                                    {"setText": {"widget": "w-label", "value": "set"}}]),
        ("main", "w-field", "TextFill", [{"setTextFromPayload": "w-title"}]),
        ("main", "w-go", "Click", [{"goto": "second"}]),
        ("second", "w-label", "Click", [{"back": True}]),
        ("second", "w-next", "Click", [{"goto": "third"}]),
        ("third", "w-close", "Click", [{"back": True}]),
    ):
        key = f"h-{widget}"
        handlers[key] = handler(*effects)
        inputs.append({"id": f"i-{widget}", "window": window, "widget": widget,
                       "actionType": action_type, "handler": key})
    return {
        "appId": "screens",
        "versions": [{
            "version": "v1",
            "windows": [
                {"id": "main", "className": "com.screens.Main", "launcher": True,
                 "widgets": [
                     {"id": "w-panel", "resourceId": "panel", "className": "Layout"},
                     {"id": "w-check", "resourceId": "check", "className": "CheckBox",
                      "clickable": True, "parent": "w-panel"},
                     {"id": "w-field", "resourceId": "field", "className": "EditText",
                      "isInputField": True, "parent": "w-panel"},
                     {"id": "w-title", "resourceId": "title", "className": "TextView"},
                     # typing here writes a text that no handler reacts to
                     {"id": "w-memo", "resourceId": "memo", "className": "EditText",
                      "isInputField": True},
                     button("w-hide"), button("w-show"), button("w-set"), button("w-go"),
                     button("w-tiny", tiny=True),
                 ]},
                {"id": "second", "className": "com.screens.Second",
                 "widgets": [button("w-label", text="default"), button("w-next")]},
                {"id": "third", "className": "com.screens.Third",
                 "widgets": [button("w-close", text="default"), button("w-more")]},
            ],
            "inputs": inputs,
            "handlers": handlers,
            "generators": [{"pool": ["first", "second", "third"], "widget": "w-title"}],
        }],
    }


def screens_session() -> DriverSession:
    return DriverSession(load_spec(screens_spec_doc()), "v1", seed=4)


def assert_screen_is_current(session, result):
    """The screen the driver returned is what a fresh build of its state renders."""
    window = session.version_spec.windows[session.current_window_id]
    assert result.root.to_dict() == session._build_screen(window).to_dict()
    assert session.render() is result.root


def fill(session, result, widget_id, payload):
    return session.perform(Action("i", ActionType.TEXT_FILL, data_payload=payload,
                                  concrete_node_path=path_of(result.root, widget_id)))


def test_an_override_keeps_the_current_screen_of_a_window_without_the_widget():
    session = screens_session()
    start = session.reset()
    second = click(session, start, "w-go")
    main = click(session, second, "w-label")  # back to main
    assert session._current["second"] is second.root
    # the panel is a widget of main only
    hidden = click(session, main, "w-hide")
    assert session._current["second"] is second.root
    again = click(session, hidden, "w-go")
    assert again.root is second.root
    assert_screen_is_current(session, again)
    # w-set, in main, sets the text of a widget of the second window
    changed = click(session, click(session, again, "w-label"), "w-set")
    assert "second" not in session._current
    assert_screen_is_current(session, click(session, changed, "w-go"))


def test_a_repeated_driver_state_renders_the_same_screen():
    session = screens_session()
    start = session.reset()
    assert session.render() is start.root
    hidden = click(session, start, "w-hide")
    assert hidden.root is not start.root
    # showing the panel again overrides its visibility with the value it had
    shown = click(session, hidden, "w-show")
    assert shown.root is start.root
    second = click(session, shown, "w-go")
    back = click(session, second, "w-label")
    assert back.root is start.root
    assert click(session, back, "w-go").root is second.root
    third = click(session, second, "w-next")
    assert third.root is not second.root
    assert_screen_is_current(session, third)
    assert click(session, third, "w-close").root is second.root


def test_after_each_kind_of_change_the_screen_is_a_fresh_build():
    session = screens_session()
    result = session.reset()  # the generator sets the title
    assert_screen_is_current(session, result)
    steps = (
        lambda r: fill(session, r, "w-field", "typed"),  # TEXT_FILL, setTextFromPayload
        lambda r: click(session, r, "w-check"),  # toggle
        lambda r: click(session, r, "w-set"),  # setChecked, setText
        lambda r: click(session, r, "w-hide"),  # hide
        lambda r: click(session, r, "w-show"),  # show
        lambda r: click(session, r, "w-go"),  # goto
        lambda r: click(session, r, "w-label"),  # back
        lambda r: session.reset(),  # a new launch draws another title
    )
    screens = [result.root.to_dict()]
    for step in steps:
        result = step(result)
        assert_screen_is_current(session, result)
        screens.append(result.root.to_dict())
        with pytest.raises(DriverRejection):  # a rejected action keeps the screen
            click(session, result, "w-tiny") if result.window_id == "main" else (
                session.perform(Action("i", ActionType.CLICK, concrete_node_path=(5,)))
            )
        assert_screen_is_current(session, result)
    # every step above changes what the screen shows
    assert all(a != b for a, b in zip(screens, screens[1:]))


def test_an_effect_on_another_windows_widget_shows_once_the_driver_is_there():
    session = screens_session()
    start = session.reset()
    second = click(session, start, "w-go")
    back = click(session, second, "w-label")
    again = click(session, click(session, back, "w-set"), "w-go")
    assert again.root is not second.root
    label = [n for _, n in walk(again.root) if n.widget_ref == "w-label"][0]
    assert label.properties["text"] == "set"
    assert_screen_is_current(session, again)


def test_a_hidden_parent_moves_its_children_to_the_root_and_showing_it_nests_them():
    session = screens_session()
    start = session.reset()
    assert [len(path_of(start.root, w)) for w in ("w-check", "w-field")] == [2, 2]
    hidden = click(session, start, "w-hide")
    assert "w-panel" not in {n.widget_ref for _, n in walk(hidden.root)}
    assert [len(path_of(hidden.root, w)) for w in ("w-check", "w-field")] == [1, 1]
    assert_screen_is_current(session, hidden)
    shown = click(session, hidden, "w-show")
    assert [len(path_of(shown.root, w)) for w in ("w-check", "w-field")] == [2, 2]
    assert_screen_is_current(session, shown)


_WALK_ACTIONS = (
    ("clickable", ActionType.CLICK),
    ("longClickable", ActionType.LONG_CLICK),
    ("scrollable", ActionType.SWIPE),
    ("isInputField", ActionType.TEXT_FILL),
)


def walk_checking_screens(session, steps, rng):
    """A random walk that checks the returned screen after every step."""
    result = session.reset()
    assert_screen_is_current(session, result)
    for _ in range(steps):
        if rng.random() < 0.02:
            result = session.reset()
        else:
            actions = [Action("walk", ActionType.PRESS_BACK)]
            for path, node in walk(result.root):
                for prop, action_type in _WALK_ACTIONS:
                    if node.properties[prop]:
                        # a small pool, so that typed texts recur
                        payload = (rng.choice(("a", "b")) if action_type == ActionType.TEXT_FILL
                                   else None)
                        actions.append(Action("walk", action_type, path, payload))
            try:
                result = session.perform(rng.choice(actions))
            except DriverRejection:
                pass  # the screen stays current
        assert_screen_is_current(session, result)


def test_random_walks_see_a_current_screen_after_every_step(monkeypatch):
    applied = set()
    apply_effects = DriverSession._apply_effects

    def recording_apply_effects(self, effects, action):
        applied.update(name for name, _ in effects)  # the compiled (name, argument) pairs
        return apply_effects(self, effects, action)

    monkeypatch.setattr(DriverSession, "_apply_effects", recording_apply_effects)
    walks = [(app, load_spec(fixture_path(app))) for app in ("diary", "dialog", "news", "deep")]
    walks.append(("screens", load_spec(screens_spec_doc())))
    for app, spec in walks:
        for version in spec.versions:
            rng = random.Random(f"{app}:{version.version}")
            walk_checking_screens(DriverSession(spec, version.version, seed=2), 500, rng)
    # the walks write every kind of runtime override
    assert {"show", "hide", "setText", "setTextFromPayload", "setChecked",
            "toggle"} <= applied


def test_a_run_leaves_the_loaded_spec_as_its_document_loads(tmp_path):
    sources = [(app, fixture_path(app)) for app in ("diary", "dialog", "news", "deep")]
    sources += [("screens", screens_spec_doc()), ("nested", nested_spec_doc())]
    for app, source in sources:
        spec = load_spec(source)
        # the copy holds property dicts of its own, so a write to a shared
        # one, which a fresh load would see too, shows against the copy
        before = copy.deepcopy(spec)
        workdir = tmp_path / app
        workdir.mkdir()
        # a session, a prune and a replay at every version
        pipeline_run(
            spec, spec.versions[0].version, spec.versions[-1].version,
            budget=100, seed=1, workdir=workdir, config=EngineConfig(),
        )
        # and walks that write every kind of runtime override
        for version in spec.versions:
            walk_checking_screens(
                DriverSession(spec, version.version, seed=2), 200, random.Random(app)
            )
        assert spec == before == load_spec(source)


def walk_against_fresh_resolutions(spec, version, steps, rng) -> set[str]:
    """A random walk of two same-seed drivers, one of which resolves every
    action afresh; both must return the same screen and executed ranges, or
    reject with the same message.  Returns the rejection messages seen."""
    cached = DriverSession(spec, version, seed=2)
    fresh = DriverSession(spec, version, seed=2)
    result = cached.reset()
    fresh.reset()
    action_types = [t for t in ActionType if t != ActionType.RESET_APP]
    earlier_paths = [()]
    rejections = set()
    for _ in range(steps):
        paths = [path for path, _ in walk(result.root)]
        # the root, out-of-range and negative steps, and a path of an earlier
        # screen, which may name another widget now or none
        paths += [(len(result.root.children),), (0, 99), (-1,), rng.choice(earlier_paths)]
        earlier_paths.append(rng.choice(paths))
        if rng.random() < 0.02:
            action = Action("walk", ActionType.RESET_APP)
        else:
            path = None if rng.random() < 0.1 else rng.choice(paths)
            action = Action("walk", rng.choice(action_types), path, rng.choice(("a", "b")))
        outcomes = []
        for session in (cached, fresh):
            if session is fresh:
                session._resolved.clear()
            try:
                step = session.perform(action)
            except DriverRejection as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append((step.window_id, step.root.to_dict(), step.executed))
                if session is cached:
                    result = step
        assert outcomes[0] == outcomes[1]
        if isinstance(outcomes[0], str):
            rejections.add(outcomes[0])
    return rejections


def test_the_resolved_action_table_decides_as_a_fresh_resolution():
    doc = screens_spec_doc()
    version = doc["versions"][0]
    # a disabled button whose click a handler would answer
    version["windows"][0]["widgets"].append(
        {"id": "w-off", "resourceId": "off", "className": "Button", "clickable": True,
         "enabled": False})
    version["inputs"].append({"id": "i-off", "window": "main", "widget": "w-off",
                              "actionType": "Click", "handler": "h-w-go"})
    walks = [(app, load_spec(fixture_path(app))) for app in ("diary", "dialog", "news", "deep")]
    walks.append(("screens", load_spec(doc)))
    rejections = set()
    for app, spec in walks:
        for version in spec.versions:
            rng = random.Random(f"{app}:{version.version}")
            rejections |= walk_against_fresh_resolutions(spec, version.version, 300, rng)
    # every kind of rejection came up
    assert {"node path no longer resolves", "window root is not interactable",
            "widget w-off is not interactable", "widget w-tiny is below the size hint",
            "widget w-memo does not support Click"} <= rejections


def test_rendered_nodes_carry_exactly_the_properties_reducers_read(monkeypatch):
    # the property set the tests build nodes with is the one the driver
    # renders, and it holds every property a level's reducers read
    roots = []
    shown = set()  # (version spec, window id) of every rendered screen
    build = DriverSession._build_screen

    def recording_build(self, window):
        shown.add((id(self.version_spec), window.id))
        roots.append(build(self, window))
        return roots[-1]

    monkeypatch.setattr(DriverSession, "_build_screen", recording_build)
    apps = [load_spec(fixture_path(app)) for app in ("diary", "dialog", "news", "deep")]
    apps.append(load_spec(screens_spec_doc()))
    for i, spec in enumerate(apps):
        for version in spec.versions:
            rng = random.Random(f"{i}:{version.version}")
            walk_checking_screens(DriverSession(spec, version.version, seed=2), 200, rng)
    windows = {(id(v), w) for spec in apps for v in spec.versions for w in v.windows}
    assert shown == windows  # the walks showed every window of every version
    for root in roots:
        for _, node in walk(root):
            assert sorted(node.properties) == sorted(GUI_NODE_PROPERTIES)
    read = {
        prop
        for level in LEVELS.values()
        for _, prop in level.own_fields + level.child_fields
    }
    assert read <= set(GUI_NODE_PROPERTIES)


def test_a_long_session_builds_no_more_screens_than_it_shows(monkeypatch):
    builds = []
    build = DriverSession._build_screen

    def counting_build(self, window):
        builds.append(window.id)
        return build(self, window)

    monkeypatch.setattr(DriverSession, "_build_screen", counting_build)

    class Recording:
        def __init__(self, driver):
            self.driver = driver
            self.screens = []

        def reset(self):
            result = self.driver.reset()
            self.screens.append(result.root)
            return result

        def perform(self, action):
            result = self.driver.perform(action)
            self.screens.append(result.root)
            return result

    spec = load_spec(fixture_path("diary"))
    driver = Recording(DriverSession(spec, "v0", seed=3))
    model = AppModel(version="v0", ewtg=export_ewtg(spec, "v0"))
    counts = method_instruction_counts(spec, "v0")
    targets = TargetSet(target_method_ids=set(counts), instruction_counts=counts)
    result = run_session(model, targets, driver, budget=1000, seed=3)
    assert result.executed_actions == 1000
    distinct = {repr(root.to_dict()) for root in driver.screens}
    assert len(builds) <= len(distinct) < 20


class DictWalkSession(DriverSession):
    """A driver that applies each command's effects from the spec's raw
    effect dicts, by the walk the driver made before it compiled them: every
    kind an effect holds, in a fixed order, tested by membership."""

    def _resolve(self, path, action_type):
        resolved = super()._resolve(path, action_type)
        if type(resolved) is str or not resolved[1]:
            return resolved
        widget_id, commands = resolved
        inp = self._inputs[(self.window_stack[-1], widget_id, action_type)]
        body = self.version_spec.handlers[inp.handler].body
        return widget_id, tuple(
            (guard, cmd.effects, span) for (guard, _, span), cmd in zip(commands, body)
        )

    def _apply_effects(self, effects, action):
        def widget_spec(widget_id):
            [widget] = [w.widgets[widget_id] for w in self.version_spec.windows.values()
                        if widget_id in w.widgets]
            return widget

        for effect in effects:
            if "set" in effect:
                self.variables[effect["set"]["var"]] = effect["set"]["value"]
            if "inc" in effect:
                var = effect["inc"]["var"]
                self.variables[var] = self.variables.get(var, 0) + effect["inc"].get("by", 1)
            if "show" in effect:
                self._visible[effect["show"]] = True
                self._forget_screens(effect["show"])
            if "hide" in effect:
                self._visible[effect["hide"]] = False
                self._forget_screens(effect["hide"])
            if "setText" in effect:
                self._text[effect["setText"]["widget"]] = str(effect["setText"]["value"])
                self._forget_screens(effect["setText"]["widget"])
            if "setTextFromPayload" in effect:
                self._text[effect["setTextFromPayload"]] = action.data_payload or ""
                self._forget_screens(effect["setTextFromPayload"])
            if "setVarFromPayload" in effect:
                self.variables[effect["setVarFromPayload"]] = action.data_payload or ""
            if "setChecked" in effect:
                widget_id = effect["setChecked"]["widget"]
                self._checked[widget_id] = bool(effect["setChecked"]["value"])
                self._forget_screens(widget_id)
            if "toggle" in effect:
                toggled = effect["toggle"]
                self._checked[toggled] = not self.widget_checked(widget_spec(toggled))
                self._forget_screens(toggled)
            if "goto" in effect:
                self.window_stack.append(effect["goto"])
            if "back" in effect:
                self._go_back()


def driver_state(session) -> tuple:
    return (dict(session.variables), dict(session._visible), dict(session._text),
            dict(session._checked), list(session.window_stack))


@pytest.mark.parametrize("app", ["diary", "dialog", "news", "deep", "screens"])
def test_compiled_effects_change_what_the_dict_walk_changes(app):
    spec = load_spec(screens_spec_doc() if app == "screens" else fixture_path(app))
    applied = 0
    for version in spec.versions:
        compiled = DriverSession(spec, version.version, seed=2)
        walked = DictWalkSession(spec, version.version, seed=2)
        result = compiled.reset()
        walked.reset()
        rng = random.Random(f"{app}:{version.version}")
        for _ in range(400):
            if rng.random() < 0.02:
                action = Action("walk", ActionType.RESET_APP)
            else:
                actions = [Action("walk", ActionType.PRESS_BACK)]
                for path, node in walk(result.root):
                    for prop, action_type in _WALK_ACTIONS:
                        if node.properties[prop]:
                            actions.append(
                                Action("walk", action_type, path, rng.choice(("a", "b"))))
                action = rng.choice(actions)
            outcomes = []
            for session in (compiled, walked):
                try:
                    step = session.perform(action)
                except DriverRejection as exc:
                    outcomes.append(str(exc))
                else:
                    outcomes.append((step.window_id, step.root.to_dict(), step.executed))
                    applied += bool(step.executed)
                    if session is compiled:
                        result = step
            assert outcomes[0] == outcomes[1]
            assert driver_state(compiled) == driver_state(walked)
    assert applied > 0
