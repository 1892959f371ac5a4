"""Model layer: construction, validation, serialization."""

import json

import pytest

from uptest.model import (
    AbstractState,
    AbstractTransition,
    Action,
    ActionType,
    AppModel,
    AttributeValuationMap,
    Dstg,
    Ewtg,
    EwtgWidget,
    Gstg,
    Input,
    ModelError,
    TraceStep,
    Window,
    WindowKind,
    WindowTransition,
    action_cost,
    deserialize_model,
    serialize_model,
    validate_integrity,
)

from conftest import make_node


def small_model() -> AppModel:
    ewtg = Ewtg(launcher_window_id="w-main")
    ewtg.windows["w-main"] = Window(
        id="w-main", name="Main", kind=WindowKind.ACTIVITY,
        class_name="com.app.Main", widget_ids={"wd-ok"},
    )
    ewtg.windows["w-edit"] = Window(
        id="w-edit", name="Edit", kind=WindowKind.ACTIVITY, class_name="com.app.Edit",
    )
    ewtg.widgets["wd-ok"] = EwtgWidget(
        id="wd-ok", window_id="w-main", class_name="Button",
        resource_id="ok", content_description="", xpath="/LinearLayout/Button",
    )
    ewtg.inputs["i-ok"] = Input(
        id="i-ok", window_id="w-main", widget_id="wd-ok",
        action_type=ActionType.CLICK, handler_method_ids={"m-ok"},
    )
    ewtg.window_transitions["wt-1"] = WindowTransition(
        id="wt-1", source_window_id="w-main",
        destination_window_id="w-edit", input_id="i-ok",
    )

    dstg = Dstg(abstraction_policy={"w-main": "L2"})
    avm = AttributeValuationMap(
        id="avm-1", valuations={"R_RID": "ok", "R_CN": "Button"},
        cardinality=1, ewtg_widget_id="wd-ok",
    )
    dstg.abstract_states["s1"] = AbstractState(
        id="s1", window_id="w-main", avms=[avm], abstraction_level="L2",
        observed_in_versions={"v1"},
    )
    dstg.abstract_states["s2"] = AbstractState(id="s2", window_id="w-edit")
    dstg.abstract_transitions["at-1"] = AbstractTransition(
        id="at-1", source_state_id="s1", source_avm_id="avm-1",
        action_type=ActionType.CLICK, destination_state_id="s2",
        provenance_version="v1",
    )

    gstg = Gstg()
    gstg.trace.append(
        TraceStep(
            action=Action("i-ok", ActionType.CLICK, concrete_node_path=()),
            after_state_id="s2",
        )
    )
    return AppModel(version="v1", ewtg=ewtg, dstg=dstg, gstg=gstg)


def test_action_costs():
    assert action_cost(ActionType.RESET_APP) == 10
    for at in ActionType:
        if at != ActionType.RESET_APP:
            assert action_cost(at) == 1


def test_valid_model_has_no_violations():
    assert validate_integrity(small_model()) == []


def test_serialize_round_trip():
    model = small_model()
    data = serialize_model(model)
    restored = deserialize_model(data)
    assert restored.to_dict() == model.to_dict()
    # canonical: serializing again yields the same bytes
    assert serialize_model(restored) == data


def test_serialized_model_is_compact_json_with_sorted_keys():
    data = serialize_model(small_model())
    assert b"\n" not in data
    assert data == json.dumps(json.loads(data), sort_keys=True, separators=(",", ":")).encode()


def test_indented_model_document_loads_and_serializes_compact():
    data = serialize_model(small_model())
    indented = json.dumps(json.loads(data), indent=2, sort_keys=True).encode("utf-8")
    assert serialize_model(deserialize_model(indented)) == data


def test_deserialize_rejects_garbage():
    with pytest.raises(ModelError):
        deserialize_model(b"not json at all")
    with pytest.raises(ModelError):
        deserialize_model(b"[1, 2, 3]")


def test_deserialize_rejects_a_wrongly_shaped_document():
    good = json.loads(serialize_model(small_model()).decode("utf-8"))
    bad_action = {"inputs": [{"id": "i", "windowId": "w1", "actionType": "NoSuchAction"}]}
    for ewtg in ({"windows": [{"id": "w1"}]}, {"windows": 3}, [], bad_action):
        doc = dict(good, ewtg=ewtg)
        with pytest.raises(ModelError, match="malformed model document"):
            deserialize_model(json.dumps(doc).encode("utf-8"))


@pytest.mark.parametrize("edit", [
    lambda doc: doc["ewtg"]["widgets"][0].update(resourceId=5),
    lambda doc: doc["ewtg"]["windows"][0].update(widgetIds=[["wd-ok"]]),
    lambda doc: doc["dstg"]["abstractStates"][0]["avms"][0].update(valuations={"R_RID": []}),
    lambda doc: doc["dstg"]["abstractTransitions"][0].update(
        layoutGuard={"entries": [{"valuations": {"R_RID": "ok"}, "count": "1"}]}),
    lambda doc: doc["dstg"]["abstractTransitions"][0].update(layoutGuard={"entries": 3}),
    lambda doc: doc["gstg"]["trace"][0]["action"].update(concreteNodePath=["0"]),
    lambda doc: doc["gstg"]["trace"][0]["action"].update(concreteNodePath=[-1]),
    lambda doc: doc["gstg"]["trace"][0]["action"].update(concreteNodePath=[True]),
    lambda doc: doc["dstg"]["abstractStates"][0]["avms"][0].update(cardinality=True),
    lambda doc: doc["dstg"]["abstractTransitions"][0].update(
        layoutGuard={"entries": [{"valuations": {"R_RID": "ok"}, "count": True}]}),
    lambda doc: doc.update(diffContext={"addedWidgets": "wd-ok"}),
])
def test_deserialize_rejects_fields_of_the_wrong_type(edit):
    doc = json.loads(serialize_model(small_model()).decode("utf-8"))
    edit(doc)
    with pytest.raises(ModelError, match="malformed model document"):
        deserialize_model(json.dumps(doc).encode("utf-8"))


@pytest.mark.parametrize("path, what", [
    (("ewtg", "windows"), "window"),
    (("ewtg", "widgets"), "widget"),
    (("ewtg", "inputs"), "input"),
    (("ewtg", "windowTransitions"), "window transition"),
    (("dstg", "abstractStates"), "abstract state"),
    (("dstg", "abstractTransitions"), "abstract transition"),
    (("dstg", "abstractStates", 0, "avms"), "AVM"),
])
def test_deserialize_rejects_a_repeated_id(path, what):
    doc = json.loads(serialize_model(small_model()).decode("utf-8"))
    entries = doc
    for key in path:
        entries = entries[key]
    # a second entry under the first one's id, otherwise well formed
    entries.append(dict(entries[0]))
    with pytest.raises(ModelError, match=f"duplicate {what} id"):
        deserialize_model(json.dumps(doc).encode("utf-8"))


def test_deserialize_rejects_an_unknown_abstraction_level():
    for edit in (
        lambda doc: doc["dstg"]["abstractStates"][0].update(abstractionLevel="L9"),
        lambda doc: doc["dstg"].update(abstractionPolicy={"w-main": "L0"}),
    ):
        doc = json.loads(serialize_model(small_model()).decode("utf-8"))
        edit(doc)
        with pytest.raises(ModelError, match="unknown"):
            deserialize_model(json.dumps(doc).encode("utf-8"))


def test_deserialize_rejects_wrong_schema_version():
    doc = json.loads(serialize_model(small_model()).decode("utf-8"))
    doc["schema_version"] = 99
    with pytest.raises(ModelError):
        deserialize_model(json.dumps(doc).encode("utf-8"))


def test_deserialize_rejects_missing_version():
    doc = json.loads(serialize_model(small_model()).decode("utf-8"))
    del doc["version"]
    with pytest.raises(ModelError):
        deserialize_model(json.dumps(doc).encode("utf-8"))


def test_validation_catches_dangling_references():
    model = small_model()
    model.dstg.abstract_states["s3"] = AbstractState(id="s3", window_id="w-missing")
    violations = validate_integrity(model)
    assert any("missing window" in v for v in violations)
    with pytest.raises(ModelError):
        serialize_model(model)


def test_validation_catches_bad_avm():
    model = small_model()
    state = model.dstg.abstract_states["s1"]
    state.avms[0].cardinality = 0
    assert any("cardinality" in v for v in validate_integrity(model))
    state.avms[0].cardinality = 1
    state.avms[0].ewtg_widget_id = "wd-missing"
    assert any("missing widget" in v for v in validate_integrity(model))


def test_validation_catches_transition_avm_mismatch():
    model = small_model()
    model.dstg.abstract_transitions["at-1"].source_avm_id = "avm-unknown"
    assert any("avm-unknown" in v for v in validate_integrity(model))


def test_validation_catches_input_in_wrong_window():
    model = small_model()
    model.ewtg.inputs["i-ok"].window_id = "w-edit"
    violations = validate_integrity(model)
    assert any("another window" in v for v in violations)


def test_validation_catches_trace_with_missing_state():
    model = small_model()
    model.gstg.trace[0] = TraceStep(
        action=model.gstg.trace[0].action,
        after_state_id="s-missing",
    )
    assert any("missing state" in v for v in validate_integrity(model))


def test_valuation_multiset_counts_cardinality():
    state = AbstractState(
        id="s",
        window_id="w",
        avms=[
            AttributeValuationMap(id="a1", valuations={"R_CN": "Button"}, cardinality=2),
            AttributeValuationMap(id="a2", valuations={"R_CN": "Button"}, cardinality=1),
            AttributeValuationMap(id="a3", valuations={"R_CN": "TextView"}, cardinality=1),
        ],
    )
    assert state.valuation_multiset() == {
        (("R_CN", "Button"),): 3,
        (("R_CN", "TextView"),): 1,
    }


def test_gui_node_walk_and_node_at():
    leaf = make_node(resourceId="leaf")
    root = make_node(children=[make_node(children=[leaf]), make_node()])
    paths = [p for p, _ in root.walk()]
    assert paths == [(), (0,), (0, 0), (1,)]
    assert root.node_at((0, 0)) is leaf
