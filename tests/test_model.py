"""Model layer: construction, validation, serialization."""

import gc
import json
import random

import pytest

import uptest.cli
from uptest import fixture_path
from uptest.cli import main, pipeline_run
from uptest.config import EngineConfig
from uptest.harness import load_spec
from uptest.model import (
    AbstractState,
    AbstractTransition,
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
    without_gc,
)

from conftest import make_node, walk
from hidden_app import hidden_spec_doc
from nested_app import nested_spec_doc
from planner_oracle import random_model
from random_ewtg import random_ewtg_pair


def small_model() -> AppModel:
    ewtg = Ewtg(launcher_window_id="w-main")
    ewtg.windows["w-main"] = Window(
        id="w-main", name="Main", kind=WindowKind.ACTIVITY, class_name="com.app.Main",
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
        id="wt-1", destination_window_id="w-edit", input_id="i-ok",
    )

    dstg = Dstg(abstraction_policy={"w-main": "L2"})
    avm = AttributeValuationMap(
        valuations={"R_RID": "ok", "R_CN": "Button", "R_CD": "", "R_T": "OK"},
        cardinality=1, ewtg_widget_id="wd-ok",
    )
    dstg.abstract_states["s1"] = AbstractState(
        id="s1", window_id="w-main", avms=[avm], abstraction_level="L2",
        observed_in_versions={"v1"},
    )
    dstg.abstract_states["s2"] = AbstractState(id="s2", window_id="w-edit")
    dstg.abstract_transitions["at-1"] = AbstractTransition(
        id="at-1", source_state_id="s1", widget_id="wd-ok",
        action_type=ActionType.CLICK, destination_state_id="s2",
    )

    gstg = Gstg(trace=[TraceStep("at-1", concrete_node_path=())])
    return AppModel(version="v1", ewtg=ewtg, dstg=dstg, gstg=gstg)


def model_doc() -> dict:
    return json.loads(serialize_model(small_model()).decode("utf-8"))


def load(doc: dict) -> AppModel:
    return deserialize_model(json.dumps(doc).encode("utf-8"))


def cells(table: dict, row: int) -> dict:
    """Row ``row`` of ``table`` by column name (a copy: write with ``set_cell``)."""
    return dict(zip(table["columns"], table["rows"][row]))


def set_cell(table: dict, row: int, column: str, value) -> None:
    table["rows"][row][table["columns"].index(column)] = value


def doc_at(doc: dict, path: tuple):
    """Walk ``path``: object keys, and inside a table a row index then a column name."""
    node, keys = doc, iter(path)
    for key in keys:
        node = cells(node, key)[next(keys)] if isinstance(key, int) else node[key]
    return node


def avm_table(doc: dict) -> dict:
    """The AVM table of state ``s1``, the first row of the state table."""
    return doc_at(doc, ("dstg", "abstractStates", 0, "avms"))


#: Where each table of a model document sits, and the columns it has.
TABLES = {
    "windows": (
        lambda doc: doc["ewtg"]["windows"],
        ["id", "name", "kind", "className", "runtimeCreated"],
    ),
    "widgets": (
        lambda doc: doc["ewtg"]["widgets"],
        ["id", "windowId", "className", "resourceId", "contentDescription", "xpath",
         "parentId", "runtimeCreated"],
    ),
    "inputs": (
        lambda doc: doc["ewtg"]["inputs"],
        ["id", "windowId", "actionType", "widgetId", "handlerMethodIds"],
    ),
    "windowTransitions": (
        lambda doc: doc["ewtg"]["windowTransitions"],
        ["id", "destinationWindowId", "inputId"],
    ),
    "abstractStates": (
        lambda doc: doc["dstg"]["abstractStates"],
        ["id", "windowId", "avms", "abstractionLevel", "obsolete", "observedInVersions"],
    ),
    "avms": (avm_table, ["valuations", "cardinality", "ewtgWidgetId"]),
    "abstractTransitions": (
        lambda doc: doc["dstg"]["abstractTransitions"],
        ["id", "sourceStateId", "widgetId", "actionType", "destinationStateId",
         "dataPayload", "layoutGuard"],
    ),
    # the trace's rows: each distinct step once, named by the trace's indices
    "trace": (lambda doc: doc["gstg"]["steps"], ["transitionId", "concreteNodePath"]),
}

#: A cell of another JSON type than its column takes; a string column gets 5.
WRONG_CELLS = {
    "runtimeCreated": 1,
    "obsolete": 0,
    "cardinality": True,
    "handlerMethodIds": "m-ok",
    "observedInVersions": "v1",
    "concreteNodePath": "0",
    "valuations": [["R_RID", "ok"]],
    "avms": [],
    "layoutGuard": [],
}


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
    assert restored == model
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
    good = model_doc()
    ewtg = good["ewtg"]
    short_row = dict(ewtg["windows"], rows=[["w1"]])
    bad_action = dict(ewtg["inputs"], rows=[["i", "w-main", "NoSuchAction", None, []]])
    record_list = [cells(ewtg["windows"], 0)]
    for bad in (
        dict(ewtg, windows=short_row),
        dict(ewtg, windows=3),
        dict(ewtg, windows=record_list),
        [],
        dict(ewtg, inputs=bad_action),
    ):
        doc = dict(good, ewtg=bad)
        with pytest.raises(ModelError, match="malformed model document"):
            load(doc)


@pytest.mark.parametrize("edit", [
    lambda doc: set_cell(doc["ewtg"]["widgets"], 0, "resourceId", 5),
    lambda doc: set_cell(doc["ewtg"]["inputs"], 0, "handlerMethodIds", [["m-ok"]]),
    lambda doc: set_cell(avm_table(doc), 0, "valuations", {"R_T": []}),
    lambda doc: set_cell(doc["dstg"]["abstractTransitions"], 0, "layoutGuard", 1),
    lambda doc: set_cell(doc["dstg"]["abstractTransitions"], 0, "layoutGuard", {"entries": []}),
    lambda doc: set_cell(doc["gstg"]["steps"], 0, "concreteNodePath", ["0"]),
    lambda doc: set_cell(doc["gstg"]["steps"], 0, "concreteNodePath", [-1]),
    lambda doc: set_cell(doc["gstg"]["steps"], 0, "concreteNodePath", [True]),
    lambda doc: set_cell(avm_table(doc), 0, "cardinality", True),
    lambda doc: set_cell(doc["dstg"]["abstractTransitions"], 0, "layoutGuard", ["s2"]),
    lambda doc: doc.update(diffContext={"addedWidgets": "wd-ok"}),
    # dict() would read a list of pairs as an object
    lambda doc: doc["dstg"].update(abstractionPolicy=[["w-main", "L2"]]),
])
def test_deserialize_rejects_fields_of_the_wrong_type(edit):
    doc = model_doc()
    edit(doc)
    with pytest.raises(ModelError, match="malformed model document"):
        load(doc)


@pytest.mark.parametrize("column, value, message", [
    ("layoutGuard", "s-gone", "has a layout guard of missing state s-gone"),
    ("widgetId", "wd-other", "widget wd-other is bound to no avm of state s1"),
])
def test_deserialize_rejects_a_transition_naming_what_it_lacks(
    tmp_path, capsys, column, value, message
):
    # a guard names a state of the model, and a transition's widget is bound
    # to an AVM of its source state
    doc = model_doc()
    set_cell(doc["dstg"]["abstractTransitions"], 0, column, value)
    with pytest.raises(ModelError, match=message):
        load(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), "utf-8")
    assert main(["plan", str(path), "--from-state", "s1", "--target-window", "w-edit"]) == 1
    err = capsys.readouterr().err
    assert "model failed integrity validation" in err and err.count("\n") == 1


def test_the_written_tables_have_the_documented_columns():
    doc = model_doc()
    for locate, columns in TABLES.values():
        table = locate(doc)
        assert set(table) == {"columns", "rows"}
        assert table["columns"] == columns
        assert table["rows"]


@pytest.mark.parametrize("table, column", [
    (name, column) for name, (_, columns) in TABLES.items() for column in columns
])
def test_deserialize_rejects_a_cell_of_the_wrong_type(table, column):
    doc = model_doc()
    set_cell(TABLES[table][0](doc), 0, column, WRONG_CELLS.get(column, 5))
    with pytest.raises(ModelError, match="malformed model document"):
        load(doc)


@pytest.mark.parametrize("table", list(TABLES))
@pytest.mark.parametrize("edit", [
    lambda table: table["columns"].reverse(),
    lambda table: table["columns"].append("extra"),
    lambda table: table.update(extra=[]),
    lambda table: table["rows"][0].append(None),
    lambda table: table["rows"][0].pop(),
    lambda table: table["rows"].append({}),
], ids=["reversed header", "longer header", "third key", "long row", "short row", "object row"])
def test_deserialize_rejects_another_header_or_row_width(table, edit):
    doc = model_doc()
    edit(TABLES[table][0](doc))
    with pytest.raises(ModelError, match="malformed model document"):
        load(doc)


@pytest.mark.parametrize("path, what", [
    (("ewtg", "windows"), "window"),
    (("ewtg", "widgets"), "widget"),
    (("ewtg", "inputs"), "input"),
    (("ewtg", "windowTransitions"), "window transition"),
    (("dstg", "abstractStates"), "abstract state"),
    (("dstg", "abstractTransitions"), "abstract transition"),
])
def test_deserialize_rejects_a_repeated_id(path, what):
    doc = model_doc()
    rows = doc_at(doc, path)["rows"]
    # a second row under the first one's id, otherwise well formed
    rows.append(list(rows[0]))
    with pytest.raises(ModelError, match=f"duplicate {what} id"):
        load(doc)


def test_deserialize_rejects_an_unknown_abstraction_level():
    for edit in (
        lambda doc: set_cell(doc["dstg"]["abstractStates"], 0, "abstractionLevel", "L9"),
        lambda doc: doc["dstg"].update(abstractionPolicy={"w-main": "L0"}),
    ):
        doc = model_doc()
        edit(doc)
        with pytest.raises(ModelError, match="unknown"):
            load(doc)


def test_deserialize_rejects_wrong_schema_version():
    # schema 3 wrote each record as an object, schema 4 stored each window's
    # widgets and each window transition's source again, and schema 5 each
    # trace step's action and reached state, schema 6 each executed action's
    # step again, schema 7 each bound AVM's widget identity, and schema 8 an
    # id for each AVM and a transition's source as one; no reader for any of
    # them is kept
    for schema in (99, 3, 4, 5, 6, 7, 8):
        doc = model_doc()
        doc["schema_version"] = schema
        with pytest.raises(ModelError, match=f"unsupported schema version {schema}"):
            load(doc)


def _random_trace(model: AppModel, rng: random.Random) -> None:
    """Trace steps over the model's transitions, some with node paths; as in
    a session, most repeat an earlier step, each as an object of its own."""
    transitions = sorted(model.dstg.abstract_transitions)
    if not transitions:
        return
    paths = [None, (), (0,), (2, 1)]
    pool = [(rng.choice(transitions), rng.choice(paths)) for _ in range(rng.randrange(1, 5))]
    for _ in range(rng.randrange(0, 40)):
        model.gstg.trace.append(TraceStep(*rng.choice(pool)))


def _round_trips(model: AppModel) -> None:
    data = serialize_model(model)
    restored = deserialize_model(data)
    assert restored == model
    assert serialize_model(restored) == data
    # each distinct step is written once, in order of first use, and read
    # back as one object
    keys = [(step.transition_id, step.concrete_node_path) for step in model.gstg.trace]
    rows = list(dict.fromkeys(keys))
    gstg = json.loads(data)["gstg"]
    assert gstg["steps"]["rows"] == [TraceStep(*key).to_row() for key in rows]
    assert gstg["trace"] == [rows.index(key) for key in keys]
    first: dict = {}
    assert all(first.setdefault(k, step) is step for k, step in zip(keys, restored.gstg.trace))


def test_random_window_graphs_round_trip():
    for seed in range(30):
        for version, ewtg in zip(("v0", "v1"), random_ewtg_pair(seed)):
            _round_trips(AppModel(version=version, ewtg=ewtg))


def test_random_models_round_trip():
    rng = random.Random(4)
    for _ in range(30):
        model, _, _ = random_model(rng)
        for tr in sorted(model.dstg.abstract_transitions.values(), key=lambda t: t.id):
            if rng.random() < 0.3:
                tr.data_payload = rng.choice(("hello", ""))
            if rng.random() < 0.3:
                tr.layout_guard = rng.choice(sorted(model.dstg.abstract_states))
        for state in model.dstg.abstract_states.values():
            state.observed_in_versions = set(rng.sample(["v0", "v1", "v2"], rng.randrange(3)))
        model.diff_context = {"addedWidgets": sorted(model.ewtg.widgets)[:2]}
        _random_trace(model, rng)
        _round_trips(model)


def test_deserialize_rejects_missing_version():
    doc = json.loads(serialize_model(small_model()).decode("utf-8"))
    del doc["version"]
    with pytest.raises(ModelError):
        deserialize_model(json.dumps(doc).encode("utf-8"))


def test_validation_catches_dangling_references():
    def missing_state_window(model):
        model.dstg.abstract_states["s3"] = AbstractState(id="s3", window_id="w-missing")

    def missing_transition_input(model):
        model.ewtg.window_transitions["wt-1"].input_id = "i-missing"

    def missing_transition_destination(model):
        model.ewtg.window_transitions["wt-1"].destination_window_id = "w-missing"

    for edit, message in (
        (missing_state_window, "state s3 references missing window w-missing"),
        (missing_transition_input, "transition wt-1 references missing input i-missing"),
        (
            missing_transition_destination,
            "transition wt-1 references missing destination w-missing",
        ),
    ):
        model = small_model()
        edit(model)
        assert message in validate_integrity(model)
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


def test_a_bound_avm_row_leaves_out_the_identity_its_widget_gives():
    doc = model_doc()
    # the AVM of wd-ok keeps only its text; loading takes the rest from wd-ok
    assert cells(avm_table(doc), 0)["valuations"] == {"R_T": "OK"}
    restored = load(doc)
    assert restored.dstg.abstract_states["s1"].avms[0].valuations == {
        "R_RID": "ok", "R_CN": "Button", "R_CD": "", "R_T": "OK",
    }
    assert restored == small_model()


def test_an_avm_of_no_widget_keeps_its_identity_in_its_row():
    model = small_model()
    model.dstg.abstract_states["s2"].avms.append(
        AttributeValuationMap(valuations={"R_RID": "x", "R_CN": "View", "R_CD": ""})
    )
    doc = json.loads(serialize_model(model))
    edit_avms = doc_at(doc, ("dstg", "abstractStates", 1, "avms"))
    assert cells(edit_avms, 0)["valuations"] == {"R_RID": "x", "R_CN": "View", "R_CD": ""}
    assert load(doc) == model


@pytest.mark.parametrize("key", ["R_RID", "R_CN", "R_CD"])
def test_deserialize_rejects_a_bound_avm_row_that_holds_its_identity(key):
    doc = model_doc()
    set_cell(avm_table(doc), 0, "valuations", {"R_T": "OK", key: "ok"})
    with pytest.raises(ModelError, match="malformed model document.*widget 'wd-ok' gives it"):
        load(doc)


@pytest.mark.parametrize("edit", [
    lambda valuations: valuations.update(R_RID="stale"),
    lambda valuations: valuations.update(R_CN="ImageView"),
    lambda valuations: valuations.update(R_CD="add"),
    lambda valuations: valuations.pop("R_CD"),
], ids=["resource id", "class name", "content description", "missing"])
def test_validation_catches_a_bound_avm_without_its_widgets_identity(edit):
    # a model file leaves the identity out, so writing this AVM would lose
    # the value loading cannot give back
    model = small_model()
    edit(model.dstg.abstract_states["s1"].avms[0].valuations)
    assert validate_integrity(model) == [
        "avm 0 of state s1 does not hold the identity of widget wd-ok"
    ]
    with pytest.raises(ModelError, match="does not hold the identity of widget wd-ok"):
        serialize_model(model)


def test_validation_catches_a_layout_guard_of_a_missing_state():
    model = small_model()
    model.dstg.abstract_transitions["at-1"].layout_guard = "s-gone"
    assert validate_integrity(model) == [
        "abstract transition at-1 has a layout guard of missing state s-gone"
    ]
    with pytest.raises(ModelError):
        serialize_model(model)


def test_dropping_a_state_drops_the_transitions_it_guards():
    model = small_model()
    dstg = model.dstg
    dstg.abstract_states["s3"] = AbstractState(id="s3", window_id="w-edit")
    dstg.abstract_transitions["at-1"].layout_guard = "s3"
    dstg.abstract_transitions["at-2"] = AbstractTransition(
        id="at-2", source_state_id="s2", widget_id=None,
        action_type=ActionType.PRESS_BACK, destination_state_id="s1", layout_guard="s2",
    )
    model.gstg.trace.clear()
    dstg.drop_states(["s3"])
    assert set(dstg.abstract_transitions) == {"at-2"}
    assert validate_integrity(model) == []


def test_validation_catches_transition_avm_mismatch():
    # a transition's widget is bound to an AVM of its source state
    model = small_model()
    model.dstg.abstract_transitions["at-1"].widget_id = "wd-other"
    assert validate_integrity(model) == [
        "abstract transition at-1 widget wd-other is bound to no avm of state s1"
    ]


def test_validation_catches_input_in_wrong_window():
    model = small_model()
    model.ewtg.inputs["i-ok"].window_id = "w-edit"
    violations = validate_integrity(model)
    assert any("another window" in v for v in violations)


def test_validation_catches_trace_with_missing_transition():
    model = small_model()
    model.gstg.trace += [TraceStep("at-missing"), TraceStep("at-1"), TraceStep("at-missing", (0,))]
    # one violation per missing transition, at the first step that takes it
    assert validate_integrity(model) == ["trace step 1 references missing transition at-missing"]
    with pytest.raises(ModelError):
        serialize_model(model)


def test_deserialize_rejects_a_trace_step_of_schema_5_or_a_missing_transition():
    # a schema-5 row held the input, action type, node path, payload and
    # reached state
    doc = model_doc()
    doc["gstg"]["steps"]["rows"][0] = ["i-ok", "Click", [], None, "s2"]
    with pytest.raises(ModelError, match="expected rows of 2 cells"):
        load(doc)
    doc = model_doc()
    set_cell(doc["gstg"]["steps"], 0, "transitionId", "at-missing")
    doc["gstg"]["trace"] = [0] * 1000
    with pytest.raises(ModelError, match="trace step 0 references missing transition") as err:
        load(doc)
    assert str(err.value).count("at-missing") == 1


def trace_doc() -> dict:
    """A model document whose trace names step rows 0, 1 and 0."""
    model = small_model()
    model.gstg.trace += [TraceStep("at-1", (0,)), TraceStep("at-1", ())]
    doc = json.loads(serialize_model(model))
    assert doc["gstg"]["steps"]["rows"] == [["at-1", []], ["at-1", [0]]]
    assert doc["gstg"]["trace"] == [0, 1, 0]
    return doc


def set_index(gstg: dict, value) -> None:
    gstg["trace"][1] = value


@pytest.mark.parametrize("edit, message", [
    (lambda gstg: gstg.update(trace={"0": 0}), "expected list"),
    (lambda gstg: gstg.update(trace=None), "expected list"),
    (lambda gstg: gstg.pop("trace"), "KeyError: 'trace'"),
    (lambda gstg: set_index(gstg, True), "expected int, got True"),
    (lambda gstg: set_index(gstg, 1.0), "expected int, got 1.0"),
    (lambda gstg: set_index(gstg, "1"), "expected int, got '1'"),
    (lambda gstg: set_index(gstg, -1), "trace index -1 names no step row"),
    (lambda gstg: set_index(gstg, 2), "trace index 2 names no step row"),
    (
        lambda gstg: (gstg["steps"]["rows"].append(["at-1", [0]]), gstg["trace"].append(2)),
        "duplicate trace step id ('at-1', (0,))",
    ),
    (lambda gstg: gstg["steps"]["rows"].append(["at-1", [1]]), "step row 2 is named by no"),
    (lambda gstg: gstg.update(trace=[]), "step row 0 is named by no trace index"),
], ids=[
    "object", "null", "missing", "bool", "float", "string", "negative", "too large",
    "repeated row", "unused row", "no index",
])
def test_deserialize_rejects_a_malformed_trace(edit, message):
    doc = trace_doc()
    edit(doc["gstg"])
    with pytest.raises(ModelError, match="malformed model document") as err:
        load(doc)
    assert message in str(err.value)


def test_valuation_multiset_counts_cardinality():
    state = AbstractState(
        id="s",
        window_id="w",
        avms=[
            AttributeValuationMap(valuations={"R_CN": "Button"}, cardinality=2),
            AttributeValuationMap(valuations={"R_CN": "Button"}, cardinality=1),
            AttributeValuationMap(valuations={"R_CN": "TextView"}, cardinality=1),
        ],
    )
    assert state.valuation_multiset() == {
        (("R_CN", "Button"),): 3,
        (("R_CN", "TextView"),): 1,
    }


def test_gui_node_walk_and_node_at():
    leaf = make_node(resourceId="leaf")
    root = make_node(children=[make_node(children=[leaf]), make_node()])
    paths = [p for p, _ in walk(root)]
    assert paths == [(), (0,), (0, 0), (1,)]
    assert root.node_at((0, 0)) is leaf


#: Every app ``pipeline_run`` is run on in the tests, with the versions it takes.
CHAINS = {
    **{app: (fixture_path(app), None, None) for app in ("diary", "dialog", "news", "deep")},
    "hidden": (hidden_spec_doc(), "v1", "v2"),
    "nested": (nested_spec_doc(), "v1", "v2"),
}


@pytest.mark.parametrize("chain", list(CHAINS))
def test_the_file_round_trip_gives_the_in_memory_model_after_every_stage(
    tmp_path, monkeypatch, chain
):
    # ``uptest adapt`` -> file -> ``uptest test`` must start from the model
    # ``pipeline_run`` keeps in memory, so loading what ``serialize_model``
    # writes gives back every field of the model after each stage
    checked = []

    def round_trips(model: AppModel, stage: str) -> None:
        assert deserialize_model(serialize_model(model)) == model, stage
        checked.append(stage)

    def wrap(name, model_of):
        stage = getattr(uptest.cli, name)

        def checking(*args, **kwargs):
            out = stage(*args, **kwargs)
            round_trips(model_of(args, out), name)
            return out

        monkeypatch.setattr(uptest.cli, name, checking)

    wrap("adapt_model", lambda args, adapted: adapted)
    wrap("run_session", lambda args, result: result.model)
    wrap("replay_flag_obsolete", lambda args, _: args[0])
    doc, first, last = CHAINS[chain]
    spec = load_spec(doc)
    pipeline_run(
        spec, first or spec.versions[0].version, last or spec.versions[-1].version,
        budget=150, seed=3, workdir=tmp_path, config=EngineConfig(),
    )
    versions = len(list(tmp_path.glob("model_*.json")))
    assert checked.count("adapt_model") == versions - 1
    assert checked.count("run_session") == checked.count("replay_flag_obsolete") == versions


@pytest.fixture
def collector_restored():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_without_gc_pauses_the_collector_and_restores_its_state(enabled, collector_restored):
    @without_gc
    def collector_state():
        return gc.isenabled()

    @without_gc
    def failing():
        raise ValueError("boom")

    if enabled:
        gc.enable()
    else:
        gc.disable()
    assert collector_state() is False
    assert gc.isenabled() is enabled
    with pytest.raises(ValueError, match="boom"):
        failing()
    assert gc.isenabled() is enabled


def test_the_pipeline_leaves_no_reference_cycles(tmp_path, collector_restored):
    # the carry stages run with the collector paused, which is sound only
    # while they, and the session around them, build no reference cycles:
    # with the collector off, a pass over every version must leave nothing
    # for a collection to free
    def run(name: str) -> None:
        for app in ("diary", "dialog", "news", "deep"):
            spec = load_spec(fixture_path(app))
            workdir = tmp_path / name / app
            workdir.mkdir(parents=True)
            pipeline_run(
                spec, spec.versions[0].version, spec.versions[-1].version,
                budget=150, seed=3, workdir=workdir, config=EngineConfig(),
            )

    run("warm-up")  # caches filled once per process are not garbage
    gc.collect()
    gc.disable()
    run("checked")
    assert gc.collect() == 0
