"""Test engine: session loop, UTA accounting, online refinement."""

import copy
import json
import random

import pytest

from uptest.adaptation import adapt_model
from uptest.abstraction import (
    LEVELS,
    derive_abstract_state,
    layout_fingerprint,
)
from uptest.cli import pipeline_run
from uptest.config import EngineConfig
from uptest.engine import CoverageLedger, TargetSet, TestEngine, _Screen, run_session
from uptest.diff import diff_ewtg
from uptest.harness import (
    DriverRejection,
    DriverSession,
    export_ewtg,
    load_spec,
    method_instruction_counts,
    updated_methods,
)
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
    Input,
    Window,
    WindowKind,
    deserialize_model,
    serialize_model,
    validate_integrity,
)
from uptest.harness import PerformResult
from uptest.planner import PlanStep, PlanView

from uptest import fixture_path

from conftest import appgen, make_node
from hidden_app import hidden_spec_doc
from nested_app import nested_spec_doc


def diary_setup(version="v0"):
    spec = load_spec(fixture_path("diary"))
    ewtg = export_ewtg(spec, version)
    model = AppModel(version=version, ewtg=copy.deepcopy(ewtg))
    counts = method_instruction_counts(spec, version)
    targets = TargetSet(target_method_ids=set(counts), instruction_counts=counts)
    return spec, model, targets


def run_diary(budget=40, seed=1):
    spec, model, targets = diary_setup()
    driver = DriverSession(spec, "v0", seed=seed)
    return run_session(model, targets, driver, budget=budget, seed=seed), targets


def test_budget_zero_returns_an_untouched_session():
    spec, model, targets = diary_setup()

    class ExplodingDriver:
        def reset(self):
            raise AssertionError("driver must not be touched at budget 0")

        def perform(self, action):
            raise AssertionError("driver must not be touched at budget 0")

    result = run_session(model, targets, ExplodingDriver(), budget=0, seed=1)
    assert result.executed_actions == 0
    assert result.utas == []
    assert result.actions_to_first_target_coverage is None


class RecordingDriver:
    """Passes actions to a driver and keeps each call's index and ranges.

    With ``reject_every`` set, every call whose index leaves remainder 1 is
    rejected without reaching the driver, so the screen stays current.
    """

    def __init__(self, driver, reject_every=None):
        self.driver = driver
        self.reject_every = reject_every
        self.calls = 0
        self.rejections = 0
        self.executed = []  # (call index, ranges) of every accepted action

    def reset(self):
        return self.driver.reset()

    def perform(self, action):
        self.calls += 1
        if self.reject_every and self.calls % self.reject_every == 1:
            self.rejections += 1
            raise DriverRejection("rejected by the test")
        result = self.driver.perform(action)
        self.executed.append((self.calls, result.executed))
        return result


@pytest.mark.parametrize(
    "app, budget, reject_every",
    [("diary", 30, None), ("diary", 40, None), ("dialog", 80, 3), ("deep", 60, 4)],
)
def test_coverage_bookkeeping_matches_a_recount_of_the_driver_calls(app, budget, reject_every):
    spec = load_spec(fixture_path(app))
    version = spec.versions[0].version
    model = AppModel(version=version, ewtg=export_ewtg(spec, version))
    counts = method_instruction_counts(spec, version)
    targets = TargetSet(target_method_ids=set(counts), instruction_counts=counts)
    driver = RecordingDriver(DriverSession(spec, version, seed=1), reject_every)
    result = run_session(model, targets, driver, budget=budget, seed=1)
    # the session spends the whole budget, rejected actions included
    assert result.executed_actions == driver.calls == budget
    assert (driver.rejections > 0) == (reject_every is not None)
    covered = {}
    first = None
    for index, ranges in driver.executed:
        for method_id, lo, hi in ranges:
            seen = covered.setdefault(method_id, set())
            size = len(seen)
            seen.update(range(lo, hi + 1))
            if first is None and method_id in targets.target_method_ids and len(seen) > size:
                first = index
    assert first is not None
    assert result.actions_to_first_target_coverage == first
    assert result.ledger.covered == covered


@pytest.mark.parametrize("seed", range(20))
def test_the_ledger_covers_what_a_ledger_rebuilding_every_range_covers(seed):
    # few methods and short ranges, so that ranges repeat and overlap, also
    # within one call
    rng = random.Random(seed)
    targets = TargetSet(target_method_ids={"m0", "m1"},
                        instruction_counts={"m0": 12, "m1": 12, "m2": 12})
    ledger = CoverageLedger()
    covered: dict[str, set[int]] = {}
    for _ in range(60):
        ranges = []
        for _ in range(rng.randrange(4)):
            lo = rng.randint(1, 12)
            ranges.append((rng.choice(("m0", "m1", "m2")), lo, rng.randint(lo, min(12, lo + 3))))
        expected: dict[str, set[int]] = {}
        for method_id, lo, hi in ranges:
            instructions = set(range(lo, hi + 1))
            fresh = instructions - covered.setdefault(method_id, set())
            covered[method_id] |= instructions
            if fresh and method_id in targets.target_method_ids:
                expected.setdefault(method_id, set()).update(fresh)
        assert ledger.record(ranges, targets) == expected
    assert ledger.covered == covered
    assert list(ledger.covered) == list(covered)


def test_every_uta_strictly_increases_target_coverage():
    result, targets = run_diary()
    assert result.utas
    for uta in result.utas:
        assert uta.newly_covered_instruction_count > 0
    union: dict[str, set[int]] = {}
    for uta in result.utas:
        for method, instrs in uta.newly_covered.items():
            union.setdefault(method, set()).update(instrs)
    covered = {
        m: result.ledger.covered.get(m, set()) for m in targets.target_method_ids
    }
    assert {m: v for m, v in covered.items() if v} == union


def test_visited_layouts_hold_one_layout_per_state_in_last_visit_order(monkeypatch):
    # the reset's state, then the state each performed action reached
    observed = []
    perform = TestEngine._perform

    def recording_perform(self, *args):
        if not observed:
            observed.append(self.current_state.id)
        result = perform(self, *args)
        if result is not None:
            observed.append(self.current_state.id)
        return result

    monkeypatch.setattr(TestEngine, "_perform", recording_perform)
    spec, model, targets = diary_setup()
    engine = TestEngine(model, targets, DriverSession(spec, "v0", seed=1), budget=40, seed=1)
    result = engine.run_session()
    first_visits = list(dict.fromkeys(observed))
    last_visits = list(dict.fromkeys(reversed(observed)))[::-1]
    assert len(first_visits) < len(observed)  # states were seen again
    assert last_visits != first_visits  # and the two orders differ
    assert list(engine.visited_layouts) == last_visits
    for sid, layout in engine.visited_layouts.items():
        assert layout == layout_fingerprint(result.model.dstg.abstract_states[sid])


def test_session_model_stays_consistent_and_trace_is_replayable():
    result, _ = run_diary()
    model = result.model
    assert validate_integrity(model) == []
    for step in model.gstg.trace:
        reached = model.dstg.abstract_transitions[step.transition_id].destination_state_id
        assert reached in result.observed_state_ids
    assert result.observed_state_ids <= set(model.dstg.abstract_states)


def test_a_long_session_writes_its_trace_in_at_most_three_bytes_a_step():
    # each distinct step is written once and each action as a row index;
    # a row per action took about 14 bytes a step
    result, _ = run_diary(budget=1000)
    steps = len(result.model.gstg.trace)
    assert steps > 900
    gstg = json.loads(serialize_model(result.model))["gstg"]
    assert len(json.dumps(gstg, separators=(",", ":"))) <= 3 * steps


@pytest.mark.parametrize("app", ["diary", "dialog", "news", "deep", "hidden"])
def test_each_trace_step_starts_where_the_step_before_it_ended(app, tmp_path, monkeypatch):
    # in every written model, after pruning, replay and online refinement,
    # the first step's transition leaves the state the session's reset
    # reached, and each later one the state the step before it reached
    starts = []
    observe = TestEngine._observe

    def recording_observe(self, result):
        state = observe(self, result)
        if self.observations == 1:  # the screen the session's reset showed
            starts.append(state.id)
        return state

    monkeypatch.setattr(TestEngine, "_observe", recording_observe)
    spec = load_spec(hidden_spec_doc() if app == "hidden" else fixture_path(app))
    artifacts = pipeline_run(
        spec, spec.versions[0].version, spec.versions[-1].version,
        budget=300, seed=7, workdir=tmp_path, config=EngineConfig(),
    )
    models = [deserialize_model(p.read_bytes()) for p in artifacts if p.name.startswith("model_")]
    assert len(models) == len(starts) == len(spec.versions)
    for model, state_id in zip(models, starts):
        assert model.gstg.trace
        for step in model.gstg.trace:
            tr = model.dstg.abstract_transitions[step.transition_id]
            assert tr.source_state_id == state_id
            state_id = tr.destination_state_id


def test_sessions_are_deterministic():
    a, targets = run_diary(seed=5)
    b, _ = run_diary(seed=5)
    assert serialize_model(a.model) == serialize_model(b.model)
    assert a.report(targets) == b.report(targets)


def test_runtime_windows_and_inputs_are_folded_into_the_model():
    spec = load_spec(fixture_path("dialog"))
    ewtg = export_ewtg(spec, "v1")
    assert "dlg" not in ewtg.windows
    model = AppModel(version="v1", ewtg=copy.deepcopy(ewtg))
    counts = method_instruction_counts(spec, "v1")
    targets = TargetSet(target_method_ids=set(counts), instruction_counts=counts)
    driver = DriverSession(spec, "v1", seed=2)
    result = run_session(model, targets, driver, budget=60, seed=2)
    window = result.model.ewtg.windows.get("dlg")
    assert window is not None and window.runtime_created
    assert "ri-dlg-back" in result.model.ewtg.inputs
    runtime_widgets = [
        w for w in result.model.ewtg.widgets.values()
        if w.runtime_created and w.window_id == "dlg"
    ]
    assert runtime_widgets


def test_the_input_table_holds_the_lowest_id_input_of_each_key():
    spec = load_spec(fixture_path("dialog"))
    model = AppModel(version="v1", ewtg=export_ewtg(spec, "v1"))
    # the runtime window's back input, added mid-session, sorts before this one
    model.ewtg.inputs["zz-dlg-back"] = Input(
        id="zz-dlg-back", window_id="dlg", action_type=ActionType.PRESS_BACK
    )
    counts = method_instruction_counts(spec, "v1")
    targets = TargetSet(target_method_ids=set(counts), instruction_counts=counts)
    engine = TestEngine(model, targets, DriverSession(spec, "v1", seed=2), budget=60, seed=2)
    engine.run_session()
    assert "ri-dlg-back" in model.ewtg.inputs
    expected = {}
    for inp in sorted(model.ewtg.inputs.values(), key=lambda i: i.id):
        expected.setdefault((inp.window_id, inp.widget_id, inp.action_type), inp)
    assert engine.view.input_for == expected


def test_runtime_widgets_take_the_class_names_down_to_them_as_xpath():
    model = two_state_model()
    engine = engine_on(model)
    result = observed_result(
        "new",
        make_node(className="Layout", widget_ref="rw-panel", children=[
            make_node(className="Button", widget_ref="rw-ok", clickable=True),
            make_node(className="Frame", children=[
                make_node(className="EditText", widget_ref="rw-name", isInputField=True),
            ]),
        ]),
    )
    engine._observe(result)
    widgets = model.ewtg.widgets
    assert [widgets[w].xpath for w in ("rw-panel", "rw-ok", "rw-name")] == [
        "/Layout", "/Layout/Button", "/Layout/Frame/EditText",
    ]
    assert {"ri-new-back", "ri-rw-ok-Click", "ri-rw-name-TextFill"} <= set(model.ewtg.inputs)
    assert engine.view.input_for[("new", "rw-name", ActionType.TEXT_FILL)].id == "ri-rw-name-TextFill"


# --- focused unit checks on refinement hooks ------------------------------


def two_state_model():
    ewtg = Ewtg(launcher_window_id="win")
    ewtg.windows["win"] = Window(
        id="win", name="win", kind=WindowKind.ACTIVITY, class_name="c.win",
    )
    ewtg.windows["other"] = Window(
        id="other", name="other", kind=WindowKind.ACTIVITY, class_name="c.other",
    )
    ewtg.widgets["wd"] = EwtgWidget(
        id="wd", window_id="win", class_name="Button", resource_id="wd",
        content_description="", xpath="/L/Button",
    )
    ewtg.inputs["i-wd"] = Input(
        id="i-wd", window_id="win", widget_id="wd", action_type=ActionType.CLICK
    )
    dstg = Dstg()
    for sid, window_id in (("sa", "win"), ("sb", "other"), ("sc", "other")):
        avms = (
            [AttributeValuationMap(valuations={"R_RID": "wd"}, ewtg_widget_id="wd")]
            if window_id == "win"
            else []
        )
        dstg.abstract_states[sid] = AbstractState(id=sid, window_id=window_id, avms=avms)
    dstg.abstract_transitions["at1"] = AbstractTransition(
        id="at1", source_state_id="sa", widget_id="wd",
        action_type=ActionType.CLICK, destination_state_id="sb",
    )
    return AppModel(version="v1", ewtg=ewtg, dstg=dstg)


def engine_on(model):
    counts = {"m": 1}
    targets = TargetSet(target_method_ids={"m"}, instruction_counts=counts)
    return TestEngine(model, targets, driver=None, budget=0, seed=0)


def recorded_refinements(engine):
    """The (window, new level) of each refinement ``engine`` makes from now
    on, read off ``dstg.abstraction_policy`` around each ``_refine_window``."""
    refines = []
    dstg = engine.model.dstg

    def refine(window_id):
        before = dstg.level_for(window_id)
        TestEngine._refine_window(engine, window_id)
        if dstg.level_for(window_id) != before:
            refines.append((window_id, dstg.level_for(window_id)))

    engine._refine_window = refine
    return refines


def test_nondeterminism_bumps_the_window_abstraction_level():
    model = two_state_model()
    engine = engine_on(model)
    refines = recorded_refinements(engine)
    sa = model.dstg.abstract_states["sa"]
    sc = model.dstg.abstract_states["sc"]
    action = Action("i-wd", ActionType.CLICK, concrete_node_path=())
    engine._record_transition(sa, action, "wd", sc)
    assert model.dstg.abstraction_policy["win"] == "L2"
    assert refines == [("win", "L2")]


def test_closing_nondeterminism_is_guarded_not_refined():
    model = two_state_model()
    model.dstg.abstract_transitions["at1"].action_type = ActionType.PRESS_BACK
    model.dstg.abstract_transitions["at1"].widget_id = None
    engine = engine_on(model)
    sa = model.dstg.abstract_states["sa"]
    sc = model.dstg.abstract_states["sc"]
    # in last-visit order: the destination was observed last
    engine.visited_layouts = {s.id: layout_fingerprint(s) for s in (sa, sc)}
    action = Action("x", ActionType.PRESS_BACK)
    tr = engine._record_transition(sa, action, None, sc)
    assert "win" not in model.dstg.abstraction_policy  # no level bump
    assert tr.layout_guard == "sc"  # the new edge is guarded by its own destination


@pytest.mark.parametrize("threshold, guard_from", [(0.8, "dest"), (0.6, "near")])
def test_closing_guards_use_the_configured_layout_threshold(threshold, guard_from):
    model = two_state_model()
    states = model.dstg.abstract_states
    for sid, rids in (("near", ("a", "b")), ("dest", ("a", "b", "c"))):
        states[sid] = AbstractState(
            id=sid, window_id="other",
            avms=[AttributeValuationMap(valuations={"R_RID": r}) for r in rids],
        )
    targets = TargetSet(target_method_ids={"m"}, instruction_counts={"m": 1})
    engine = TestEngine(
        model, targets, driver=None, budget=0, seed=0,
        config=EngineConfig(layout_similarity_threshold=threshold),
    )
    sa = states["sa"]
    # "near" shares 2 of the 3 layout valuations of "dest": similarity 2/3
    engine.visited_layouts = {
        s.id: layout_fingerprint(s) for s in (states["near"], sa, states["dest"])
    }
    tr = engine._record_transition(sa, Action("x", ActionType.PRESS_BACK), None, states["dest"])
    assert tr.layout_guard == guard_from


def test_online_refine_deletes_stale_inherited_edges():
    model = two_state_model()
    # sb was inherited from a previous version and never seen in this one
    model.dstg.abstract_states["sb"].observed_in_versions = {"v0"}
    engine = engine_on(model)
    sa = model.dstg.abstract_states["sa"]
    step = PlanStep("i-wd", ActionType.CLICK, "wd", "sb", 1.0)
    engine._online_refine(model.dstg.abstract_states["sb"], sa, step)
    assert "at1" not in model.dstg.abstract_transitions
    assert "win" not in model.dstg.abstraction_policy


def test_online_refine_sharpens_when_the_state_was_seen_this_version():
    model = two_state_model()
    model.dstg.abstract_states["sb"].observed_in_versions = {"v1"}
    engine = engine_on(model)
    sa = model.dstg.abstract_states["sa"]
    step = PlanStep("i-wd", ActionType.CLICK, "wd", "sb", 1.0)
    engine._online_refine(model.dstg.abstract_states["sb"], sa, step)
    assert "at1" in model.dstg.abstract_transitions  # the edge survives
    assert model.dstg.abstraction_policy["win"] == "L2"


def test_a_planned_step_into_a_conflicting_outcome_refines_its_window_twice():
    # the learned edge sa -> sb turns out to lead elsewhere, so the planned
    # step ends in a mismatch and refines the source window twice: once when
    # the conflicting outcome is recorded, and again in online refinement
    model = two_state_model()
    model.dstg.abstract_states["sb"].observed_in_versions = {"v1"}

    class ElsewhereDriver:
        def perform(self, action):
            root = make_node(children=[make_node(clickable=True, resourceId="x")])
            return PerformResult("other", WindowKind.ACTIVITY, "c.other", root, [])

    targets = TargetSet(target_method_ids={"m"}, instruction_counts={"m": 1})
    engine = TestEngine(model, targets, ElsewhereDriver(), budget=5, seed=0)
    sa = model.dstg.abstract_states["sa"]
    engine.current_state = sa
    engine.current_screen = _Screen("win", make_node(children=[make_node(widget_ref="wd")]), {})
    refines = recorded_refinements(engine)
    outcomes = []

    def execute_step(step):
        outcomes.append((step.expected, TestEngine._execute_step(engine, step)))
        return outcomes[-1][1]

    engine._execute_step = execute_step
    engine._visit_window("other")

    assert outcomes == [("sb", "mismatch")]
    assert refines == [("win", "L2"), ("win", "L3")]
    assert model.dstg.abstraction_policy["win"] == "L3"
    assert engine.executed == 1


@pytest.mark.parametrize(
    "diff_context, outcome",
    [
        ({"addedWidgets": ["w-new"]}, "backward-equivalent"),
        ({"replacedWidgets": ["w-new"]}, "backward-equivalent"),
        ({"addedWidgets": ["w-other"], "replacedWidgets": ["wd"]}, "mismatch"),
        ({}, "mismatch"),
    ],
)
def test_a_planned_step_continues_through_a_backward_equivalent_state(diff_context, outcome):
    # the expected state "sb" shows one widget; the observed screen shows it
    # plus "w-new", which only an update may add or replace
    kept = make_node(widget_ref="w-keep", clickable=True, resourceId="keep")
    extra = make_node(widget_ref="w-new", clickable=True, resourceId="new")
    model = two_state_model()
    model.dstg.abstract_states["sb"] = derive_abstract_state(
        "other", make_node(children=[kept]), LEVELS["L1"], "sb"
    )
    model.diff_context = diff_context

    class ExtraWidgetDriver:
        def perform(self, action):
            root = make_node(children=[kept, extra])
            return PerformResult("other", WindowKind.ACTIVITY, "c.other", root, [])

    targets = TargetSet(target_method_ids={"m"}, instruction_counts={"m": 1})
    engine = TestEngine(model, targets, ExtraWidgetDriver(), budget=5, seed=0)
    sa = model.dstg.abstract_states["sa"]
    engine.current_state = sa
    engine.current_screen = _Screen("win", make_node(children=[make_node(widget_ref="wd")]), {})

    step = PlanStep("i-wd", ActionType.CLICK, "wd", "sb", 1.0)
    assert engine._execute_step(step) == outcome
    assert engine.current_state.id not in ("sa", "sb")
    # only a mismatch drops the learned edge to the state that never showed
    assert ("at1" in model.dstg.abstract_transitions) == (outcome == "backward-equivalent")


# --- the recorded transitions out of each state ---------------------------


def transition_groups(dstg):
    """The model's transitions by (source state, widget, action type), in id order."""
    groups = {}
    for tid in sorted(dstg.abstract_transitions):
        tr = dstg.abstract_transitions[tid]
        groups.setdefault((tr.source_state_id, tr.widget_id, tr.action_type), []).append(tr)
    return groups


def indexed_transitions(engine):
    """The engine view's transitions, grouped as ``transition_groups`` groups the model's."""
    groups = {}
    for entries in engine.view.transitions_from.values():
        for tr, _ in entries:
            groups.setdefault((tr.source_state_id, tr.widget_id, tr.action_type), []).append(tr)
    return groups


def test_the_transition_index_follows_the_model_through_sessions_that_refine():
    spec = load_spec(hidden_spec_doc())
    model = None
    refines = 0
    for version in ("v1", "v2"):
        ewtg = export_ewtg(spec, version)
        if model is None:
            model = AppModel(version=version, ewtg=ewtg)
            methods = set(method_instruction_counts(spec, version))
        else:
            model = adapt_model(model, ewtg, diff_ewtg(model.ewtg, ewtg), version=version)
            methods = updated_methods(spec, version)
        counts = method_instruction_counts(spec, version)
        engine = TestEngine(
            model, TargetSet(methods, counts), DriverSession(spec, version, seed=7),
            budget=300, seed=7,
        )
        assert indexed_transitions(engine) == transition_groups(model.dstg)
        session_refines = recorded_refinements(engine)
        engine.run_session()
        groups = transition_groups(model.dstg)
        assert indexed_transitions(engine) == groups
        # the session recorded more than one outcome of some action
        assert any(len({t.destination_state_id for t in g}) > 1 for g in groups.values())
        refines += len(session_refines)
    assert refines > 0


def outcomes_model():
    """``sa``'s click has two recorded outcomes whose ids sort differently as
    strings ("at-10" < "at-9") and as numbers."""
    model = two_state_model()
    dstg = model.dstg
    del dstg.abstract_transitions["at1"]
    dstg.abstract_states["sd"] = AbstractState(id="sd", window_id="other", avms=[])
    for tid, dest in (("at-9", "sb"), ("at-10", "sc")):
        dstg.abstract_transitions[tid] = AbstractTransition(
            id=tid, source_state_id="sa", widget_id="wd",
            action_type=ActionType.CLICK, destination_state_id=dest,
        )
    return model


def record_click(engine, destination_id):
    """The transition recorded for ``sa``'s click and the levels it refined
    ``win`` through, starting from L1."""
    dstg = engine.model.dstg
    dstg.abstraction_policy.clear()
    refines = recorded_refinements(engine)
    action = Action("i-wd", ActionType.CLICK, concrete_node_path=())
    tr = engine._record_transition(
        dstg.abstract_states["sa"], action, "wd", dstg.abstract_states[destination_id]
    )
    return tr.id, [level for _, level in refines]


def test_recorded_outcomes_are_compared_in_string_id_order():
    model = outcomes_model()
    engine = engine_on(model)
    # "at-10" comes first, so an outcome of "at-9" passes it over and refines once
    assert record_click(engine, "sb") == ("at-9", ["L2"])
    assert record_click(engine, "sc") == ("at-10", [])
    # a third outcome differs from both, and its new id sorts between them
    assert record_click(engine, "sd") == ("at-11", ["L2", "L3"])
    assert record_click(engine, "sb") == ("at-9", ["L2", "L3"])
    assert record_click(engine, "sd") == ("at-11", ["L2"])
    assert indexed_transitions(engine) == transition_groups(model.dstg)


def test_an_outcome_recorded_after_its_stale_edge_is_deleted_is_a_new_edge():
    model = two_state_model()
    model.dstg.abstract_states["sb"].observed_in_versions = {"v0"}
    engine = engine_on(model)
    sa = model.dstg.abstract_states["sa"]
    step = PlanStep("i-wd", ActionType.CLICK, "wd", "sb", 1.0)
    engine._online_refine(model.dstg.abstract_states["sb"], sa, step)
    assert "at1" not in model.dstg.abstract_transitions
    # the click does lead to sb after all: nothing is left to conflict with
    assert record_click(engine, "sb") == ("at-1", [])
    assert record_click(engine, "sc") == ("at-2", ["L2"])
    assert indexed_transitions(engine) == transition_groups(model.dstg)


# --- the planning view the session keeps ----------------------------------


def test_the_view_a_plan_reads_equals_one_built_fresh(tmp_path, monkeypatch):
    # at every plan of a full pipeline on each fixture and on the hidden app,
    # which refines and deletes stale edges, the view the engine kept equals
    # one built from the model at that moment
    import uptest.engine

    changed = {}  # view -> the kinds of change its session made so far
    checked_after = set()  # the kinds of change a check of the same view came after
    plans = []
    plan = uptest.engine.plan_to_target

    def checked_plan(model, current_state, target, visited_layouts, config, view):
        assert vars(view) == vars(PlanView(model))
        plans.append(target)
        checked_after.update(changed.get(view, ()))
        return plan(model, current_state, target, visited_layouts, config, view)

    def recording(method, kind, view_of):
        def recorded(owner, *args):
            changed.setdefault(view_of(owner), set()).add(kind)
            return method(owner, *args)
        return recorded

    monkeypatch.setattr(uptest.engine, "plan_to_target", checked_plan)
    monkeypatch.setattr(
        TestEngine, "_add_input", recording(TestEngine._add_input, "input", lambda e: e.view)
    )
    monkeypatch.setattr(
        PlanView, "remove_transition",
        recording(PlanView.remove_transition, "deletion", lambda view: view),
    )
    for app in ("diary", "dialog", "news", "deep", "hidden"):
        spec = load_spec(hidden_spec_doc() if app == "hidden" else fixture_path(app))
        workdir = tmp_path / app
        workdir.mkdir()
        pipeline_run(
            spec, spec.versions[0].version, spec.versions[-1].version,
            budget=300, seed=7, workdir=workdir, config=EngineConfig(),
        )
    assert len(plans) > 40
    # a runtime input was added and a stale edge deleted before some plan
    assert checked_after == {"input", "deletion"}


def test_an_obsolete_state_seen_again_counts_in_the_view_again():
    model = two_state_model()
    model.dstg.abstract_states["sb"].obsolete = True
    engine = engine_on(model)
    # the click's one recorded outcome leads into the obsolete state
    assert ("win", "wd", ActionType.CLICK) not in engine.view.reached
    assert engine.view.presence["other"] == ()
    assert engine._observe(observed_result("other")).id == "sb"
    assert not model.dstg.abstract_states["sb"].obsolete
    assert engine.view.reached[("win", "wd", ActionType.CLICK)] == {"other": 1}
    assert vars(engine.view) == vars(PlanView(model))


# --- matching observations to learned states ------------------------------


def observed_result(window_id="win", *children):
    root = make_node(children=list(children))
    return PerformResult(window_id, WindowKind.ACTIVITY, f"c.{window_id}", root, [])


def test_observation_matches_the_first_equal_state_in_id_order():
    model = two_state_model()
    result = observed_result(
        "win", make_node(widget_ref="wd", clickable=True, resourceId="wd")
    )
    for sid in ("st-9", "st-10"):
        model.dstg.abstract_states[sid] = derive_abstract_state(
            "win", result.root, LEVELS["L1"], sid
        )
    engine = engine_on(model)
    # "st-10" sorts before "st-9" as a string
    assert engine._observe(result).id == "st-10"
    assert engine.created_this_session == set()


def test_observation_after_refinement_matches_only_states_at_the_new_level():
    model = two_state_model()
    # a screen without interactable nodes has the empty multiset at every
    # level, the multiset of the L1 states "sb" and "sc"
    result = observed_result("other")
    engine = engine_on(model)
    assert engine._observe(result).id == "sb"

    engine._refine_window("other")
    refined = engine._observe(result)
    assert refined.id not in ("sb", "sc")
    assert refined.abstraction_level == "L2"
    assert engine.created_this_session == {refined.id}
    # the state created at the new level is the one the next observation matches
    assert engine._observe(result) is refined
    assert engine.created_this_session == {refined.id}


def test_a_session_derives_a_state_only_for_each_new_state(monkeypatch):
    import uptest.engine

    derived = []

    def counting_derive(*args, **kwargs):
        state = derive_abstract_state(*args, **kwargs)
        derived.append(state.id)
        return state

    monkeypatch.setattr(uptest.engine, "derive_abstract_state", counting_derive)
    result, _ = run_diary(budget=60, seed=2)
    # screens that match a known state are looked up by their multiset alone
    assert sorted(derived) == sorted(result.model.dstg.abstract_states)
    assert len(derived) < result.executed_actions


def test_a_reports_trees_name_their_observation_and_its_state():
    result, targets = run_diary(budget=200, seed=2)
    assert result.utas
    # the report's trees name their observation and the state it matched
    report = result.report(targets)
    for uta in report["utas"]:
        for tree in (uta["beforeTree"], uta["afterTree"]):
            assert tree["id"] == f"t{tree['sessionIndex']}"
            assert tree["abstractStateId"] in result.observed_state_ids


@pytest.mark.parametrize("app", ["diary", "dialog", "news", "deep"])
def test_a_sessions_trace_holds_one_step_object_per_transition_and_node(app):
    spec = load_spec(fixture_path(app))
    version = spec.versions[-1].version
    model = AppModel(version=version, ewtg=export_ewtg(spec, version))
    counts = method_instruction_counts(spec, version)
    targets = TargetSet(target_method_ids=set(counts), instruction_counts=counts)
    run_session(model, targets, DriverSession(spec, version, seed=1), budget=300, seed=1)
    trace = model.gstg.trace
    distinct = {(step.transition_id, step.concrete_node_path) for step in trace}
    assert len({id(step) for step in trace}) == len(distinct) < len(trace)


class UtaCountingDriver(RecordingDriver):
    """A ``RecordingDriver`` that notes, before each call, how many unique
    target actions the session has reported; ``utas`` is the engine's list."""

    def __init__(self, driver, reject_every=None):
        super().__init__(driver, reject_every)
        self.utas = []
        self.reported_before = []  # per call, in call order

    def perform(self, action):
        self.reported_before.append(len(self.utas))
        return super().perform(action)


def check_uta_names(spec, version, reject_every) -> int:
    """Run a session and check each UTA's input id; returns how many of
    them exploration named."""
    model = AppModel(version=version, ewtg=export_ewtg(spec, version))
    counts = method_instruction_counts(spec, version)
    targets = TargetSet(target_method_ids=set(counts), instruction_counts=counts)
    driver = UtaCountingDriver(DriverSession(spec, version, seed=1), reject_every)
    engine = TestEngine(model, targets, driver, budget=300, seed=1)
    driver.utas = engine.utas
    engine.run_session()
    explored = 0
    for index, uta in enumerate(engine.utas):
        # an action reports at most one UTA, so UTA ``index`` came from the
        # last call that started with ``index`` UTAs reported
        k = max(k for k, n in enumerate(driver.reported_before, 1) if n == index)
        input_id = uta.action.input_id
        assert input_id is not None
        if input_id.startswith("explore-"):
            assert input_id == f"explore-{k}"
            explored += 1
    return explored


@pytest.mark.parametrize("reject_every", [None, 7])
def test_an_exploration_uta_is_named_after_the_action_that_produced_it(reject_every):
    explored = 0
    for app in ("diary", "dialog", "news", "deep"):
        spec = load_spec(fixture_path(app))
        for version in spec.versions:
            explored += check_uta_names(spec, version.version, reject_every)
    assert explored > 0


def test_no_fixture_report_holds_an_unnamed_action(tmp_path):
    for app in ("diary", "dialog", "news", "deep"):
        spec = load_spec(fixture_path(app))
        workdir = tmp_path / app
        workdir.mkdir()
        artifacts = pipeline_run(
            spec, spec.versions[0].version, spec.versions[-1].version,
            budget=300, seed=1, workdir=workdir, config=EngineConfig(),
        )
        reports = [p for p in artifacts if p.name.startswith("report_")]
        assert len(reports) == len(spec.versions)
        for path in reports:
            for uta in json.loads(path.read_bytes())["utas"]:
                assert isinstance(uta["action"]["inputId"], str)


def test_a_long_session_builds_no_result_or_explore_action_per_step():
    spec = load_spec(fixture_path("deep"))
    version = spec.versions[-1].version
    model = AppModel(version=version, ewtg=export_ewtg(spec, version))
    counts = method_instruction_counts(spec, version)
    targets = TargetSet(target_method_ids=set(counts), instruction_counts=counts)
    inner = DriverSession(spec, version, seed=1)
    results, explored = [], []

    class KeepingDriver:
        """Keeps every result the engine receives and every action it hands over."""

        def reset(self):
            results.append(inner.reset())
            return results[-1]

        def perform(self, action):
            if action.input_id is None and action.action_type is not ActionType.TEXT_FILL:
                explored.append(action)
            results.append(inner.perform(action))
            return results[-1]

    engine = TestEngine(model, targets, KeepingDriver(), budget=1000, seed=1)
    assert engine.run_session().executed_actions == 1000
    # the lists keep every object alive, so distinct objects have distinct ids
    assert len({id(r) for r in results}) == len({(id(r.root), r.executed) for r in results})
    candidates = sum(len(screen.candidates) for screen in engine.observer.screens.values())
    distinct = len({id(a) for a in explored})
    # the screens' candidates and the one press-back on a screen without any
    assert distinct <= candidates + 1
    assert len(explored) > 2 * (candidates + 1)


#: the apps the step table is checked on: the fixtures, an app whose hidden
#: variable refines its windows and whose v2 makes learned edges stale, an
#: app of nested widgets and two generated apps
STEP_TABLE_APPS = {
    **{app: lambda app=app: fixture_path(app) for app in ("diary", "dialog", "news", "deep")},
    "hidden": hidden_spec_doc,
    "nested": nested_spec_doc,
    **{f"gen-{app}": lambda app=app: appgen.generate_app(app, 15, 10)
       for app in (0, 1)},
}


@pytest.mark.parametrize("app", sorted(STEP_TABLE_APPS))
def test_a_known_exploration_step_ends_as_the_step_taken_afresh(app, tmp_path, monkeypatch):
    # each session runs twice: as is, then with the table of known steps
    # emptied before every action, so that every step is worked out afresh;
    # both write the same bytes
    spec = load_spec(STEP_TABLE_APPS[app]())
    perform, observe, refine = (
        TestEngine._perform, TestEngine._observe, TestEngine._refine_window
    )
    counts = {"observed": 0, "known": 0, "refined": 0}

    def counting_observe(self, result):
        counts["observed"] += 1
        return observe(self, result)

    def counting_refine(self, window_id):
        level = self.model.dstg.level_for(window_id)
        refine(self, window_id)
        counts["refined"] += self.model.dstg.level_for(window_id) != level

    def counting_perform(self, *args):
        observed = counts["observed"]
        result = perform(self, *args)
        if result is not None and counts["observed"] == observed:
            counts["known"] += 1
        return result

    def forgetting_perform(self, *args):
        self._explored = {}
        return counting_perform(self, *args)

    monkeypatch.setattr(TestEngine, "_observe", counting_observe)
    monkeypatch.setattr(TestEngine, "_refine_window", counting_refine)

    def outputs(perform_fn, workdir):
        monkeypatch.setattr(TestEngine, "_perform", perform_fn)
        artifacts = []
        for seed in (1, 2, 3):
            seed_dir = workdir / str(seed)
            seed_dir.mkdir(parents=True)
            artifacts += pipeline_run(
                spec, spec.versions[0].version, spec.versions[-1].version,
                budget=300, seed=seed, workdir=seed_dir, config=EngineConfig(),
            )
        return [(p.relative_to(workdir), p.read_bytes()) for p in artifacts]

    with_table = outputs(counting_perform, tmp_path / "table")
    known, refined = counts["known"], counts["refined"]
    assert outputs(forgetting_perform, tmp_path / "afresh") == with_table
    assert counts["known"] == known  # no step was known without the table
    assert known > 0
    if app == "hidden":
        assert refined > 0  # refinements emptied the table too
