"""Planning: cost model, meta states, best-first search."""

import hashlib
import json
import random

import pytest

from uptest.model import (
    AbstractState,
    AbstractTransition,
    ActionType,
    AppModel,
    AttributeValuationMap,
    Dstg,
    Ewtg,
    EwtgWidget,
    Input,
    Window,
    WindowKind,
    WindowTransition,
    validate_integrity,
)
from uptest.abstraction import layout_fingerprint
from uptest.config import EngineConfig
from uptest.planner import (
    ActionSequence,
    MetaState,
    Planner,
    PlanStep,
    PlanView,
    plan_to_target,
)

from planner_oracle import exhaustive_min_cost, random_model, sequence_cost_oracle


def _widget(wid, window_id):
    return EwtgWidget(
        id=wid, window_id=window_id, class_name="Button", resource_id=wid,
        content_description="", xpath=f"/L/{wid}",
    )


def _avm(widget_id):
    return AttributeValuationMap(
        valuations={"R_RID": widget_id, "R_CN": "Button", "R_CD": ""},
        ewtg_widget_id=widget_id,
    )


def route_choice_model() -> AppModel:
    """Two routes to the same target input: a 5-step recorded chain and a
    3-step probabilistic shortcut through two windows with partial widget
    presence (2/3 and 1/2)."""
    ewtg = Ewtg(launcher_window_id="win1")
    for wid in ("win1", "win2", "win3", "winA", "winB", "winC", "winD"):
        ewtg.windows[wid] = Window(
            id=wid, name=wid, kind=WindowKind.ACTIVITY, class_name=f"com.app.{wid}",
        )
    for wid, win in (
        ("w1", "win1"), ("w5", "win1"),
        ("w2", "win2"), ("w4", "win2"),
        ("w3", "win3"), ("w11", "win3"),
        ("w6", "winA"), ("w7", "winB"), ("w8", "winC"),
    ):
        ewtg.widgets[wid] = _widget(wid, win)
    ewtg.inputs["i1"] = Input(
        id="i1", window_id="win1", widget_id="w1", action_type=ActionType.CLICK
    )
    ewtg.inputs["i2"] = Input(
        id="i2", window_id="win2", widget_id="w2", action_type=ActionType.CLICK
    )
    ewtg.inputs["i3"] = Input(
        id="i3", window_id="win3", widget_id="w3", action_type=ActionType.CLICK
    )

    dstg = Dstg()

    def add_state(sid, window_id, widgets):
        state = AbstractState(
            id=sid, window_id=window_id,
            avms=[_avm(w) for w in widgets],
        )
        dstg.abstract_states[sid] = state
        return state

    # current state and the deterministic 5-step chain s9 -> ... -> s6 -> done
    add_state("s9", "win1", ["w1", "w5"])
    add_state("t1", "winA", ["w6"])
    add_state("t2", "winB", ["w7"])
    add_state("t3", "winC", ["w8"])
    add_state("s6", "win3", ["w3"])
    add_state("done", "winD", [])
    # win2: the i1 shortcut's destination; w2 present in 2 of 3 states
    add_state("u1", "win2", ["w2", "w4"])
    add_state("u2", "win2", ["w2"])
    add_state("u3", "win2", ["w4"])
    # win3 has a second state without w3, so w3's presence is 1/2
    add_state("v2", "win3", ["w11"])
    # i1 and i2 were exercised elsewhere (never from s9 itself)
    add_state("s9b", "win1", ["w1"])

    chain = [
        ("a7", "s9", "w5", "t1"),
        ("a8", "t1", "w6", "t2"),
        ("a4", "t2", "w7", "t3"),
        ("a5", "t3", "w8", "s6"),
        ("a6", "s6", "w3", "done"),
        ("ax1", "s9b", "w1", "u1"),
        ("ax2", "u1", "w2", "s6"),
    ]
    for tid, src, widget, dst in chain:
        dstg.abstract_transitions[tid] = AbstractTransition(
            id=tid, source_state_id=src, widget_id=widget,
            action_type=ActionType.CLICK, destination_state_id=dst,
        )
    model = AppModel(version="v1", ewtg=ewtg, dstg=dstg)
    assert validate_integrity(model) == []
    return model


def probabilistic_sequence() -> ActionSequence:
    """The 3-step shortcut with step probabilities 1, 2/3, 1/2."""
    meta2, meta3 = MetaState("win2"), MetaState("win3")
    return ActionSequence(
        steps=[
            PlanStep("i1", ActionType.CLICK, "w1", meta2, 1.0),
            PlanStep("i2", ActionType.CLICK, "w2", meta3, 2 / 3),
            PlanStep("i3", ActionType.CLICK, "w3", meta3, 1 / 2),
        ]
    )


def deterministic_sequence() -> ActionSequence:
    return ActionSequence(
        steps=[
            PlanStep(f"a{i}", ActionType.CLICK, w, s, 1.0)
            for i, w, s in (
                (7, "w5", "t1"), (8, "w6", "t2"), (4, "w7", "t3"),
                (5, "w8", "s6"), (6, "w3", "done"),
            )
        ]
    )


def test_probabilistic_cost_is_three_ninety_nine():
    seq = probabilistic_sequence()
    assert seq.cost_full == 3.0
    assert seq.cost_partial == 1.5
    # 1 - (1 * 2/3 * 1/2) = 0.666..., truncated to two decimals
    assert seq.likelihood_partial == pytest.approx(0.66, abs=1e-12)
    assert seq.cost == pytest.approx(3.99, abs=1e-9)


def test_deterministic_cost_is_plain_action_sum():
    seq = deterministic_sequence()
    assert seq.kind == "deterministic"
    assert seq.likelihood_partial == 0.0
    assert seq.cost == pytest.approx(5.0, abs=1e-9)


def test_plan_selects_the_cheaper_probabilistic_route():
    model = route_choice_model()
    start = model.dstg.abstract_states["s9"]
    target = model.ewtg.inputs["i3"]
    seq = plan_to_target(model, start, target)
    assert seq is not None
    assert [s.input_id for s in seq.steps] == ["i1", "i2", "i3"]
    assert [s.probability for s in seq.steps] == [1.0, pytest.approx(2 / 3), 0.5]
    assert seq.cost == pytest.approx(3.99, abs=1e-9)


def test_plan_probabilities_come_from_widget_presence():
    model = route_choice_model()
    destinations = Planner(model, PlanView(model))._destinations_for_input(model.ewtg.inputs["i1"])
    assert [meta.window_id for _, meta in destinations] == ["win2"]
    (_, window_id, presence), _ = destinations[0]
    assert window_id == "win2"
    assert dict(presence) == {"w2": pytest.approx(2 / 3), "w4": pytest.approx(2 / 3)}


def test_obsolete_states_leave_the_presence_ratio():
    model = route_choice_model()
    model.dstg.abstract_states["u3"].obsolete = True
    [((_, window_id, presence), meta)] = Planner(model, PlanView(model))._destinations_for_input(
        model.ewtg.inputs["i1"]
    )
    assert window_id == meta.window_id == "win2"
    assert dict(presence)["w2"] == pytest.approx(1.0)


def test_plan_to_state_and_window_targets():
    model = route_choice_model()
    start = model.dstg.abstract_states["s9"]
    seq = plan_to_target(model, start, model.dstg.abstract_states["s6"])
    assert seq is not None
    assert seq.steps[-1].expected == "s6"
    seq = plan_to_target(model, start, model.ewtg.windows["winC"])
    assert seq is not None
    assert [s.input_id for s in seq.steps[:3]] == [
        "runtime:win1:w5:Click", "runtime:winA:w6:Click", "runtime:winB:w7:Click",
    ]


def test_plan_to_obsolete_state_is_refused():
    model = route_choice_model()
    model.dstg.abstract_states["s6"].obsolete = True
    start = model.dstg.abstract_states["s9"]
    assert plan_to_target(model, start, model.dstg.abstract_states["s6"]) is None


def test_plan_starts_from_an_obsolete_state():
    # the view maps every state's widgets to AVMs, so an obsolete start's
    # unexercised inputs are offered as for a live one
    model = route_choice_model()
    start = model.dstg.abstract_states["s9"]
    start.obsolete = True
    seq = plan_to_target(model, start, model.ewtg.inputs["i3"])
    assert [s.input_id for s in seq.steps] == ["i1", "i2", "i3"]


def test_plan_from_goal_is_empty():
    model = route_choice_model()
    start = model.dstg.abstract_states["s9"]
    seq = plan_to_target(model, start, model.ewtg.windows["win1"])
    assert seq is not None and seq.steps == []


def test_plan_avoids_obsolete_destinations():
    model = route_choice_model()
    # kill the whole probabilistic route: without u1 the shortcut keeps its
    # meta probability but losing u1's w2 drops presence to 1/2; instead make
    # every win2 state obsolete so i1 leads nowhere usable
    for sid in ("u1", "u2", "u3"):
        model.dstg.abstract_states[sid].obsolete = True
    start = model.dstg.abstract_states["s9"]
    seq = plan_to_target(model, start, model.ewtg.inputs["i3"])
    assert seq is not None
    assert [s.input_id for s in seq.steps][-1] == "i3"
    assert seq.cost == pytest.approx(5.0, abs=1e-9)


def test_layout_guarded_edges_require_a_similar_visited_layout():
    model = route_choice_model()
    guard_fp = layout_fingerprint(model.dstg.abstract_states["t1"])
    model.dstg.abstract_transitions["a7"].layout_guard = "t1"
    start = model.dstg.abstract_states["s9"]
    target = model.ewtg.windows["winC"]
    # without a compatible visited layout, the guarded chain is unusable
    assert plan_to_target(model, start, target, visited_layouts={}) is None
    # the guard state itself, or another state with its layout, was visited
    for visited in ({"t1": guard_fp}, {"twin": guard_fp}):
        seq = plan_to_target(model, start, target, visited_layouts=visited)
        assert seq is not None
        assert seq.steps[0].expected == "t1"  # through the guarded a7


def test_reset_app_costs_ten_and_is_start_only():
    ewtg = Ewtg(launcher_window_id="home")
    for wid in ("dead", "home"):
        ewtg.windows[wid] = Window(
            id=wid, name=wid, kind=WindowKind.ACTIVITY, class_name=f"com.app.{wid}",
        )
    ewtg.inputs["i-reset"] = Input(
        id="i-reset", window_id="dead", action_type=ActionType.RESET_APP
    )
    ewtg.window_transitions["wt-reset"] = WindowTransition(
        id="wt-reset", destination_window_id="home", input_id="i-reset",
    )
    dstg = Dstg(abstract_states={"sd": AbstractState(id="sd", window_id="dead")})
    model = AppModel(version="v1", ewtg=ewtg, dstg=dstg)
    seq = plan_to_target(model, dstg.abstract_states["sd"], ewtg.windows["home"])
    assert seq is not None
    assert [s.action_type for s in seq.steps] == [ActionType.RESET_APP]
    assert seq.cost_full == 10.0


def test_plans_are_acyclic_except_for_the_goal_step():
    model = route_choice_model()
    # a recorded self-loop on the target input must still be plannable
    dstg = model.dstg
    dstg.abstract_transitions["a6"].destination_state_id = "s6"
    start = model.dstg.abstract_states["s9"]
    seq = plan_to_target(model, start, model.ewtg.inputs["i3"])
    assert seq is not None
    non_goal = seq.steps[:-1]
    keys = [
        ("meta", s.expected.window_id) if s.is_meta else ("state", s.expected)
        for s in non_goal
    ]
    assert len(keys) == len(set(keys))


def test_plan_respects_the_length_bound():
    model = route_choice_model()
    start = model.dstg.abstract_states["s9"]
    target = model.dstg.abstract_states["s6"]
    assert plan_to_target(model, start, target, config=EngineConfig(max_plan_length=2)) is None
    seq = plan_to_target(model, start, target, config=EngineConfig(max_plan_length=4))
    assert seq is not None and len(seq.steps) <= 4


def test_meta_machinery_is_episode_local():
    model = route_choice_model()
    snapshot = model.to_dict()
    start = model.dstg.abstract_states["s9"]
    plan_to_target(model, start, model.ewtg.inputs["i3"])
    assert model.to_dict() == snapshot


def test_plan_cost_matches_exhaustive_enumeration_on_random_models():
    rng = random.Random(2024)
    for _ in range(25):
        model, start, target = random_model(rng)
        seq = plan_to_target(model, start, target)
        oracle = exhaustive_min_cost(model, start, target)
        if seq is None:
            assert oracle is None
        else:
            assert oracle is not None
            assert seq.cost == pytest.approx(oracle, abs=1e-9)
            assert sequence_cost_oracle(seq.steps) == pytest.approx(
                seq.cost, abs=1e-9
            )


def _decorate(model, rng):
    """Layout guards and payloads on some recorded transitions, plus the
    layouts of some states as the visited ones, so plans cover guard checks."""
    states = sorted(model.dstg.abstract_states.values(), key=lambda s: s.id)
    for tid in sorted(model.dstg.abstract_transitions):
        tr = model.dstg.abstract_transitions[tid]
        if rng.random() < 0.3:
            tr.layout_guard = rng.choice(states).id
        if rng.random() < 0.2:
            tr.data_payload = rng.choice(("hello", "42", ""))
    return {s.id: layout_fingerprint(s) for s in states if rng.random() < 0.5}


def _plan_record(seq):
    if seq is None:
        return None
    steps = []
    for s in seq.steps:
        if isinstance(s.expected, MetaState):
            expected = {"window": s.expected.window_id}
        else:
            expected = s.expected
        steps.append({
            "input": s.input_id, "action": s.action_type.value, "widget": s.widget_id,
            "expected": expected, "p": s.probability, "payload": s.data_payload,
        })
    return {"steps": steps, "cost": seq.cost}


def _guarded_steps(model, start, seq) -> int:
    """How many steps of ``seq`` take a recorded transition that only a layout
    guard lets the planner take: every transition with the step's source,
    widget, action and destination has a guard."""
    guarded: dict[tuple, bool] = {}
    for tr in model.dstg.abstract_transitions.values():
        key = (tr.source_state_id, tr.widget_id, tr.action_type, tr.destination_state_id)
        guarded[key] = guarded.get(key, True) and tr.layout_guard is not None
    count, source = 0, start.id
    for s in seq.steps:
        count += guarded.get((source, s.widget_id, s.action_type, s.expected), False)
        source = s.expected
    return count


#: sha256 of every plan (each step's input, action, widget, expected state or
#: meta window, probability and payload, plus the cost) on 400 seeded random
#: models, frozen from the planner that scanned the model for every edge it
#: considered, and again when the steps' guards were left out: a plan step
#: no longer carries the guard of the transition it takes; a meta step's
#: presence shows in its successors' probabilities.
RANDOM_PLANS_DIGEST = "061bae71489258d4aa289875972d7034ab11fee52c4e1f45e5bb087ad376bc5b"


TARGET_KINDS = {AbstractState: "state", Window: "window", Input: "input"}


def test_plans_on_random_models_are_unchanged():
    digest = hashlib.sha256()
    seen = {"state": 0, "window": 0, "input": 0, "none": 0, "meta": 0, "guard": 0, "payload": 0}
    for seed in range(400):
        rng = random.Random(seed)
        model, start, target = random_model(rng)
        layouts = _decorate(model, rng)
        seq = plan_to_target(model, start, target, visited_layouts=layouts)
        record = _plan_record(seq)
        digest.update(json.dumps(record, sort_keys=True).encode("utf-8"))
        seen[TARGET_KINDS[type(target)]] += 1
        if record is None:
            seen["none"] += 1
            continue
        seen["guard"] += _guarded_steps(model, start, seq)
        for step in record["steps"]:
            seen["meta"] += isinstance(step["expected"], dict)
            seen["payload"] += step["payload"] is not None
    # every target kind, missing plans, meta steps, guards and payloads occur
    assert all(seen.values()), seen
    assert digest.hexdigest() == RANDOM_PLANS_DIGEST


def test_no_plan_on_random_models_visits_a_node_twice():
    # the search prunes by label alone; a walk back to a node must still
    # never be returned, save a final step on the target input
    walked = 0
    for seed in range(400):
        rng = random.Random(seed)
        model, start, target = random_model(rng)
        layouts = _decorate(model, rng)
        planner = Planner(model, PlanView(model), layouts, EngineConfig())
        seq = planner.plan(start, target)
        if seq is None or not seq.steps:
            continue
        walked += 1
        steps = seq.steps
        if isinstance(target, Input) and steps[-1].input_id == target.id:
            steps = steps[:-1]
        key = ("state", start.id)
        keys = [key]
        for i, step in enumerate(steps):
            # the step is the very object its edge holds
            (key,) = [d for d, s in planner._edges_of[key, i == 0] if s is step]
            keys.append(key)
        assert len(keys) == len(set(keys)), (seed, keys)
    assert walked > 100


def test_precheck_stops_exactly_the_plans_the_search_cannot_find(monkeypatch):
    # with and without the breadth-first pre-check the planner returns the
    # same plans, and the pre-check answers "unreachable" for every target
    # the search alone would give up on, and for no other
    precheck = Planner._goal_reachable
    answers = []

    def spying(self, *args):
        answers.append(precheck(self, *args))
        return answers[-1]

    stopped = 0
    for seed in range(400):
        rng = random.Random(seed)
        model, start, target = random_model(rng)
        layouts = _decorate(model, rng)
        answers.clear()
        monkeypatch.setattr(Planner, "_goal_reachable", spying)
        checked = plan_to_target(model, start, target, visited_layouts=layouts)
        monkeypatch.setattr(Planner, "_goal_reachable", lambda self, *args: True)
        searched = plan_to_target(model, start, target, visited_layouts=layouts)
        assert _plan_record(checked) == _plan_record(searched), seed
        if answers:  # the start was not the goal and the target not obsolete
            assert answers == [searched is not None], seed
            stopped += searched is None
    assert stopped
