"""Offline refinement: pruning, replay flagging, obsolescence propagation."""

import pytest

import uptest.cli
from uptest import fixture_path
from uptest.adaptation import adapt_model
from uptest.abstraction import LEVELS, derive_abstract_state
from uptest.cli import pipeline_run
from uptest.config import EngineConfig
from uptest.engine import propagate_obsolescence
from uptest.harness import DriverRejection, DriverSession, load_spec
from uptest.model import (
    AbstractState,
    AbstractTransition,
    ActionType,
    AppModel,
    Dstg,
    Ewtg,
    TraceStep,
    Window,
    WindowKind,
    deserialize_model,
    validate_integrity,
)
from uptest.refinement import prune_unvisited, replay_flag_obsolete

from conftest import make_node, make_tree


def window(wid):
    return Window(id=wid, name=wid, kind=WindowKind.ACTIVITY, class_name=f"c.{wid}")


def test_prune_unvisited_only_touches_visited_windows():
    ewtg = Ewtg(windows={w: window(w) for w in ("wa", "wb")}, launcher_window_id="wa")
    dstg = Dstg(
        abstract_states={
            "s1": AbstractState(id="s1", window_id="wa"),
            "s2": AbstractState(id="s2", window_id="wa"),  # same window, unobserved
            "s3": AbstractState(id="s3", window_id="wb"),  # unvisited window
        },
        abstract_transitions={
            "at1": AbstractTransition(
                id="at1", source_state_id="s1", widget_id=None,
                action_type=ActionType.PRESS_BACK, destination_state_id="s2",
            ),
        },
    )
    model = AppModel(version="v1", ewtg=ewtg, dstg=dstg)
    prune_unvisited(model, {"s1"})
    assert set(model.dstg.abstract_states) == {"s1", "s3"}
    assert model.dstg.abstract_transitions == {}  # the dangling edge went too


def test_prune_unvisited_keeps_the_guard_state_of_a_kept_transition():
    ewtg = Ewtg(windows={"wa": window("wa")}, launcher_window_id="wa")
    dstg = Dstg(abstract_states={s: AbstractState(id=s, window_id="wa") for s in "abghx"})
    for tid, src, dest, guard in (
        ("at1", "a", "b", "g"),  # both ends observed: g stays
        ("at2", "g", "a", "h"),  # g stays, so h stays too
        ("at3", "a", "x", "b"),  # x is unobserved: the edge goes with it
    ):
        dstg.abstract_transitions[tid] = AbstractTransition(
            id=tid, source_state_id=src, widget_id=None, action_type=ActionType.PRESS_BACK,
            destination_state_id=dest, layout_guard=guard,
        )
    model = AppModel(version="v1", ewtg=ewtg, dstg=dstg)
    prune_unvisited(model, {"a", "b"})
    assert set(model.dstg.abstract_states) == {"a", "b", "g", "h"}
    assert set(model.dstg.abstract_transitions) == {"at1", "at2"}


def test_a_retaken_carried_transition_keeps_its_unseen_guard_state(tmp_path, monkeypatch):
    # the session records a carried transition it takes again whatever its
    # guard, so the trace may name a transition whose guard state the new
    # version never shows in a window the session visits
    spec = load_spec(fixture_path("deep"))
    first = spec.versions[0].version

    def adapt_with_unseen_guard(base, updated, diff, version):
        window_id = base.ewtg.launcher_window_id
        unseen = derive_abstract_state(
            make_tree(window_id, screen("unseen")), LEVELS["L1"], state_id="st-unseen"
        )
        unseen.observed_in_versions.add(base.version)
        base.dstg.abstract_states[unseen.id] = unseen
        for tr in base.dstg.abstract_transitions.values():
            tr.layout_guard = unseen.id
        return adapt_model(base, updated, diff, version=version)

    monkeypatch.setattr(uptest.cli, "adapt_model", adapt_with_unseen_guard)
    pipeline_run(
        spec, first, spec.versions[-1].version,
        budget=300, seed=1, workdir=tmp_path, config=EngineConfig(),
    )
    model = deserialize_model((tmp_path / f"model_{spec.versions[-1].version}.json").read_bytes())
    dstg = model.dstg
    retaken = {
        step.transition_id for step in model.gstg.trace
        if dstg.abstract_transitions[step.transition_id].layout_guard == "st-unseen"
    }
    assert retaken  # the session took a guarded carried transition
    assert dstg.abstract_states["st-unseen"].observed_in_versions == {first}
    assert validate_integrity(model) == []


class ScriptedDriver:
    """Replays canned results; raises whatever the script says."""

    def __init__(self, results):
        self.results = list(results)

    def reset(self):
        return self.results[0]

    def perform(self, action):
        result = self.results.pop(1)
        if isinstance(result, Exception):
            raise result
        return result


class FakeResult:
    def __init__(self, window_id, root):
        self.window_id = window_id
        self.root = root


def replay_model(after_roots, level="L1"):
    """One-window model whose trace expects the given screens, abstracted at
    ``level``, in order."""
    ewtg = Ewtg(windows={"wa": window("wa")}, launcher_window_id="wa")
    dstg = Dstg()
    model = AppModel(version="v1", ewtg=ewtg, dstg=dstg)
    for i, root in enumerate(after_roots, start=1):
        tree = make_tree("wa", root, tree_id=f"t{i}")
        state = derive_abstract_state(tree, LEVELS[level], state_id=f"s{i}")
        dstg.abstract_states[state.id] = state
        if i > 1:  # the first screen is where the trace starts
            dstg.abstract_transitions[f"at{i}"] = AbstractTransition(
                id=f"at{i}", source_state_id=f"s{i - 1}", widget_id=None,
                action_type=ActionType.CLICK, destination_state_id=state.id,
            )
            model.gstg.trace.append(TraceStep(f"at{i}", concrete_node_path=()))
    return model


def screen(resource_id, children=(), **props):
    """A screen with one clickable node."""
    return make_node(
        children=[make_node(children=children, clickable=True, resourceId=resource_id, **props)]
    )


def test_replay_flags_states_that_no_longer_reproduce():
    model = replay_model([screen("a"), screen("b"), screen("c")])
    driver = ScriptedDriver(
        [
            FakeResult("wa", screen("a")),
            FakeResult("wa", screen("b")),       # matches s2
            FakeResult("wa", screen("CHANGED")),  # fails to reproduce s3
        ]
    )
    replay_flag_obsolete(model, driver)
    assert not model.dstg.abstract_states["s2"].obsolete
    assert model.dstg.abstract_states["s3"].obsolete


def test_replay_continues_after_driver_rejection():
    model = replay_model([screen("a"), screen("b"), screen("c")])
    driver = ScriptedDriver(
        [
            FakeResult("wa", screen("a")),
            DriverRejection("gone"),             # s2 cannot be reproduced
            FakeResult("wa", screen("c")),       # but replay continues to s3
        ]
    )
    replay_flag_obsolete(model, driver)
    assert model.dstg.abstract_states["s2"].obsolete
    assert not model.dstg.abstract_states["s3"].obsolete


def test_replay_warns_and_stops_on_hard_driver_failure():
    model = replay_model([screen("a"), screen("b"), screen("c")])
    driver = ScriptedDriver(
        [
            FakeResult("wa", screen("a")),
            FakeResult("wa", screen("CHANGED")),  # flags s2 on the first step
            RuntimeError("device lost"),          # then the driver dies
        ]
    )
    with pytest.warns(UserWarning, match="replay aborted"):
        replay_flag_obsolete(model, driver)
    assert model.dstg.abstract_states["s2"].obsolete
    assert not model.dstg.abstract_states["s3"].obsolete


def test_replay_performs_each_steps_transition_on_its_node():
    model = replay_model([screen("a"), screen("b")])
    tr = model.dstg.abstract_transitions["at2"]
    tr.action_type, tr.data_payload = ActionType.TEXT_FILL, "hello"
    model.gstg.trace = [TraceStep("at2", (0,)), TraceStep("at2", (0,)), TraceStep("at2", ())]
    performed = []

    class RecordingDriver(ScriptedDriver):
        def perform(self, action):
            performed.append(action)
            return super().perform(action)

    driver = RecordingDriver([FakeResult("wa", screen(rid)) for rid in "abbb"])
    replay_flag_obsolete(model, driver)
    assert [(a.action_type, a.concrete_node_path, a.data_payload) for a in performed] == [
        (ActionType.TEXT_FILL, (0,), "hello"),
        (ActionType.TEXT_FILL, (0,), "hello"),
        (ActionType.TEXT_FILL, (), "hello"),
    ]
    # one action per distinct (transition, node path)
    assert performed[0] is performed[1] and performed[2] is not performed[0]
    assert not model.dstg.abstract_states["s2"].obsolete


@pytest.mark.parametrize(
    "level, replayed, flagged",
    [
        ("L1", screen("b", text="new"), False),  # L1 does not read text
        ("L2", screen("b", text="old"), False),
        ("L2", screen("b", text="new"), True),
        ("L4", screen("b", children=[make_node(className="TextView")]), False),
        ("L4", screen("b", children=[make_node(className="ImageView")]), True),
    ],
)
def test_replay_compares_at_the_expected_states_own_level(level, replayed, flagged):
    recorded = {
        "L1": screen("b", text="old"),
        "L2": screen("b", text="old"),
        "L4": screen("b", children=[make_node(className="TextView")]),
    }[level]
    model = replay_model([screen("a"), recorded], level=level)
    replay_flag_obsolete(model, ScriptedDriver([FakeResult("wa", screen("a")), FakeResult("wa", replayed)]))
    assert model.dstg.abstract_states["s2"].obsolete == flagged


@pytest.mark.parametrize("app", ["diary", "dialog", "news", "deep"])
def test_replay_on_the_sessions_own_driver_seed_flags_nothing_the_trace_reaches(
    app, tmp_path, monkeypatch
):
    # the session and the replay must read every screen alike: replaying a
    # session's trace on a driver with the session's own seed shows the
    # screens the session saw, so no state the trace reaches may be flagged
    spec = load_spec(fixture_path(app))
    newly_flagged = {}

    def own_seed_replay(model, driver):
        states = model.dstg.abstract_states
        reached = {
            model.dstg.abstract_transitions[step.transition_id].destination_state_id
            for step in model.gstg.trace
        }
        flagged_before = {sid for sid in reached if states[sid].obsolete}
        replay_flag_obsolete(model, DriverSession(spec, model.version, seed=seed))
        newly_flagged[seed, model.version] = {
            sid for sid in reached if states[sid].obsolete
        } - flagged_before
        return model

    monkeypatch.setattr(uptest.cli, "replay_flag_obsolete", own_seed_replay)
    for seed in (1, 2, 3):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        pipeline_run(
            spec, spec.versions[0].version, spec.versions[-1].version,
            budget=300, seed=seed, workdir=workdir, config=EngineConfig(),
        )
    assert len(newly_flagged) == 3 * len(spec.versions)
    assert all(not flagged for flagged in newly_flagged.values()), newly_flagged


def test_replay_without_trace_is_a_no_op():
    model = replay_model([screen("a")])

    class Untouchable:
        def reset(self):
            raise AssertionError("no trace, no replay")

    replay_flag_obsolete(model, Untouchable())


def test_propagate_obsolescence_needs_failures_and_no_successes():
    ewtg = Ewtg(windows={w: window(w) for w in ("wa", "wb")}, launcher_window_id="wa")
    dstg = Dstg(
        abstract_states={
            "s1": AbstractState(id="s1", window_id="wa"),
            "s2": AbstractState(id="s2", window_id="wa"),
            "s3": AbstractState(id="s3", window_id="wb"),
        }
    )
    model = AppModel(version="v1", ewtg=ewtg, dstg=dstg)
    propagate_obsolescence(
        model, created={"s1", "s2", "s3"}, missed={"s1", "s2", "s3"}, reached={"s2"}
    )
    assert model.dstg.abstract_states["s1"].obsolete
    assert not model.dstg.abstract_states["s2"].obsolete  # a success clears it
    assert model.dstg.abstract_states["s3"].obsolete


def test_propagate_obsolescence_respects_the_window_scope():
    ewtg = Ewtg(windows={w: window(w) for w in ("wa", "wb")}, launcher_window_id="wa")
    dstg = Dstg(
        abstract_states={
            "s1": AbstractState(id="s1", window_id="wa"),
            "s3": AbstractState(id="s3", window_id="wb"),
        }
    )
    model = AppModel(version="v1", ewtg=ewtg, dstg=dstg)
    propagate_obsolescence(
        model, created={"s1", "s3"}, missed={"s1", "s3"}, reached=set(),
        scope_window_ids={"wb"},
    )
    assert not model.dstg.abstract_states["s1"].obsolete
    assert model.dstg.abstract_states["s3"].obsolete
