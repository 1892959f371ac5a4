"""Offline refinement: pruning, replay flagging, obsolescence propagation."""

import pytest

from uptest.abstraction import LEVELS, derive_abstract_state
from uptest.harness import DriverRejection
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
)
from uptest.refinement import (
    propagate_obsolescence,
    prune_unvisited,
    replay_flag_obsolete,
)

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
                id="at1", source_state_id="s1", source_avm_id=None,
                action_type=ActionType.PRESS_BACK, destination_state_id="s2",
            ),
        },
    )
    model = AppModel(version="v1", ewtg=ewtg, dstg=dstg)
    prune_unvisited(model, {"s1"})
    assert set(model.dstg.abstract_states) == {"s1", "s3"}
    assert model.dstg.abstract_transitions == {}  # the dangling edge went too


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


def replay_model(after_roots):
    """One-window model whose trace expects the given screens in order."""
    ewtg = Ewtg(windows={"wa": window("wa")}, launcher_window_id="wa")
    dstg = Dstg()
    model = AppModel(version="v1", ewtg=ewtg, dstg=dstg)
    for i, root in enumerate(after_roots, start=1):
        tree = make_tree("wa", root, tree_id=f"t{i}")
        state = derive_abstract_state(tree, LEVELS["L1"], state_id=f"s{i}")
        dstg.abstract_states[state.id] = state
        if i > 1:  # the first screen is where the trace starts
            dstg.abstract_transitions[f"at{i}"] = AbstractTransition(
                id=f"at{i}", source_state_id=f"s{i - 1}", source_avm_id=None,
                action_type=ActionType.CLICK, destination_state_id=state.id,
            )
            model.gstg.trace.append(TraceStep(f"at{i}", concrete_node_path=()))
    return model


def screen(resource_id):
    return make_node(children=[make_node(clickable=True, resourceId=resource_id)])


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
