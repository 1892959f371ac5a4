"""Model carry-over across versions."""

import copy
import random

import pytest

from uptest.abstraction import (
    LEVELS,
    derive_abstract_state,
    fingerprint_similarity,
    layout_fingerprint,
)
from uptest.adaptation import AdaptationError, adapt_model, update_dstg
from uptest.config import EngineConfig
from uptest.diff import DiffResult, diff_ewtg
from uptest.harness import export_ewtg, load_spec
from uptest.model import (
    AbstractState,
    AbstractTransition,
    ActionType,
    AppModel,
    AttributeValuationMap,
    Dstg,
    Ewtg,
    EwtgWidget,
    Window,
    WindowKind,
    bind_widget,
    validate_integrity,
)
from uptest.planner import plan_to_target

from uptest import fixture_path

from conftest import make_node, make_tree
from random_ewtg import random_ewtg_pair


def avm(rid, widget=None):
    """An AVM bound to ``widget`` with its identity, or to no widget with the
    resource id ``rid``."""
    made = AttributeValuationMap(valuations={"R_RID": rid})
    if widget is not None:
        bind_widget(made, widget)
    return made


def diary_base_model() -> AppModel:
    """Learned model of the diary app's first version: two states, one edge."""
    spec = load_spec(fixture_path("diary"))
    ewtg = export_ewtg(spec, "v0")
    dstg = Dstg(abstraction_policy={"main": "L1"})
    dstg.abstract_states["s1"] = AbstractState(
        id="s1", window_id="main",
        avms=[avm("avm2", ewtg.widgets["w3"])],
        observed_in_versions={"v0"},
    )
    dstg.abstract_states["s2"] = AbstractState(
        id="s2", window_id="edit",
        avms=[avm(f"avm{n}", ewtg.widgets[w]) for n, w in ((4, "w6"), (5, "w7"), (6, "w10"))],
        observed_in_versions={"v0"},
    )
    dstg.abstract_transitions["at1"] = AbstractTransition(
        id="at1", source_state_id="s1", widget_id="w3",
        action_type=ActionType.CLICK, destination_state_id="s2",
    )
    return AppModel(version="v0", ewtg=ewtg, dstg=dstg)


def diary_diff():
    spec = load_spec(fixture_path("diary"))
    return diff_ewtg(export_ewtg(spec, "v0"), export_ewtg(spec, "v1"))


def test_adapt_diary_rebinds_and_prunes():
    base = diary_base_model()
    spec = load_spec(fixture_path("diary"))
    updated_ewtg = export_ewtg(spec, "v1")
    adapted = adapt_model(base, updated_ewtg, diary_diff(), version="v1")

    s1 = adapted.dstg.abstract_states["s1"]
    s2 = adapted.dstg.abstract_states["s2"]
    # the main screen's state now lives in the replacement window
    assert s1.window_id == "home"
    # its add button AVM rebinds to the replacement widget
    assert [a.ewtg_widget_id for a in s1.avms] == ["w8"]
    # the deleted created-time widget loses its AVM
    assert [a.ewtg_widget_id for a in s2.avms] == ["w6", "w10"]
    # the learned edge survives, on the replacement widget
    at1 = adapted.dstg.abstract_transitions["at1"]
    assert at1.source_state_id == "s1" and at1.destination_state_id == "s2"
    assert at1.widget_id == "w8"
    # the added cancel widget has no learned element yet
    for state in adapted.dstg.abstract_states.values():
        assert all(avm.ewtg_widget_id != "w9" for avm in state.avms)
    assert validate_integrity(adapted) == []


def test_adapt_discards_the_session_layer_and_diff_context_is_set():
    base = diary_base_model()
    spec = load_spec(fixture_path("diary"))
    adapted = adapt_model(base, export_ewtg(spec, "v1"), diary_diff(), version="v1")
    assert adapted.version == "v1"
    assert adapted.gstg.trace == []
    assert adapted.diff_context == {"addedWidgets": ["w9"], "replacedWidgets": ["w8"]}


def test_adapt_with_empty_diff_preserves_the_learned_graph():
    base = diary_base_model()
    spec = load_spec(fixture_path("diary"))
    same_ewtg = export_ewtg(spec, "v0")
    adapted = adapt_model(base, same_ewtg, diff_ewtg(base.ewtg, same_ewtg), version="v0")
    assert adapted.dstg == base.dstg


def test_adapt_does_not_mutate_the_base_model():
    base = diary_base_model()
    snapshot = copy.deepcopy(base.to_dict())
    spec = load_spec(fixture_path("diary"))
    adapt_model(base, export_ewtg(spec, "v1"), diary_diff(), version="v1")
    assert base.to_dict() == snapshot


def test_adapted_model_takes_the_updated_window_graph_without_copying_it():
    base = diary_base_model()
    snapshot = copy.deepcopy(base.to_dict())
    updated_ewtg = export_ewtg(load_spec(fixture_path("diary")), "v1")
    adapted = adapt_model(base, updated_ewtg, diary_diff(), version="v1")
    assert adapted.ewtg is updated_ewtg
    assert adapted.dstg is not base.dstg
    assert base.to_dict() == snapshot


def test_deleted_window_drops_states_and_edges():
    base = diary_base_model()
    diff = DiffResult(deleted_windows={"edit"}, matched_windows={"main": "main"})
    updated = update_dstg(copy.deepcopy(base.dstg), diff, base.ewtg, base.ewtg)
    assert "s2" not in updated.abstract_states
    assert updated.abstract_transitions == {}


def test_disconnected_component_is_pruned():
    base = diary_base_model()
    # an island state in the edit window, unreachable from the launcher's states
    base.dstg.abstract_states["s9"] = AbstractState(id="s9", window_id="edit")
    diff = DiffResult(
        matched_windows={"main": "main", "edit": "edit"},
        matched_widgets={w: w for w in ("w3", "w6", "w7", "w10")},
    )
    updated = update_dstg(copy.deepcopy(base.dstg), diff, base.ewtg, base.ewtg)
    assert "s9" not in updated.abstract_states
    assert {"s1", "s2"} <= set(updated.abstract_states)


def test_a_guard_state_stays_with_the_edge_it_guards():
    base = diary_base_model()
    # linked to the launcher's states only as the guard of a kept edge
    base.dstg.abstract_states["g"] = AbstractState(id="g", window_id="edit")
    base.dstg.abstract_transitions["at1"].layout_guard = "g"
    base.dstg.abstract_states["s9"] = AbstractState(id="s9", window_id="edit")
    diff = DiffResult(
        matched_windows={"main": "main", "edit": "edit"},
        matched_widgets={w: w for w in ("w3", "w6", "w7", "w10")},
    )
    updated = update_dstg(copy.deepcopy(base.dstg), diff, base.ewtg, base.ewtg)
    assert set(updated.abstract_states) == {"s1", "s2", "g"}
    assert updated.abstract_transitions["at1"].layout_guard == "g"


def states_linked_to_a_launcher_state(model: AppModel) -> set[str]:
    """States joined to a launcher-window state by transitions in either
    direction, a transition joining its guard's state to its ends."""
    dstg = model.dstg
    linked = {
        s.id for s in dstg.abstract_states.values()
        if s.window_id == model.ewtg.launcher_window_id
    }
    grew = True
    while grew:
        grew = False
        for tr in dstg.abstract_transitions.values():
            ends = {tr.source_state_id, tr.destination_state_id, tr.layout_guard} - {None}
            if ends & linked and not ends <= linked:
                linked |= ends
                grew = True
    return linked


def test_state_reached_only_through_a_runtime_widget_is_pruned():
    base = diary_base_model()
    # a widget the session found at runtime; the diff never compares it
    base.ewtg.widgets["w-rt"] = EwtgWidget(
        id="w-rt", window_id="main", class_name="View", resource_id="rt",
        content_description="", xpath="/rt", runtime_created=True,
    )
    base.dstg.abstract_states["s1"].avms.append(avm("avm-rt", base.ewtg.widgets["w-rt"]))
    # the only way to state x starts at that widget's AVM
    base.dstg.abstract_states["x"] = AbstractState(
        id="x", window_id="edit", avms=[avm("avm-x", base.ewtg.widgets["w6"])],
    )
    base.dstg.abstract_transitions["at-rt"] = AbstractTransition(
        id="at-rt", source_state_id="s1", widget_id="w-rt",
        action_type=ActionType.CLICK, destination_state_id="x",
    )
    assert validate_integrity(base) == []
    spec = load_spec(fixture_path("diary"))
    adapted = adapt_model(base, export_ewtg(spec, "v1"), diary_diff(), version="v1")
    assert "x" not in adapted.dstg.abstract_states
    assert "at-rt" not in adapted.dstg.abstract_transitions
    assert all(a.ewtg_widget_id != "w-rt" for a in adapted.dstg.abstract_states["s1"].avms)
    assert set(adapted.dstg.abstract_states) == states_linked_to_a_launcher_state(adapted)
    assert validate_integrity(adapted) == []


def test_replaced_transition_drops_its_learned_instances():
    base = diary_base_model()
    spec = load_spec(fixture_path("diary"))
    updated_ewtg = export_ewtg(spec, "v1")
    diff = diary_diff()
    # force the recorded v0 transition to be classified as replaced
    assert "wt-i-add-0-edit" in base.ewtg.window_transitions
    diff.matched_transitions.pop("wt-i-add-0-edit", None)
    diff.replaced_transitions["wt-i-add-0-edit"] = "wt-i-add-0-edit"
    adapted = adapt_model(base, updated_ewtg, diff, version="v1")
    assert "at1" not in adapted.dstg.abstract_transitions
    # with its only edge gone, the edit state is disconnected and pruned
    assert "s2" not in adapted.dstg.abstract_states


def test_deleted_transition_drops_its_learned_instances_and_only_those():
    base = diary_base_model()
    # same widget, another action: not an instance of the deleted transition
    base.dstg.abstract_transitions["at2"] = AbstractTransition(
        id="at2", source_state_id="s1", widget_id="w3",
        action_type=ActionType.LONG_CLICK, destination_state_id="s1",
    )
    # back from the edit state, so that it stays linked without at1
    base.dstg.abstract_transitions["at3"] = AbstractTransition(
        id="at3", source_state_id="s2", widget_id="w10",
        action_type=ActionType.CLICK, destination_state_id="s1",
    )
    spec = load_spec(fixture_path("diary"))
    diff = diary_diff()
    # the recorded v0 transition leaves from a replaced window on a replaced widget
    assert diff.replaced_windows == {"main": "home"} and diff.replaced_widgets == {"w3": "w8"}
    diff.matched_transitions.pop("wt-i-add-0-edit")
    diff.deleted_transitions.add("wt-i-add-0-edit")
    adapted = adapt_model(base, export_ewtg(spec, "v1"), diff, version="v1")
    assert set(adapted.dstg.abstract_transitions) == {"at2", "at3"}
    assert set(adapted.dstg.abstract_states) == {"s1", "s2"}
    assert validate_integrity(adapted) == []


def random_learned_graph(ewtg: Ewtg, rng: random.Random) -> Dstg:
    """A learned graph on ``ewtg``: one to three states per window, each with an
    AVM per widget of its window and one bound to none, and transitions that
    mostly instantiate the window graph's inputs."""
    dstg = Dstg()
    for window_id in sorted(ewtg.windows):
        widgets = sorted(w.id for w in ewtg.widgets.values() if w.window_id == window_id)
        for k in range(rng.randint(1, 3)):
            sid = f"{window_id}-s{k}"
            avms = [avm(f"{sid}-{w}", ewtg.widgets[w]) for w in widgets] + [avm(f"{sid}-none")]
            dstg.abstract_states[sid] = AbstractState(id=sid, window_id=window_id, avms=avms)
    states = list(dstg.abstract_states.values())
    inputs = sorted(ewtg.inputs.values(), key=lambda i: i.id)
    for t in range(rng.randint(len(states), 3 * len(states))):
        src = rng.choice(states)
        own = [i for i in inputs if i.window_id == src.window_id]
        if own and rng.random() < 0.7:
            inp = rng.choice(own)
            widget_id, action = inp.widget_id, inp.action_type
        else:
            widget_id = rng.choice([None] + [a.ewtg_widget_id for a in src.avms])
            action = rng.choice(list(ActionType))
        dstg.abstract_transitions[f"at{t}"] = AbstractTransition(
            id=f"at{t}", source_state_id=src.id,
            widget_id=widget_id,
            action_type=action, destination_state_id=rng.choice(states).id,
        )
    return dstg


def test_a_learned_transition_survives_exactly_when_its_ends_avm_and_trigger_do():
    # oracle in the base version's ids: ends and widget survive, and its
    # trigger is not that of a deleted or replaced window transition; a
    # surviving transition names its widget's pair
    doomed_only = renamed = 0
    for seed in range(60):
        base_ewtg, updated_ewtg = random_ewtg_pair(seed)
        base = AppModel(
            version="v0", ewtg=base_ewtg,
            dstg=random_learned_graph(base_ewtg, random.Random(seed)),
        )
        assert validate_integrity(base) == []
        diff = diff_ewtg(base_ewtg, updated_ewtg)
        doomed = set()
        for wt_id in [*diff.deleted_transitions, *diff.replaced_transitions]:
            inp = base_ewtg.inputs[base_ewtg.window_transitions[wt_id].input_id]
            doomed.add((inp.window_id, inp.widget_id, inp.action_type))
        widget_mapping = diff.widget_mapping()
        adapted = adapt_model(base, updated_ewtg, diff, version="v1")
        states = adapted.dstg.abstract_states
        expected = set()
        for tr in base.dstg.abstract_transitions.values():
            src = base.dstg.abstract_states[tr.source_state_id]
            trigger = (src.window_id, tr.widget_id, tr.action_type)
            survives = (
                src.id in states
                and tr.destination_state_id in states
                and (tr.widget_id is None or tr.widget_id in widget_mapping)
            )
            if survives and trigger not in doomed:
                expected.add(tr.id)
                carried = adapted.dstg.abstract_transitions.get(tr.id)
                assert carried is None or carried.widget_id == widget_mapping.get(tr.widget_id)
            elif survives:
                doomed_only += 1
                renamed += (
                    src.window_id in diff.replaced_windows or tr.widget_id in diff.replaced_widgets
                )
        assert set(adapted.dstg.abstract_transitions) == expected, seed
        assert validate_integrity(adapted) == []
    # the trigger alone drops transitions, some of them on renamed elements
    assert doomed_only > 10 and renamed > 0


def test_abstraction_policy_follows_replaced_windows():
    base = diary_base_model()
    base.dstg.abstraction_policy = {"main": "L3", "edit": "L2"}
    spec = load_spec(fixture_path("diary"))
    adapted = adapt_model(base, export_ewtg(spec, "v1"), diary_diff(), version="v1")
    assert adapted.dstg.abstraction_policy == {"home": "L3", "edit": "L2"}


def test_adapt_rejects_diff_with_unknown_windows():
    base = diary_base_model()
    spec = load_spec(fixture_path("diary"))
    updated_ewtg = export_ewtg(spec, "v1")
    bad = DiffResult(replaced_windows={"no-such-window": "home"})
    with pytest.raises(AdaptationError):
        adapt_model(base, updated_ewtg, bad, version="v1")
    bad = DiffResult(replaced_windows={"main": "no-such-window"})
    with pytest.raises(AdaptationError):
        adapt_model(base, updated_ewtg, bad, version="v1")


def test_adapt_rejects_a_diff_that_rebinds_an_avm_to_an_unknown_widget():
    base = diary_base_model()
    updated_ewtg = export_ewtg(load_spec(fixture_path("diary")), "v1")
    bad = diary_diff()
    bad.replaced_widgets["w3"] = "no-such-widget"
    with pytest.raises(AdaptationError, match="unknown updated widget no-such-widget"):
        adapt_model(base, updated_ewtg, bad, version="v1")


def guarded_back_model(resource_id: str, widget_id: str) -> AppModel:
    """A list screen whose one button (``widget_id``, resource id
    ``resource_id``) opens a dialog; back from the dialog reaches home only
    when a layout like the list's has been visited."""
    ewtg = Ewtg(launcher_window_id="home")
    for window_id, kind in (("home", WindowKind.ACTIVITY), ("list", WindowKind.ACTIVITY),
                            ("dlg", WindowKind.DIALOG)):
        ewtg.windows[window_id] = Window(
            id=window_id, name=window_id, kind=kind, class_name=f"c.{window_id}"
        )
    ewtg.widgets[widget_id] = EwtgWidget(
        id=widget_id, window_id="list", class_name="Button", resource_id=resource_id,
        content_description="", xpath="/Button",
    )
    return AppModel(version="v1", ewtg=ewtg)


def list_screen(resource_id: str, widget_id: str):
    button = make_node(widget_ref=widget_id, resourceId=resource_id, className="Button",
                       clickable=True)
    return make_tree("list", make_node(children=[button]))


def test_a_carried_guard_holds_on_its_states_screen_in_the_new_version():
    base = guarded_back_model("old", "w3")
    states = base.dstg.abstract_states
    states["g"] = derive_abstract_state(list_screen("old", "w3"), LEVELS["L1"], state_id="g")
    states["s"] = AbstractState(id="s", window_id="dlg")
    states["d"] = AbstractState(id="d", window_id="home")
    for tid, src, widget, action, dest, guard in (
        ("at1", "g", "w3", ActionType.CLICK, "s", None),
        ("at2", "s", None, ActionType.PRESS_BACK, "d", "g"),
    ):
        base.dstg.abstract_transitions[tid] = AbstractTransition(
            id=tid, source_state_id=src, widget_id=widget, action_type=action,
            destination_state_id=dest, layout_guard=guard,
        )
    assert validate_integrity(base) == []
    v1_layout = layout_fingerprint(states["g"])

    # v2 gives the list's button a new id and resource id
    updated = guarded_back_model("new", "w3b").ewtg
    diff = DiffResult(
        matched_windows={w: w for w in ("home", "list", "dlg")}, replaced_widgets={"w3": "w3b"}
    )
    adapted = adapt_model(base, updated, diff, version="v2")
    assert adapted.dstg.abstract_transitions["at2"].layout_guard == "g"
    v2_layout = layout_fingerprint(derive_abstract_state(list_screen("new", "w3b"), LEVELS["L1"]))
    assert layout_fingerprint(adapted.dstg.abstract_states["g"]) == v2_layout
    # the layout the guard was made with is unlike anything v2 shows
    threshold = EngineConfig().layout_similarity_threshold
    assert fingerprint_similarity(v1_layout, v2_layout) < threshold

    start, home = adapted.dstg.abstract_states["s"], adapted.ewtg.windows["home"]
    assert plan_to_target(adapted, start, home, visited_layouts={}) is None
    # the v2 list screen, seen as the guard's state or as another state
    for visited in ({"g": v2_layout}, {"st-9": v2_layout}):
        seq = plan_to_target(adapted, start, home, visited_layouts=visited)
        assert seq is not None and [s.expected for s in seq.steps] == ["d"]
