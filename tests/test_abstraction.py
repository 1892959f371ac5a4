"""State abstraction: reducers, levels, fingerprints, backward equivalence."""

import random
from collections import Counter

import pytest

from uptest import fixture_path
from uptest.abstraction import (
    LEVELS,
    LEVEL_ORDER,
    NODE_ACTIONS,
    AbstractionError,
    derive_abstract_state,
    fingerprint_similarity,
    guard_holds,
    is_backward_equivalent,
    is_interactable,
    layout_fingerprint,
    make_layout_guard,
    refine_level,
    valuation_multiset,
)
from uptest.harness import DriverRejection, DriverSession, load_spec
from uptest.model import AbstractState, Action, ActionType, AttributeValuationMap

from conftest import make_node, walk


def test_interactable_requires_an_action_property():
    assert not is_interactable(make_node())
    assert is_interactable(make_node(clickable=True))
    assert is_interactable(make_node(longClickable=True))
    assert is_interactable(make_node(scrollable=True))
    assert is_interactable(make_node(isInputField=True))


def test_level_hierarchy_reducer_counts():
    assert LEVEL_ORDER == ("L1", "L2", "L3", "L4", "L5")
    assert len(LEVELS["L1"].own_fields) == 11
    assert len(LEVELS["L2"].own_fields) == 12
    assert len(LEVELS["L3"].own_fields) == 13
    # L4/L5 keep L2's own reducers and add child reducers
    assert LEVELS["L4"].own_fields == LEVELS["L2"].own_fields
    assert LEVELS["L5"].own_fields == LEVELS["L2"].own_fields
    assert len(LEVELS["L4"].child_fields) == 11
    assert len(LEVELS["L5"].child_fields) == 12


def two_buttons_screen(text_b="B"):
    return make_node(
        children=[
            make_node(clickable=True, resourceId="btn", className="Button", text="A",
                      widget_ref="w-a"),
            make_node(clickable=True, resourceId="btn", className="Button", text=text_b,
                      widget_ref="w-b"),
            make_node(resourceId="label", className="TextView"),  # not interactable
        ]
    )


def test_l1_merges_nodes_that_differ_only_in_text():
    state = derive_abstract_state("win", two_buttons_screen(), LEVELS["L1"], "s")
    assert len(state.avms) == 1
    assert state.avms[0].cardinality == 2
    # the representative static widget is the id-sorted first one
    assert state.avms[0].ewtg_widget_id == "w-a"


@pytest.mark.parametrize(
    "refs, lowest",
    [
        (("w-b", "w-a"), "w-a"),  # the walk meets the higher ref first
        ((None, "w-b"), "w-b"),  # an unbound node comes before a bound one
        ((None, None), None),
    ],
)
def test_an_avm_takes_the_lowest_ref_of_its_group(refs, lowest):
    root = make_node(
        children=[
            make_node(clickable=True, resourceId="btn", text=str(i), widget_ref=ref)
            for i, ref in enumerate(refs)
        ]
    )
    state = derive_abstract_state("win", root, LEVELS["L1"], "s")
    assert [(a.cardinality, a.ewtg_widget_id) for a in state.avms] == [(2, lowest)]


def test_l2_splits_on_text():
    state = derive_abstract_state("win", two_buttons_screen(), LEVELS["L2"], "s")
    assert len(state.avms) == 2
    assert sorted(a.ewtg_widget_id for a in state.avms) == ["w-a", "w-b"]


def test_non_interactable_nodes_get_no_avm():
    state = derive_abstract_state("win", two_buttons_screen(), LEVELS["L3"], "s")
    names = {a.valuations["R_CN"] for a in state.avms}
    assert "TextView" not in names


def test_l3_splits_on_has_children():
    childless = make_node(clickable=True, resourceId="box", className="Layout")
    parent = make_node(
        clickable=True, resourceId="box", className="Layout",
        children=[make_node(className="TextView")],
    )
    root = make_node(children=[childless, parent])
    l2 = derive_abstract_state("win", root, LEVELS["L2"], "s")
    l3 = derive_abstract_state("win", root, LEVELS["L3"], "s")
    assert len(l2.avms) == 1
    assert len(l3.avms) == 2


def test_l5_splits_on_child_text_where_l4_does_not():
    def box(child_text):
        return make_node(
            clickable=True, resourceId="box", className="Layout",
            children=[make_node(className="TextView", text=child_text)],
        )

    root_a = make_node(children=[box("one")])
    root_b = make_node(children=[box("two")])
    l4_a = derive_abstract_state("win", root_a, LEVELS["L4"], "a")
    l4_b = derive_abstract_state("win", root_b, LEVELS["L4"], "b")
    assert l4_a.valuation_multiset() == l4_b.valuation_multiset()
    l5_a = derive_abstract_state("win", root_a, LEVELS["L5"], "a")
    l5_b = derive_abstract_state("win", root_b, LEVELS["L5"], "b")
    assert l5_a.valuation_multiset() != l5_b.valuation_multiset()


def walk_screens(app: str, steps: int, seed: int):
    """Every screen of a seeded random walk over each version of a fixture."""
    spec = load_spec(fixture_path(app))
    for version in spec.versions:
        rng = random.Random(f"{seed}:{app}:{version.version}")
        driver = DriverSession(spec, version.version, seed=seed)
        result = driver.reset()
        for _ in range(steps):
            yield result
            actions = [Action("back", ActionType.PRESS_BACK)]
            for path, node in walk(result.root):
                for prop, action_type in NODE_ACTIONS:
                    if node.properties.get(prop):
                        payload = "typed" if action_type == ActionType.TEXT_FILL else None
                        actions.append(Action("walk", action_type, path, payload))
            try:
                result = driver.perform(rng.choice(actions))
            except DriverRejection:
                pass


@pytest.mark.parametrize("app", ["diary", "dialog", "news", "deep"])
def test_valuation_multiset_equals_the_derived_states_multiset(app):
    screens = 0
    for result in walk_screens(app, steps=60, seed=3):
        for name in LEVEL_ORDER:
            level = LEVELS[name]
            derived = derive_abstract_state(result.window_id, result.root, level, "s")
            assert valuation_multiset(result.root, level) == derived.valuation_multiset()
        screens += 1
    assert screens >= 60


def nested_screen(order=(0, 1, 2)):
    """Interactable widgets with children, some of them interactable too."""
    kids = [
        make_node(className="TextView", text="b", checked=True),
        make_node(clickable=True, resourceId="inner", text="a"),
        make_node(className="ImageView", contentDescription="icon"),
    ]
    return make_node(children=[
        make_node(clickable=True, resourceId="row", children=[kids[i] for i in order]),
        make_node(clickable=True, resourceId="row", children=[make_node(text="c")]),
        make_node(clickable=True, resourceId="row", children=[make_node(text="d")]),
        make_node(scrollable=True, resourceId="list", children=[
            make_node(longClickable=True, resourceId="row", children=[make_node(text="c")]),
        ]),
    ])


def test_valuation_multiset_reads_children_from_l4_on():
    root = nested_screen()
    for name in LEVEL_ORDER:
        level = LEVELS[name]
        multiset = valuation_multiset(root, level)
        derived = derive_abstract_state("win", root, level, "s")
        assert multiset == derived.valuation_multiset()
        # the order of a widget's children does not matter
        assert valuation_multiset(nested_screen(order=(2, 0, 1)), level) == multiset
    # the three clickable rows merge at L3, split by child layout at L4 and by
    # child text at L5
    sizes = [len(valuation_multiset(root, LEVELS[name])) for name in ("L3", "L4", "L5")]
    assert sizes == [4, 5, 6]


def test_a_node_missing_a_reducer_property_raises_abstraction_error():
    button = make_node(clickable=True)
    del button.properties["checked"]
    root = make_node(children=[button])
    with pytest.raises(AbstractionError, match="'checked' required by R_Ch"):
        valuation_multiset(root, LEVELS["L1"])
    with pytest.raises(AbstractionError, match="'checked' required by R_Ch"):
        derive_abstract_state("win", root, LEVELS["L1"], "s")
    # a child is read only from L4 on, and then it must carry the property too
    child = make_node()
    del child.properties["text"]
    root = make_node(children=[make_node(clickable=True, children=[child])])
    assert valuation_multiset(root, LEVELS["L4"])
    with pytest.raises(AbstractionError, match="'text' required by R_T"):
        valuation_multiset(root, LEVELS["L5"])
    with pytest.raises(AbstractionError, match="'text' required by R_T"):
        derive_abstract_state("win", root, LEVELS["L5"], "s")


def test_refine_level_finds_the_first_distinguishing_level():
    root_a = two_buttons_screen(text_b="B")
    root_b = two_buttons_screen(text_b="ZZZ")
    assert refine_level("L1", root_a, root_b) == "L2"
    assert refine_level("L1", root_a, root_a) is None
    # already past the distinguishing level: nothing further distinguishes
    assert refine_level("L2", root_a, root_a) is None


def test_layout_fingerprint_projects_finer_levels_onto_l1():
    l1 = derive_abstract_state("win", two_buttons_screen(), LEVELS["L1"], "a")
    l2 = derive_abstract_state("win", two_buttons_screen(), LEVELS["L2"], "b")
    assert layout_fingerprint(l1) == layout_fingerprint(l2)
    assert fingerprint_similarity(layout_fingerprint(l1), layout_fingerprint(l2)) == 1.0


def test_fingerprint_similarity_hand_computed_jaccard():
    # multisets {x:2, y:1} and {x:1, z:1}: intersection 1, union 4
    a = Counter({("x",): 2, ("y",): 1})
    b = Counter({("x",): 1, ("z",): 1})
    assert fingerprint_similarity(a, b) == pytest.approx(0.25)
    assert fingerprint_similarity(Counter(), Counter()) == 1.0
    assert fingerprint_similarity(a, a) == 1.0
    assert fingerprint_similarity(a, Counter()) == 0.0


def test_make_layout_guard_prefers_most_recent_similar_state():
    base = derive_abstract_state("win", two_buttons_screen(), LEVELS["L1"], "dest")
    similar_old = derive_abstract_state("win", two_buttons_screen(), LEVELS["L1"], "old")
    similar_new = derive_abstract_state("win", two_buttons_screen(), LEVELS["L1"], "new")
    unrelated = AbstractState(
        id="far", window_id="win",
        avms=[AttributeValuationMap(valuations={"R_CN": "Spinner"})],
    )
    def in_visit_order(*states):
        return {s.id: layout_fingerprint(s) for s in states}

    # the layouts are in last-visit order, the destination's last
    layouts = in_visit_order(similar_old, similar_new, unrelated, base)
    assert make_layout_guard(base, layouts, 0.8) == "new"
    layouts = in_visit_order(similar_new, similar_old, unrelated, base)
    assert make_layout_guard(base, layouts, 0.8) == "old"
    # the destination's own layout is skipped wherever it stands in the order
    layouts = in_visit_order(similar_old, base, unrelated)
    assert make_layout_guard(base, layouts, 0.8) == "old"
    # failing a similar other state, the destination guards itself
    assert make_layout_guard(base, in_visit_order(unrelated, base), 0.8) == "dest"
    assert make_layout_guard(base, in_visit_order(base), 0.8) == "dest"


def test_a_guard_holds_on_its_state_or_a_layout_like_the_states_current_one():
    state = derive_abstract_state("win", two_buttons_screen(), LEVELS["L1"], "g")
    other = AbstractState(
        id="far", window_id="win", avms=[AttributeValuationMap(valuations={"R_CN": "Spinner"})]
    )
    states = {"g": state, "far": other}
    assert guard_holds(None, {}, states, 0.8)
    # a visited guard state holds without its layout being looked up
    assert guard_holds("g", {"g": Counter()}, {}, 1.0)
    assert not guard_holds("g", {"far": layout_fingerprint(other)}, states, 0.8)
    # another state with the guard state's layout
    assert guard_holds("g", {"twin": layout_fingerprint(state)}, states, 1.0)
    # the guard state's layout as it is now, not when the guard was made
    state.avms = list(other.avms)
    assert guard_holds("g", {"far": layout_fingerprint(other)}, states, 1.0)


def avm(key, widget=None):
    return AttributeValuationMap(valuations={"R_RID": key}, ewtg_widget_id=widget)


def test_backward_equivalence_tolerates_only_added_or_replaced_widgets():
    expected = AbstractState(id="s2", window_id="w", avms=[avm("a", "w-a"), avm("b", "w-b")])
    observed = AbstractState(
        id="s3", window_id="w", avms=[avm("a", "w-a"), avm("b", "w-b"), avm("new", "w-new")]
    )
    assert is_backward_equivalent(observed, expected, {"w-new"})
    # the same extra AVM without the exemption breaks equivalence
    assert not is_backward_equivalent(observed, expected, set())
    assert not is_backward_equivalent(observed, expected, {"w-a", "w-b"})


def test_backward_equivalence_requires_all_expected_avms():
    expected = AbstractState(id="s2", window_id="w", avms=[avm("a"), avm("b")])
    observed = AbstractState(id="s3", window_id="w", avms=[avm("a")])
    assert not is_backward_equivalent(observed, expected, set())


def test_backward_equivalence_requires_same_window():
    expected = AbstractState(id="s2", window_id="w", avms=[avm("a")])
    observed = AbstractState(id="s3", window_id="other", avms=[avm("a")])
    assert not is_backward_equivalent(observed, expected, set())
