"""State abstraction: reducers, levels, fingerprints, backward equivalence."""

from collections import Counter

import pytest

from uptest.abstraction import (
    LEVELS,
    LEVEL_ORDER,
    BackwardEquivalenceContext,
    derive_abstract_state,
    fingerprint_from_dict,
    fingerprint_similarity,
    fingerprint_to_dict,
    is_backward_equivalent,
    is_interactable,
    layout_fingerprint,
    make_layout_guard,
    refine_level,
)
from uptest.model import AbstractState, AttributeValuationMap

from conftest import make_node, make_tree


def test_interactable_requires_an_action_property():
    assert not is_interactable(make_node())
    assert is_interactable(make_node(clickable=True))
    assert is_interactable(make_node(longClickable=True))
    assert is_interactable(make_node(scrollable=True))
    assert is_interactable(make_node(isInputField=True))


def test_level_hierarchy_reducer_counts():
    assert LEVEL_ORDER == ("L1", "L2", "L3", "L4", "L5")
    assert len(LEVELS["L1"].own_reducers) == 11
    assert len(LEVELS["L2"].own_reducers) == 12
    assert len(LEVELS["L3"].own_reducers) == 13
    # L4/L5 keep L2's own reducers and add child reducers
    assert LEVELS["L4"].own_reducers == LEVELS["L2"].own_reducers
    assert LEVELS["L5"].own_reducers == LEVELS["L2"].own_reducers
    assert len(LEVELS["L4"].child_reducers) == 11
    assert len(LEVELS["L5"].child_reducers) == 12


def two_buttons_tree(text_b="B"):
    root = make_node(
        children=[
            make_node(clickable=True, resourceId="btn", className="Button", text="A",
                      widget_ref="w-a"),
            make_node(clickable=True, resourceId="btn", className="Button", text=text_b,
                      widget_ref="w-b"),
            make_node(resourceId="label", className="TextView"),  # not interactable
        ]
    )
    return make_tree("win", root)


def test_l1_merges_nodes_that_differ_only_in_text():
    state = derive_abstract_state(two_buttons_tree(), LEVELS["L1"], state_id="s")
    assert len(state.avms) == 1
    assert state.avms[0].cardinality == 2
    # the representative static widget is the id-sorted first one
    assert state.avms[0].ewtg_widget_id == "w-a"


def test_l2_splits_on_text():
    state = derive_abstract_state(two_buttons_tree(), LEVELS["L2"], state_id="s")
    assert len(state.avms) == 2
    assert sorted(a.ewtg_widget_id for a in state.avms) == ["w-a", "w-b"]


def test_non_interactable_nodes_get_no_avm():
    state = derive_abstract_state(two_buttons_tree(), LEVELS["L3"], state_id="s")
    names = {a.valuations["R_CN"] for a in state.avms}
    assert "TextView" not in names


def test_l3_splits_on_has_children():
    childless = make_node(clickable=True, resourceId="box", className="Layout")
    parent = make_node(
        clickable=True, resourceId="box", className="Layout",
        children=[make_node(className="TextView")],
    )
    tree = make_tree("win", make_node(children=[childless, parent]))
    l2 = derive_abstract_state(tree, LEVELS["L2"], state_id="s")
    l3 = derive_abstract_state(tree, LEVELS["L3"], state_id="s")
    assert len(l2.avms) == 1
    assert len(l3.avms) == 2


def test_l5_splits_on_child_text_where_l4_does_not():
    def box(child_text):
        return make_node(
            clickable=True, resourceId="box", className="Layout",
            children=[make_node(className="TextView", text=child_text)],
        )

    tree_a = make_tree("win", make_node(children=[box("one")]))
    tree_b = make_tree("win", make_node(children=[box("two")]))
    l4_a = derive_abstract_state(tree_a, LEVELS["L4"], state_id="a")
    l4_b = derive_abstract_state(tree_b, LEVELS["L4"], state_id="b")
    assert l4_a.valuation_multiset() == l4_b.valuation_multiset()
    l5_a = derive_abstract_state(tree_a, LEVELS["L5"], state_id="a")
    l5_b = derive_abstract_state(tree_b, LEVELS["L5"], state_id="b")
    assert l5_a.valuation_multiset() != l5_b.valuation_multiset()


def test_refine_level_finds_the_first_distinguishing_level():
    tree_a = two_buttons_tree(text_b="B")
    tree_b = two_buttons_tree(text_b="ZZZ")
    assert refine_level("L1", tree_a, tree_b) == "L2"
    assert refine_level("L1", tree_a, tree_a) is None
    # already past the distinguishing level: nothing further distinguishes
    assert refine_level("L2", tree_a, tree_a) is None


def test_layout_fingerprint_projects_finer_levels_onto_l1():
    l1 = derive_abstract_state(two_buttons_tree(), LEVELS["L1"], state_id="a")
    l2 = derive_abstract_state(two_buttons_tree(), LEVELS["L2"], state_id="b")
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


def test_fingerprint_serialization_round_trip():
    state = derive_abstract_state(two_buttons_tree(), LEVELS["L2"], state_id="s")
    fp = layout_fingerprint(state)
    assert fingerprint_from_dict(fingerprint_to_dict(fp)) == fp


def test_make_layout_guard_prefers_most_recent_similar_state():
    base = derive_abstract_state(two_buttons_tree(), LEVELS["L1"], state_id="dest")
    similar_old = derive_abstract_state(two_buttons_tree(), LEVELS["L1"], state_id="old")
    similar_new = derive_abstract_state(two_buttons_tree(), LEVELS["L1"], state_id="new")
    unrelated = AbstractState(
        id="far", window_id="win",
        avms=[AttributeValuationMap(id="a", valuations={"R_CN": "Spinner"})],
    )
    guard = make_layout_guard(base, [similar_old, similar_new, unrelated])
    assert guard == layout_fingerprint(similar_new)
    # the destination's own id is skipped while walking backward
    same_id = derive_abstract_state(two_buttons_tree(), LEVELS["L1"], state_id="dest")
    assert make_layout_guard(base, [unrelated, same_id]) is None
    assert make_layout_guard(base, []) is None


def avm(key, widget=None):
    return AttributeValuationMap(id=f"avm-{key}", valuations={"R_RID": key}, ewtg_widget_id=widget)


def test_backward_equivalence_tolerates_only_added_or_replaced_widgets():
    expected = AbstractState(id="s2", window_id="w", avms=[avm("a", "w-a"), avm("b", "w-b")])
    observed = AbstractState(
        id="s3", window_id="w", avms=[avm("a", "w-a"), avm("b", "w-b"), avm("new", "w-new")]
    )
    ctx = BackwardEquivalenceContext(added_widget_ids={"w-new"})
    assert is_backward_equivalent(observed, expected, ctx)
    # the same extra AVM without the exemption breaks equivalence
    assert not is_backward_equivalent(observed, expected, BackwardEquivalenceContext())
    # a replaced widget is exempt too
    ctx_r = BackwardEquivalenceContext(replaced_widget_ids={"w-new"})
    assert is_backward_equivalent(observed, expected, ctx_r)


def test_backward_equivalence_requires_all_expected_avms():
    expected = AbstractState(id="s2", window_id="w", avms=[avm("a"), avm("b")])
    observed = AbstractState(id="s3", window_id="w", avms=[avm("a")])
    assert not is_backward_equivalent(observed, expected, BackwardEquivalenceContext())


def test_backward_equivalence_requires_same_window():
    expected = AbstractState(id="s2", window_id="w", avms=[avm("a")])
    observed = AbstractState(id="s3", window_id="other", avms=[avm("a")])
    assert not is_backward_equivalent(observed, expected, BackwardEquivalenceContext())
