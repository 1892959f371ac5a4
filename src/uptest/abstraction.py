"""State abstraction: reducers, abstraction levels, layout fingerprints.

Abstract states are built by applying a level's reducers to every interactable
node of a concrete GUI tree; nodes with identical reducer outputs merge into a
single attribute-valuation map with a cardinality.  Levels L1..L3 grow the
reducer set; L4 and L5 keep L2's reducers but additionally apply L1's / L2's
reducers to each widget's children.

A screen matches a state when their windows, levels and valuation multisets
(``{valuation key: count}`` over the interactable nodes) are equal;
``valuation_multiset`` computes a screen's multiset in one walk, without
building a state.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Collection, Iterator, Optional

from .model import (
    LEVEL_ORDER,
    AbstractState,
    AttributeValuationMap,
    GuiNode,
    GuiTree,
)


class AbstractionError(Exception):
    pass


@dataclass(frozen=True)
class Reducer:
    name: str
    property_name: str


R_RID = Reducer("R_RID", "resourceId")
R_CN = Reducer("R_CN", "className")
R_CD = Reducer("R_CD", "contentDescription")
R_P = Reducer("R_P", "password")
R_C = Reducer("R_C", "clickable")
R_LC = Reducer("R_LC", "longClickable")
R_SCROLLABLE = Reducer("R_Scrollable", "scrollable")
R_CH = Reducer("R_Ch", "checked")
R_E = Reducer("R_E", "enabled")
R_SELECTED = Reducer("R_Selected", "selected")
R_I = Reducer("R_I", "isInputField")
R_T = Reducer("R_T", "text")
R_HC = Reducer("R_HC", "hasChildren")

_L1_REDUCERS = (
    R_RID,
    R_CN,
    R_CD,
    R_P,
    R_C,
    R_LC,
    R_SCROLLABLE,
    R_CH,
    R_E,
    R_SELECTED,
    R_I,
)
_L2_REDUCERS = _L1_REDUCERS + (R_T,)
_L3_REDUCERS = _L2_REDUCERS + (R_HC,)


@dataclass(frozen=True)
class AbstractionLevel:
    name: str
    own_reducers: tuple[Reducer, ...]
    child_reducers: tuple[Reducer, ...] = ()
    # (key name, property) pairs in the order sorting a valuation dict lists
    # them; every "child:" name sorts after every own "R_" name
    _own_fields: tuple[tuple[str, str], ...] = field(init=False, repr=False, compare=False)
    _child_fields: tuple[tuple[str, str], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        own = sorted((r.name, r.property_name) for r in self.own_reducers)
        children = sorted((f"child:{r.name}", r.property_name) for r in self.child_reducers)
        object.__setattr__(self, "_own_fields", tuple(own))
        object.__setattr__(self, "_child_fields", tuple(children))

    def valuation_key(self, node: GuiNode) -> tuple:
        """The node's ``(key name, value)`` pairs, sorted by name."""
        props = node.properties
        try:
            key = tuple([(name, props[prop]) for name, prop in self._own_fields])
            if self._child_fields:
                key += tuple(
                    [
                        (name, _child_values(node.children, prop))
                        for name, prop in self._child_fields
                    ]
                )
        except KeyError as exc:
            prop = exc.args[0]
            reducer = next(
                r.name
                for r in self.own_reducers + self.child_reducers
                if r.property_name == prop
            )
            raise AbstractionError(
                f"node is missing property {prop!r} required by {reducer}"
            ) from None
        return key


def _child_values(children: list[GuiNode], prop: str) -> str:
    return "[" + ",".join(sorted(json.dumps(c.properties[prop]) for c in children)) + "]"


LEVELS: dict[str, AbstractionLevel] = {
    "L1": AbstractionLevel("L1", _L1_REDUCERS),
    "L2": AbstractionLevel("L2", _L2_REDUCERS),
    "L3": AbstractionLevel("L3", _L3_REDUCERS),
    "L4": AbstractionLevel("L4", _L2_REDUCERS, _L1_REDUCERS),
    "L5": AbstractionLevel("L5", _L2_REDUCERS, _L2_REDUCERS),
}

#: Reducer names that make up a layout fingerprint (text and children excluded).
_L1_REDUCER_NAMES = tuple(r.name for r in _L1_REDUCERS)


def is_interactable(node: GuiNode) -> bool:
    props = node.properties
    return bool(
        props.get("clickable")
        or props.get("longClickable")
        or props.get("scrollable")
        or props.get("isInputField")
    )


def _interactable_nodes(root: GuiNode) -> Iterator[GuiNode]:
    """The tree's interactable nodes in pre-order."""
    stack = [root]
    while stack:
        node = stack.pop()
        if is_interactable(node):
            yield node
        stack.extend(reversed(node.children))


def valuation_multiset(root: GuiNode, level: AbstractionLevel) -> dict[tuple, int]:
    """``{valuation key: count}`` over the screen's interactable nodes.

    Equal to ``derive_abstract_state(tree, level).valuation_multiset()`` for a
    tree with this root, without building the state.
    """
    counts: dict[tuple, int] = {}
    key_of = level.valuation_key
    for node in _interactable_nodes(root):
        key = key_of(node)
        counts[key] = counts.get(key, 0) + 1
    return counts


def derive_abstract_state(
    tree: GuiTree,
    level: AbstractionLevel,
    state_id: str = "",
) -> AbstractState:
    """Abstract a concrete tree: one AVM per distinct valuation key.

    AVMs are numbered in the order their key first appears in the walk, and
    an AVM takes the lowest of its nodes' ``widget_ref`` ids.
    """
    groups: dict[tuple, list] = {}  # valuation key -> [count, widget ids]
    key_of = level.valuation_key
    for node in _interactable_nodes(tree.root):
        key = key_of(node)
        group = groups.get(key)
        if group is None:
            group = groups[key] = [0, set()]
        group[0] += 1
        if node.widget_ref is not None:
            group[1].add(node.widget_ref)

    prefix = state_id or tree.id
    avms = [
        AttributeValuationMap(
            id=f"{prefix}-avm{index}",
            valuations=dict(key),
            cardinality=count,
            ewtg_widget_id=min(refs) if refs else None,
        )
        for index, (key, (count, refs)) in enumerate(groups.items(), start=1)
    ]
    return AbstractState(
        id=state_id or f"{tree.id}-state",
        window_id=tree.window_id,
        avms=avms,
        abstraction_level=level.name,
    )


# --- layout fingerprints -------------------------------------------------


def layout_fingerprint(state: AbstractState) -> Counter:
    """Multiset of layout-level valuations of the state's AVMs.

    States derived at finer levels are projected onto the layout reducers, so
    fingerprints are comparable across abstraction levels.
    """
    counts: Counter = Counter()
    for avm in state.avms:
        # keys are sorted so fingerprints survive serialization unchanged
        projected = tuple(
            sorted(
                (name, avm.valuations[name])
                for name in _L1_REDUCER_NAMES
                if name in avm.valuations
            )
        )
        counts[projected] += avm.cardinality
    return counts


def fingerprint_similarity(a: Counter, b: Counter) -> float:
    """Jaccard similarity over valuation multisets; 1.0 for two empty states."""
    if not a and not b:
        return 1.0
    keys = set(a) | set(b)
    inter = sum(min(a[k], b[k]) for k in keys)
    union = sum(max(a[k], b[k]) for k in keys)
    return inter / union


def make_layout_guard(
    destination: AbstractState, layouts: dict[str, Counter], threshold: float
) -> Optional[Counter]:
    """Fingerprint of the most recently visited other state with a similar layout.

    ``layouts`` holds the layout fingerprint of each visited state by id, the
    destination's included, in last-visit order; it is walked backward from
    the most recent visit, skipping the destination.
    """
    dest_fp = layouts[destination.id]
    for state_id, fp in reversed(layouts.items()):
        if state_id != destination.id and fingerprint_similarity(fp, dest_fp) >= threshold:
            return fp
    return None


def guard_holds(
    guard: Optional[Counter], visited_layouts: Collection[Counter], threshold: float
) -> bool:
    """True without a guard, else when a visited layout is similar enough to it."""
    if guard is None:
        return True
    return any(fingerprint_similarity(guard, fp) >= threshold for fp in visited_layouts)


# --- refinement ----------------------------------------------------------


def refine_level(current_level: str, tree_a: GuiTree, tree_b: GuiTree) -> Optional[str]:
    """Lowest level above ``current_level`` that tells the two trees apart.

    Returns None when the trees stay indistinguishable through L5; the caller
    then has to accept the non-determinism.
    """
    start = LEVEL_ORDER.index(current_level)
    for name in LEVEL_ORDER[start + 1 :]:
        level = LEVELS[name]
        if valuation_multiset(tree_a.root, level) != valuation_multiset(tree_b.root, level):
            return name
    return None


# --- backward equivalence ------------------------------------------------


def is_backward_equivalent(
    observed: AbstractState,
    expected: AbstractState,
    excluded: set[str],
) -> bool:
    """An observed state may continue a sequence planned for an inherited state.

    Holds when both states belong to the same window, every expected AVM has a
    matching AVM in the observed state, and every observed AVM matches an
    expected one except those for the ``excluded`` widgets: the ones the
    update added or replaced.
    """
    if observed.window_id != expected.window_id:
        return False
    observed_keys = [(avm.ewtg_widget_id, avm.valuation_key()) for avm in observed.avms]
    expected_keys = {avm.valuation_key() for avm in expected.avms}
    if not expected_keys <= {key for _, key in observed_keys}:
        return False
    return all(
        key in expected_keys
        for widget_id, key in observed_keys
        if widget_id is None or widget_id not in excluded
    )
