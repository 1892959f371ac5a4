"""State abstraction: reducers, abstraction levels, layout fingerprints.

A level's reducers map each interactable node of a screen to a valuation
key.  ``valuation_groups`` walks a screen once and groups its interactable
nodes by that key, and both readings of a screen come from that walk.  The
counts are the screen's valuation multiset (``{valuation key: count}``): a
screen matches a state when their windows, levels and multisets are equal.
A new state takes one attribute-valuation map per group, with the group's
count as its cardinality and the group's lowest widget ref as its widget.
Levels L1..L3 grow the reducer set; L4 and L5 keep L2's reducers but
additionally apply L1's / L2's reducers to each widget's children.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional

from .model import (
    LEVEL_ORDER,
    AbstractState,
    ActionType,
    AttributeValuationMap,
    GuiNode,
)


class AbstractionError(Exception):
    pass


#: (reducer name, property) of each reducer of the layout level, by name
_L1_FIELDS = (
    ("R_C", "clickable"),
    ("R_CD", "contentDescription"),
    ("R_CN", "className"),
    ("R_Ch", "checked"),
    ("R_E", "enabled"),
    ("R_I", "isInputField"),
    ("R_LC", "longClickable"),
    ("R_P", "password"),
    ("R_RID", "resourceId"),
    ("R_Scrollable", "scrollable"),
    ("R_Selected", "selected"),
)
_L2_FIELDS = tuple(sorted(_L1_FIELDS + (("R_T", "text"),)))
_L3_FIELDS = tuple(sorted(_L2_FIELDS + (("R_HC", "hasChildren"),)))


def _child_fields(fields: tuple[tuple[str, str], ...]) -> tuple[tuple[str, str], ...]:
    return tuple((f"child:{name}", prop) for name, prop in fields)


@dataclass(frozen=True)
class AbstractionLevel:
    name: str
    # (key name, property) pairs in the order sorting a valuation dict lists
    # them; every "child:" name sorts after every own "R_" name
    own_fields: tuple[tuple[str, str], ...]
    child_fields: tuple[tuple[str, str], ...] = ()

    def valuation_key(self, node: GuiNode) -> tuple:
        """The node's ``(key name, value)`` pairs, sorted by name."""
        props = node.properties
        try:
            key = tuple([(name, props[prop]) for name, prop in self.own_fields])
            if self.child_fields:
                key += tuple(
                    [
                        (name, _child_values(node.children, prop))
                        for name, prop in self.child_fields
                    ]
                )
        except KeyError as exc:
            prop = exc.args[0]
            # on every level a child property is an own property too
            reducer = next(name for name, p in self.own_fields if p == prop)
            raise AbstractionError(
                f"node is missing property {prop!r} required by {reducer}"
            ) from None
        return key


def _child_values(children: list[GuiNode], prop: str) -> str:
    return "[" + ",".join(sorted(json.dumps(c.properties[prop]) for c in children)) + "]"


LEVELS: dict[str, AbstractionLevel] = {
    "L1": AbstractionLevel("L1", _L1_FIELDS),
    "L2": AbstractionLevel("L2", _L2_FIELDS),
    "L3": AbstractionLevel("L3", _L3_FIELDS),
    "L4": AbstractionLevel("L4", _L2_FIELDS, _child_fields(_L1_FIELDS)),
    "L5": AbstractionLevel("L5", _L2_FIELDS, _child_fields(_L2_FIELDS)),
}

#: Reducer names that make up a layout fingerprint (text and children excluded).
_L1_REDUCER_NAMES = tuple(name for name, _ in LEVELS["L1"].own_fields)


#: Each property that makes a node interactable, with the action it offers.
NODE_ACTIONS = (
    ("clickable", ActionType.CLICK),
    ("longClickable", ActionType.LONG_CLICK),
    ("scrollable", ActionType.SWIPE),
    ("isInputField", ActionType.TEXT_FILL),
)


def is_interactable(node: GuiNode) -> bool:
    props = node.properties
    return any(props.get(prop) for prop, _ in NODE_ACTIONS)


def valuation_groups(root: GuiNode, level: AbstractionLevel) -> dict[tuple, list]:
    """``{valuation key: [count, lowest widget_ref]}`` over the screen's
    interactable nodes, one walk in pre-order.

    Keys come in the order the walk first meets them; a group's ref is None
    when none of its nodes has one.
    """
    groups: dict[tuple, list] = {}
    key_of = level.valuation_key
    stack = [root]
    while stack:
        node = stack.pop()
        stack.extend(reversed(node.children))
        if not is_interactable(node):
            continue
        key = key_of(node)
        ref = node.widget_ref
        group = groups.get(key)
        if group is None:
            groups[key] = [1, ref]
        else:
            group[0] += 1
            if ref is not None and (group[1] is None or ref < group[1]):
                group[1] = ref
    return groups


def valuation_multiset(root: GuiNode, level: AbstractionLevel) -> dict[tuple, int]:
    """``{valuation key: count}`` over the screen's interactable nodes: the
    multiset a state derived from the screen has, without building it."""
    return {key: count for key, (count, _) in valuation_groups(root, level).items()}


def derive_abstract_state(
    window_id: str, root: GuiNode, level: AbstractionLevel, state_id: str
) -> AbstractState:
    """Abstract a screen: one AVM per valuation group, in the order of
    ``valuation_groups``, bound to the group's lowest ``widget_ref``."""
    avms = [
        AttributeValuationMap(valuations=dict(key), cardinality=count, ewtg_widget_id=ref)
        for key, (count, ref) in valuation_groups(root, level).items()
    ]
    return AbstractState(
        id=state_id, window_id=window_id, avms=avms, abstraction_level=level.name
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
) -> str:
    """The most recently visited other state with a layout similar to the
    destination's, or failing one the destination itself.

    ``layouts`` holds the layout fingerprint of each visited state by id, the
    destination's included, in last-visit order; it is walked backward from
    the most recent visit, skipping the destination.
    """
    dest_fp = layouts[destination.id]
    for state_id, fp in reversed(layouts.items()):
        if state_id != destination.id and fingerprint_similarity(fp, dest_fp) >= threshold:
            return state_id
    return destination.id


def guard_holds(
    guard: Optional[str],
    visited_layouts: Mapping[str, Counter],
    states: Mapping[str, AbstractState],
    threshold: float,
) -> bool:
    """True without a guard, else when a visited layout is similar enough to
    the layout of the guard's state.

    ``visited_layouts`` holds the layout of each visited state by id.  A
    visited guard state holds at once: its layout is 1.0-similar to itself.
    """
    if guard is None or guard in visited_layouts:
        return True
    layout = layout_fingerprint(states[guard])
    return any(fingerprint_similarity(layout, fp) >= threshold for fp in visited_layouts.values())


# --- refinement ----------------------------------------------------------


def refine_level(current_level: str, root_a: GuiNode, root_b: GuiNode) -> Optional[str]:
    """Lowest level above ``current_level`` that tells the two screens apart.

    Returns None when the screens stay indistinguishable through L5; the
    caller then has to accept the non-determinism.
    """
    start = LEVEL_ORDER.index(current_level)
    for name in LEVEL_ORDER[start + 1 :]:
        level = LEVELS[name]
        if valuation_multiset(root_a, level) != valuation_multiset(root_b, level):
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
