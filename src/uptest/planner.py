"""Action-sequence planning over the merged static/learned transition graph.

Deterministic steps follow recorded abstract transitions.  Where an input was
never exercised in the current state, episode-local meta transitions are
synthesized: their destination summarizes which widgets were ever seen in the
reached window, with a presence probability per widget.  Sequence cost adds an
infeasibility penalty to probabilistic sequences so that, at equal length,
deterministic ones win.  All meta machinery lives only inside one planning
episode; the persistent model is never touched.
"""

from __future__ import annotations

import bisect
import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from .abstraction import guard_holds
from .config import EngineConfig
from .model import (
    AbstractState,
    AbstractTransition,
    ActionType,
    AppModel,
    Input,
    Window,
    action_cost,
)


@dataclass(frozen=True)
class MetaState:
    """Episode-local expectation of reaching a window, its widgets unknown.

    The planner's node key for it also holds the window's widget presence.
    """

    window_id: str


ExpectedState = Union[str, MetaState]  # abstract state id or a meta state


@dataclass
class PlanStep:
    input_id: str
    action_type: ActionType
    widget_id: Optional[str]
    expected: ExpectedState
    probability: float  # p(action | previous expected state)
    data_payload: Optional[str] = None

    @property
    def cost(self) -> int:
        return action_cost(self.action_type)

    @property
    def is_meta(self) -> bool:
        return isinstance(self.expected, MetaState)


@dataclass
class ActionSequence:
    steps: list[PlanStep] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return "probabilistic" if any(s.is_meta for s in self.steps) else "deterministic"

    @property
    def cost_full(self) -> float:
        return float(sum(s.cost for s in self.steps))

    @property
    def cost_partial(self) -> float:
        return self.cost_full / 2.0

    @property
    def likelihood_partial(self) -> float:
        return _likelihood_partial(math.prod(s.probability for s in self.steps))

    @property
    def cost(self) -> float:
        return _sequence_cost(self.cost_full, math.prod(s.probability for s in self.steps))


def _likelihood_partial(prod: float) -> float:
    """Chance that a sequence whose step probabilities multiply to ``prod``
    stops part way, truncated to two decimals; 0 when every step is certain."""
    return math.floor((1.0 - prod) * 100.0 + 1e-9) / 100.0


def _sequence_cost(cost_full: float, prod: float) -> float:
    """Full cost plus the partial cost, half of it, weighted by that chance."""
    return cost_full + cost_full / 2.0 * _likelihood_partial(prod)


# --- the view a plan reads ----------------------------------------------


class PlanView:
    """The tables a plan reads, built from one model.

    A session builds one view and keeps it in step with each change it makes
    to the model; ``plan_to_target`` on a bare model builds a fresh one.  A
    view kept in step equals one built fresh from the same model.
    """

    def __init__(self, model: AppModel):
        # inputs by window in id order; (window, widget, action) -> lowest-id input
        self.inputs_of_window: dict[str, list[Input]] = {}
        self.input_for: dict[tuple, Input] = {}
        # input id -> destination windows of its window transitions, in id order
        self.window_destinations: dict[str, list[str]] = {}
        # state id -> (transition, destination) in id order, for transitions
        # whose destination exists
        self.transitions_from: dict[str, list[tuple]] = {}
        # (window, widget, action) -> windows reached by recorded transitions
        # into live states, each with the number of those transitions
        self.reached: dict[tuple, Counter] = {}
        # window -> presence ratio of each widget over the window's live
        # states, from the count of live states and of those showing each widget
        self.presence: dict[str, tuple[tuple[str, float], ...]] = {}
        # state id -> the widgets its AVMs are bound to, for every state,
        # obsolete ones included
        self.widgets_of: dict[str, set[str]] = {}
        self._live: Counter = Counter()
        self._widget_counts: dict[str, Counter] = {}
        for inp in sorted(model.ewtg.inputs.values(), key=lambda i: i.id):
            self.add_input(inp)
        for wt in sorted(model.ewtg.window_transitions.values(), key=lambda t: t.id):
            self.window_destinations.setdefault(wt.input_id, []).append(wt.destination_window_id)
        states = model.dstg.abstract_states
        for state in states.values():
            self.add_state(state)
        for tr in sorted(model.dstg.abstract_transitions.values(), key=lambda t: t.id):
            src, dest = states.get(tr.source_state_id), states.get(tr.destination_state_id)
            if src is not None and dest is not None:
                self.add_transition(tr, src, dest)

    def add_input(self, inp: Input) -> None:
        bisect.insort(self.inputs_of_window.setdefault(inp.window_id, []), inp, key=lambda i: i.id)
        key = (inp.window_id, inp.widget_id, inp.action_type)
        self.input_for[key] = min(inp, self.input_for.get(key, inp), key=lambda i: i.id)

    def add_state(self, state: AbstractState) -> None:
        """Note a state's widgets; count a live one in its window's widget presence."""
        widgets = self.widgets_of[state.id] = {
            avm.ewtg_widget_id for avm in state.avms if avm.ewtg_widget_id is not None
        }
        if state.obsolete:
            return
        self._live[state.window_id] += 1
        live = self._live[state.window_id]
        counts = self._widget_counts.setdefault(state.window_id, Counter())
        counts.update(widgets)
        self.presence[state.window_id] = tuple(sorted((w, c / live) for w, c in counts.items()))

    def revive(self, state: AbstractState, states: dict[str, AbstractState]) -> None:
        """Count an obsolete state that turned live, with the transitions into it."""
        self.add_state(state)
        for source_id, entries in self.transitions_from.items():
            for tr, dest in entries:
                if dest is state:
                    self._reach(states[source_id], tr, state, 1)

    def add_transition(
        self, tr: AbstractTransition, source: AbstractState, dest: AbstractState
    ) -> None:
        # ids order as strings ("at-10" before "at-9"), as the model file does
        entries = self.transitions_from.setdefault(source.id, [])
        bisect.insort(entries, (tr, dest), key=lambda e: e[0].id)
        self._reach(source, tr, dest, 1)

    def remove_transition(self, tr: AbstractTransition, source: AbstractState) -> None:
        entries = self.transitions_from[source.id]
        _, dest = entries.pop([e[0] for e in entries].index(tr))
        if not entries:
            del self.transitions_from[source.id]
        self._reach(source, tr, dest, -1)

    def _reach(self, source, tr, dest: AbstractState, delta: int) -> None:
        """Count ``tr``'s reach of ``dest``'s window, if ``dest`` is live."""
        if dest.obsolete:
            return
        key = (source.window_id, tr.widget_id, tr.action_type)
        counts = self.reached.setdefault(key, Counter())
        counts[dest.window_id] += delta
        if not counts[dest.window_id]:
            del counts[dest.window_id]
            if not counts:
                del self.reached[key]


# --- search --------------------------------------------------------------


@dataclass
class Planner:
    """Plans over a model and a ``PlanView`` of it that is in step with it."""

    model: AppModel
    view: PlanView
    # state id -> layout fingerprint of each visited state
    visited_layouts: Mapping[str, Counter] = field(default_factory=dict)
    config: EngineConfig = field(default_factory=EngineConfig)
    _target: Optional[Union[Window, AbstractState, Input]] = field(default=None, init=False)
    # (node key, at_start) -> its edges, for the plan being made
    _edges_of: dict[tuple, list] = field(default_factory=dict, init=False)

    # node keys: ("state", state_id) or ("meta", window_id, presence tuple);
    # an edge is a (destination node key, plan step) pair

    def _destinations_for_input(self, inp: Input) -> list[tuple[tuple, MetaState]]:
        """Meta destinations for an input never exercised in the source node.

        Windows that recorded transitions on the input's widget reached carry
        the widget presence of their live states; failing those, the input's
        window transitions give destinations without presence data.
        """
        reached = self.view.reached.get((inp.window_id, inp.widget_id, inp.action_type))
        if reached:
            windows = [(w, self.view.presence.get(w, ())) for w in sorted(reached)]
        else:
            windows = [(w, ()) for w in self.view.window_destinations.get(inp.id, ())]
            if not windows and isinstance(self._target, Input) and self._target.id == inp.id:
                # destination unknown, but executing the target input is the goal
                windows = [(inp.window_id, ())]
        return [
            (("meta", window_id, presence), MetaState(window_id))
            for window_id, presence in windows
        ]

    def _edges_from_state(
        self, state: AbstractState, at_start: bool
    ) -> list[tuple[tuple, PlanStep]]:
        edges: list[tuple[tuple, PlanStep]] = []
        exercised: set[tuple[Optional[str], ActionType]] = set()
        states, threshold = self.model.dstg.abstract_states, self.config.layout_similarity_threshold
        for tr, dest in self.view.transitions_from.get(state.id, ()):
            widget_id = tr.widget_id
            exercised.add((widget_id, tr.action_type))
            if dest.obsolete:
                continue
            if not guard_holds(tr.layout_guard, self.visited_layouts, states, threshold):
                continue
            inp = self.view.input_for.get((state.window_id, widget_id, tr.action_type))
            input_id = inp.id if inp else f"runtime:{state.window_id}:{widget_id}:{tr.action_type.value}"
            step = PlanStep(
                input_id, tr.action_type, widget_id, dest.id, 1.0, data_payload=tr.data_payload
            )
            edges.append((("state", dest.id), step))
        present_widgets = self.view.widgets_of[state.id]
        for inp in self.view.inputs_of_window.get(state.window_id, ()):
            if inp.action_type == ActionType.RESET_APP and not at_start:
                continue
            if (inp.widget_id, inp.action_type) in exercised:
                continue
            if inp.widget_id is not None and inp.widget_id not in present_widgets:
                continue
            for dest_key, meta in self._destinations_for_input(inp):
                edges.append(
                    (dest_key, PlanStep(inp.id, inp.action_type, inp.widget_id, meta, 1.0))
                )
        return edges

    def _edges_from_meta(
        self, window_id: str, widget_presence: tuple[tuple[str, float], ...]
    ) -> list[tuple[tuple, PlanStep]]:
        edges: list[tuple[tuple, PlanStep]] = []
        presence = dict(widget_presence)
        for inp in self.view.inputs_of_window.get(window_id, ()):
            if inp.action_type == ActionType.RESET_APP:
                continue
            if inp.widget_id is None:
                probability = 1.0
            elif presence:
                probability = presence.get(inp.widget_id, 0.0)
            else:
                probability = self.config.default_meta_probability
            if probability <= 0.0:
                continue
            for dest_key, meta in self._destinations_for_input(inp):
                edges.append(
                    (dest_key, PlanStep(inp.id, inp.action_type, inp.widget_id, meta, probability))
                )
        return edges

    def _edges(self, key: tuple, at_start: bool) -> list[tuple[tuple, PlanStep]]:
        """A node's edges, built once per plan: the view, the visited layouts
        and the target, all they depend on, stay fixed while a plan is made."""
        edges = self._edges_of.get((key, at_start))
        if edges is None:
            if key[0] == "state":
                state = self.model.dstg.abstract_states[key[1]]
                edges = self._edges_from_state(state, at_start)
            else:
                edges = self._edges_from_meta(key[1], key[2])
            self._edges_of[key, at_start] = edges
        return edges

    def _goal_reachable(self, start_key: tuple, node_is_goal, edge_is_goal) -> bool:
        """Whether a walk of at most ``max_plan_length`` edges reaches the goal.

        Every plan the search can return is such a walk, so when none exists
        the search would expand its whole bounded space to find nothing.  A
        node's edges are the same at every depth, except that the start node
        also has its ``at_start`` edges; so a breadth-first pass that expands
        each node once, at the depth it is first seen, finds every goal within
        the bound.
        """
        seen = {start_key}
        layer = [start_key]
        for depth in range(self.config.max_plan_length):
            next_layer = []
            for key in layer:
                for dest_key, step in self._edges(key, at_start=depth == 0):
                    # a goal edge may lead to a node already seen
                    if edge_is_goal(step):
                        return True
                    if dest_key in seen:
                        continue
                    if node_is_goal(dest_key):
                        return True
                    seen.add(dest_key)
                    next_layer.append(dest_key)
            layer = next_layer
        return False

    def plan(
        self,
        current_state: AbstractState,
        target: Union[Window, AbstractState, Input],
    ) -> Optional[ActionSequence]:
        """Minimum-cost acyclic sequence from the current state to the target.

        Returns None when no sequence within the length bound reaches the
        target.  The returned cost is exact per the sequence cost model; best
        candidates are expanded first and path extension only increases cost,
        so the first completed candidate is optimal.
        """
        self._target = target
        self._edges_of = {}
        if isinstance(target, AbstractState):
            target_state = self.model.dstg.abstract_states.get(target.id)
            if target_state is not None and target_state.obsolete:
                return None

        def node_is_goal(key: tuple) -> bool:
            if isinstance(target, AbstractState):
                return key == ("state", target.id)
            if isinstance(target, Window):
                if key[0] == "state":
                    state = self.model.dstg.abstract_states[key[1]]
                    return state.window_id == target.id
                return key[1] == target.id
            return False

        def edge_is_goal(step: PlanStep) -> bool:
            return isinstance(target, Input) and step.input_id == target.id

        start_key = ("state", current_state.id)
        if node_is_goal(start_key):
            return ActionSequence(steps=[])
        if not self._goal_reachable(start_key, node_is_goal, edge_is_goal):
            return None

        counter = 0
        # frontier entries: cost, meta steps, tiebreak, node key, steps,
        # cost_full, prod, and the node keys the path visited
        frontier: list[tuple] = []
        heapq.heappush(frontier, (0.0, 0, counter, start_key, [], 0.0, 1.0, frozenset([start_key])))
        # Pareto frontiers per node: lower cost_full and higher probability
        # dominate, but only when the dominating path visited no extra nodes
        # (otherwise it might forbid a suffix the dominated path still allows)
        best: dict[tuple, list[tuple[float, float, frozenset]]] = {}

        def dominated(key: tuple, cost_full: float, prod: float, visited: frozenset) -> bool:
            for cf, pr, vs in best.get(key, []):
                if cf <= cost_full and pr >= prod and vs <= visited:
                    return True
            return False

        def record(key: tuple, cost_full: float, prod: float, visited: frozenset) -> None:
            entries = best.setdefault(key, [])
            entries[:] = [
                (cf, pr, vs)
                for cf, pr, vs in entries
                if not (cost_full <= cf and prod >= pr and visited <= vs)
            ]
            entries.append((cost_full, prod, visited))

        while frontier:
            cost, meta_count, _, key, steps, cost_full, prod, visited_keys = heapq.heappop(frontier)
            if key == "GOAL" or node_is_goal(key):
                return ActionSequence(steps=list(steps))
            if len(steps) >= self.config.max_plan_length:
                continue
            if dominated(key, cost_full, prod, visited_keys):
                continue
            record(key, cost_full, prod, visited_keys)

            for dest_key, step in self._edges(key, at_start=not steps):
                # a goal edge may revisit a node (e.g. a self-loop input)
                if not edge_is_goal(step) and dest_key in visited_keys:
                    continue
                new_cost_full = cost_full + step.cost
                new_prod = prod * step.probability
                new_cost = _sequence_cost(new_cost_full, new_prod)
                new_steps = steps + [step]
                new_meta_count = meta_count + (1 if step.is_meta else 0)
                counter += 1
                if edge_is_goal(step):
                    # target input reached; candidate completes with this step
                    heapq.heappush(frontier, (new_cost, new_meta_count, counter, "GOAL", new_steps, new_cost_full, new_prod, None))
                    continue
                new_visited = visited_keys | {dest_key}
                if dominated(dest_key, new_cost_full, new_prod, new_visited):
                    continue
                heapq.heappush(
                    frontier,
                    (new_cost, new_meta_count, counter, dest_key, new_steps,
                     new_cost_full, new_prod, new_visited),
                )
        return None


def plan_to_target(
    model: AppModel,
    current_state: AbstractState,
    target: Union[Window, AbstractState, Input],
    visited_layouts: Optional[Mapping[str, Counter]] = None,
    config: Optional[EngineConfig] = None,
    view: Optional[PlanView] = None,
) -> Optional[ActionSequence]:
    """The planner's sequence over a session's ``view``, or a fresh view of ``model``."""
    planner = Planner(model, view or PlanView(model), visited_layouts or {}, config or EngineConfig())
    return planner.plan(current_state, target)
