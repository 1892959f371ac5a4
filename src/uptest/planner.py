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

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Collection, Optional, Union

from .abstraction import guard_holds
from .config import EngineConfig
from .model import (
    AbstractState,
    ActionType,
    AppModel,
    Input,
    Window,
    action_cost,
)


@dataclass(frozen=True)
class MetaState:
    """Episode-local summary of a window's likely widgets after an input."""

    window_id: str
    source_input_id: str
    widget_presence: tuple[tuple[str, float], ...] = ()


ExpectedState = Union[str, MetaState]  # abstract state id or a meta state


@dataclass
class PlanStep:
    input_id: str
    action_type: ActionType
    widget_id: Optional[str]
    expected: ExpectedState
    probability: float  # p(action | previous expected state)
    data_payload: Optional[str] = None
    guard: Optional[dict] = None  # serialized fingerprint of a traversed guard

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
        if self.kind == "deterministic":
            return 0.0
        product = 1.0
        for step in self.steps:
            product *= step.probability
        return _truncate2(1.0 - product)

    @property
    def cost(self) -> float:
        return self.cost_full + self.cost_partial * self.likelihood_partial


def _truncate2(x: float) -> float:
    """Two-decimal truncation used when reporting partial-execution likelihood."""
    return math.floor(x * 100.0 + 1e-9) / 100.0


# --- search --------------------------------------------------------------


class Planner:
    """Plans over one view of the model, built once from one pass over each
    of its collections; the model must not change while the planner is used."""

    def __init__(
        self,
        model: AppModel,
        visited_layouts: Optional[Collection[Counter]] = None,
        config: Optional[EngineConfig] = None,
    ):
        self.model = model
        self.visited_layouts = visited_layouts or []
        self.config = config or EngineConfig()
        self._target: Optional[Union[Window, AbstractState, Input]] = None

        ewtg, dstg = model.ewtg, model.dstg
        # inputs by window in id order; (window, widget, action) -> lowest-id input
        self._inputs_of_window: dict[str, list[Input]] = {}
        self._input_for: dict[tuple[str, Optional[str], ActionType], Input] = {}
        for inp in sorted(ewtg.inputs.values(), key=lambda i: i.id):
            self._inputs_of_window.setdefault(inp.window_id, []).append(inp)
            self._input_for.setdefault((inp.window_id, inp.widget_id, inp.action_type), inp)
        # input id -> destination windows of its window transitions, in id order
        self._window_destinations: dict[str, list[str]] = {}
        for wt in sorted(ewtg.window_transitions.values(), key=lambda t: t.id):
            self._window_destinations.setdefault(wt.input_id, []).append(
                wt.destination_window_id
            )
        # state id -> (widget, transition, destination) in id order, for
        # transitions whose destination exists; (window, widget, action) ->
        # windows reached by recorded transitions into live states
        self._transitions_from: dict[str, list[tuple]] = {}
        reached: dict[tuple[str, Optional[str], ActionType], set[str]] = {}
        states = dstg.abstract_states
        for tr in sorted(dstg.abstract_transitions.values(), key=lambda t: t.id):
            src = states.get(tr.source_state_id)
            dest = states.get(tr.destination_state_id)
            if src is None or dest is None:
                continue
            avm = src.avm_by_id(tr.source_avm_id) if tr.source_avm_id is not None else None
            widget_id = avm.ewtg_widget_id if avm else None
            self._transitions_from.setdefault(src.id, []).append((widget_id, tr, dest))
            if not dest.obsolete:
                reached.setdefault((src.window_id, widget_id, tr.action_type), set()).add(
                    dest.window_id
                )
        self._reached = {key: sorted(windows) for key, windows in reached.items()}
        # window -> presence ratio of each widget over the window's live states
        counts: dict[str, Counter] = {}
        live: Counter = Counter()
        for state in states.values():
            if state.obsolete:
                continue
            live[state.window_id] += 1
            counts.setdefault(state.window_id, Counter()).update(
                {avm.ewtg_widget_id for avm in state.avms if avm.ewtg_widget_id is not None}
            )
        self._presence = {
            window_id: tuple(sorted((w, c / live[window_id]) for w, c in widget_counts.items()))
            for window_id, widget_counts in counts.items()
        }

    # node keys: ("state", state_id) or ("meta", window_id, presence tuple);
    # an edge is a (destination node key, plan step) pair

    def _destinations_for_input(self, inp: Input) -> list[tuple[tuple, MetaState]]:
        """Meta destinations for an input never exercised in the source node.

        Windows that recorded transitions on the input's widget reached carry
        the widget presence of their live states; failing those, the input's
        window transitions give destinations without presence data.
        """
        reached = self._reached.get((inp.window_id, inp.widget_id, inp.action_type))
        if reached:
            windows = [(w, self._presence.get(w, ())) for w in reached]
        else:
            windows = [(w, ()) for w in self._window_destinations.get(inp.id, ())]
            if not windows and isinstance(self._target, Input) and self._target.id == inp.id:
                # destination unknown, but executing the target input is the goal
                windows = [(inp.window_id, ())]
        return [
            (("meta", window_id, presence), MetaState(window_id, inp.id, presence))
            for window_id, presence in windows
        ]

    def _edges_from_state(
        self, state: AbstractState, at_start: bool
    ) -> list[tuple[tuple, PlanStep]]:
        edges: list[tuple[tuple, PlanStep]] = []
        exercised: set[tuple[Optional[str], ActionType]] = set()
        threshold = self.config.layout_similarity_threshold
        for widget_id, tr, dest in self._transitions_from.get(state.id, ()):
            exercised.add((widget_id, tr.action_type))
            if dest.obsolete:
                continue
            if not guard_holds(tr.layout_guard, self.visited_layouts, threshold):
                continue
            inp = self._input_for.get((state.window_id, widget_id, tr.action_type))
            input_id = inp.id if inp else f"runtime:{state.window_id}:{widget_id}:{tr.action_type.value}"
            step = PlanStep(
                input_id, tr.action_type, widget_id, dest.id, 1.0,
                data_payload=tr.data_payload, guard=tr.layout_guard,
            )
            edges.append((("state", dest.id), step))
        present_widgets = {
            avm.ewtg_widget_id for avm in state.avms if avm.ewtg_widget_id is not None
        }
        for inp in self._inputs_of_window.get(state.window_id, ()):
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
        for inp in self._inputs_of_window.get(window_id, ()):
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
        if key[0] == "state":
            return self._edges_from_state(self.model.dstg.abstract_states[key[1]], at_start)
        return self._edges_from_meta(key[1], key[2])

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
                likelihood = (
                    0.0 if new_prod == 1.0 else _truncate2(1.0 - new_prod)
                )
                new_cost = new_cost_full + (new_cost_full / 2.0) * likelihood
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
    visited_layouts: Optional[Collection[Counter]] = None,
    config: Optional[EngineConfig] = None,
) -> Optional[ActionSequence]:
    return Planner(model, visited_layouts, config).plan(current_state, target)
