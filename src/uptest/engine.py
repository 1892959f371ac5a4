"""The test session loop.

A session runs three phases against a driver: trigger every target input once,
re-trigger inputs whose target methods are not fully covered, and exercise
target windows after their related windows.  Every executed action lands in
the session trace; actions that strictly increase target-instruction coverage
are recorded as unique target actions for the report.  Mismatches between the
planned and observed state trigger online refinement: either the predecessor
window's abstraction is sharpened or the stale learned transition is dropped.

One ``Observer`` says which known state a screen is; the session and the
offline replay (``refinement.replay_flag_obsolete``) both ask it.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .abstraction import (
    LEVELS,
    LEVEL_ORDER,
    AbstractionLevel,
    derive_abstract_state,
    is_backward_equivalent,
    is_interactable,
    layout_fingerprint,
    make_layout_guard,
    valuation_multiset,
)
from .config import EngineConfig
from .harness import DriverRejection, PerformResult
from .model import (
    AbstractState,
    AbstractTransition,
    Action,
    ActionType,
    AppModel,
    EwtgWidget,
    GuiNode,
    GuiTree,
    Input,
    TraceStep,
    Window,
    WindowKind,
    compact_json,
)
from .planner import ActionSequence, MetaState, PlanStep, PlanView, plan_to_target


@dataclass
class TargetSet:
    target_method_ids: set[str]
    instruction_counts: dict[str, int]

    @property
    def total_target_instructions(self) -> int:
        return sum(
            self.instruction_counts.get(m, 0) for m in self.target_method_ids
        )


@dataclass
class CoverageLedger:
    """Covered instructions per method."""

    covered: dict[str, set[int]] = field(default_factory=dict)

    def record(
        self, ranges: list[tuple[str, int, int]], targets: TargetSet
    ) -> dict[str, set[int]]:
        newly: dict[str, set[int]] = {}
        for method_id, lo, hi in ranges:
            instructions = set(range(lo, hi + 1))
            fresh = instructions - self.covered.setdefault(method_id, set())
            self.covered[method_id] |= instructions
            if fresh and method_id in targets.target_method_ids:
                newly.setdefault(method_id, set()).update(fresh)
        return newly

    def covered_target_instructions(self, targets: TargetSet) -> int:
        return sum(
            len(self.covered.get(m, ())) for m in targets.target_method_ids
        )

    def covered_target_methods(self, targets: TargetSet) -> int:
        return sum(
            1 for m in targets.target_method_ids if self.covered.get(m)
        )


@dataclass
class UtaRecord:
    before_tree: GuiTree
    action: Action
    after_tree: GuiTree
    newly_covered: dict[str, list[int]]

    @property
    def newly_covered_instruction_count(self) -> int:
        return sum(len(v) for v in self.newly_covered.values())

    def to_dict(self) -> dict:
        return {
            "beforeTree": self.before_tree.to_dict(),
            # reports show each action's cost; the model's trace does not store it
            "action": {**self.action.to_dict(), "cost": self.action.cost},
            "afterTree": self.after_tree.to_dict(),
            "newlyCovered": {
                k: sorted(v) for k, v in sorted(self.newly_covered.items())
            },
            "newlyCoveredInstructionCount": self.newly_covered_instruction_count,
        }


@dataclass
class SessionResult:
    model: AppModel
    ledger: CoverageLedger
    utas: list[UtaRecord]
    executed_actions: int
    actions_to_first_target_coverage: Optional[int]
    observed_state_ids: set[str] = field(default_factory=set)

    def report(self, targets: TargetSet) -> dict:
        total = targets.total_target_instructions
        covered = self.ledger.covered_target_instructions(targets)
        n_methods = len(targets.target_method_ids)
        return {
            "summary": {
                "version": self.model.version,
                "executedActions": self.executed_actions,
                "utaCount": len(self.utas),
                "targetMethodCount": n_methods,
                "coveredTargetMethods": self.ledger.covered_target_methods(targets),
                "targetMethodCoverage": (
                    self.ledger.covered_target_methods(targets) / n_methods
                    if n_methods
                    else 0.0
                ),
                "totalTargetInstructions": total,
                "coveredTargetInstructions": covered,
                "targetInstructionCoverage": covered / total if total else 0.0,
                "actionsToFirstTargetCoverage": self.actions_to_first_target_coverage,
            },
            "utas": [u.to_dict() for u in self.utas],
        }


def emit_report(result: SessionResult, targets: TargetSet, out_path) -> dict:
    """Write the session report as ``compact_json`` and return it."""
    doc = result.report(targets)
    Path(out_path).write_bytes(compact_json(doc) + b"\n")
    return doc


_NODE_ACTIONS = (
    ("clickable", ActionType.CLICK),
    ("longClickable", ActionType.LONG_CLICK),
    ("scrollable", ActionType.SWIPE),
    ("isInputField", ActionType.TEXT_FILL),
)


def _state_key(window_id: str, level: str, multiset: dict[tuple, int]) -> tuple:
    """What an observation has to share with a state to match it."""
    return (window_id, level, frozenset(multiset.items()))


class _Screen:
    """What the session and the replay read off one screen, each fact once.

    Screens are never mutated (see ``GuiNode``), so the facts hold for as long
    as the driver hands the same screen back.  The engine keeps the current
    observation as its index, its screen and its state; it builds a
    ``GuiTree`` only for a unique target action's report and to derive a new
    state.
    """

    def __init__(self, window_id: str, root: GuiNode):
        self.window_id = window_id
        self.root = root
        self._keys: dict[str, tuple] = {}  # level name -> state key
        # widget ref -> (node path, node, xpath) of its first node in pre-order
        self.widgets: dict[str, tuple[tuple[int, ...], GuiNode, str]] = {}
        # (node path, widget ref, action type) of every action exploration may pick
        self.candidates: list[tuple[tuple[int, ...], Optional[str], ActionType]] = []
        # pre-order (children left to right); an xpath lists the class
        # names of the nodes below the root down to the node
        stack: list[tuple[tuple[int, ...], GuiNode, str]] = [((), root, "/")]
        while stack:
            path, node, xpath = stack.pop()
            ref = node.widget_ref
            if ref is not None and ref not in self.widgets:
                self.widgets[ref] = (path, node, xpath)
            if is_interactable(node) and not (
                node.bounds_hint and node.bounds_hint.get("tiny")
            ):
                self.candidates.extend(
                    (path, ref, action_type)
                    for prop, action_type in _NODE_ACTIONS
                    if node.properties.get(prop)
                )
            prefix = xpath if path else ""
            for i in range(len(node.children) - 1, -1, -1):
                child = node.children[i]
                stack.append(
                    (path + (i,), child, f"{prefix}/{child.properties['className']}")
                )

    def state_key(self, level: AbstractionLevel) -> tuple:
        key = self._keys.get(level.name)
        if key is None:
            key = self._keys[level.name] = _state_key(
                self.window_id, level.name, valuation_multiset(self.root, level)
            )
        return key


class Observer:
    """Which known state a screen is, for the session and the replay alike.

    It keeps a ``_Screen`` per screen the driver hands back, keyed by its
    identity, each known state's key, and per key the state with the lowest
    id in string order: the state a screen with that key matches.  A
    hand-written model may hold two states with one key, so replay compares
    keys rather than matched states.
    """

    def __init__(self, states: dict[str, AbstractState]):
        self._screens: dict[GuiNode, _Screen] = {}
        self._keys: dict[str, tuple] = {}  # state id -> state key
        self._states: dict[tuple, AbstractState] = {}  # state key -> lowest-id state
        for sid in sorted(states):
            s = states[sid]
            self.add(s, _state_key(s.window_id, s.abstraction_level, s.valuation_multiset()))

    def screen(self, result: PerformResult) -> tuple[_Screen, bool]:
        """The result's screen, and whether it is new to this observer."""
        screen = self._screens.get(result.root)
        new = screen is None
        if new:
            screen = self._screens[result.root] = _Screen(result.window_id, result.root)
        return screen, new

    def key(self, state: AbstractState) -> tuple:
        return self._keys[state.id]

    def match(self, key: tuple) -> Optional[AbstractState]:
        return self._states.get(key)

    def add(self, state: AbstractState, key: tuple) -> None:
        self._keys[state.id] = key
        self._states.setdefault(key, state)


class TestEngine:
    __test__ = False  # not a test class despite the name

    def __init__(
        self,
        model: AppModel,
        targets: TargetSet,
        driver,
        budget: int,
        seed: int = 0,
        config: Optional[EngineConfig] = None,
        related_windows: Optional[dict[str, list[str]]] = None,
        text_pools: Optional[dict[str, list[str]]] = None,
    ):
        self.model = model
        self.targets = targets
        self.driver = driver
        self.budget = budget
        self.config = config or EngineConfig()
        self.rng = random.Random(seed)
        self.related_windows = related_windows or {}
        self.text_pools = text_pools or {}

        self.ledger = CoverageLedger()
        self.utas: list[UtaRecord] = []
        self.executed = 0
        self.first_coverage_at: Optional[int] = None

        # the current observation: its index in the session, screen and state;
        # run_session observes the reset screen before any action
        self.observations = 0
        self.current_screen: Optional[_Screen] = None
        self.current_state: Optional[AbstractState] = None
        self.observer = Observer(model.dstg.abstract_states)
        # state id -> layout fingerprint of each state observed this session,
        # in last-visit order
        self.visited_layouts: dict[str, Counter] = {}
        self.created_this_session: set[str] = set()
        # states planned steps expected, by whether the step reached them
        self.retraversal_failures: set[str] = set()
        self.retraversal_successes: set[str] = set()
        self.triggered_inputs: set[str] = set()
        self.attempts_without_gain: dict[str, int] = {}
        # an observed state may differ from the expected one in these widgets
        self._update_widgets = set(model.diff_context.get("addedWidgets", ())) | set(
            model.diff_context.get("replacedWidgets", ())
        )
        # windows already carrying obsolete states; scope for propagation
        self.obsolete_scope = {
            s.window_id for s in model.dstg.abstract_states.values() if s.obsolete
        }
        # what plans read, kept in step with every change to the model below
        self.view = PlanView(model)
        # continue numbering after inherited states so new ids never collide
        taken = re.compile(r"^(?:st|at)-(\d+)$")
        self._counter = max(
            (
                int(m.group(1))
                for key in (
                    list(model.dstg.abstract_states)
                    + list(model.dstg.abstract_transitions)
                )
                if (m := taken.match(key))
            ),
            default=0,
        )

    # -- model bookkeeping ------------------------------------------------

    def _next_id(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _add_input(self, inp: Input) -> None:
        self.model.ewtg.inputs[inp.id] = inp
        self.view.add_input(inp)

    def _ensure_window(self, result: PerformResult) -> None:
        ewtg = self.model.ewtg
        if result.window_id in ewtg.windows:
            return
        ewtg.windows[result.window_id] = Window(
            id=result.window_id,
            name=result.window_id,
            kind=result.window_kind,
            class_name=result.window_class_name,
            runtime_created=True,
        )
        self._add_input(
            Input(
                id=f"ri-{result.window_id}-back",
                window_id=result.window_id,
                action_type=ActionType.PRESS_BACK,
            )
        )

    def _ensure_runtime_widgets(self, screen: _Screen) -> None:
        ewtg = self.model.ewtg
        for ref, (_, node, xpath) in screen.widgets.items():
            if ref in ewtg.widgets:
                continue
            ewtg.widgets[ref] = EwtgWidget(
                id=ref,
                window_id=screen.window_id,
                class_name=node.properties["className"],
                resource_id=node.properties["resourceId"],
                content_description=node.properties["contentDescription"],
                xpath=xpath,
                runtime_created=True,
            )
            for prop, action_type in _NODE_ACTIONS:
                if node.properties.get(prop):
                    input_id = f"ri-{ref}-{action_type.value}"
                    if input_id not in ewtg.inputs:
                        self._add_input(
                            Input(
                                id=input_id,
                                window_id=screen.window_id,
                                widget_id=ref,
                                action_type=action_type,
                            )
                        )

    def _tree(self, index: int, screen: _Screen, state: Optional[AbstractState]) -> GuiTree:
        """The concrete tree of the session's ``index``-th observation."""
        return GuiTree(
            id=f"t{index}",
            window_id=screen.window_id,
            root=screen.root,
            abstract_state_id=state.id if state is not None else None,
            session_index=index,
        )

    def _observe(self, result: PerformResult) -> AbstractState:
        screen, new = self.observer.screen(result)
        if new:  # a screen seen before has nothing the model lacks
            self._ensure_window(result)
            self._ensure_runtime_widgets(screen)
        dstg = self.model.dstg
        self.observations += 1
        level = LEVELS[dstg.level_for(result.window_id)]
        key = screen.state_key(level)
        match = self.observer.match(key)
        if match is None:  # only a new state is derived
            sid = self._next_id("st-")
            tree = self._tree(self.observations, screen, None)
            match = derive_abstract_state(tree, level, state_id=sid)
            dstg.abstract_states[sid] = match
            self.observer.add(match, key)
            self.created_this_session.add(sid)
            self.view.add_state(match)
        layout = self.visited_layouts.pop(match.id, None)
        if layout is None:
            layout = layout_fingerprint(match)
            match.observed_in_versions.add(self.model.version)
            # nothing flags a state obsolete while the session runs
            if match.obsolete:
                match.obsolete = False
                self.view.revive(match, dstg.abstract_states)
        self.visited_layouts[match.id] = layout  # the state moves to the end
        self.current_state = match
        self.current_screen = screen
        return match

    def _is_closing(self, action: Action, before: AbstractState, after: AbstractState) -> bool:
        if action.action_type == ActionType.PRESS_BACK:
            return True
        source_window = self.model.ewtg.windows.get(before.window_id)
        return (
            source_window is not None
            and source_window.kind == WindowKind.DIALOG
            and after.window_id != before.window_id
        )

    def _source_widget(self, state: AbstractState, widget_id: Optional[str]) -> Optional[str]:
        """The widget a transition from ``state`` names: ``widget_id`` when an
        AVM of the state is bound to it, else None."""
        return widget_id if widget_id in self.view.widgets_of[state.id] else None

    def _record_transition(
        self, before: AbstractState, action: Action, widget_id: Optional[str], after: AbstractState
    ) -> AbstractTransition:
        dstg = self.model.dstg
        payload = action.data_payload if action.action_type == ActionType.TEXT_FILL else None
        widget_id = self._source_widget(before, widget_id)
        closing = self._is_closing(action, before, after)
        for tr, _ in self.view.transitions_from.get(before.id, ()):
            if tr.widget_id != widget_id or tr.action_type != action.action_type:
                continue
            if tr.data_payload == payload:
                if tr.destination_state_id == after.id:
                    return tr
                # same state and input, different outcome: non-determinism.
                # Closing actions legitimately land wherever the closed screen
                # was opened from; the layout guard covers that case.
                if not closing:
                    self._refine_window(before.window_id)
        guard = None
        if closing:
            threshold = self.config.layout_similarity_threshold
            guard = make_layout_guard(after, self.visited_layouts, threshold)
        tr = AbstractTransition(
            id=self._next_id("at-"),
            source_state_id=before.id,
            widget_id=widget_id,
            action_type=action.action_type,
            destination_state_id=after.id,
            data_payload=payload,
            layout_guard=guard,
        )
        dstg.abstract_transitions[tr.id] = tr
        self.view.add_transition(tr, before, after)
        return tr

    def _refine_window(self, window_id: str) -> None:
        current = self.model.dstg.level_for(window_id)
        index = LEVEL_ORDER.index(current)
        if index + 1 < len(LEVEL_ORDER):
            self.model.dstg.abstraction_policy[window_id] = LEVEL_ORDER[index + 1]

    # -- execution --------------------------------------------------------

    def _budget_left(self) -> int:
        return self.budget - self.executed

    def _payload_for(self, widget_id: Optional[str]) -> str:
        pool = list(self.text_pools.get(widget_id, ())) or list(
            self.config.text_dictionary
        )
        return pool[self.rng.randrange(len(pool))]

    def _node_path_for_widget(self, widget_id: str) -> Optional[tuple[int, ...]]:
        first = self.current_screen.widgets.get(widget_id)
        return first[0] if first is not None else None

    def _perform(self, action: Action, widget_id: Optional[str]) -> Optional[PerformResult]:
        """Execute one action; returns None on driver rejection."""
        before_index, before_screen, before_state = (
            self.observations, self.current_screen, self.current_state
        )
        self.executed += 1
        try:
            result = self.driver.perform(action)
        except DriverRejection:
            return None
        matched = self.view.input_for.get(
            (before_state.window_id, widget_id, action.action_type)
        )
        if matched is not None:
            self.triggered_inputs.add(matched.id)
            # dynamically discovered handler methods enrich the static input
            matched.handler_method_ids.update(m for m, _, _ in result.executed)
        after_state = self._observe(result)
        newly = self.ledger.record(result.executed, self.targets)
        if newly and self.first_coverage_at is None:
            self.first_coverage_at = self.executed
        if newly:
            self.utas.append(
                UtaRecord(
                    before_tree=self._tree(before_index, before_screen, before_state),
                    action=action,
                    after_tree=self._tree(self.observations, self.current_screen, after_state),
                    newly_covered={k: sorted(v) for k, v in newly.items()},
                )
            )
        if matched is not None:
            if newly:
                self.attempts_without_gain[matched.id] = 0
            else:
                self.attempts_without_gain[matched.id] = (
                    self.attempts_without_gain.get(matched.id, 0) + 1
                )
        tr = self._record_transition(before_state, action, widget_id, after_state)
        self.model.gstg.trace.append(TraceStep(tr.id, action.concrete_node_path))
        return result

    def _execute_step(self, step: PlanStep) -> str:
        """Run one planned step; outcome is as-expected, backward-equivalent, or mismatch."""
        path: Optional[tuple[int, ...]] = None
        if step.widget_id is not None:
            path = self._node_path_for_widget(step.widget_id)
            if path is None:
                # MetaState expectation with the required widget absent, or a
                # stale deterministic step: either way the sequence dies here.
                return "mismatch"
        payload = step.data_payload
        if step.action_type == ActionType.TEXT_FILL and payload is None:
            payload = self._payload_for(step.widget_id)
        action = Action(
            input_id=step.input_id,
            action_type=step.action_type,
            concrete_node_path=path,
            data_payload=payload,
        )
        predecessor = self.current_state
        result = self._perform(action, step.widget_id)
        if result is None:
            return "mismatch"
        observed = self.current_state

        if isinstance(step.expected, MetaState):
            return (
                "as-expected"
                if observed.window_id == step.expected.window_id
                else "mismatch"
            )

        expected_id = step.expected
        if observed.id == expected_id:
            self.retraversal_successes.add(expected_id)
            return "as-expected"
        self.retraversal_failures.add(expected_id)
        expected = self.model.dstg.abstract_states.get(expected_id)
        if expected is not None and is_backward_equivalent(
            observed, expected, self._update_widgets
        ):
            return "backward-equivalent"
        self._online_refine(expected_id, observed, predecessor, step)
        return "mismatch"

    def _online_refine(
        self,
        expected_id: str,
        observed: AbstractState,
        predecessor: AbstractState,
        step: PlanStep,
    ) -> None:
        expected = self.model.dstg.abstract_states.get(expected_id)
        if expected is not None and self.model.version in expected.observed_in_versions:
            self._refine_window(predecessor.window_id)
            return
        # the expectation came from a past version and never materialized:
        # the learned edge is stale
        stale = (self._source_widget(predecessor, step.widget_id), step.action_type, expected_id)
        for tr, _ in list(self.view.transitions_from.get(predecessor.id, ())):
            if (tr.widget_id, tr.action_type, tr.destination_state_id) == stale:
                del self.model.dstg.abstract_transitions[tr.id]
                self.view.remove_transition(tr, predecessor)

    # -- exploration ------------------------------------------------------

    def random_explore(self, budget_slice: int) -> None:
        for _ in range(max(0, min(budget_slice, self._budget_left()))):
            candidates = self.current_screen.candidates
            if candidates:
                path, widget_id, action_type = candidates[
                    self.rng.randrange(len(candidates))
                ]
                payload = (
                    self._payload_for(widget_id)
                    if action_type == ActionType.TEXT_FILL
                    else None
                )
                action = Action(
                    input_id=f"explore-{self.executed + 1}",
                    action_type=action_type,
                    concrete_node_path=path,
                    data_payload=payload,
                )
                self._perform(action, widget_id)
            else:
                action = Action(
                    input_id=f"explore-{self.executed + 1}",
                    action_type=ActionType.PRESS_BACK,
                )
                self._perform(action, None)

    # -- phases -----------------------------------------------------------

    def _target_inputs(self) -> list[Input]:
        return sorted(
            (
                i
                for i in self.model.ewtg.inputs.values()
                if i.handler_method_ids & self.targets.target_method_ids
            ),
            key=lambda i: i.id,
        )

    def _fully_covered(self, inp: Input) -> bool:
        for method_id in sorted(inp.handler_method_ids & self.targets.target_method_ids):
            total = self.targets.instruction_counts.get(method_id, 0)
            if len(self.ledger.covered.get(method_id, ())) < total:
                return False
        return True

    def _pursue_input(self, inp: Input) -> int:
        start = self.executed
        sequence = self._plan(inp)
        if sequence is None:
            self.random_explore(min(5, self._budget_left()))
        else:
            self._follow_plan(sequence)
        return self.executed - start

    def _plan(self, target) -> Optional[ActionSequence]:
        return plan_to_target(
            self.model, self.current_state, target, self.visited_layouts, self.config, self.view
        )

    def _follow_plan(self, sequence: ActionSequence) -> None:
        """Execute planned steps until one mismatches or the budget runs out."""
        for step in sequence.steps:
            if self._budget_left() <= 0:
                break
            if self._execute_step(step) == "mismatch":
                break

    def _visit_window(self, window_id: str) -> None:
        window = self.model.ewtg.windows.get(window_id)
        if window is None or self.current_state.window_id == window_id:
            return
        sequence = self._plan(window)
        if sequence is not None:
            self._follow_plan(sequence)

    def _run_phase(self, cap: int, pending_fn, visit_related: bool) -> None:
        """Pursue pending inputs within ``cap`` actions; with ``visit_related``
        (phase 3), visit each input's related windows before pursuing it."""
        used_at_start = self.executed
        pursuits: dict[str, int] = {}
        while self._budget_left() > 0 and self.executed - used_at_start < cap:
            pending = [
                i
                for i in pending_fn()
                if pursuits.get(i.id, 0) < self.config.retrigger_cap
            ]
            if not pending:
                break
            progressed = False
            for inp in pending:
                if self._budget_left() <= 0 or self.executed - used_at_start >= cap:
                    break
                pursuits[inp.id] = pursuits.get(inp.id, 0) + 1
                if visit_related:
                    for related_id in self.related_windows.get(inp.window_id, []):
                        self._visit_window(related_id)
                consumed = self._pursue_input(inp)
                if consumed > 0:
                    progressed = True
            if not progressed:
                break

    def run_session(self) -> SessionResult:
        if self.budget > 0:
            self._observe(self.driver.reset())
            caps = [max(1, int(self.budget * c)) for c in self.config.phase_caps]

            def phase1_pending():
                return [
                    i for i in self._target_inputs() if i.id not in self.triggered_inputs
                ]

            def phase2_pending():
                return [
                    i
                    for i in self._target_inputs()
                    if not self._fully_covered(i)
                    and self.attempts_without_gain.get(i.id, 0)
                    < self.config.retrigger_cap
                ]

            self._run_phase(caps[0], phase1_pending, False)
            self._run_phase(caps[1], phase2_pending, False)
            self._run_phase(caps[2], phase2_pending, True)
            # residual budget goes to free exploration
            self.random_explore(self._budget_left())

            propagate_obsolescence(
                self.model,
                self.created_this_session,
                self.retraversal_failures,
                self.retraversal_successes,
                scope_window_ids=self.obsolete_scope or None,
            )
        return SessionResult(
            model=self.model,
            ledger=self.ledger,
            utas=self.utas,
            executed_actions=self.executed,
            actions_to_first_target_coverage=self.first_coverage_at,
            observed_state_ids=set(self.visited_layouts),
        )


def run_session(
    model: AppModel,
    targets: TargetSet,
    driver,
    budget: int,
    seed: int = 0,
    config: Optional[EngineConfig] = None,
    related_windows: Optional[dict[str, list[str]]] = None,
    text_pools: Optional[dict[str, list[str]]] = None,
) -> SessionResult:
    engine = TestEngine(
        model,
        targets,
        driver,
        budget,
        seed=seed,
        config=config,
        related_windows=related_windows,
        text_pools=text_pools,
    )
    return engine.run_session()


def propagate_obsolescence(
    model: AppModel,
    created: set[str],
    missed: set[str],
    reached: set[str],
    scope_window_ids: Optional[set[str]] = None,
) -> AppModel:
    """Flag each session-created state that a planned step expected and missed
    and none reached; with ``scope_window_ids``, only states of those windows
    (windows already known to shed states quickly)."""
    for sid in (created & missed) - reached:
        state = model.dstg.abstract_states.get(sid)
        if state is None:
            continue
        if scope_window_ids is not None and state.window_id not in scope_window_ids:
            continue
        state.obsolete = True
    return model
