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
    NODE_ACTIONS,
    AbstractionLevel,
    derive_abstract_state,
    is_backward_equivalent,
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
    """Covered instructions per method.

    A session executes the same few instruction ranges over and over; a range
    recorded before covers nothing new, so ``record`` skips it."""

    covered: dict[str, set[int]] = field(default_factory=dict)
    _recorded: set[tuple[str, int, int]] = field(default_factory=set, repr=False)

    def record(
        self, ranges: tuple[tuple[str, int, int], ...], targets: TargetSet
    ) -> dict[str, set[int]]:
        newly: dict[str, set[int]] = {}
        for span in ranges:
            if span in self._recorded:
                continue
            self._recorded.add(span)
            method_id, lo, hi = span
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
    # (observation index, window id, root, state id) of the screen the action
    # acted on and of the one it reached; a root, not the ``_Screen``, which
    # holds the observer's table of keys
    before: tuple[int, str, GuiNode, str]
    action: Action
    after: tuple[int, str, GuiNode, str]
    newly_covered: dict[str, list[int]]

    @property
    def newly_covered_instruction_count(self) -> int:
        return sum(len(v) for v in self.newly_covered.values())

    def to_dict(self) -> dict:
        return {
            "beforeTree": _tree_dict(*self.before),
            # reports show each action's cost; the model's trace does not store it
            "action": {**self.action.to_dict(), "cost": self.action.cost},
            "afterTree": _tree_dict(*self.after),
            "newlyCovered": {
                k: sorted(v) for k, v in sorted(self.newly_covered.items())
            },
            "newlyCoveredInstructionCount": self.newly_covered_instruction_count,
        }


def _tree_dict(index: int, window_id: str, root: GuiNode, state_id: str) -> dict:
    """A report's record of the session's ``index``-th observation."""
    return {
        "id": f"t{index}",
        "windowId": window_id,
        "root": root.to_dict(),
        "abstractStateId": state_id,
        "sessionIndex": index,
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
        covered_methods = self.ledger.covered_target_methods(targets)
        return {
            "summary": {
                "version": self.model.version,
                "executedActions": self.executed_actions,
                "utaCount": len(self.utas),
                "targetMethodCount": n_methods,
                "coveredTargetMethods": covered_methods,
                "targetMethodCoverage": covered_methods / n_methods if n_methods else 0.0,
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


# members the per-action code compares with, bound once: on CPython 3.11,
# reading a member off its enum class costs about ten times a module global
_PRESS_BACK = ActionType.PRESS_BACK
_TEXT_FILL = ActionType.TEXT_FILL
_DIALOG = WindowKind.DIALOG
# what exploration does on a screen with nothing to act on
_EXPLORE_BACK = Action(None, _PRESS_BACK)


def _state_key(window_id: str, level: str, multiset: dict[tuple, int]) -> tuple:
    """What an observation has to share with a state to match it."""
    return (window_id, level, frozenset(multiset.items()))


class _Screen:
    """What the session and the replay read off one screen, each fact once.

    Screens are never mutated (see ``GuiNode``), so the facts hold for as long
    as the driver hands the same screen back.  The engine keeps the current
    observation as its index, its screen and its state.  A state key is made
    from the screen's valuation multiset, which ``valuation_groups`` computes
    in the one walk a new state's AVMs come from too, and is taken from
    ``interned``, the observer's one object per distinct key, so that equal
    keys are the same object.  A unique target action's report records the
    window id and root of the screens it acted on and reached.

    Each action exploration may pick on the screen is built here, once, as a
    ``(widget ref, Action)`` pair whose action has no input id; exploration
    draws these shared actions and names one only when it is reported.
    """

    def __init__(self, window_id: str, root: GuiNode, interned: dict[tuple, tuple]):
        self.window_id = window_id
        self.root = root
        self._interned = interned
        self.keys: dict[str, tuple] = {}  # level name -> state key, once computed
        # widget ref -> (node path, node, xpath) of its first node in pre-order
        self.widgets: dict[str, tuple[tuple[int, ...], GuiNode, str]] = {}
        # (widget ref, action) of every action exploration may pick
        self.candidates: list[tuple[Optional[str], Action]] = []
        # pre-order (children left to right); an xpath lists the class
        # names of the nodes below the root down to the node
        stack: list[tuple[tuple[int, ...], GuiNode, str]] = [((), root, "/")]
        while stack:
            path, node, xpath = stack.pop()
            ref = node.widget_ref
            if ref is not None and ref not in self.widgets:
                self.widgets[ref] = (path, node, xpath)
            if not (node.bounds_hint and node.bounds_hint.get("tiny")):
                self.candidates.extend(
                    (ref, Action(None, action_type, path))
                    for prop, action_type in NODE_ACTIONS
                    if node.properties.get(prop)
                )
            prefix = xpath if path else ""
            for i in range(len(node.children) - 1, -1, -1):
                child = node.children[i]
                stack.append(
                    (path + (i,), child, f"{prefix}/{child.properties['className']}")
                )

    def state_key(self, level: AbstractionLevel) -> tuple:
        """The key at ``level``, computed once; ``keys`` holds those computed."""
        key = self.keys.get(level.name)
        if key is None:
            key = _state_key(self.window_id, level.name, valuation_multiset(self.root, level))
            key = self.keys[level.name] = self._interned.setdefault(key, key)
        return key


class Observer:
    """Which known state a screen is, for the session and the replay alike.

    It keeps a ``_Screen`` per screen the driver hands back, keyed by its
    identity, each known state's key, and per key the state with the lowest
    id in string order: the state a screen with that key matches.  A
    hand-written model may hold two states with one key, so replay compares
    keys rather than matched states.

    It keeps one object per distinct key, and states and screens take their
    keys from it, so two keys are equal exactly when they are the same
    object: matching a screen to a state, or a replayed screen to the state
    its step expects, compares identities instead of multisets.
    """

    def __init__(self, states: dict[str, AbstractState]):
        self.screens: dict[GuiNode, _Screen] = {}  # root -> its screen
        self._interned: dict[tuple, tuple] = {}  # state key -> the one object for it
        self._keys: dict[str, tuple] = {}  # state id -> state key
        self.states: dict[tuple, AbstractState] = {}  # state key -> lowest-id state
        for sid in sorted(states):
            s = states[sid]
            key = _state_key(s.window_id, s.abstraction_level, s.valuation_multiset())
            self.add(s, self._interned.setdefault(key, key))

    def screen(self, result: PerformResult) -> _Screen:
        """The result's screen, made the first time; ``screens`` holds those made."""
        screen = self.screens.get(result.root)
        if screen is None:
            screen = self.screens[result.root] = _Screen(
                result.window_id, result.root, self._interned
            )
        return screen

    def key(self, state: AbstractState) -> tuple:
        return self._keys[state.id]

    def add(self, state: AbstractState, key: tuple) -> None:
        """Record ``state`` under ``key``, a key this observer handed out."""
        self._keys[state.id] = key
        self.states.setdefault(key, state)


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
        # (transition id, node path) -> the one trace step for it, as
        # ``Gstg.from_dict`` shares a repeated step
        self._steps: dict[tuple, TraceStep] = {}
        for step in model.gstg.trace:
            self._steps.setdefault((step.transition_id, step.concrete_node_path), step)
        # (before state id, before screen, candidate index, result, payload) of
        # an exploration step that refined no window -> (matched input, after
        # screen, after state, trace step): what taking that step again leads
        # to.  A level change or a removed transition can change that, so each
        # replaces the table with an empty one.  The key holds the state as
        # well as the screen, since a refinement leaves the current state at
        # the old level until the next observation.
        self._explored: dict[tuple, tuple] = {}
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
        # windows already carrying obsolete states; the scope of _flag_obsolete
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
            for prop, action_type in NODE_ACTIONS:
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

    def _observe(self, result: PerformResult) -> AbstractState:
        observer = self.observer
        screen = observer.screens.get(result.root)
        if screen is None:  # a screen seen before has nothing the model lacks
            screen = observer.screen(result)
            self._ensure_window(result)
            self._ensure_runtime_widgets(screen)
        dstg = self.model.dstg
        self.observations += 1
        level_name = dstg.abstraction_policy.get(result.window_id, "L1")
        key = screen.keys.get(level_name)
        if key is None:
            key = screen.state_key(LEVELS[level_name])
        match = observer.states.get(key)
        if match is None:  # only a new state is derived
            sid = self._next_id("st-")
            match = derive_abstract_state(screen.window_id, screen.root, LEVELS[level_name], sid)
            dstg.abstract_states[sid] = match
            observer.add(match, key)
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

    def _record_transition(
        self, before: AbstractState, action: Action, widget_id: Optional[str], after: AbstractState
    ) -> AbstractTransition:
        action_type = action.action_type
        payload = action.data_payload if action_type is _TEXT_FILL else None
        # a transition names the widget only when an AVM of its source is bound to it
        if widget_id not in self.view.widgets_of[before.id]:
            widget_id = None
        # pressing back, or leaving a dialog for another window, closes a screen
        closing = action_type is _PRESS_BACK
        if not closing and after.window_id != before.window_id:
            source_window = self.model.ewtg.windows.get(before.window_id)
            closing = source_window is not None and source_window.kind is _DIALOG
        for tr, _ in self.view.transitions_from.get(before.id, ()):
            if tr.widget_id != widget_id or tr.action_type is not action_type:
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
            action_type=action_type,
            destination_state_id=after.id,
            data_payload=payload,
            layout_guard=guard,
        )
        self.model.dstg.abstract_transitions[tr.id] = tr
        self.view.add_transition(tr, before, after)
        return tr

    def _refine_window(self, window_id: str) -> None:
        current = self.model.dstg.level_for(window_id)
        index = LEVEL_ORDER.index(current)
        if index + 1 < len(LEVEL_ORDER):
            self.model.dstg.abstraction_policy[window_id] = LEVEL_ORDER[index + 1]
            self._explored = {}

    # -- execution --------------------------------------------------------

    def _budget_left(self) -> int:
        return self.budget - self.executed

    def _payload_for(self, widget_id: Optional[str]) -> str:
        pool = self.text_pools.get(widget_id) or self.config.text_dictionary
        return self.rng.choice(pool)

    def _node_path_for_widget(self, widget_id: str) -> Optional[tuple[int, ...]]:
        first = self.current_screen.widgets.get(widget_id)
        return first[0] if first is not None else None

    def _perform(
        self, action: Action, widget_id: Optional[str], index: Optional[int] = None
    ) -> Optional[PerformResult]:
        """Execute one action; returns None on driver rejection.  An action
        without an input id is exploration's, named ``explore-<n>`` after
        the ``n``-th action of the session only if it is reported.

        Exploration passes the ``index`` of the candidate it drew, and its
        step is looked up in ``_explored`` first.  A step found there was
        taken before from the same state and screen with the same outcome,
        so only what a repeat changes is done: the observation is counted,
        its state moves to the end of ``visited_layouts``, the matched input
        gets one more attempt without gain and the trace one more step."""
        before_index, before_screen, before_state = (
            self.observations, self.current_screen, self.current_state
        )
        self.executed += 1
        try:
            result = self.driver.perform(action)
        except DriverRejection:
            return None
        explored = self._explored
        if index is not None:
            key = (before_state.id, before_screen, index, result, action.data_payload)
            known = explored.get(key)
            if known is not None:
                matched, screen, state, step = known
                self.observations += 1
                self.visited_layouts[state.id] = self.visited_layouts.pop(state.id)
                self.current_screen = screen
                self.current_state = state
                if matched is not None:
                    self.attempts_without_gain[matched.id] += 1
                self.model.gstg.trace.append(step)
                return result
        matched = self.view.input_for.get(
            (before_state.window_id, widget_id, action.action_type)
        )
        if matched is not None:
            self.triggered_inputs.add(matched.id)
            if result.executed:
                # dynamically discovered handler methods enrich the static input
                for method_id, _, _ in result.executed:
                    matched.handler_method_ids.add(method_id)
        after_state = self._observe(result)
        after_screen = self.current_screen
        newly = self.ledger.record(result.executed, self.targets) if result.executed else None
        if newly:
            if self.first_coverage_at is None:
                self.first_coverage_at = self.executed
            if action.input_id is None:
                action = Action(
                    f"explore-{self.executed}", action.action_type,
                    action.concrete_node_path, action.data_payload,
                )
            self.utas.append(
                UtaRecord(
                    (before_index, before_screen.window_id, before_screen.root, before_state.id),
                    action,
                    (self.observations, result.window_id, result.root, after_state.id),
                    {k: sorted(v) for k, v in newly.items()},
                )
            )
            if matched is not None:
                self.attempts_without_gain[matched.id] = 0
        elif matched is not None:
            self.attempts_without_gain[matched.id] = (
                self.attempts_without_gain.get(matched.id, 0) + 1
            )
        tr = self._record_transition(before_state, action, widget_id, after_state)
        step_key = (tr.id, action.concrete_node_path)
        step = self._steps.get(step_key)
        if step is None:
            step = self._steps[step_key] = TraceStep(*step_key)
        self.model.gstg.trace.append(step)
        # a repeat ends as this step did and covers nothing, unless a window
        # was refined meanwhile, which replaced the table
        if index is not None and explored is self._explored:
            explored[key] = (matched, after_screen, after_state, step)
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
        if step.action_type == _TEXT_FILL and payload is None:
            payload = self._payload_for(step.widget_id)
        action = Action(step.input_id, step.action_type, path, payload)
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
        # a planned step names a state the plan read from the model, and a
        # session deletes no state
        expected = self.model.dstg.abstract_states[expected_id]
        if is_backward_equivalent(observed, expected, self._update_widgets):
            return "backward-equivalent"
        self._online_refine(expected, predecessor, step)
        return "mismatch"

    def _online_refine(
        self, expected: AbstractState, predecessor: AbstractState, step: PlanStep
    ) -> None:
        if self.model.version in expected.observed_in_versions:
            self._refine_window(predecessor.window_id)
            return
        # the expectation came from a past version and never materialized:
        # the learned edge is stale
        widget_id = step.widget_id
        if widget_id not in self.view.widgets_of[predecessor.id]:
            widget_id = None
        stale = (widget_id, step.action_type, expected.id)
        for tr, _ in list(self.view.transitions_from.get(predecessor.id, ())):
            if (tr.widget_id, tr.action_type, tr.destination_state_id) == stale:
                del self.model.dstg.abstract_transitions[tr.id]
                self.view.remove_transition(tr, predecessor)
                self._explored = {}

    # -- exploration ------------------------------------------------------

    def random_explore(self, budget_slice: int) -> None:
        """Perform up to ``budget_slice`` random actions, each drawn from the
        current screen's prebuilt candidates, or a press-back when it has
        none.  The candidate's index is drawn over the index range, which
        draws from the generator exactly as drawing from the candidates
        does; ``_perform`` keys its table of known steps by that index.
        Only a text fill builds an action, for the payload it draws after
        the candidate."""
        for _ in range(max(0, min(budget_slice, self._budget_left()))):
            candidates = self.current_screen.candidates
            if candidates:
                index = self.rng.choice(range(len(candidates)))
                widget_id, action = candidates[index]
                if action.action_type is _TEXT_FILL:
                    action = Action(
                        None, _TEXT_FILL, action.concrete_node_path,
                        self._payload_for(widget_id),
                    )
            else:  # no candidate index is negative
                index, widget_id, action = -1, None, _EXPLORE_BACK
            self._perform(action, widget_id, index)

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

            self._flag_obsolete()
        return SessionResult(
            model=self.model,
            ledger=self.ledger,
            utas=self.utas,
            executed_actions=self.executed,
            actions_to_first_target_coverage=self.first_coverage_at,
            observed_state_ids=set(self.visited_layouts),
        )

    def _flag_obsolete(self) -> None:
        """Flag each state this session created that a planned step expected
        and missed and none reached.  Windows that already carry obsolete
        states are known to shed states quickly: when any window does, only
        states of those windows are flagged."""
        states = self.model.dstg.abstract_states
        missed = self.created_this_session & self.retraversal_failures
        for sid in missed - self.retraversal_successes:
            state = states[sid]
            if not self.obsolete_scope or state.window_id in self.obsolete_scope:
                state.obsolete = True


def run_session(
    model: AppModel, targets: TargetSet, driver, budget: int, **options
) -> SessionResult:
    """Run one session; ``options`` are ``TestEngine``'s keyword arguments."""
    return TestEngine(model, targets, driver, budget, **options).run_session()
