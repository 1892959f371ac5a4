"""Post-session model refinement.

After a session the learned graph is pruned of states that should have been
seen but were not, and the recorded trace is replayed to discover states that
the app no longer reproduces; those are flagged obsolete rather than deleted,
so the planner avoids them while the model keeps their history.
"""

from __future__ import annotations

import warnings
from typing import Iterable, Optional

from .abstraction import LEVELS, valuation_multiset
from .abstraction import derive_abstract_state  # noqa: F401  perfbench traces it here
from .harness import DriverRejection
from .model import AbstractState, Action, AppModel, GuiNode


def prune_unvisited(model: AppModel, observed_state_ids: Iterable[str]) -> AppModel:
    """Drop never-observed states of windows that the session did visit."""
    observed = set(observed_state_ids)
    dstg = model.dstg
    visited_windows = {
        dstg.abstract_states[sid].window_id
        for sid in observed
        if sid in dstg.abstract_states
    }
    doomed = {
        sid
        for sid, state in dstg.abstract_states.items()
        if state.window_id in visited_windows and sid not in observed
    }
    for sid in doomed:
        del dstg.abstract_states[sid]
    for tr_id in list(dstg.abstract_transitions):
        tr = dstg.abstract_transitions[tr_id]
        if tr.source_state_id in doomed or tr.destination_state_id in doomed:
            del dstg.abstract_transitions[tr_id]
    return model


def _states_match(
    expected_state: AbstractState,
    expected_multiset: dict,
    observed_result,
    screens: dict[tuple[GuiNode, str], dict],
) -> bool:
    """Whether the observed screen matches the expected state; ``screens``
    holds each (screen, level) multiset worked out so far."""
    if observed_result.window_id != expected_state.window_id:
        return False
    key = (observed_result.root, expected_state.abstraction_level)
    observed = screens.get(key)
    if observed is None:
        level = LEVELS[expected_state.abstraction_level]
        observed = screens[key] = valuation_multiset(observed_result.root, level)
    return observed == expected_multiset


def replay_flag_obsolete(model: AppModel, driver) -> AppModel:
    """Re-run the recorded trace; expected states that fail to reappear are flagged.

    Each step performs its transition's action on its node and expects its
    transition's destination.
    """
    trace = model.gstg.trace
    if not trace:
        return model
    try:
        driver.reset()
    except Exception as exc:  # pragma: no cover - defensive
        warnings.warn(f"replay aborted at reset: {exc}")
        return model
    dstg = model.dstg
    # (transition id, node path) -> the step's action and expected state
    steps: dict[tuple, tuple[Action, AbstractState]] = {}
    multisets: dict[str, dict] = {}  # expected state id -> valuation multiset
    screens: dict[tuple[GuiNode, str], dict] = {}  # (screen, level) -> multiset
    for step in trace:
        key = (step.transition_id, step.concrete_node_path)
        known = steps.get(key)
        if known is None:
            tr = dstg.abstract_transitions[step.transition_id]
            action = Action(tr.id, tr.action_type, step.concrete_node_path, tr.data_payload)
            known = steps[key] = (action, dstg.abstract_states[tr.destination_state_id])
        action, expected = known
        try:
            result = driver.perform(action)
        except DriverRejection:
            result = None
        except Exception as exc:
            warnings.warn(f"replay aborted mid-trace: {exc}")
            return model
        multiset = multisets.get(expected.id)
        if multiset is None:
            multiset = multisets[expected.id] = expected.valuation_multiset()
        if result is None or not _states_match(expected, multiset, result, screens):
            expected.obsolete = True
    return model


def propagate_obsolescence(
    model: AppModel,
    created: set[str],
    missed: set[str],
    reached: set[str],
    scope_window_ids: Optional[set[str]] = None,
) -> AppModel:
    """Flag session-created states whose incoming edges never re-traversed.

    ``missed`` holds the states a planned step expected and did not reach,
    ``reached`` those a planned step expected and reached; a created state
    that was missed and never reached is flagged.  When ``scope_window_ids``
    is given, only states of those windows are considered (windows already
    known to shed states quickly).
    """
    for sid in (created & missed) - reached:
        state = model.dstg.abstract_states.get(sid)
        if state is None:
            continue
        if scope_window_ids is not None and state.window_id not in scope_window_ids:
            continue
        state.obsolete = True
    return model
