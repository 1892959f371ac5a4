"""Post-session model refinement.

After a session the learned graph is pruned of states that should have been
seen but were not, and the recorded trace is replayed to discover states that
the app no longer reproduces; those are flagged obsolete rather than deleted,
so the planner avoids them while the model keeps their history.  Replay asks
the engine's ``Observer`` which state a screen is, as the session does.
"""

from __future__ import annotations

import warnings
from typing import Iterable

from .abstraction import LEVELS
from .abstraction import derive_abstract_state  # noqa: F401  perfbench traces it here
from .engine import Observer
from .harness import DriverRejection
from .model import AbstractState, Action, AppModel


def prune_unvisited(model: AppModel, observed_state_ids: Iterable[str]) -> None:
    """Drop never-observed states of windows that the session did visit,
    but not the guard state of a transition that keeps both its ends."""
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
    # a state stays while it guards a transition whose ends both stay
    while True:
        guards = {
            tr.layout_guard
            for tr in dstg.abstract_transitions.values()
            if tr.layout_guard in doomed
            and tr.source_state_id not in doomed
            and tr.destination_state_id not in doomed
        }
        if not guards:
            break
        doomed -= guards
    dstg.drop_states(doomed)


def replay_flag_obsolete(model: AppModel, driver) -> None:
    """Re-run the recorded trace; expected states that fail to reappear are flagged.

    Each step performs its transition's action on its node and expects its
    transition's destination.
    """
    trace = model.gstg.trace
    if not trace:
        return
    try:
        driver.reset()
    except Exception as exc:  # pragma: no cover - defensive
        warnings.warn(f"replay aborted at reset: {exc}")
        return
    dstg = model.dstg
    observer = Observer(dstg.abstract_states)
    # (transition id, node path) -> the step's action, its expected state,
    # that state's level and key
    steps: dict[tuple, tuple[Action, AbstractState, str, tuple]] = {}
    for step in trace:
        key = (step.transition_id, step.concrete_node_path)
        known = steps.get(key)
        if known is None:
            tr = dstg.abstract_transitions[step.transition_id]
            action = Action(tr.id, tr.action_type, step.concrete_node_path, tr.data_payload)
            expected = dstg.abstract_states[tr.destination_state_id]
            known = steps[key] = (
                action, expected, expected.abstraction_level, observer.key(expected)
            )
        action, expected, level_name, expected_key = known
        try:
            result = driver.perform(action)
        except DriverRejection:
            expected.obsolete = True
            continue
        except Exception as exc:
            warnings.warn(f"replay aborted mid-trace: {exc}")
            return
        screen = observer.screen(result)
        key = screen.keys.get(level_name)
        if key is None:
            key = screen.state_key(LEVELS[level_name])
        # the observer hands out one object per key
        if key is not expected_key:
            expected.obsolete = True
