"""Carry a learned model over to a new app version.

The base model's learned state graph is copied once and rewritten according
to the diff in a single cleanup pass: learned instances of deleted or
replaced window transitions are dropped, states and AVMs whose window or
widget the diff does not pair (deleted, or created at runtime and so never
compared) disappear with the transitions they carried, paired elements are
rebound to their counterpart, and anything left disconnected from the
launcher window's states is pruned.  The session trace is not carried over,
and the static layer is the new version's window graph itself, not a copy.
"""

from __future__ import annotations

import copy

from .diff import DiffResult
from .model import AppModel, Dstg, Ewtg, Gstg, validate_integrity


class AdaptationError(Exception):
    pass


def update_dstg(dstg: Dstg, diff: DiffResult, ewtg: Ewtg) -> Dstg:
    """Apply the diff to the given learned state graph in place and return it."""
    window_mapping = diff.window_mapping()
    widget_mapping = diff.widget_mapping()

    # (a) drop states of windows the diff does not pair, and (b) AVMs of
    # widgets it does not pair: deleted elements and runtime-created ones,
    # which the diff never compares.  (d, e) Rebind the rest to their pairs.
    for sid, state in list(dstg.abstract_states.items()):
        if state.window_id not in window_mapping:
            del dstg.abstract_states[sid]
            continue
        state.window_id = window_mapping[state.window_id]
        state.avms = [
            avm
            for avm in state.avms
            if avm.ewtg_widget_id is None or avm.ewtg_widget_id in widget_mapping
        ]
        for avm in state.avms:
            if avm.ewtg_widget_id is not None:
                avm.ewtg_widget_id = widget_mapping[avm.ewtg_widget_id]

    # (c) drop transitions left dangling by (a) and (b)
    for tr_id, tr in list(dstg.abstract_transitions.items()):
        src = dstg.abstract_states.get(tr.source_state_id)
        if (
            src is None
            or tr.destination_state_id not in dstg.abstract_states
            or (tr.source_avm_id is not None and src.avm_by_id(tr.source_avm_id) is None)
        ):
            del dstg.abstract_transitions[tr_id]

    # abstraction policy follows its windows
    dstg.abstraction_policy = {
        window_mapping[window_id]: level
        for window_id, level in dstg.abstraction_policy.items()
        if window_id in window_mapping
    }

    # (f) drop components not containing a launcher-window state
    _prune_disconnected(dstg, ewtg.launcher_window_id)
    return dstg


def _prune_disconnected(dstg: Dstg, launcher_window_id) -> None:
    if not dstg.abstract_states:
        return
    launcher_states = {
        s.id for s in dstg.abstract_states.values() if s.window_id == launcher_window_id
    }
    if not launcher_states:
        # no anchor: only remove fully isolated states
        linked = set()
        for tr in dstg.abstract_transitions.values():
            linked.add(tr.source_state_id)
            linked.add(tr.destination_state_id)
        for sid in list(dstg.abstract_states):
            if sid not in linked:
                del dstg.abstract_states[sid]
        return

    adjacency: dict[str, set[str]] = {sid: set() for sid in dstg.abstract_states}
    for tr in dstg.abstract_transitions.values():
        adjacency[tr.source_state_id].add(tr.destination_state_id)
        adjacency[tr.destination_state_id].add(tr.source_state_id)

    reachable: set[str] = set()
    frontier = list(launcher_states)
    while frontier:
        sid = frontier.pop()
        if sid in reachable:
            continue
        reachable.add(sid)
        frontier.extend(adjacency.get(sid, ()))

    for sid in list(dstg.abstract_states):
        if sid not in reachable:
            del dstg.abstract_states[sid]
    for tr_id in list(dstg.abstract_transitions):
        tr = dstg.abstract_transitions[tr_id]
        if tr.source_state_id not in reachable or tr.destination_state_id not in reachable:
            del dstg.abstract_transitions[tr_id]


def _remove_stale_transition_edges(dstg: Dstg, diff: DiffResult, base: AppModel) -> None:
    """Drop abstract transitions that instantiate deleted or replaced window transitions."""
    doomed = set(diff.replaced_transitions) | set(diff.deleted_transitions)
    if not doomed:
        return
    base_ewtg = base.ewtg
    # key: (source window id, widget id or None, action type) of the base transition
    doomed_keys = set()
    for wt_id in doomed:
        wt = base_ewtg.window_transitions.get(wt_id)
        if wt is None:
            continue
        inp = base_ewtg.inputs.get(wt.input_id)
        if inp is None:
            continue
        doomed_keys.add((inp.window_id, inp.widget_id, inp.action_type))

    base_states = base.dstg.abstract_states
    for tr_id in list(dstg.abstract_transitions):
        tr = dstg.abstract_transitions[tr_id]
        base_state = base_states.get(tr.source_state_id)
        if base_state is None:
            continue
        widget_id = None
        if tr.source_avm_id is not None:
            avm = base_state.avm_by_id(tr.source_avm_id)
            if avm is not None:
                widget_id = avm.ewtg_widget_id
        if (base_state.window_id, widget_id, tr.action_type) in doomed_keys:
            del dstg.abstract_transitions[tr_id]


def adapt_model(
    base: AppModel, updated_ewtg: Ewtg, diff: DiffResult, version: str = ""
) -> AppModel:
    """Produce the model to start the updated version's session from.

    The returned model takes ownership of ``updated_ewtg``: it becomes the
    model's static layer as is, and the session run on the model adds its
    runtime-discovered windows and widgets to it.  Pass a window graph that
    nothing else holds, such as a fresh ``export_ewtg`` result, and do not
    use it afterwards.  ``base`` is not changed; its learned state graph is
    copied.
    """
    for base_id in diff.replaced_windows:
        if base_id not in base.ewtg.windows:
            raise AdaptationError(f"diff references unknown base window {base_id}")
    for upd_id in diff.replaced_windows.values():
        if upd_id not in updated_ewtg.windows:
            raise AdaptationError(f"diff references unknown updated window {upd_id}")

    dstg = copy.deepcopy(base.dstg)
    _remove_stale_transition_edges(dstg, diff, base)
    update_dstg(dstg, diff, updated_ewtg)

    model = AppModel(
        version=version or base.version,
        ewtg=updated_ewtg,
        dstg=dstg,
        gstg=Gstg(),
        diff_context={
            "addedWidgets": sorted(diff.added_widgets),
            "replacedWidgets": sorted(diff.replaced_widgets.values()),
        },
    )
    violations = validate_integrity(model)
    if violations:
        raise AdaptationError("adapted model is inconsistent: " + "; ".join(violations))
    return model
