"""Carry a learned model over to a new app version.

The adapted model takes over both layers it is made from: the new version's
window graph as its static layer, and the base model's learned state graph,
rewritten in place according to the diff.  States and AVMs whose window or
widget the diff does not pair (deleted, or created at runtime and so never
compared) are dropped and the rest rebound to their counterparts; a state
goes with every transition into, out of or guarded by it.  Then a single
pass over the transitions, in the new version's ids, drops those whose
widget lost its AVM and the learned instances of deleted or replaced window
transitions, and rebinds the rest to their widget's pair; and anything left
disconnected from the launcher window's states is pruned.  The session trace
is not carried over.
"""

from __future__ import annotations

from .diff import DiffResult
from .model import AppModel, Dstg, Ewtg, Gstg, bind_widget, validate_integrity, without_gc


class AdaptationError(Exception):
    pass


def update_dstg(dstg: Dstg, diff: DiffResult, ewtg: Ewtg, base_ewtg: Ewtg) -> None:
    """Apply the diff to the given learned state graph in place.

    ``ewtg`` is the updated version's window graph and ``base_ewtg`` the one
    the learned graph was built on; every id the diff names is in the graph
    of its side (see ``_check_diff_ids``).
    """
    window_mapping = diff.window_mapping()
    widget_mapping = diff.widget_mapping()

    # (a) drop states of windows the diff does not pair, with their
    # transitions, and (b) AVMs of widgets it does not pair: deleted elements
    # and runtime-created ones, which the diff never compares.  (d, e) Rebind
    # the rest to their pairs, an AVM with its pair's identity.
    dstg.drop_states(
        [sid for sid, s in dstg.abstract_states.items() if s.window_id not in window_mapping]
    )
    for state in dstg.abstract_states.values():
        state.window_id = window_mapping[state.window_id]
        state.avms = [
            avm
            for avm in state.avms
            if avm.ewtg_widget_id is None or avm.ewtg_widget_id in widget_mapping
        ]
        for avm in state.avms:
            if avm.ewtg_widget_id is not None:
                bind_widget(avm, ewtg.widgets[widget_mapping[avm.ewtg_widget_id]])

    # the trigger (window, widget or None, action) of each deleted or replaced
    # window transition, in the updated version's ids; the mappings are
    # one-to-one, and a trigger on an unpaired window or widget is left out
    # because (a) and (b) dropped everything it would match
    doomed = set()
    for wt_id in [*diff.deleted_transitions, *diff.replaced_transitions]:
        inp = base_ewtg.inputs[base_ewtg.window_transitions[wt_id].input_id]
        if inp.window_id not in window_mapping:
            continue
        if inp.widget_id is not None and inp.widget_id not in widget_mapping:
            continue
        window_id, widget_id = window_mapping[inp.window_id], widget_mapping.get(inp.widget_id)
        doomed.add((window_id, widget_id, inp.action_type))

    # (c) drop transitions whose widget (b) dropped, and the learned instances
    # of the doomed triggers; rebind the rest to their widget's pair
    for tr_id, tr in list(dstg.abstract_transitions.items()):
        src = dstg.abstract_states[tr.source_state_id]
        widget_id = widget_mapping.get(tr.widget_id)
        unpaired = tr.widget_id is not None and widget_id is None
        if unpaired or (src.window_id, widget_id, tr.action_type) in doomed:
            del dstg.abstract_transitions[tr_id]
        else:
            tr.widget_id = widget_id

    # abstraction policy follows its windows
    dstg.abstraction_policy = {
        window_mapping[window_id]: level
        for window_id, level in dstg.abstraction_policy.items()
        if window_id in window_mapping
    }

    # (f) drop components not containing a launcher-window state
    _prune_disconnected(dstg, ewtg.launcher_window_id)


def _check_diff_ids(diff: DiffResult, base_ewtg: Ewtg, updated_ewtg: Ewtg) -> None:
    """Raise AdaptationError unless every id the diff names is in the window
    graph of its side: deleted ids and the first of each pair in the base
    one, added ids and the second of each pair in the updated one."""
    checks = (
        ("base window", base_ewtg.windows,
         (diff.deleted_windows, diff.replaced_windows, diff.matched_windows)),
        ("updated window", updated_ewtg.windows,
         (diff.added_windows, diff.replaced_windows.values(), diff.matched_windows.values())),
        ("base widget", base_ewtg.widgets,
         (diff.deleted_widgets, diff.replaced_widgets, diff.matched_widgets)),
        ("updated widget", updated_ewtg.widgets,
         (diff.added_widgets, diff.replaced_widgets.values(), diff.matched_widgets.values())),
        ("base transition", base_ewtg.window_transitions,
         (diff.deleted_transitions, diff.replaced_transitions, diff.matched_transitions)),
        ("updated transition", updated_ewtg.window_transitions,
         (diff.added_transitions, diff.replaced_transitions.values(),
          diff.matched_transitions.values())),
    )
    for what, known, groups in checks:
        unknown = [i for group in groups for i in group if i not in known]
        if unknown:
            raise AdaptationError(f"diff references unknown {what} {min(unknown)}")


def _prune_disconnected(dstg: Dstg, launcher_window_id) -> None:
    launcher_states = {
        s.id for s in dstg.abstract_states.values() if s.window_id == launcher_window_id
    }
    adjacency: dict[str, set[str]] = {sid: set() for sid in dstg.abstract_states}
    for tr in dstg.abstract_transitions.values():
        adjacency[tr.source_state_id].add(tr.destination_state_id)
        adjacency[tr.destination_state_id].add(tr.source_state_id)
        if tr.layout_guard is not None:  # a guard state stays with its edge
            adjacency[tr.source_state_id].add(tr.layout_guard)
            adjacency[tr.layout_guard].add(tr.source_state_id)
    if not launcher_states:
        # no anchor: only remove fully isolated states
        dstg.drop_states([sid for sid, linked in adjacency.items() if not linked])
        return

    reachable: set[str] = set()
    frontier = list(launcher_states)
    while frontier:
        sid = frontier.pop()
        if sid in reachable:
            continue
        reachable.add(sid)
        frontier.extend(adjacency[sid])
    dstg.drop_states([sid for sid in adjacency if sid not in reachable])


@without_gc
def adapt_model(base: AppModel, updated_ewtg: Ewtg, diff: DiffResult, version: str) -> AppModel:
    """Produce the model of the updated version ``version`` to start its session from.

    The returned model takes ownership of both of its layers.  ``updated_ewtg``
    becomes its static layer as is, and the session run on the model adds its
    runtime-discovered windows and widgets to it; pass a window graph that
    nothing else holds, such as a fresh ``export_ewtg`` result.  ``base.dstg``
    is rewritten in place and becomes its learned layer.  Use neither
    ``base`` nor ``updated_ewtg`` afterwards, also when this raises
    ``AdaptationError``: the base's learned graph may then be half rewritten.
    A diff that names an id missing from its side's window graph raises it
    before anything is rewritten.
    """
    _check_diff_ids(diff, base.ewtg, updated_ewtg)
    update_dstg(base.dstg, diff, updated_ewtg, base.ewtg)

    model = AppModel(
        version=version,
        ewtg=updated_ewtg,
        dstg=base.dstg,
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
