"""Independent planning oracles: exhaustive search and recomputed costs.

The exhaustive enumerator shares the planner's edge semantics (so both search
the same graph) but replaces the best-first search and the cost arithmetic
with straightforward independent implementations.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Union

from uptest.config import EngineConfig
from uptest.model import (
    AbstractState,
    AbstractTransition,
    ActionType,
    AppModel,
    AttributeValuationMap,
    Dstg,
    Ewtg,
    EwtgWidget,
    Input,
    Window,
    WindowKind,
    WindowTransition,
)
from uptest.planner import MetaState, Planner, PlanView


def sequence_cost_oracle(steps) -> float:
    """Cost recomputed from first principles: edge costs, probability product."""
    cost_full = sum(10 if s.action_type == ActionType.RESET_APP else 1 for s in steps)
    if not any(isinstance(s.expected, MetaState) for s in steps):
        return float(cost_full)
    product = 1.0
    for s in steps:
        product *= s.probability
    likelihood = math.floor((1.0 - product) * 100.0 + 1e-9) / 100.0
    return cost_full + (cost_full / 2.0) * likelihood


def exhaustive_min_cost(
    model: AppModel,
    start: AbstractState,
    target: Union[Window, AbstractState, Input],
    max_length: int = 8,
) -> Optional[float]:
    """Minimum cost over every acyclic sequence of length <= max_length."""
    planner = Planner(model, PlanView(model), config=EngineConfig(max_plan_length=max_length))
    planner._target = target

    if isinstance(target, AbstractState):
        state = model.dstg.abstract_states.get(target.id)
        if state is not None and state.obsolete:
            return None

    def node_is_goal(key) -> bool:
        if isinstance(target, AbstractState):
            return key == ("state", target.id)
        if isinstance(target, Window):
            if key[0] == "state":
                return model.dstg.abstract_states[key[1]].window_id == target.id
            return key[1] == target.id
        return False

    start_key = ("state", start.id)
    if node_is_goal(start_key):
        return 0.0

    best: list[Optional[float]] = [None]

    def note(steps):
        cost = sequence_cost_oracle(steps)
        if best[0] is None or cost < best[0]:
            best[0] = cost

    def edges_at(key, node, at_start):
        if key[0] == "state":
            return planner._edges_from_state(node, at_start=at_start)
        return planner._edges_from_meta(key[1], key[2])

    def walk(key, node, steps, visited):
        if len(steps) >= max_length:
            return
        for dest_key, step in edges_at(key, node, at_start=not steps):
            is_goal_edge = isinstance(target, Input) and step.input_id == target.id
            if not is_goal_edge and dest_key in visited:
                continue
            new_steps = steps + [step]
            if is_goal_edge:
                note(new_steps)
                continue
            if node_is_goal(dest_key):
                note(new_steps)
                continue
            if dest_key[0] == "state":
                next_node = model.dstg.abstract_states[dest_key[1]]
            else:
                next_node = step.expected
            walk(dest_key, next_node, new_steps, visited | {dest_key})

    walk(start_key, start, [], {start_key})
    return best[0]


def random_model(rng: random.Random) -> tuple[AppModel, AbstractState, object]:
    """A random small model plus a start state and a target."""
    n_windows = rng.randrange(2, 5)
    ewtg = Ewtg()
    for wi in range(n_windows):
        wid = f"win{wi}"
        ewtg.windows[wid] = Window(
            id=wid, name=wid, kind=WindowKind.ACTIVITY, class_name=f"com.app.{wid}",
        )
        for gi in range(rng.randrange(1, 4)):
            gid = f"wd{wi}_{gi}"
            ewtg.widgets[gid] = EwtgWidget(
                id=gid, window_id=wid, class_name="Button", resource_id=gid,
                content_description="", xpath=f"/L/{gid}",
            )
            if rng.random() < 0.6:
                iid = f"i-{gid}"
                ewtg.inputs[iid] = Input(
                    id=iid, window_id=wid, widget_id=gid, action_type=ActionType.CLICK,
                )
    ewtg.launcher_window_id = "win0"
    input_ids = sorted(ewtg.inputs)
    for ti in range(rng.randrange(0, 4)):
        if not input_ids:
            break
        iid = rng.choice(input_ids)
        dest = f"win{rng.randrange(n_windows)}"
        tid = f"wt{ti}"
        ewtg.window_transitions[tid] = WindowTransition(
            id=tid, destination_window_id=dest, input_id=iid,
        )

    dstg = Dstg()
    n_states = rng.randrange(2, 13)
    state_ids = []
    for si in range(n_states):
        wid = f"win{rng.randrange(n_windows)}"
        window_widgets = sorted(g.id for g in ewtg.widgets.values() if g.window_id == wid)
        chosen = [g for g in window_widgets if rng.random() < 0.7]
        avms = [
            AttributeValuationMap(
                valuations={"R_RID": g, "R_CN": "Button", "R_CD": ""}, ewtg_widget_id=g,
            )
            for g in chosen
        ]
        sid = f"s{si}"
        dstg.abstract_states[sid] = AbstractState(
            id=sid, window_id=wid, avms=avms, obsolete=rng.random() < 0.1,
        )
        state_ids.append(sid)
    tr_index = 0
    for sid in state_ids:
        state = dstg.abstract_states[sid]
        for _ in range(rng.randrange(0, 3)):
            dest = rng.choice(state_ids)
            if state.avms and rng.random() < 0.8:
                avm = rng.choice(state.avms)
                widget_id, action = avm.ewtg_widget_id, ActionType.CLICK
            else:
                widget_id, action = None, ActionType.PRESS_BACK
            tid = f"at{tr_index}"
            tr_index += 1
            dstg.abstract_transitions[tid] = AbstractTransition(
                id=tid, source_state_id=sid, widget_id=widget_id,
                action_type=action, destination_state_id=dest,
            )

    model = AppModel(version="v1", ewtg=ewtg, dstg=dstg)
    start_candidates = [s for s in dstg.abstract_states.values() if not s.obsolete]
    start = rng.choice(start_candidates or list(dstg.abstract_states.values()))
    kind = rng.randrange(3)
    if kind == 0:
        target = dstg.abstract_states[rng.choice(state_ids)]
    elif kind == 1:
        target = ewtg.windows[f"win{rng.randrange(n_windows)}"]
    elif input_ids:
        target = ewtg.inputs[rng.choice(input_ids)]
    else:
        target = ewtg.windows["win0"]
    return model, start, target
