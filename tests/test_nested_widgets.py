"""Abstraction and model files on screens whose widgets have children."""

import json

import pytest

from uptest.abstraction import LEVELS, derive_abstract_state, refine_level, valuation_multiset
from uptest.harness import DriverSession, export_ewtg, load_spec
from uptest.model import (
    IDENTITY_KEYS,
    Action,
    ActionType,
    AppModel,
    deserialize_model,
    serialize_model,
)

from conftest import path_of
from nested_app import nested_spec_doc


def inbox_screens() -> dict:
    """The inbox as first shown, with the star set, and with the badge read too."""
    driver = DriverSession(load_spec(nested_spec_doc()), "v1")
    screens = {"first": driver.reset().root}
    for name, widget_id, input_id in (
        ("starred", "w-toggle", "i-toggle"),
        ("read", "w-mark", "i-mark"),
    ):
        path = path_of(list(screens.values())[-1], widget_id)
        action = Action(input_id, ActionType.CLICK, concrete_node_path=path)
        screens[name] = driver.perform(action).root
    return screens


def test_only_the_levels_that_read_children_tell_the_inbox_screens_apart():
    screens = inbox_screens()
    first, starred, read = (screens[k] for k in ("first", "starred", "read"))
    for name in ("L1", "L2", "L3"):
        level = LEVELS[name]
        assert valuation_multiset(first, level) == valuation_multiset(starred, level), name
        assert valuation_multiset(starred, level) == valuation_multiset(read, level), name
    # L4 reads each child's checked flag, L5 also each child's text
    l4, l5 = LEVELS["L4"], LEVELS["L5"]
    assert valuation_multiset(first, l4) != valuation_multiset(starred, l4)
    assert valuation_multiset(starred, l4) == valuation_multiset(read, l4)
    assert valuation_multiset(starred, l5) != valuation_multiset(read, l5)
    assert refine_level("L2", first, starred) == "L4"
    assert refine_level("L2", starred, read) == "L5"
    assert refine_level("L4", starred, read) == "L5"


@pytest.mark.parametrize("name", list(LEVELS))
def test_the_multiset_of_a_screen_is_that_of_the_state_derived_from_it(name):
    level = LEVELS[name]
    for key, root in inbox_screens().items():
        state = derive_abstract_state("inbox", root, level, key)
        assert valuation_multiset(root, level) == state.valuation_multiset(), key
        has_child_keys = any(k.startswith("child:") for avm in state.avms for k in avm.valuations)
        assert has_child_keys == (name in ("L4", "L5")), key


def test_a_model_file_keeps_every_child_valuation_of_a_bound_avm():
    ewtg = export_ewtg(load_spec(nested_spec_doc()), "v1")
    model = AppModel(version="v1", ewtg=ewtg)
    for key, root in inbox_screens().items():
        for name in ("L4", "L5"):
            state = derive_abstract_state("inbox", root, LEVELS[name], f"{key}-{name}")
            model.dstg.abstract_states[state.id] = state
    data = serialize_model(model)
    rows = 0
    for state_row in json.loads(data)["dstg"]["abstractStates"]["rows"]:
        avms = state_row[2]
        state = model.dstg.abstract_states[state_row[0]]
        # the rows keep the state's order of its AVMs
        assert len(avms["rows"]) == len(state.avms)
        for avm_row, in_memory_avm in zip(avms["rows"], state.avms):
            avm = dict(zip(avms["columns"], avm_row))
            in_memory = in_memory_avm.valuations
            assert avm["ewtgWidgetId"] is not None
            # only the three keys the widget gives are left out
            assert avm["valuations"] == {
                k: v for k, v in in_memory.items() if k not in IDENTITY_KEYS
            }
            # the row's children show in its child keys, which are kept
            assert (avm["valuations"]["child:R_RID"] != "[]") == (avm["ewtgWidgetId"] == "w-row")
            rows += 1
    assert rows
    assert deserialize_model(data) == model
