"""Mutated inputs end in success or a typed error, never in anything else.

Each case takes a valid document (a fixture spec, the default config, a
learned model), applies a few random edits to its JSON tree (delete a key or
list item, put in a value of another type, put in a string from elsewhere in
the document, or copy another subtree over it) and loads the result.  A
document that loads must also be usable: a spec exports, runs a short
session on every version and goes through prune, replay and serialization, a
config runs a session, a model serializes again and runs a session.  Seeds
are fixed, so a failure reproduces.  Documents that fuzzing once found loading
and then failing are kept as named regression cases.
"""

import copy
import json
import random
from dataclasses import asdict

import pytest

from uptest import fixture_path
from uptest.config import ConfigError, EngineConfig
from uptest.engine import TargetSet, run_session
from uptest.harness import (
    DriverSession,
    SpecError,
    export_ewtg,
    load_spec,
    method_instruction_counts,
)
from uptest.model import AppModel, ModelError, deserialize_model, serialize_model
from uptest.refinement import prune_unvisited, replay_flag_obsolete

FIXTURES = ("diary", "dialog", "news", "deep")
CASES = 150
FOREIGN_VALUES = (None, 0, -1, 1, 2.5, "", "x", [], {}, True, False, [1], {"a": 1})


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def mutate(rng: random.Random, doc):
    """``doc`` with one to three random edits."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        paths = [p for p in _paths(doc) if p]
        if not paths:
            break
        path = rng.choice(paths)
        parent, key = _at(doc, path[:-1]), path[-1]
        edit = rng.randrange(4)
        if edit == 0:
            del parent[key]
        elif edit == 1:
            parent[key] = copy.deepcopy(rng.choice(FOREIGN_VALUES))
        elif edit == 2:
            strings = [p for p in paths if isinstance(_at(doc, p), str)]
            if strings:
                parent[key] = _at(doc, rng.choice(strings))
        else:
            parent[key] = copy.deepcopy(_at(doc, rng.choice(paths)))
    return doc


def short_session(spec, model: AppModel, version: str, config=None):
    counts = method_instruction_counts(spec, version)
    targets = TargetSet(target_method_ids=set(counts), instruction_counts=counts)
    driver = DriverSession(spec, version, seed=1)
    return run_session(model, targets, driver, budget=10, seed=1, config=config)


def fixture_doc(name: str) -> dict:
    return json.loads(fixture_path(name).read_text("utf-8"))


def test_mutated_specs_load_and_run_or_raise_spec_error():
    rng = random.Random("fuzz-spec")
    docs = [fixture_doc(name) for name in FIXTURES]
    loaded = 0
    for _ in range(CASES):
        try:
            spec = load_spec(mutate(rng, rng.choice(docs)))
        except SpecError:
            continue
        loaded += 1
        for v in spec.versions:
            model = AppModel(version=v.version, ewtg=export_ewtg(spec, v.version))
            result = short_session(spec, model, v.version)
            prune_unvisited(model, result.observed_state_ids)
            replay_flag_obsolete(model, DriverSession(spec, v.version, seed=2))
            serialize_model(model)
    assert 0 < loaded < CASES  # both outcomes are reached


def _empty_xpath(doc: dict) -> None:
    doc["versions"][0]["windows"][0]["widgets"][0]["xpath"] = ""


def _widget_in_two_windows(doc: dict) -> None:
    main, edit = doc["versions"][0]["windows"]
    edit["widgets"].append(copy.deepcopy(main["widgets"][0]))


# diary v0 specs that once loaded and failed only at serialization, after a session
BAD_SPECS = {"empty-xpath": _empty_xpath, "widget-in-two-windows": _widget_in_two_windows}


@pytest.mark.parametrize("name", sorted(BAD_SPECS))
def test_known_bad_specs_raise_spec_error(name):
    doc = fixture_doc("diary")
    BAD_SPECS[name](doc)
    with pytest.raises(SpecError):
        load_spec(doc)


def test_a_model_whose_widgets_are_each_others_parents_raises_model_error():
    spec = load_spec(fixture_path("diary"))
    doc = json.loads(serialize_model(AppModel(version="v0", ewtg=export_ewtg(spec, "v0"))))
    widgets = doc["ewtg"]["widgets"]
    id_col, parent_col = widgets["columns"].index("id"), widgets["columns"].index("parentId")
    rows = {row[id_col]: row for row in widgets["rows"]}
    rows["w6"][parent_col], rows["w7"][parent_col] = "w7", "w6"
    with pytest.raises(ModelError, match="own ancestor"):
        deserialize_model(json.dumps(doc).encode("utf-8"))


def test_mutated_configs_load_and_run_or_raise_config_error():
    rng = random.Random("fuzz-config")
    config_doc = json.loads(json.dumps(asdict(EngineConfig())))  # the defaults as a JSON file
    spec = load_spec(fixture_path("dialog"))
    loaded = 0
    for _ in range(CASES):
        try:
            config = EngineConfig.from_dict(mutate(rng, config_doc))
        except ConfigError:
            continue
        loaded += 1
        model = AppModel(version="v1", ewtg=export_ewtg(spec, "v1"))
        short_session(spec, model, "v1", config)
    assert 0 < loaded < CASES


@pytest.fixture(scope="module")
def learned_model_doc() -> dict:
    spec = load_spec(fixture_path("dialog"))
    model = AppModel(version="v1", ewtg=export_ewtg(spec, "v1"))
    counts = method_instruction_counts(spec, "v1")
    targets = TargetSet(target_method_ids=set(counts), instruction_counts=counts)
    run_session(model, targets, DriverSession(spec, "v1", seed=1), budget=60, seed=1)
    doc = json.loads(serialize_model(model))
    transitions = doc["dstg"]["abstractTransitions"]
    # the trace repeats steps, so mutations reach both its rows and its indices
    assert transitions["rows"] and len(doc["gstg"]["trace"]) > len(doc["gstg"]["steps"]["rows"])
    guard = transitions["columns"].index("layoutGuard")
    assert any(row[guard] for row in transitions["rows"])
    return doc


def test_mutated_models_load_and_run_or_raise_model_error(learned_model_doc):
    rng = random.Random("fuzz-model")
    spec = load_spec(fixture_path("dialog"))
    loaded = 0
    for _ in range(CASES):
        data = json.dumps(mutate(rng, learned_model_doc)).encode("utf-8")
        try:
            model = deserialize_model(data)
        except ModelError:
            continue
        loaded += 1
        serialize_model(model)
        short_session(spec, model, "v1")
    assert 0 < loaded < CASES
