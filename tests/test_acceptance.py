"""Acceptance criteria A1-A10.

Each test prints one "<criterion>: PASS" or "<criterion>: FAIL" line
(run pytest with -s or check the captured output section on failure).
"""

import copy
import dataclasses
import hashlib
import json
import random
import time
from collections import Counter
from contextlib import contextmanager
from enum import Enum

import pytest

from uptest.abstraction import guard_holds, is_backward_equivalent, layout_fingerprint
from uptest.adaptation import adapt_model
from uptest.config import EngineConfig
from uptest.cli import pipeline_run
from uptest.diff import diff_ewtg
from uptest.engine import TargetSet, TestEngine, run_session
from uptest.harness import (
    DriverSession,
    export_ewtg,
    load_spec,
    method_instruction_counts,
    updated_methods,
)
from uptest.model import (
    AbstractState,
    AbstractTransition,
    ActionType,
    AppModel,
    AttributeValuationMap,
    Dstg,
    deserialize_model,
    fingerprint_to_dict,
    serialize_model,
)
from uptest.planner import plan_to_target
from uptest.refinement import prune_unvisited, replay_flag_obsolete

from uptest import engine, fixture_path, planner
from conftest import diff_is_empty
from hidden_app import hidden_spec_doc
from planner_oracle import exhaustive_min_cost, random_model
from test_planner import (
    deterministic_sequence,
    probabilistic_sequence,
    route_choice_model,
)


@contextmanager
def criterion(name):
    """Print one pass/fail line per acceptance criterion."""
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL")
        raise
    print(f"{name}: PASS")


def test_a1_cost_model_reproduction():
    with criterion("A1 cost-model reproduction"):
        start_time = time.perf_counter()
        assert probabilistic_sequence().cost == pytest.approx(3.99, abs=1e-9)
        assert deterministic_sequence().cost == pytest.approx(5.0, abs=1e-9)
        model = route_choice_model()
        seq = plan_to_target(
            model, model.dstg.abstract_states["s9"], model.ewtg.inputs["i3"]
        )
        assert seq is not None
        assert [s.input_id for s in seq.steps] == ["i1", "i2", "i3"]
        assert seq.cost == pytest.approx(3.99, abs=1e-9)
        assert time.perf_counter() - start_time < 1.0


def test_a2_diff_reproduction():
    with criterion("A2 diff reproduction"):
        start_time = time.perf_counter()
        spec = load_spec(fixture_path("diary"))
        base = export_ewtg(spec, "v0")
        updated = export_ewtg(spec, "v1")
        diff = diff_ewtg(base, updated)
        # w3 = addNewItem Button, w8 = addNewItem ImageView,
        # w7 = createdTime, w9 = cancel
        assert base.widgets["w3"].resource_id == "addNewItem"
        assert base.widgets["w3"].class_name == "Button"
        assert updated.widgets["w8"].resource_id == "addNewItem"
        assert updated.widgets["w8"].class_name == "ImageView"
        assert base.widgets["w7"].resource_id == "createdTime"
        assert updated.widgets["w9"].resource_id == "cancel"
        assert json.loads(diff.to_json()) == {
            "addedTransitions": ["wt-i-cancel-0-home"],
            "addedWidgets": ["w9"],
            "addedWindows": [],
            "deletedTransitions": [],
            "deletedWidgets": ["w7"],
            "deletedWindows": [],
            "matchedTransitions": {"wt-i-add-0-edit": "wt-i-add-0-edit"},
            "matchedWidgets": {"w10": "w10", "w6": "w6"},
            "matchedWindows": {"edit": "edit"},
            "replacedTransitions": {},
            "replacedWidgets": {"w3": "w8"},
            "replacedWindows": {"main": "home"},
        }
        # the added transition is triggered by the cancel widget's input
        wt = updated.window_transitions["wt-i-cancel-0-home"]
        assert updated.inputs[wt.input_id].widget_id == "w9"
        for version, ewtg in (("v0", base), ("v1", updated)):
            assert diff_is_empty(diff_ewtg(ewtg, export_ewtg(spec, version)))
        assert time.perf_counter() - start_time < 1.0


def _avm(avm_id, widget_id, rid, class_name):
    """An AVM bound to a diary widget with that widget's identity."""
    return AttributeValuationMap(
        id=avm_id,
        valuations={"R_RID": rid, "R_CN": class_name, "R_CD": ""},
        ewtg_widget_id=widget_id,
    )


def diary_base_model() -> AppModel:
    """Learned model of the diary app's first version (two states, one edge)."""
    spec = load_spec(fixture_path("diary"))
    ewtg = export_ewtg(spec, "v0")
    dstg = Dstg(abstraction_policy={"main": "L1"})
    dstg.abstract_states["s1"] = AbstractState(
        id="s1", window_id="main",
        avms=[_avm("avm2", "w3", "addNewItem", "Button")],
        observed_in_versions={"v0"},
    )
    dstg.abstract_states["s2"] = AbstractState(
        id="s2", window_id="edit",
        avms=[
            _avm("avm4", "w6", "nameField", "EditText"),
            _avm("avm5", "w7", "createdTime", "TextView"),
            _avm("avm6", "w10", "ok", "Button"),
        ],
        observed_in_versions={"v0"},
    )
    dstg.abstract_transitions["at1"] = AbstractTransition(
        id="at1", source_state_id="s1", source_avm_id="avm2",
        action_type=ActionType.CLICK, destination_state_id="s2",
    )
    return AppModel(version="v0", ewtg=ewtg, dstg=dstg)


def golden_adapted_dstg() -> Dstg:
    """Hand-built expected carry-over of the diary base model to v1."""
    dstg = Dstg(abstraction_policy={"home": "L1"})
    dstg.abstract_states["s1"] = AbstractState(
        id="s1", window_id="home",
        # the replacement widget's identity: an ImageView in place of a Button
        avms=[_avm("avm2", "w8", "addNewItem", "ImageView")],
        observed_in_versions={"v0"},
    )
    dstg.abstract_states["s2"] = AbstractState(
        id="s2", window_id="edit",
        avms=[
            _avm("avm4", "w6", "nameField", "EditText"),
            _avm("avm6", "w10", "ok", "Button"),
        ],
        observed_in_versions={"v0"},
    )
    dstg.abstract_transitions["at1"] = AbstractTransition(
        id="at1", source_state_id="s1", source_avm_id="avm2",
        action_type=ActionType.CLICK, destination_state_id="s2",
    )
    return dstg


def test_a3_adaptation_reproduction():
    with criterion("A3 adaptation reproduction"):
        base = diary_base_model()
        spec = load_spec(fixture_path("diary"))
        updated = export_ewtg(spec, "v1")
        adapted = adapt_model(
            base, updated, diff_ewtg(base.ewtg, updated), version="v1"
        )
        assert adapted.dstg == golden_adapted_dstg()
        # the added cancel widget (w9) carries no learned element
        for state in adapted.dstg.abstract_states.values():
            assert all(avm.ewtg_widget_id != "w9" for avm in state.avms)


def _equivalence_oracle(observed, expected, excluded):
    """Independent restatement of the backward-equivalence predicate."""
    if observed.window_id != expected.window_id:
        return False
    observed_keys = {tuple(sorted(a.valuations.items())) for a in observed.avms}
    expected_keys = {tuple(sorted(a.valuations.items())) for a in expected.avms}
    if not expected_keys <= observed_keys:
        return False
    for avm in observed.avms:
        if avm.ewtg_widget_id in excluded:
            continue
        if tuple(sorted(avm.valuations.items())) not in expected_keys:
            return False
    return True


def test_a4_backward_equivalence_property():
    with criterion("A4 backward equivalence"):
        excluded = {"w8", "w9"}  # w9 was added, w8 is a replacement target
        s2 = golden_adapted_dstg().abstract_states["s2"]
        s3 = copy.deepcopy(s2)
        s3.id = "s3"
        s3.avms.append(_avm("avm9", "w9", "cancel", "Button"))
        assert is_backward_equivalent(s3, s2, excluded)
        # flipping any non-added AVM valuation breaks equivalence
        for index in range(len(s2.avms)):
            broken = copy.deepcopy(s3)
            broken.avms[index].valuations["R_RID"] = "flipped"
            assert not is_backward_equivalent(broken, s2, excluded)

        rng = random.Random(404)
        widget_pool = ["w6", "w10", "w9", "w8", "w3", None]
        for _ in range(1000):
            observed = copy.deepcopy(s3)
            for _ in range(rng.randrange(1, 4)):
                kind = rng.randrange(4)
                if kind == 0 and observed.avms:
                    avm = rng.choice(observed.avms)
                    avm.valuations["R_RID"] = rng.choice(
                        ["name", "ok", "cancel", "zzz", "flip"]
                    )
                elif kind == 1 and observed.avms:
                    observed.avms.pop(rng.randrange(len(observed.avms)))
                elif kind == 2:
                    observed.avms.append(
                        AttributeValuationMap(
                            id=f"r{rng.randrange(10**6)}",
                            valuations={"R_RID": rng.choice(["name", "ok", "new"])},
                            ewtg_widget_id=rng.choice(widget_pool),
                        )
                    )
                else:
                    observed.window_id = rng.choice(["edit", "edit", "home"])
            assert is_backward_equivalent(observed, s2, excluded) == \
                _equivalence_oracle(observed, s2, excluded)


def _session(spec, version, model, budget, seed):
    counts = method_instruction_counts(spec, version)
    method_ids = updated_methods(spec, version)
    targets = TargetSet(
        target_method_ids=method_ids,
        instruction_counts={m: counts[m] for m in method_ids},
    )
    driver = DriverSession(spec, version, seed=seed)
    return run_session(model, targets, driver, budget=budget, seed=seed)


def test_a5_reuse_beats_cold_start():
    with criterion("A5 reuse benefit"):
        start_time = time.perf_counter()
        spec = load_spec(fixture_path("deep"))
        wins = 0
        for seed in range(10):
            v1_model = AppModel(version="v1", ewtg=export_ewtg(spec, "v1"))
            learned = _session(spec, "v1", v1_model, budget=150, seed=seed).model
            diff = diff_ewtg(learned.ewtg, export_ewtg(spec, "v2"))
            warm_model = adapt_model(
                learned, export_ewtg(spec, "v2"), diff, version="v2"
            )
            warm = _session(spec, "v2", warm_model, budget=80, seed=seed + 100)
            cold_model = AppModel(version="v2", ewtg=export_ewtg(spec, "v2"))
            cold = _session(spec, "v2", cold_model, budget=80, seed=seed + 100)

            warm_first = warm.actions_to_first_target_coverage
            cold_first = cold.actions_to_first_target_coverage
            if warm_first is not None and (
                cold_first is None or warm_first < cold_first
            ):
                wins += 1
        assert wins >= 9
        assert time.perf_counter() - start_time < 30.0


def test_a6_uta_economy_on_every_fixture(tmp_path):
    with criterion("A6 UTA economy"):
        budgets = {"diary": 60, "dialog": 100, "news": 100, "deep": 120}
        for name, budget in budgets.items():
            spec = load_spec(fixture_path(name))
            workdir = tmp_path / name
            workdir.mkdir()
            versions = [v.version for v in spec.versions]
            pipeline_run(
                spec, versions[0], versions[-1], budget=budget, seed=7,
                workdir=workdir, config=EngineConfig(),
            )
            reports = sorted(workdir.glob("report_*.json"))
            assert reports, name
            for path in reports:
                doc = json.loads(path.read_text("utf-8"))
                summary = doc["summary"]
                assert summary["utaCount"] < 0.2 * summary["executedActions"], path
                union: dict[str, set[int]] = {}
                for uta in doc["utas"]:
                    assert uta["newlyCoveredInstructionCount"] > 0
                    for method, instrs in uta["newlyCovered"].items():
                        assert not union.get(method, set()) & set(instrs)
                        union.setdefault(method, set()).update(instrs)
                covered = sum(len(v) for v in union.values())
                assert covered == summary["coveredTargetInstructions"], path


def test_a7_planner_matches_exhaustive_enumeration():
    with criterion("A7 planner optimality"):
        start_time = time.perf_counter()
        rng = random.Random(77)
        nontrivial = 0
        for _ in range(100):
            model, start, target = random_model(rng)
            assert len(model.dstg.abstract_states) <= 12
            seq = plan_to_target(model, start, target)
            oracle = exhaustive_min_cost(model, start, target)
            if seq is None:
                assert oracle is None
            else:
                assert oracle is not None
                assert seq.cost == pytest.approx(oracle, abs=1e-9)
                nontrivial += 1
        assert nontrivial > 20  # the sample is not degenerate
        assert time.perf_counter() - start_time < 60.0


def _launch2_choice(seed: int) -> int:
    """Index the news headline generator picks on the session's second launch."""
    return random.Random(f"{seed}:2:0").randrange(2)


def test_a8_obsolescence_flagging_and_avoidance(monkeypatch):
    with criterion("A8 obsolescence"):
        spec = load_spec(fixture_path("news"))
        # the learning session and the replay must see different headlines,
        # so the guarded detail path stops reproducing on replay
        learn_seed = next(s for s in range(100) if _launch2_choice(s) == 0)
        replay_seed = next(s for s in range(100) if _launch2_choice(s) == 1)
        next_seed = next(
            s for s in range(100)
            if _launch2_choice(s) == 1 and s != replay_seed
        )

        model = AppModel(version="v1", ewtg=export_ewtg(spec, "v1"))
        model.dstg.abstraction_policy["list"] = "L2"
        counts = method_instruction_counts(spec, "v1")
        targets = TargetSet(set(counts), counts)
        result = run_session(
            model, targets, DriverSession(spec, "v1", seed=learn_seed),
            budget=60, seed=learn_seed,
        )
        model = result.model
        prune_unvisited(model, result.observed_state_ids)

        # every traversed state on the headline-dependent path must be flagged
        expected_flags = set()
        for step in model.gstg.trace:
            state_id = model.dstg.abstract_transitions[step.transition_id].destination_state_id
            if model.dstg.abstract_states[state_id].window_id in ("list", "detail"):
                expected_flags.add(state_id)
        assert expected_flags

        replay_flag_obsolete(model, DriverSession(spec, "v1", seed=replay_seed))
        flagged = {
            s.id for s in model.dstg.abstract_states.values() if s.obsolete
        }
        assert flagged == expected_flags

        # the states every plan of the follow-up session expects to pass through
        planned_through = set()

        def recording_plan(*args):
            sequence = plan_to_target(*args)
            for step in sequence.steps if sequence is not None else ():
                if isinstance(step.expected, str):
                    planned_through.add(step.expected)
            return sequence

        monkeypatch.setattr(engine, "plan_to_target", recording_plan)
        run_session(
            model, targets, DriverSession(spec, "v1", seed=next_seed),
            budget=40, seed=next_seed,
        )
        assert planned_through
        assert not planned_through & expected_flags


def _jaccard(a, b):
    intersection = sum((a & b).values())
    union = sum((a | b).values())
    return intersection / union if union else 1.0


def test_a9_guard_soundness_over_seeded_sessions(monkeypatch):
    with criterion("A9 guard soundness"):
        # every guard decision the planner makes in the sessions matches the
        # Jaccard oracle over the layouts it was given at that moment
        decisions = []

        def recording(guard, visited_layouts, threshold):
            held = guard_holds(guard, visited_layouts, threshold)
            if guard is not None:
                decisions.append((guard, list(visited_layouts), threshold, held))
            return held

        monkeypatch.setattr(planner, "guard_holds", recording)
        spec = load_spec(fixture_path("dialog"))
        counts = method_instruction_counts(spec, "v1")
        targets = TargetSet(set(counts), counts)
        for seed in range(10):
            model = AppModel(version="v1", ewtg=copy.deepcopy(export_ewtg(spec, "v1")))
            run_session(
                model, targets, DriverSession(spec, "v1", seed=seed), budget=80, seed=seed
            )
        for guard, visited, threshold, held in decisions:
            expected = any(_jaccard(guard, fp) >= threshold for fp in visited)
            assert held == expected, (guard, visited)
        assert any(held for *_, held in decisions)

        # with no similar visited layout, no plan goes through the guarded edge
        model = route_choice_model()
        guard = layout_fingerprint(model.dstg.abstract_states["t1"])
        model.dstg.abstract_transitions["a7"].layout_guard = guard
        start = model.dstg.abstract_states["s9"]
        unlike = [layout_fingerprint(start)]
        assert _jaccard(guard, unlike[0]) < EngineConfig().layout_similarity_threshold
        target = model.ewtg.windows["winC"]  # reached only through a7
        assert plan_to_target(model, start, target, visited_layouts=unlike) is None
        seq = plan_to_target(model, start, target, visited_layouts=unlike + [guard])
        assert seq is not None and seq.steps[0].expected == "t1"  # through a7


def test_a10_determinism_and_round_trip(tmp_path):
    with criterion("A10 determinism and round-trip"):
        spec = load_spec(fixture_path("diary"))
        outputs = []
        for run in ("first", "second"):
            workdir = tmp_path / run
            workdir.mkdir()
            pipeline_run(
                spec, "v0", "v1", budget=50, seed=9,
                workdir=workdir, config=EngineConfig(),
            )
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
            )
        assert outputs[0] == outputs[1]
        model_files = [n for n in outputs[0] if n.startswith("model_")]
        assert model_files
        for name in model_files:
            payload = outputs[0][name].rstrip(b"\n")
            assert serialize_model(deserialize_model(payload)) == payload


def _canonical(value):
    """``value`` as plain JSON data, walked through its dataclass fields.

    Sets are sorted, enums are given by value and layout fingerprints by
    their model-file cell, so two models with the same content give the same
    data whatever layout their document had.
    """
    if dataclasses.is_dataclass(value):
        return {f.name: _canonical(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Counter):
        return fingerprint_to_dict(value)
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(v) for v in value)
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _step(model, step) -> list:
    """A trace step of ``model`` as its action type, node path, payload and
    reached state."""
    tr = model.dstg.abstract_transitions[step.transition_id]
    return _canonical(
        [tr.action_type, step.concrete_node_path, tr.data_payload, tr.destination_state_id]
    )


def _canonical_model(model) -> dict:
    """``_canonical(model)`` with each trace step given by ``_step``."""
    doc = _canonical(model)
    doc["gstg"]["trace"] = [_step(model, step) for step in model.gstg.trace]
    return doc


def _digest_contents(digest, workdir) -> None:
    """Add the name and content of every ``pipeline_run`` output in ``workdir``.

    A diff or a report counts by its JSON data and a model by its decoded
    ``AppModel``, so the digest holds across layouts of the documents.
    """
    for path in sorted(workdir.iterdir()):
        data = path.read_bytes()
        if path.name.startswith(("diff_", "report_")):
            data = json.dumps(json.loads(data), sort_keys=True, separators=(",", ":")).encode()
        elif path.name.startswith("model_"):
            data = json.dumps(_canonical_model(deserialize_model(data)), sort_keys=True).encode()
        digest.update(path.name.encode())
        digest.update(data)


#: sha256 over the name and content (see ``_digest_contents``) of every file
#: ``pipeline_run`` writes for each fixture app (first to last version, budget
#: 300, seeds 3 and 4), frozen over file bytes from the session and replay
#: before they kept their lookups in indexes, over content before the model
#: and report layouts changed, before schema 5 over content without the two
#: window-graph fields that schema dropped, and, before schema 6 stored each
#: trace step as the transition it took, over diff content, trace steps without
#: their input ids and transitions without their version, and before
#: adaptation rebound an AVM's identity (resource id, class name, content
#: description) with its widget: since then diary's carried home state holds
#: its v1 widget's identity and the v1 session enters it, which changes only
#: diary's v1 model and report.
SESSION_DIGEST = "2ea6255004e17f1608e374063467287afa1970a3c7d2193109448ee1846f6580"


def test_pipeline_outputs_of_every_fixture_are_unchanged(tmp_path):
    digest = hashlib.sha256()
    for app in ("diary", "dialog", "news", "deep"):
        spec = load_spec(fixture_path(app))
        for seed in (3, 4):
            workdir = tmp_path / f"{app}-{seed}"
            workdir.mkdir()
            pipeline_run(
                spec, spec.versions[0].version, spec.versions[-1].version,
                budget=300, seed=seed, workdir=workdir, config=EngineConfig(),
            )
            _digest_contents(digest, workdir)
    assert digest.hexdigest() == SESSION_DIGEST


#: sha256 over the name and content of every file ``pipeline_run`` writes for
#: the hidden-variable app (v1 to v2, budget 300, seeds 7, 20 and 26), frozen
#: over file bytes before the engine kept the transitions out of each state in
#: an index, over content before the model and report layouts changed, before
#: schema 5 over content without the two window-graph fields that schema
#: dropped, and as ``SESSION_DIGEST`` before schema 6.  On these seeds a
#: session records an outcome again after deleting a stale edge.
REFINE_DIGEST = "a3b64636465474a6e4de45ad21d8368a9ee677189d7ac502c75e5709a745b0bb"


def test_pipeline_outputs_through_online_refinement_are_unchanged(tmp_path, monkeypatch):
    refined, deleted = set(), []
    refine_window = TestEngine._refine_window
    online_refine = TestEngine._online_refine

    def recording_refine_window(self, window_id):
        before = self.model.dstg.level_for(window_id)
        refine_window(self, window_id)
        if self.model.dstg.level_for(window_id) != before:
            refined.add(window_id)

    def counting_online_refine(self, *args):
        before = len(self.model.dstg.abstract_transitions)
        online_refine(self, *args)
        deleted.append(before - len(self.model.dstg.abstract_transitions))

    monkeypatch.setattr(TestEngine, "_refine_window", recording_refine_window)
    monkeypatch.setattr(TestEngine, "_online_refine", counting_online_refine)
    spec = load_spec(hidden_spec_doc())
    digest = hashlib.sha256()
    for seed in (7, 20, 26):
        workdir = tmp_path / f"hidden-{seed}"
        workdir.mkdir()
        pipeline_run(
            spec, "v1", "v2", budget=300, seed=seed, workdir=workdir,
            config=EngineConfig(),
        )
        _digest_contents(digest, workdir)
    # the digest covers both kinds of online refinement
    assert refined == {"main", "left", "right"}
    assert sum(deleted) >= 3
    assert digest.hexdigest() == REFINE_DIGEST


class CopyingDriver:
    """A ``DriverSession`` that returns a fresh deep copy of every screen."""

    def __init__(self, *args, **kwargs):
        self._driver = DriverSession(*args, **kwargs)

    def reset(self):
        return self._copy(self._driver.reset())

    def perform(self, action):
        return self._copy(self._driver.perform(action))

    @staticmethod
    def _copy(result):
        return dataclasses.replace(result, root=copy.deepcopy(result.root))


def test_sharing_screens_only_saves_work(tmp_path, monkeypatch):
    # the session and the replay reuse what they work out from a screen the
    # driver returns again; with equal but never identical screens each
    # pipeline output must come out the same
    import uptest.cli

    for app in ("diary", "dialog", "news", "deep"):
        spec = load_spec(fixture_path(app))
        outputs = {}
        for name, driver in (("shared", DriverSession), ("copied", CopyingDriver)):
            monkeypatch.setattr(uptest.cli, "DriverSession", driver)
            workdir = tmp_path / f"{app}-{name}"
            workdir.mkdir()
            pipeline_run(
                spec, spec.versions[0].version, spec.versions[-1].version,
                budget=300, seed=5, workdir=workdir, config=EngineConfig(),
            )
            outputs[name] = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        shared, copied = outputs["shared"], outputs["copied"]
        assert sorted(shared) == sorted(copied)
        for file_name, data in shared.items():
            if file_name.startswith("model_"):
                assert json.loads(copied[file_name]) == json.loads(data), file_name
            else:
                assert copied[file_name] == data, file_name
