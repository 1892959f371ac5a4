"""Tests of the benchmark itself: generator, failure accounting and checks.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import stages
from appgen import generate_app, spec_bytes
from spans import SpanStats, Tracer
from stages import Api, Pipeline, diff_partition_errors, traced_internals
from uptest.config import EngineConfig
from uptest.diff import diff_ewtg
from uptest.harness import export_ewtg, load_spec
from uptest.model import AbstractTransition, ActionType, AppModel, ModelError

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

# a small generated app whose first session hits the known plan-log crash
CRASH_APP = dict(seed=6, windows=6, widgets=8, perturbation=0.2, versions=2)
CRASH_BUDGET = 80


def _pipeline(tmp_path, traced=False, checks=True, tracer=None):
    return Pipeline(Api(tracer), tmp_path, EngineConfig(), checks=checks, traced=traced)


# -- generator ---------------------------------------------------------------


def test_generator_gives_same_bytes_for_same_seed():
    assert spec_bytes(generate_app(7, 10, 8, versions=3)) == spec_bytes(generate_app(7, 10, 8, versions=3))
    assert spec_bytes(generate_app(7, 10, 8)) != spec_bytes(generate_app(8, 10, 8))


def test_generator_bytes_do_not_depend_on_hash_seed():
    code = (
        "import sys, hashlib; sys.path.insert(0, sys.argv[1]);"
        "from appgen import generate_app, spec_bytes;"
        "print(hashlib.sha256(spec_bytes(generate_app(5, 12, 10, versions=3))).hexdigest())"
    )
    digests = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", code, str(BENCH)], env=env, capture_output=True, text=True, check=True
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("size", [(4, 4, 2), (12, 10, 4), (30, 20, 2)])
def test_generated_specs_load(seed, size):
    windows, widgets, versions = size
    spec = load_spec(generate_app(seed, windows, widgets, versions=versions))
    assert [v.version for v in spec.versions] == [f"v{i}" for i in range(1, versions + 1)]


def _features(version: dict) -> set[str]:
    found = set()
    for window in version["windows"]:
        if window["kind"] == "Dialog":
            found.add("dialog")
        if window.get("dynamicOnly"):
            found.add("dynamic window")
        for widget in window["widgets"]:
            if widget.get("dynamicOnly") and not window.get("dynamicOnly"):
                found.add("dynamic widget")
            if widget.get("isInputField"):
                found.add("text field")
    for handler in version["handlers"].values():
        for cmd in handler["body"]:
            if cmd["guard"]:
                found.add("guarded handler")
            if cmd.get("hidden"):
                found.add("hidden navigation")
            for effect in cmd["effects"]:
                found.update(k for k in ("show", "hide", "goto", "back", "toggle") if k in effect)
    if version.get("generators"):
        found.add("content generator")
    return found


def test_generated_apps_cover_spec_features():
    version = generate_app(1, 30, 20)["versions"][0]
    assert _features(version) >= {
        "dialog", "dynamic window", "dynamic widget", "text field", "guarded handler",
        "hidden navigation", "show", "hide", "goto", "back", "toggle", "content generator",
    }


def test_later_versions_are_perturbed():
    doc = generate_app(2, 20, 12, perturbation=0.2, versions=3)
    for before, after in zip(doc["versions"], doc["versions"][1:]):
        widgets = lambda v: {x["id"]: x for w in v["windows"] for x in w["widgets"]}  # noqa: E731
        old, new = widgets(before), widgets(after)
        assert set(old) - set(new), "no widget deleted"
        assert set(new) - set(old), "no widget added"
        assert any(old[i]["resourceId"] != new[i]["resourceId"] for i in set(old) & set(new))
        shared = set(before["handlers"]) & set(after["handlers"])
        assert any(before["handlers"][h] != after["handlers"][h] for h in shared)
        assert {w["id"] for w in before["windows"]} != {w["id"] for w in after["windows"]}


# -- failure accounting ------------------------------------------------------


def test_known_session_crash_is_counted(tmp_path):
    spec = load_spec(generate_app(**CRASH_APP))
    pipeline = _pipeline(tmp_path)
    pipeline.run_sessions("crash", spec, budget=CRASH_BUDGET, seed=0)
    first = pipeline.it.ops[0]
    assert first.failed_stage == "session", "the known plan-log crash no longer occurs here"
    assert first.error == "KeyError: 'outcomes'"
    assert 0 < first.actions < CRASH_BUDGET and first.session_s > 0 and first.covered > 0
    # the crashed session's model still goes through replay and serialize,
    # and on to the next version
    names = [name for name, _ in pipeline.it.artifacts]
    assert "crash/v1/model" in names and "crash/v1/report" not in names
    assert [op.version for op in pipeline.it.ops] == ["v1", "v2"]
    assert pipeline.it.problems == []


def test_failed_stage_ends_the_app_and_is_named(tmp_path):
    pipeline = _pipeline(tmp_path)

    def broken_adapt(*args, **kwargs):
        raise ValueError("adapt broke")

    pipeline.api.adapt_model = broken_adapt
    pipeline.run_sessions("deep", load_spec(_fixture("deep")), budget=20, seed=0)
    assert [(op.failed_stage, op.error) for op in pipeline.it.ops] == [
        (None, None),
        ("adapt", "ValueError: adapt broke"),
    ]


def _fixture(name: str) -> Path:
    return ROOT / "src" / "uptest" / "fixtures" / f"{name}.json"


# -- output checks -----------------------------------------------------------


def test_clean_fixture_pipeline_passes_every_check(tmp_path):
    pipeline = _pipeline(tmp_path)
    pipeline.run_sessions("diary", load_spec(_fixture("diary")), budget=50, seed=1)
    assert pipeline.it.problems == []
    assert all(op.error is None for op in pipeline.it.ops)


def test_integrity_check_fails_on_corrupted_model(tmp_path):
    spec = load_spec(_fixture("diary"))
    model = AppModel(version="v0", ewtg=export_ewtg(spec, "v0"))
    model.dstg.abstract_transitions["at-x"] = AbstractTransition(
        id="at-x",
        source_state_id="st-missing",
        source_avm_id=None,
        action_type=ActionType.CLICK,
        destination_state_id="st-missing",
    )
    pipeline = _pipeline(tmp_path)
    with pytest.raises(ModelError):
        pipeline._store("diary", "v0", model)
    assert any("integrity" in p for p in pipeline.it.problems)


def test_round_trip_check_fails_when_reload_changes_the_model(tmp_path, monkeypatch):
    real = stages.model.deserialize_model

    def lossy(data):
        loaded = real(data)
        loaded.ewtg.launcher_window_id = None
        return loaded

    monkeypatch.setattr(stages.model, "deserialize_model", lossy)
    spec = load_spec(_fixture("diary"))
    pipeline = _pipeline(tmp_path)
    pipeline._store("diary", "v0", AppModel(version="v0", ewtg=export_ewtg(spec, "v0")))
    assert any("round trip" in p for p in pipeline.it.problems)


def test_coverage_check_fails_when_report_disagrees_with_driver(tmp_path):
    pipeline = _pipeline(tmp_path)
    real = pipeline.api.emit_report

    def inflated(result, targets, path):
        doc = real(result, targets, path)
        doc["summary"]["coveredTargetInstructions"] += 1
        return doc

    pipeline.api.emit_report = inflated
    pipeline.run_sessions("diary", load_spec(_fixture("diary")), budget=30, seed=1)
    assert any("coveredTargetInstructions" in p for p in pipeline.it.problems)


def test_diff_partition_check():
    spec = load_spec(generate_app(4, 10, 8, perturbation=0.3))
    base, updated = export_ewtg(spec, "v1"), export_ewtg(spec, "v2")
    result = diff_ewtg(base, updated)
    assert diff_partition_errors(result, base, updated) == []
    broken = copy.deepcopy(result)
    widget = next(iter(broken.matched_widgets))
    broken.deleted_widgets.add(widget)
    assert diff_partition_errors(broken, base, updated)
    broken = copy.deepcopy(result)
    broken.added_windows.add(next(iter(broken.matched_windows.values())))
    assert diff_partition_errors(broken, base, updated)


def test_carry_pipeline_checks_pass_and_repeat(tmp_path):
    spec = load_spec(generate_app(6, 12, 10, versions=4))
    passes = []
    for _ in range(2):
        pipeline = _pipeline(tmp_path)
        pipeline.run_carry("carry", spec)
        assert pipeline.it.problems == []
        assert all(op.error is None for op in pipeline.it.ops)
        passes.append(pipeline.it)
    assert passes[0].artifacts == passes[1].artifacts and len(passes[0].artifacts) == 4
    assert [s for s, _ in passes[0].calls] == [s for s, _ in passes[1].calls]
    assert run._fastest(passes) <= min(it.pipeline_s for it in passes)


def test_fastest_takes_each_calls_fastest_repeat():
    a = stages.Iteration(calls=[("diff", 2.0), ("adapt", 1.0)])
    b = stages.Iteration(calls=[("diff", 3.0), ("adapt", 0.5)])
    assert run._fastest([a, b]) == 2.5
    assert run._fastest([a, stages.Iteration(calls=[("diff", 1.0)])]) is None


def test_setup_s_is_the_median_of_each_thirds_fastest():
    assert run._setup_s([5.0, 1.0, 9.0, 2.0, 8.0, 3.0]) == 2.0
    assert run._setup_s([4.0]) == 4.0


def test_same_seed_gives_same_hashes_with_and_without_tracing(tmp_path):
    spec = load_spec(generate_app(**CRASH_APP))
    plain = _pipeline(tmp_path)
    plain.run_sessions("a", spec, budget=CRASH_BUDGET, seed=2)
    tracer = Tracer()
    traced = _pipeline(tmp_path, traced=True, tracer=tracer)
    with traced_internals(tracer):
        traced.run_sessions("a", spec, budget=CRASH_BUDGET, seed=2)
    assert plain.it.artifacts == traced.it.artifacts
    stats = SpanStats(tracer.spans)
    assert stats.calls("planner.plan_to_target") > 0
    assert stats.calls("harness.perform") == sum(op.actions for op in traced.it.ops)


# -- the command and its declaration -----------------------------------------


def test_metric_names_match_benchmark_json(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    spec = load_spec(generate_app(**CRASH_APP))
    untraced = _pipeline(tmp_path)
    untraced.run_sessions("a", spec, budget=CRASH_BUDGET, seed=0)
    tracer = Tracer()
    traced = _pipeline(tmp_path, traced=True, tracer=tracer)
    with traced_internals(tracer):
        traced.run_sessions("a", spec, budget=CRASH_BUDGET, seed=0)
    per_layer = run._per_layer([(traced.it, tracer)], [untraced.it], load_s=0.1)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {k: u for k, (_, u) in per_layer.items()}
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert {w["name"] for w in declared["workloads"]} <= set(run.WORKLOADS)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixture-long", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
