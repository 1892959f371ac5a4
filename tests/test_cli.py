"""Command-line interface: every subcommand, artifact chaining."""

import argparse
import ast
import inspect
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import uptest.cli
from uptest.cli import build_parser, compare_runs, main
from uptest.config import ConfigError, EngineConfig, load_config
from uptest.diff import DiffResult
from uptest.harness import export_ewtg, load_spec
from uptest.model import SHAPE_ERRORS, AppModel, deserialize_model, serialize_model

from uptest import fixture_path


DIARY = str(fixture_path("diary"))


def options_read_by(handler) -> set[str]:
    """Attributes ``handler`` reads off its first parameter, also through the
    ``cli`` functions it passes that parameter to."""
    tree = ast.parse(inspect.getsource(uptest.cli))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    read, seen, todo = set(), set(), [handler.__name__]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        param = defs[name].args.args[0].arg
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == param:
                    read.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                passed = any(isinstance(a, ast.Name) and a.id == param for a in node.args)
                if passed and node.func.id in defs:
                    todo.append(node.func.id)
    return read


def subcommands(parser: argparse.ArgumentParser):
    """(subparser, handler) of every subcommand, nested ones included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from subcommands(sub)
    if parser.get_default("func") is not None:
        yield parser, parser.get_default("func")


def test_each_subcommand_takes_only_the_options_its_handler_reads():
    found = list(subcommands(build_parser()))
    assert len(found) == 9
    # options read through the helpers a handler passes its arguments to count
    assert {"config", "budget", "seed"} <= options_read_by(uptest.cli.cmd_pipeline)
    for sub, handler in found:
        options = {
            action.dest for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        }
        assert options <= options_read_by(handler), sub.prog


def write_ewtg(tmp_path, version) -> Path:
    out = tmp_path / f"ewtg_{version}.json"
    assert main(["harness", "export-ewtg", DIARY, "--version", version,
                 "--out", str(out)]) == 0
    return out


def write_text(tmp_path, name, text) -> Path:
    path = tmp_path / name
    path.write_text(text, "utf-8")
    return path


def write_base_model(tmp_path, version="v0") -> Path:
    out = tmp_path / f"model_{version}.json"
    spec = load_spec(DIARY)
    out.write_bytes(serialize_model(AppModel(version=version, ewtg=export_ewtg(spec, version))))
    return out


def test_harness_export_writes_the_static_model(tmp_path):
    out = write_ewtg(tmp_path, "v0")
    doc = json.loads(out.read_text("utf-8"))
    assert doc["launcherWindowId"] == "main"
    windows = doc["windows"]
    assert windows["columns"][0] == "id"
    assert {row[0] for row in windows["rows"]} == {"main", "edit"}


def test_harness_targets_writes_the_manifest(tmp_path):
    out = tmp_path / "targets.json"
    assert main(["harness", "diff-targets", DIARY, "--out", str(out)]) == 0
    doc = json.loads(out.read_text("utf-8"))
    assert doc["appId"] == "diary"
    assert [v["version"] for v in doc["versions"]] == ["v0", "v1"]
    assert "m-cancel" in doc["versions"][1]["updatedMethodIds"]


def run_test_command(tmp_path, version, targets) -> bytes:
    report = tmp_path / f"report_{version}_{Path(targets).name}.json"
    assert main(["test", str(write_base_model(tmp_path, version)), DIARY, "--version", version,
                 "--targets", targets, "--budget", "30", "--seed", "4",
                 "--report", str(report)]) == 0
    return report.read_bytes()


@pytest.mark.parametrize("version", ["v0", "v1"])
def test_test_command_reads_the_target_manifest(tmp_path, version):
    manifest = tmp_path / "targets.json"
    assert main(["harness", "diff-targets", DIARY, "--out", str(manifest)]) == 0
    from_file = run_test_command(tmp_path, version, str(manifest))
    assert from_file == run_test_command(tmp_path, version, "auto")
    assert json.loads(from_file)["summary"]["targetMethodCount"] > 0


def manifest_entry(**fields) -> dict:
    entry = {"version": "v0", "updatedMethodIds": ["m-add"], "instructionCounts": {"m-add": 3}}
    return {"appId": "diary", "versions": [dict(entry, **fields)]}


@pytest.mark.parametrize("doc", [
    {"targetMethodIds": "m-add"},
    {"targetMethodIds": ["m-add"], "instructionCounts": {"m-add": 3}},
    [],
    {"versions": {"version": "v0"}},
    {"versions": ["v0"]},
    manifest_entry(version="v1"),
    manifest_entry(updatedMethodIds="m-add"),
    manifest_entry(updatedMethodIds=[5]),
    manifest_entry(instructionCounts={"m-add": "x"}),
    manifest_entry(instructionCounts={"m-add": True}),
    manifest_entry(instructionCounts=[["m-add", 3]]),
    manifest_entry(instructionCounts={"m-add": -3}),
    manifest_entry(instructionCounts={"m-add": 0}),
    manifest_entry(updatedMethodIds=["m-add", "m-other"]),
])
def test_test_command_rejects_a_malformed_target_manifest(tmp_path, capsys, doc):
    targets = write_text(tmp_path, "targets.json", json.dumps(doc))
    report = tmp_path / "report.json"
    assert main(["test", str(write_base_model(tmp_path, "v0")), DIARY, "--version", "v0",
                 "--targets", str(targets), "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed targets file") and err.count("\n") == 1
    assert not report.exists()


def test_diff_command_chains_from_exports(tmp_path):
    base = write_ewtg(tmp_path, "v0")
    updated = write_ewtg(tmp_path, "v1")
    out = tmp_path / "diff.json"
    assert main(["diff", str(base), str(updated), "--out", str(out)]) == 0
    diff = DiffResult.from_dict(json.loads(out.read_bytes()))
    assert diff.replaced_windows == {"main": "home"}
    assert diff.replaced_widgets == {"w3": "w8"}


def test_window_graph_and_diff_files_are_compact_json_with_sorted_keys(tmp_path):
    base = write_ewtg(tmp_path, "v0")
    diff = tmp_path / "diff.json"
    assert main(["diff", str(base), str(write_ewtg(tmp_path, "v1")), "--out", str(diff)]) == 0
    assert main(["pipeline", DIARY, "--budget", "10", "--workdir", str(tmp_path)]) == 0
    for path in (base, diff, tmp_path / "diff_v1.json"):
        data = path.read_text("utf-8")
        assert data == json.dumps(json.loads(data), sort_keys=True, separators=(",", ":")) + "\n"


def test_adapt_command_chains_from_diff(tmp_path):
    spec = load_spec(DIARY)
    base_model = tmp_path / "model_v0.json"
    base_model.write_bytes(
        serialize_model(AppModel(version="v0", ewtg=export_ewtg(spec, "v0")))
    )
    updated = write_ewtg(tmp_path, "v1")
    diff = tmp_path / "diff.json"
    assert main(["diff", str(write_ewtg(tmp_path, "v0")), str(updated),
                 "--out", str(diff)]) == 0
    out = tmp_path / "model_v1.json"
    assert main(["adapt", str(base_model), str(updated), str(diff),
                 "--out", str(out), "--version", "v1"]) == 0
    model = deserialize_model(out.read_bytes())
    assert model.version == "v1"
    assert "home" in model.ewtg.windows


def test_adapt_command_requires_the_new_version(tmp_path, capsys):
    # the adapted model is the new version's: the base's version would make
    # the next session count every carried state as observed in it
    base_model = tmp_path / "model_v0.json"
    base_model.write_bytes(
        serialize_model(AppModel(version="v0", ewtg=export_ewtg(load_spec(DIARY), "v0")))
    )
    updated = write_ewtg(tmp_path, "v1")
    diff = tmp_path / "diff.json"
    assert main(["diff", str(write_ewtg(tmp_path, "v0")), str(updated),
                 "--out", str(diff)]) == 0
    out = tmp_path / "model_v1.json"
    with pytest.raises(SystemExit) as exc:
        main(["adapt", str(base_model), str(updated), str(diff), "--out", str(out)])
    assert exc.value.code == 2
    assert "the following arguments are required: --version" in capsys.readouterr().err
    assert not out.exists()


def test_test_and_refine_and_plan_commands(tmp_path):
    spec = load_spec(DIARY)
    base_model = tmp_path / "model_in.json"
    base_model.write_bytes(
        serialize_model(AppModel(version="v0", ewtg=export_ewtg(spec, "v0")))
    )
    out_model = tmp_path / "model_out.json"
    report = tmp_path / "report.json"
    assert main(["test", str(base_model), DIARY, "--version", "v0",
                 "--budget", "30", "--seed", "4",
                 "--out-model", str(out_model), "--report", str(report)]) == 0
    doc = json.loads(report.read_text("utf-8"))
    assert doc["summary"]["executedActions"] == 30
    assert 0.0 <= doc["summary"]["targetInstructionCoverage"] <= 1.0
    assert doc["summary"]["utaCount"] == len(doc["utas"])

    refined = tmp_path / "model_refined.json"
    assert main(["refine", str(out_model), DIARY, "--version", "v0",
                 "--out", str(refined), "--seed", "5"]) == 0
    deserialize_model(refined.read_bytes())

    model = deserialize_model(out_model.read_bytes())
    main_state = next(
        s.id for s in model.dstg.abstract_states.values() if s.window_id == "main"
    )
    assert main(["plan", str(out_model), "--from-state", main_state,
                 "--target-window", "edit"]) == 0
    assert main(["plan", str(out_model), "--from-state", "no-such-state",
                 "--target-window", "edit"]) == 2


def session_model(tmp_path, model, name, seed, version="v0") -> Path:
    """The model ``uptest test`` writes after a 30-action diary session from ``model``."""
    out = tmp_path / name
    assert main(["test", str(model), DIARY, "--version", version, "--budget", "30",
                 "--seed", str(seed), "--out-model", str(out)]) == 0
    return out


def test_refine_flags_states_and_leaves_the_rest_of_the_model_unchanged(tmp_path):
    # refine replays the model's own version; with the driver seeded apart
    # from the session's, one state news's v1 session learned is not reached
    news = str(fixture_path("news"))
    base = tmp_path / "base.json"
    base.write_bytes(
        serialize_model(AppModel(version="v1", ewtg=export_ewtg(load_spec(news), "v1")))
    )
    learned = tmp_path / "learned.json"
    assert main(["test", str(base), news, "--version", "v1", "--budget", "30",
                 "--seed", "4", "--out-model", str(learned)]) == 0
    refined = tmp_path / "refined.json"
    assert main(["refine", str(learned), news, "--version", "v1",
                 "--out", str(refined), "--seed", "6"]) == 0
    before, after = json.loads(learned.read_bytes()), json.loads(refined.read_bytes())
    assert after["gstg"] == before["gstg"] and before["gstg"]["trace"]
    states = before["dstg"]["abstractStates"]
    obsolete = states["columns"].index("obsolete")
    flagged = [i for i, row in enumerate(after["dstg"]["abstractStates"]["rows"])
               if row[obsolete] and not states["rows"][i][obsolete]]
    assert flagged
    for i in flagged:
        after["dstg"]["abstractStates"]["rows"][i][obsolete] = False
    assert after == before


@pytest.mark.parametrize("command", ["test", "refine"])
@pytest.mark.parametrize("appspec, version, message", [
    (str(fixture_path("news")), "v1",
     "error: the model's window 'edit' is not a window of news v1\n"),
    (DIARY, "v0", "error: the model is of version 'v1', not 'v0'\n"),
], ids=["another app", "another version"])
def test_test_and_refine_reject_a_model_of_another_app_or_version(
    tmp_path, capsys, command, appspec, version, message
):
    model = session_model(tmp_path, write_base_model(tmp_path, "v1"), "diary_v1.json", 4, "v1")
    capsys.readouterr()
    out = tmp_path / "out.json"
    option = "--out-model" if command == "test" else "--out"
    assert main([command, str(model), appspec, "--version", version, option, str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_a_second_session_writes_each_distinct_step_once(tmp_path):
    first = session_model(tmp_path, write_base_model(tmp_path), "first.json", 4)
    second = session_model(tmp_path, first, "second.json", 6)
    old, new = json.loads(first.read_bytes())["gstg"], json.loads(second.read_bytes())["gstg"]
    assert len(old["trace"]) == 30 and len(new["trace"]) == 60
    # the first session's rows and indices stay, and later steps name them again
    assert new["steps"]["rows"][: len(old["steps"]["rows"])] == old["steps"]["rows"]
    assert new["trace"][:30] == old["trace"]
    assert set(new["trace"][30:]) & set(old["trace"])
    rows = [json.dumps(row) for row in new["steps"]["rows"]]
    assert len(set(rows)) == len(rows)


def test_pipeline_writes_versioned_artifacts(tmp_path):
    assert main(["pipeline", DIARY, "--budget", "40", "--seed", "2",
                 "--workdir", str(tmp_path)]) == 0
    for name in ("model_v0.json", "report_v0.json", "diff_v1.json",
                 "model_v1.json", "report_v1.json"):
        assert (tmp_path / name).exists(), name
    deserialize_model((tmp_path / "model_v1.json").read_bytes())


def pipeline_outputs(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("minor", range(10, 15), ids=lambda minor: f"python3.{minor}")
def test_other_interpreters_write_the_same_pipeline_bytes(tmp_path, minor):
    # the project claims Python 3.10 and later; each other python3.N found on
    # PATH that starts writes what this interpreter writes
    if minor == sys.version_info.minor:
        pytest.skip(f"python3.{minor} is the running interpreter")
    interpreter = shutil.which(f"python3.{minor}")
    if interpreter is None:
        pytest.skip(f"no python3.{minor} on PATH")
    if subprocess.run([interpreter, "-c", "pass"], capture_output=True).returncode:
        pytest.skip(f"{interpreter} does not start")
    argv = ["pipeline", str(fixture_path("deep")), "--budget", "300", "--seed", "3"]
    here, there = tmp_path / "here", tmp_path / "there"
    here.mkdir()
    there.mkdir()
    assert main(argv + ["--workdir", str(here)]) == 0
    src = str(Path(uptest.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run([interpreter, "-m", "uptest.cli", *argv, "--workdir", str(there)],
                   env=env, check=True, capture_output=True, timeout=300)
    assert pipeline_outputs(there) == pipeline_outputs(here)


def test_pipeline_fails_cleanly_on_missing_workdir(tmp_path, capsys):
    missing = tmp_path / "does-not-exist"
    assert main(["pipeline", DIARY, "--budget", "10",
                 "--workdir", str(missing)]) == 1
    assert "pipeline failed" in capsys.readouterr().err


def test_schema_1_model_is_rejected(tmp_path, capsys):
    doc = json.loads(serialize_model(AppModel(version="v0")))
    doc["schema_version"] = 1
    doc["gstg"]["guiTrees"] = []
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc), "utf-8")
    assert main(["plan", str(path), "--from-state", "st-1",
                 "--target-window", "main"]) == 1
    assert "unsupported schema version 1" in capsys.readouterr().err
    # schema 2 trace steps also stored the state before each action
    doc["schema_version"] = 2
    del doc["gstg"]["guiTrees"]
    path.write_text(json.dumps(doc), "utf-8")
    assert main(["plan", str(path), "--from-state", "st-1",
                 "--target-window", "main"]) == 1
    assert "unsupported schema version 2" in capsys.readouterr().err


def test_compare_command(tmp_path):
    a = {"summary": {"targetMethodCoverage": 0.5, "executedActions": 40,
                     "targetInstructionCoverage": 0.4, "utaCount": 3,
                     "actionsToFirstTargetCoverage": 7}, "utas": []}
    b = {"summary": {"targetMethodCoverage": 1.0, "executedActions": 40,
                     "targetInstructionCoverage": 0.9, "utaCount": 5,
                     "actionsToFirstTargetCoverage": None}, "utas": []}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a), "utf-8")
    pb.write_text(json.dumps(b), "utf-8")
    out = tmp_path / "cmp.json"
    assert main(["compare", str(pa), str(pb), "--out", str(out)]) == 0
    doc = json.loads(out.read_text("utf-8"))
    assert doc["targetMethodCoverage"] == {"a": 0.5, "b": 1.0, "delta": 0.5}
    assert doc["actionsToFirstTargetCoverage"]["delta"] is None

    pb.write_text(json.dumps({"oops": 1}), "utf-8")
    assert main(["compare", str(pa), str(pb), "--out", str(out)]) == 1


def test_compare_runs_rejects_malformed_reports(tmp_path, capsys):
    ok = {"summary": {}, "utas": []}
    with pytest.raises(ValueError):
        compare_runs({"summary": {}}, {"no": "utas"})
    # a report that is not an object, or whose summary is not one
    for bad in (5, [1], {"summary": 3, "utas": []}):
        with pytest.raises(ValueError):
            compare_runs(bad, ok)
        with pytest.raises(ValueError):
            compare_runs(ok, bad)
        pa, pb = tmp_path / "bad.json", tmp_path / "ok.json"
        pa.write_text(json.dumps(bad), "utf-8")
        pb.write_text(json.dumps(ok), "utf-8")
        assert main(["compare", str(pa), str(pb)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("compare failed: ") and err.count("\n") == 1


def test_missing_input_files_exit_with_an_error(tmp_path, capsys):
    assert main(["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                 "--out", str(tmp_path / "d.json")]) == 1
    assert "error:" in capsys.readouterr().err
    # a directory in place of a file is an OSError, not a traceback
    assert main(["diff", str(tmp_path), str(tmp_path),
                 "--out", str(tmp_path / "d.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_config_file_overrides_defaults(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"retrigger_cap": 5, "max_plan_length": 6}), "utf-8")
    cfg = load_config(cfg_path)
    assert cfg.retrigger_cap == 5
    assert cfg.max_plan_length == 6
    assert cfg.string_similarity_threshold == EngineConfig().string_similarity_threshold
    cfg_path.write_text(json.dumps({"no_such_option": 1}), "utf-8")
    with pytest.raises(ValueError):
        load_config(cfg_path)
    with pytest.raises(ConfigError):
        load_config(cfg_path)


def test_config_rejects_thresholds_outside_the_unit_interval():
    for name in ("string_similarity_threshold", "xpath_similarity_threshold",
                 "layout_similarity_threshold"):
        for bad in (7, -0.1, 1.5, "0.4", None):
            with pytest.raises(ConfigError, match=name):
                EngineConfig.from_dict({name: bad})
        for ok in (0, 0.0, 0.5, 1):
            assert getattr(EngineConfig.from_dict({name: ok}), name) == ok


@pytest.mark.parametrize("config_doc, message", [
    ({"string_similarity_threshold": 7}, "string_similarity_threshold"),
    ({"xpath_similarity_threshold": -1}, "xpath_similarity_threshold"),
    ({"layout_similarity_threshold": 2}, "layout_similarity_threshold"),
    ({"no_such_option": 1}, "unknown config keys"),
    ("{not json", "not a JSON document"),
    ("[0.4]", "must be a JSON object"),
])
def test_diff_command_rejects_a_bad_config(tmp_path, capsys, config_doc, message):
    cfg = write_text(tmp_path, "cfg.json",
                     config_doc if isinstance(config_doc, str) else json.dumps(config_doc))
    base = write_ewtg(tmp_path, "v0")
    out = tmp_path / "diff.json"
    assert main(["diff", str(base), str(base), "--out", str(out), "--config", str(cfg)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.strip().splitlines()) == 1  # one line, no traceback


#: A window graph in the schema-4 columns, which stored each window's widgets
#: and each window transition's source window a second time.
SCHEMA_4_EWTG = {
    "windows": {
        "columns": ["id", "name", "kind", "className", "runtimeCreated", "widgetIds"],
        "rows": [["main", "Main", "Activity", "com.app.Main", False, ["ok"]]],
    },
    "widgets": {
        "columns": ["id", "windowId", "className", "resourceId", "contentDescription",
                    "xpath", "parentId", "runtimeCreated"],
        "rows": [["ok", "main", "Button", "ok", "", "/L/Button", None, False]],
    },
    "inputs": {
        "columns": ["id", "windowId", "actionType", "widgetId", "handlerMethodIds"],
        "rows": [["i-ok", "main", "Click", "ok", []]],
    },
    "windowTransitions": {
        "columns": ["id", "sourceWindowId", "destinationWindowId", "inputId"],
        "rows": [["wt-ok", "main", "main", "i-ok"]],
    },
    "launcherWindowId": "main",
}


def dangling_diary_ewtg(edit) -> str:
    """The diary's v0 window graph document after ``edit``, which makes one
    of its references dangle."""
    ewtg = export_ewtg(load_spec(DIARY), "v0")
    edit(ewtg)
    return json.dumps(ewtg.to_dict())


@pytest.mark.parametrize("text", [
    "not json",
    "[]",
    json.dumps({"windows": 3}),
    json.dumps({"windows": [{"id": "w1"}]}),
    json.dumps({"windows": [{"id": "w1", "name": "M", "kind": "Spaceship",
                             "className": "M"}]}),
    json.dumps(SCHEMA_4_EWTG),
    pytest.param(
        dangling_diary_ewtg(lambda g: setattr(g.widgets["w3"], "window_id", "no-such-window")),
        id="widget-of-no-window",
    ),
    pytest.param(
        dangling_diary_ewtg(lambda g: setattr(g.inputs["i-ok"], "widget_id", "no-such-widget")),
        id="input-on-no-widget",
    ),
    pytest.param(
        dangling_diary_ewtg(
            lambda g: setattr(g.window_transitions["wt-i-add-0-edit"], "input_id", "no-such-input")
        ),
        id="transition-of-no-input",
    ),
])
def test_diff_and_adapt_reject_a_malformed_window_graph(tmp_path, capsys, text):
    good = write_ewtg(tmp_path, "v0")
    bad = write_text(tmp_path, "bad.json", text)
    out = tmp_path / "out.json"
    assert main(["diff", str(good), str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "malformed window graph" in err
    assert err.count("\n") == 1

    model = write_base_model(tmp_path)
    diff = tmp_path / "diff.json"
    assert main(["diff", str(good), str(good), "--out", str(diff)]) == 0
    assert main(["adapt", str(model), str(bad), str(diff), "--out", str(out),
                 "--version", "v1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "malformed window graph" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_adapt_rejects_a_malformed_diff(tmp_path, capsys):
    model = write_base_model(tmp_path)
    good = write_ewtg(tmp_path, "v0")
    bad = write_text(tmp_path, "diff.json", json.dumps({"replacedWindows": 5}))
    assert main(["adapt", str(model), str(good), str(bad), "--out",
                 str(tmp_path / "out.json"), "--version", "v1"]) == 1
    assert "malformed diff" in capsys.readouterr().err


def written_diff(tmp_path) -> dict:
    """The diff document ``uptest diff`` writes for the diary's v0 and v1."""
    out = tmp_path / "written-diff.json"
    assert main(["diff", str(write_ewtg(tmp_path, "v0")), str(write_ewtg(tmp_path, "v1")),
                 "--out", str(out)]) == 0
    return json.loads(out.read_bytes())


@pytest.mark.parametrize("diff_doc", [
    {"matchedWindows": {"edit": ["x"]}},
    {"matchedWidgets": ["ab", "cd"]},  # dict() would read it as {"a": "b", "c": "d"}
    {"replacedWidgets": {"w1": 5}},
    {"addedWidgets": "w9"},
    {"addedWidgets": [5]},
    {"deletedWindows": {"main": "main"}},
])
def test_adapt_rejects_diff_fields_of_the_wrong_shape(tmp_path, capsys, diff_doc):
    # each case is the written diff with one field wrong, so it fails for that field
    doc = written_diff(tmp_path)
    DiffResult.from_dict(doc)
    doc.update(diff_doc)
    with pytest.raises(SHAPE_ERRORS):
        DiffResult.from_dict(doc)
    model = write_base_model(tmp_path)
    good = write_ewtg(tmp_path, "v1")
    bad = write_text(tmp_path, "diff.json", json.dumps(doc))
    out = tmp_path / "out.json"
    assert main(["adapt", str(model), str(good), str(bad), "--out", str(out),
                 "--version", "v1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed diff") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("change, named", [
    (lambda doc: doc.pop("matchedWindows"), "missing key 'matchedWindows'"),
    (lambda doc: doc.update(matchedWindow=doc.pop("matchedWindows")),
     "missing key 'matchedWindows', unknown key 'matchedWindow'"),
    (lambda doc: doc.update(comment="extra"), "unknown key 'comment'"),
], ids=["missing", "misspelled", "unknown"])
def test_adapt_rejects_a_diff_without_exactly_the_written_keys(tmp_path, capsys, change, named):
    # a misspelled key once loaded as a partial diff, and adaptation carried less
    doc = written_diff(tmp_path)
    change(doc)
    model = write_base_model(tmp_path)
    good = write_ewtg(tmp_path, "v1")
    bad = write_text(tmp_path, "diff.json", json.dumps(doc))
    out = tmp_path / "out.json"
    assert main(["adapt", str(model), str(good), str(bad), "--out", str(out),
                 "--version", "v1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed diff") and err.count("\n") == 1
    assert named in err
    assert not out.exists()


@pytest.mark.parametrize("field, value, named", [
    ("addedWidgets", ["no-such-widget"], "unknown updated widget no-such-widget"),
    ("deletedWidgets", ["no-such-widget"], "unknown base widget no-such-widget"),
    ("deletedTransitions", ["no-such-transition"], "unknown base transition no-such-transition"),
    ("addedTransitions", ["no-such-transition"],
     "unknown updated transition no-such-transition"),
])
def test_adapt_rejects_a_diff_that_names_an_unknown_id(tmp_path, capsys, field, value, named):
    # an unknown added widget once reached the adapted model's diff context
    doc = written_diff(tmp_path)
    doc[field] = value
    model = write_base_model(tmp_path)
    good = write_ewtg(tmp_path, "v1")
    bad = write_text(tmp_path, "diff.json", json.dumps(doc))
    out = tmp_path / "out.json"
    assert main(["adapt", str(model), str(good), str(bad), "--out", str(out),
                 "--version", "v1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and err.count("\n") == 1
    assert not out.exists()


def test_diff_rejects_a_window_graph_with_a_repeated_window_id(tmp_path, capsys):
    good = write_ewtg(tmp_path, "v0")
    doc = json.loads(good.read_text("utf-8"))
    windows = doc["windows"]
    twice = list(windows["rows"][0])
    twice[windows["columns"].index("kind")] = "Dialog"
    windows["rows"].append(twice)
    bad = write_text(tmp_path, "twice.json", json.dumps(doc))
    out = tmp_path / "diff.json"
    assert main(["diff", str(good), str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed window graph") and err.count("\n") == 1
    assert "duplicate window id" in err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("not json", "not a JSON document"),
    ("[1]", "JSON object"),
    (json.dumps({"appId": "a", "versions": [{"version": "v0",
                                              "windows": [{"name": "x"}]}]}),
     "malformed app spec"),
    (json.dumps({"appId": "a", "versions": [{"version": "v0", "windows": [
        {"id": "main", "name": "Main", "className": "c.Main", "launcher": True,
         "widgets": [{"id": "w", "clickable": "no"}]}]}]}),
     "wrong type"),
])
def test_spec_commands_reject_a_malformed_spec(tmp_path, capsys, text, message):
    spec = write_text(tmp_path, "spec.json", text)
    assert main(["harness", "export-ewtg", str(spec), "--version", "v0",
                 "--out", str(tmp_path / "e.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.strip().splitlines()) == 1
    assert main(["pipeline", str(spec), "--workdir", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("config_doc", [
    {"phase_caps": [0.5, 0.5, 0.5]},
    {"phase_caps": [0.5, 0.5]},
    {"phase_caps": [1.5, 0, 0]},
    {"phase_caps": [-0.1, 0.5, 0.5]},
    {"phase_caps": ["0.5", 0.3, 0.2]},
    {"phase_caps": 0.5},
    {"retrigger_cap": 0},
    {"retrigger_cap": 2.5},
    {"max_plan_length": -1},
    {"max_plan_length": 0},
    {"default_meta_probability": 1.5},
    {"default_meta_probability": -0.5},
    {"text_dictionary": []},
    {"text_dictionary": 5},
    {"text_dictionary": ["ok", 3]},
])
def test_config_rejects_values_out_of_range(config_doc):
    (name,) = config_doc
    with pytest.raises(ConfigError, match=name):
        EngineConfig.from_dict(config_doc)


def test_config_accepts_values_at_the_ends_of_their_ranges():
    EngineConfig.from_dict({
        "phase_caps": [1, 0, 0], "retrigger_cap": 1, "max_plan_length": 1,
        "default_meta_probability": 0, "text_dictionary": [""],
    })
    EngineConfig.from_dict({"phase_caps": [0.25, 0.25, 0.5], "default_meta_probability": 1})


@pytest.mark.parametrize("command", ["test", "pipeline"])
def test_negative_budget_is_a_one_line_error(tmp_path, capsys, command):
    if command == "test":
        argv = ["test", str(write_base_model(tmp_path)), DIARY, "--version", "v0"]
    else:
        argv = ["pipeline", DIARY, "--workdir", str(tmp_path)]
    assert main(argv + ["--budget", "-1"]) == 1
    err = capsys.readouterr().err
    assert "--budget must be >= 0" in err
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.glob("report_*.json"))


def test_config_round_trip():
    cfg = EngineConfig(phase_caps=(0.6, 0.2, 0.2))
    doc = json.loads(json.dumps(asdict(cfg)))  # JSON holds the tuple fields as lists
    assert isinstance(doc["phase_caps"], list) and isinstance(doc["text_dictionary"], list)
    assert EngineConfig.from_dict(doc) == cfg
