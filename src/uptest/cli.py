"""Command-line entry points for the full pipeline and its individual steps."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, TypeVar

from .adaptation import AdaptationError, adapt_model
from .config import ConfigError, EngineConfig, load_config
from .diff import DiffResult, diff_ewtg
from .engine import TargetSet, emit_report, run_session
from .harness import (
    AppSpec,
    DriverSession,
    SpecError,
    export_ewtg,
    load_spec,
    method_instruction_counts,
    target_manifest,
    updated_methods,
)
from .model import (
    SHAPE_ERRORS,
    AppModel,
    Ewtg,
    ModelError,
    compact_json,
    deserialize_model,
    require,
    require_int,
    serialize_model,
    validate_integrity,
)
from .planner import MetaState, plan_to_target
from .refinement import prune_unvisited, replay_flag_obsolete

T = TypeVar("T")


def _read_document(path: str, parse: Callable[[dict], T], what: str) -> T:
    """``parse`` applied to the JSON file at ``path``; a malformed one raises ModelError."""
    try:
        return parse(json.loads(Path(path).read_text("utf-8")))
    except SHAPE_ERRORS as exc:
        raise ModelError(f"malformed {what} {path}: {type(exc).__name__}: {exc}") from exc


def _read_ewtg(path: str) -> Ewtg:
    """The window graph at ``path``; one whose references dangle raises ModelError."""
    ewtg = _read_document(path, Ewtg.from_dict, "window graph")
    violations = validate_integrity(AppModel(version="", ewtg=ewtg))
    if violations:
        raise ModelError(f"malformed window graph {path}: " + "; ".join(violations))
    return ewtg


def _write_json(path, doc) -> None:
    Path(path).write_bytes(compact_json(doc) + b"\n")


def _config(args) -> EngineConfig:
    return load_config(args.config) if args.config else EngineConfig()


def _budget(args) -> int:
    if args.budget < 0:
        raise ConfigError(f"--budget must be >= 0, got {args.budget}")
    return args.budget


def _targets_for(spec: AppSpec, version: str, first: bool) -> TargetSet:
    counts = method_instruction_counts(spec, version)
    methods = set(counts) if first else updated_methods(spec, version)
    return TargetSet(target_method_ids=methods, instruction_counts=counts)


def _targets_from_file(path: str, version: str) -> TargetSet:
    """The targets of ``version`` in a manifest ``harness diff-targets`` wrote."""

    def parse(doc: dict) -> TargetSet:
        require(list, doc["versions"])
        for entry in doc["versions"]:
            require(dict, entry)
            if entry["version"] == version:
                break
        else:
            raise LookupError(f"no entry for version {version!r}")
        methods, counts = entry["updatedMethodIds"], entry["instructionCounts"]
        require(list, methods)
        require(str, *methods)
        require(dict, counts)
        require_int(*counts.values())
        for method, count in counts.items():
            if count < 1:
                raise ValueError(f"method {method!r} has instruction count {count}, below 1")
        for method in methods:
            if method not in counts:
                raise LookupError(f"target method {method!r} has no instruction count")
        return TargetSet(target_method_ids=set(methods), instruction_counts=counts)

    return _read_document(path, parse, "targets file")


def _require_model_of(model: AppModel, spec: AppSpec, version: str) -> None:
    """Reject a model of another version or app: its version must be
    ``version`` and each of its static windows a window of that version."""
    if model.version != version:
        raise ModelError(f"the model is of version {model.version!r}, not {version!r}")
    windows = export_ewtg(spec, version).windows
    for window in model.ewtg.windows.values():
        if not window.runtime_created and window.id not in windows:
            raise ModelError(
                f"the model's window {window.id!r} is not a window of "
                f"{spec.app_id} {version}"
            )


def _session_kwargs(spec: AppSpec, version: str):
    v = spec.versions[spec.version_index(version)]
    return {
        "related_windows": v.related_windows,
        "text_pools": v.text_inputs,
    }


# --- subcommands ---------------------------------------------------------


def cmd_diff(args) -> int:
    base = _read_ewtg(args.base)
    updated = _read_ewtg(args.updated)
    config = _config(args)
    result = diff_ewtg(
        base,
        updated,
        lev_threshold=config.string_similarity_threshold,
        xpath_threshold=config.xpath_similarity_threshold,
    )
    Path(args.out).write_bytes(result.to_json() + b"\n")
    return 0


def cmd_adapt(args) -> int:
    base = deserialize_model(Path(args.base_model).read_bytes())
    updated = _read_ewtg(args.updated_ewtg)
    diff = _read_document(args.diff, DiffResult.from_dict, "diff")
    model = adapt_model(base, updated, diff, version=args.version)
    Path(args.out).write_bytes(serialize_model(model) + b"\n")
    return 0


def cmd_test(args) -> int:
    spec = load_spec(args.appspec)
    model = deserialize_model(Path(args.model).read_bytes())
    _require_model_of(model, spec, args.version)
    if args.targets == "auto":
        # at the first version every method is an updated one
        targets = _targets_for(spec, args.version, first=False)
    else:
        targets = _targets_from_file(args.targets, args.version)
    driver = DriverSession(spec, args.version, seed=args.seed)
    result = run_session(
        model,
        targets,
        driver,
        budget=_budget(args),
        seed=args.seed,
        config=_config(args),
        **_session_kwargs(spec, args.version),
    )
    if args.out_model:
        Path(args.out_model).write_bytes(serialize_model(result.model) + b"\n")
    if args.report:
        emit_report(result, targets, args.report)
    return 0


def cmd_refine(args) -> int:
    spec = load_spec(args.appspec)
    model = deserialize_model(Path(args.model).read_bytes())
    _require_model_of(model, spec, args.version)
    driver = DriverSession(spec, args.version, seed=args.seed)
    replay_flag_obsolete(model, driver)
    Path(args.out).write_bytes(serialize_model(model) + b"\n")
    return 0


def cmd_plan(args) -> int:
    model = deserialize_model(Path(args.model).read_bytes())
    state = model.dstg.abstract_states.get(args.from_state)
    if state is None:
        print(f"unknown state {args.from_state}", file=sys.stderr)
        return 2
    if args.target_state:
        target = model.dstg.abstract_states.get(args.target_state)
    elif args.target_window:
        target = model.ewtg.windows.get(args.target_window)
    else:
        target = model.ewtg.inputs.get(args.target_input)
    if target is None:
        print("unknown target", file=sys.stderr)
        return 2
    sequence = plan_to_target(model, state, target, config=_config(args))
    if sequence is None:
        print("no path to target")
        return 1
    for step in sequence.steps:
        expected = (
            f"meta:{step.expected.window_id}"
            if isinstance(step.expected, MetaState)
            else step.expected
        )
        print(
            f"{step.action_type.value} widget={step.widget_id} "
            f"expected={expected} p={step.probability:.2f}"
        )
    print(
        f"kind={sequence.kind} cost_full={sequence.cost_full} "
        f"cost_partial={sequence.cost_partial} "
        f"likelihood_partial={sequence.likelihood_partial} cost={sequence.cost}"
    )
    return 0


def pipeline_run(
    spec: AppSpec,
    from_version: str,
    to_version: str,
    budget: int,
    seed: int,
    workdir: Path,
    config: EngineConfig,
) -> list[Path]:
    if not workdir.is_dir():
        raise IOError(f"workdir {workdir} does not exist")
    start = spec.version_index(from_version)
    end = spec.version_index(to_version)
    if end < start:
        raise ValueError("to-version precedes from-version")
    artifacts: list[Path] = []
    model: AppModel | None = None
    for index in range(start, end + 1):
        version = spec.versions[index].version
        ewtg = export_ewtg(spec, version)
        if model is None:
            model = AppModel(version=version, ewtg=ewtg)
            targets = _targets_for(spec, version, first=True)
        else:
            diff = diff_ewtg(
                model.ewtg,
                ewtg,
                lev_threshold=config.string_similarity_threshold,
                xpath_threshold=config.xpath_similarity_threshold,
            )
            diff_path = workdir / f"diff_{version}.json"
            diff_path.write_bytes(diff.to_json() + b"\n")
            artifacts.append(diff_path)
            model = adapt_model(model, ewtg, diff, version=version)
            targets = _targets_for(spec, version, first=False)
        driver = DriverSession(spec, version, seed=seed)
        result = run_session(
            model,
            targets,
            driver,
            budget=budget,
            seed=seed,
            config=config,
            **_session_kwargs(spec, version),
        )
        prune_unvisited(model, result.observed_state_ids)
        replay_flag_obsolete(model, DriverSession(spec, version, seed=seed + 1))
        model_path = workdir / f"model_{version}.json"
        model_path.write_bytes(serialize_model(model) + b"\n")
        report_path = workdir / f"report_{version}.json"
        emit_report(result, targets, report_path)
        artifacts.extend([model_path, report_path])
    return artifacts


def cmd_pipeline(args) -> int:
    spec = load_spec(args.appspec)
    from_version = args.from_version or spec.versions[0].version
    to_version = args.to_version or spec.versions[-1].version
    try:
        pipeline_run(
            spec,
            from_version,
            to_version,
            budget=_budget(args),
            seed=args.seed,
            workdir=Path(args.workdir),
            config=_config(args),
        )
    except (IOError, ValueError, ModelError, AdaptationError, SpecError) as exc:
        print(f"pipeline failed: {exc}", file=sys.stderr)
        return 1
    return 0


def compare_runs(report_a: dict, report_b: dict) -> dict:
    for doc in (report_a, report_b):
        if not isinstance(doc, dict) or "summary" not in doc or "utas" not in doc:
            raise ValueError("report document is not an object with summary/utas")
        if not isinstance(doc["summary"], dict):
            raise ValueError("report summary is not a JSON object")
    keys = (
        "targetMethodCoverage",
        "targetInstructionCoverage",
        "utaCount",
        "executedActions",
        "actionsToFirstTargetCoverage",
    )
    out = {}
    for key in keys:
        a = report_a["summary"].get(key)
        b = report_b["summary"].get(key)
        delta = None
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            delta = b - a
        out[key] = {"a": a, "b": b, "delta": delta}
    return out


def cmd_compare(args) -> int:
    try:
        a = json.loads(Path(args.report_a).read_text("utf-8"))
        b = json.loads(Path(args.report_b).read_text("utf-8"))
        doc = compare_runs(a, b)
    except ValueError as exc:
        print(f"compare failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        _write_json(args.out, doc)
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_harness_export(args) -> int:
    spec = load_spec(args.appspec)
    ewtg = export_ewtg(spec, args.version)
    _write_json(args.out, ewtg.to_dict())
    return 0


def cmd_harness_targets(args) -> int:
    spec = load_spec(args.appspec)
    _write_json(args.out, target_manifest(spec))
    return 0


# --- argument parsing ----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uptest",
        description="Update-aware model-based GUI test generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diff", help="diff two exported static models")
    p.add_argument("base")
    p.add_argument("updated")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="JSON config file")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("adapt", help="carry a model over to a new version")
    p.add_argument("base_model")
    p.add_argument("updated_ewtg")
    p.add_argument("diff")
    p.add_argument("--out", required=True)
    p.add_argument("--version", required=True)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("test", help="run one test session")
    p.add_argument("model")
    p.add_argument("appspec")
    p.add_argument("--version", required=True)
    p.add_argument(
        "--targets", default="auto", help='"auto" or a manifest from harness diff-targets'
    )
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--out-model", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="JSON config file")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("refine", help="replay the trace and flag obsolete states")
    p.add_argument("model")
    p.add_argument("appspec")
    p.add_argument("--version", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("plan", help="print the planned sequence to a target")
    p.add_argument("model")
    p.add_argument("--from-state", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--target-window")
    group.add_argument("--target-state")
    group.add_argument("--target-input")
    p.add_argument("--config", default=None, help="JSON config file")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("pipeline", help="run the full multi-version pipeline")
    p.add_argument("appspec")
    p.add_argument("--from-version", default=None)
    p.add_argument("--to-version", default=None)
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--workdir", default=".", help="artifact directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="JSON config file")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("compare", help="compare two session reports")
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("harness", help="simulated app platform utilities")
    hsub = p.add_subparsers(dest="harness_command", required=True)
    ph = hsub.add_parser("export-ewtg", help="export one version's static model")
    ph.add_argument("appspec")
    ph.add_argument("--version", required=True)
    ph.add_argument("--out", required=True)
    ph.set_defaults(func=cmd_harness_export)
    ph = hsub.add_parser("diff-targets", help="emit the per-version target manifest")
    ph.add_argument("appspec")
    ph.add_argument("--out", required=True)
    ph.set_defaults(func=cmd_harness_targets)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ModelError, SpecError, AdaptationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
