"""The pipeline a workload runs, with failure accounting and output checks.

Each app version is one operation.  A session workload takes it through
export, diff and adapt (from the second version on), session, prune, replay,
validate, serialize and report; the carry workload through export,
deserialize, diff, adapt, validate and serialize, with no session.

A stage that raises fails its operation; the failure names the stage and the
exception type.  A session that raises keeps its actions, time and the
coverage the app driver reported; prune and report are skipped because they
need the session's result, and the model the session left in place
(``run_session`` mutates the model it is given) goes on to replay, serialize
and the next version.  Any other stage that raises ends the app.

Every stage call is timed on its own, so the benchmark's own checks are not
in ``pipeline_s`` (see ``run.py`` for how the calls' times are combined).
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from uptest import adaptation, diff, engine, harness, model, refinement
from uptest.config import EngineConfig
from uptest.engine import TargetSet
from uptest.harness import AppSpec, DriverSession
from uptest.model import AppModel

from spans import Tracer

# span name -> function; the layer is the part before the dot
PUBLIC_CALLS: dict[str, Callable] = {
    "harness.load_spec": harness.load_spec,
    "harness.export_ewtg": harness.export_ewtg,
    "harness.perform": DriverSession.perform,
    "diff.diff_ewtg": diff.diff_ewtg,
    "adaptation.adapt_model": adaptation.adapt_model,
    "engine.run_session": engine.run_session,
    "engine.emit_report": engine.emit_report,
    "refinement.prune_unvisited": refinement.prune_unvisited,
    "refinement.replay_flag_obsolete": refinement.replay_flag_obsolete,
    "model.serialize_model": model.serialize_model,
    "model.deserialize_model": model.deserialize_model,
    "model.validate_integrity": model.validate_integrity,
}


class Api:
    """The public functions the pipeline calls, wrapped in spans when traced."""

    def __init__(self, tracer: Optional[Tracer] = None):
        for name, fn in PUBLIC_CALLS.items():
            setattr(self, name.split(".", 1)[1], tracer.wrap(name, fn) if tracer else fn)


@contextlib.contextmanager
def traced_internals(tracer: Tracer):
    """Spans around the planner and abstraction, at the names their callers use."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(tracer.patched(engine, "plan_to_target", "planner.plan_to_target"))
        for module in (engine, refinement):
            stack.enter_context(
                tracer.patched(module, "derive_abstract_state", "abstraction.derive_abstract_state")
            )
        yield


class RecordingDriver:
    """Passes actions to a ``DriverSession`` and keeps the ranges it returned."""

    def __init__(self, driver: DriverSession, perform: Callable):
        self._driver = driver
        self._perform = perform
        self.actions = 0
        self.executed: list[tuple[int, list[tuple[str, int, int]]]] = []

    def reset(self):
        return self._driver.reset()

    def perform(self, action):
        self.actions += 1
        result = self._perform(self._driver, action)
        if result.executed:
            self.executed.append((self.actions, result.executed))
        return result


def recount_coverage(
    executed: list[tuple[int, list[tuple[str, int, int]]]], targets: TargetSet
) -> tuple[int, Optional[int]]:
    """Target instructions covered, and the index of the first covering action."""
    covered: dict[str, set[int]] = {}
    first = None
    for index, ranges in executed:
        for method_id, lo, hi in ranges:
            if method_id not in targets.target_method_ids:
                continue
            seen = covered.setdefault(method_id, set())
            before = len(seen)
            seen.update(range(lo, hi + 1))
            if first is None and len(seen) > before:
                first = index
    return sum(len(v) for v in covered.values()), first


def diff_partition_errors(result: diff.DiffResult, base, updated) -> list[str]:
    """Each static window/widget in exactly one class on each side of the diff."""
    errors = []
    for kind, base_ids, upd_ids, matched, replaced, deleted, added in (
        (
            "window",
            [w.id for w in base.windows.values() if not w.runtime_created],
            [w.id for w in updated.windows.values() if not w.runtime_created],
            result.matched_windows,
            result.replaced_windows,
            result.deleted_windows,
            result.added_windows,
        ),
        (
            "widget",
            [w.id for w in base.widgets.values() if not w.runtime_created],
            [w.id for w in updated.widgets.values() if not w.runtime_created],
            result.matched_widgets,
            result.replaced_widgets,
            result.deleted_widgets,
            result.added_widgets,
        ),
    ):
        base_seen = Counter([*matched, *replaced, *deleted])
        upd_seen = Counter([*matched.values(), *replaced.values(), *added])
        for side, ids, seen in (("base", base_ids, base_seen), ("updated", upd_ids, upd_seen)):
            wrong = [i for i in ids if seen[i] != 1]
            extra = set(seen) - set(ids)
            if wrong or extra:
                errors.append(
                    f"diff: {len(wrong)} {side} {kind}s not in exactly one class, "
                    f"{len(extra)} unknown"
                )
    return errors


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    """One app version taken through its stages."""

    app: str
    version: str
    failed_stage: Optional[str] = None
    error: Optional[str] = None
    session: bool = False
    actions: int = 0
    session_s: float = 0.0
    covered: int = 0
    total: int = 0
    first_target: Optional[int] = None

    def fail(self, stage: str, exc: BaseException) -> None:
        self.failed_stage = stage
        self.error = f"{type(exc).__name__}: {exc}"


@dataclass
class Iteration:
    """What one pass over a workload's fixed work did."""

    pipeline_s: float = 0.0  # the sum of ``calls``
    calls: list[tuple[str, float]] = field(default_factory=list)  # (stage, wall seconds), in order
    ops: list[Op] = field(default_factory=list)
    artifacts: list[tuple[str, str]] = field(default_factory=list)  # (name, sha256)
    last_model_bytes: dict[str, int] = field(default_factory=dict)  # app -> size
    problems: list[str] = field(default_factory=list)  # failed output checks
    counts: Counter = field(default_factory=Counter)


class Pipeline:
    """Runs the workload's apps through the program's stages."""

    def __init__(self, api: Api, out_dir: Path, config: EngineConfig, checks: bool, traced: bool):
        self.api = api
        self.out_dir = out_dir
        self.config = config
        self.checks = checks
        self.traced = traced
        self.stage = ""  # of the latest call, named when an operation fails
        self.it = Iteration()

    def _call(self, stage: str, fn: Callable, *args, **kwargs):
        self.stage = stage
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            self.it.calls.append((stage, seconds))
            self.it.pipeline_s += seconds

    def _store(self, app: str, version: str, m: AppModel) -> bytes:
        """Validate and serialize the carried model; check the round trip."""
        violations = self._call("validate", self.api.validate_integrity, m)
        if violations:
            self.it.problems.append(f"{app}/{version}: integrity: {violations[0]}")
        data = self._call("serialize", self.api.serialize_model, m)
        self.it.counts["model.bytes"] += len(data)
        if self.traced:
            gstg = json.loads(data)["gstg"]
            self.it.counts["model.gstg_bytes"] += len(json.dumps({"gstg": gstg}, indent=2, sort_keys=True))
        if self.checks and model.serialize_model(model.deserialize_model(data)) != data:
            self.it.problems.append(f"{app}/{version}: serialize/deserialize round trip changed bytes")
        self.it.artifacts.append((f"{app}/{version}/model", sha256(data)))
        self.it.last_model_bytes[app] = len(data)
        return data

    def _diff(self, base, updated):
        result = self._call(
            "diff",
            self.api.diff_ewtg,
            base,
            updated,
            lev_threshold=self.config.string_similarity_threshold,
            xpath_threshold=self.config.xpath_similarity_threshold,
        )
        c = self.it.counts
        c["diff.replaced"] += len(result.replaced_windows) + len(result.replaced_widgets) + len(result.replaced_transitions)
        c["diff.added"] += len(result.added_windows) + len(result.added_widgets) + len(result.added_transitions)
        c["diff.deleted"] += len(result.deleted_windows) + len(result.deleted_widgets) + len(result.deleted_transitions)
        return result

    def _adapt(self, base: AppModel, updated, result, version: str) -> AppModel:
        adapted = self._call("adapt", self.api.adapt_model, base, updated, result, version=version)
        self.it.counts["adaptation.base_states"] += len(base.dstg.abstract_states)
        self.it.counts["adaptation.carried_states"] += len(adapted.dstg.abstract_states)
        return adapted

    def _finish_app(self, m: AppModel) -> None:
        self.it.counts["dstg.states"] += len(m.dstg.abstract_states)
        self.it.counts["dstg.transitions"] += len(m.dstg.abstract_transitions)

    # -- session workloads -------------------------------------------------

    def run_sessions(self, app: str, spec: AppSpec, budget: int, seed: int) -> None:
        m: Optional[AppModel] = None
        for v in spec.versions:
            op = Op(app, v.version, session=True)
            self.it.ops.append(op)
            try:
                ewtg = self._call("export", self.api.export_ewtg, spec, v.version)
                counts = self._call("export", harness.method_instruction_counts, spec, v.version)
                if m is None:
                    m = AppModel(version=v.version, ewtg=copy.deepcopy(ewtg))
                    methods = set(counts)
                else:
                    m = self._adapt(m, ewtg, self._diff(m.ewtg, ewtg), v.version)
                    methods = self._call("export", harness.updated_methods, spec, v.version)
                targets = TargetSet(target_method_ids=methods, instruction_counts=counts)
                session = self._session(op, m, targets, spec, v, budget, seed)
                if session is not None:
                    self._call("prune", self.api.prune_unvisited, m, session.observed_state_ids)
                self.it.counts["refinement.replay_steps"] += len(m.gstg.trace)
                obsolete = sum(s.obsolete for s in m.dstg.abstract_states.values())
                replay_driver = DriverSession(spec, v.version, seed=seed + 1)
                self._call("replay", self.api.replay_flag_obsolete, m, replay_driver)
                self.it.counts["refinement.obsolete_flagged"] += (
                    sum(s.obsolete for s in m.dstg.abstract_states.values()) - obsolete
                )
                self._store(app, v.version, m)
                if session is not None:
                    self._report(op, session, targets)
            except Exception as exc:  # a failed stage is counted, never fatal
                op.fail(self.stage, exc)
                break
        if m is not None:
            self._finish_app(m)

    def _session(self, op: Op, m: AppModel, targets: TargetSet, spec: AppSpec, v, budget: int, seed: int):
        driver = RecordingDriver(DriverSession(spec, v.version, seed=seed), self.api.perform)
        start = time.perf_counter()
        try:
            return self._call(
                "session",
                self.api.run_session,
                m,
                targets,
                driver,
                budget=budget,
                seed=seed,
                config=self.config,
                related_windows=v.related_windows,
                text_pools=v.text_inputs,
            )
        except Exception as exc:  # the session's work is kept; see module doc
            op.fail("session", exc)
            return None
        finally:
            op.session_s = time.perf_counter() - start
            op.actions = driver.actions
            op.total = targets.total_target_instructions
            op.covered, op.first_target = recount_coverage(driver.executed, targets)

    def _report(self, op: Op, session, targets: TargetSet) -> None:
        path = self.out_dir / "report.json"
        doc = self._call("report", self.api.emit_report, session, targets, path)
        self.it.artifacts.append((f"{op.app}/{op.version}/report", sha256(path.read_bytes())))
        summary = doc["summary"]
        for key, expected in (
            ("coveredTargetInstructions", op.covered),
            ("actionsToFirstTargetCoverage", op.first_target),
            ("executedActions", op.actions),
        ):
            if summary[key] != expected:
                self.it.problems.append(
                    f"{op.app}/{op.version}: report {key}={summary[key]}, driver recount {expected}"
                )

    # -- carry workload ------------------------------------------------------

    def run_carry(self, app: str, spec: AppSpec) -> None:
        stored: Optional[bytes] = None
        m: Optional[AppModel] = None
        for v in spec.versions:
            op = Op(app, v.version)
            self.it.ops.append(op)
            try:
                ewtg = self._call("export", self.api.export_ewtg, spec, v.version)
                if stored is None:
                    m = AppModel(version=v.version, ewtg=copy.deepcopy(ewtg))
                else:
                    base = self._call("deserialize", self.api.deserialize_model, stored)
                    result = self._diff(base.ewtg, ewtg)
                    if self.checks:
                        self.it.problems.extend(
                            f"{app}/{v.version}: {e}"
                            for e in diff_partition_errors(result, base.ewtg, ewtg)
                        )
                    m = self._adapt(base, ewtg, result, v.version)
                stored = self._store(app, v.version, m)
            except Exception as exc:  # a failed stage is counted, never fatal
                op.fail(self.stage, exc)
                break
        if m is not None:
            self._finish_app(m)
