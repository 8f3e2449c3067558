"""Harness-side worker functions for the scheduler pool.

``execute_task`` is also the per-task step of the in-process
``evaluate_model(jobs=1)`` path, which builds the same context from the
caller's bench.  Both functions are module-level so they can cross a
process boundary by reference.  Each worker builds the full
:class:`PCGBench` once and looks prompts up by uid — prompt/problem
objects carry numpy closures and never travel through a worker's task
pipe; only strings do.
"""

from __future__ import annotations

from typing import Dict

from ..bench.registry import PCGBench
from ..harness.runner import Runner, compile_cache_stats
from .plan import KIND_BASELINE, KIND_SAMPLE


def init_harness(runner: Runner):
    """Per-worker init: build the full bench and index it, so one worker
    serves any task set (a pool outlives the runs it serves)."""
    bench = PCGBench()
    prompts = {p.uid: p for p in bench.prompts}
    problems = {p.name: p for p in bench.problems}
    return runner, prompts, problems


def execute_task(ctx, payload: Dict[str, object]) -> Dict[str, object]:
    """Run one task; returns a JSON-serialisable result payload."""
    runner, prompts, problems = ctx
    kind = payload["kind"]
    if kind == KIND_BASELINE:
        problem = problems[payload["problem"]]
        return {"baseline": runner.baseline_time(problem)}
    if kind == KIND_SAMPLE:
        prompt = prompts[payload["uid"]]
        cache_before = compile_cache_stats()
        res = runner.evaluate_sample(str(payload["source"]), prompt,
                                     with_timing=bool(payload["with_timing"]),
                                     profile=bool(payload.get("profile")))
        cache_after = compile_cache_stats()
        return {"status": res.status, "detail": res.detail,
                "times": {int(k): float(v) for k, v in res.times.items()},
                "diagnostics": [d.to_dict() for d in res.diagnostics],
                "profile": res.profile.to_dict()
                if res.profile is not None else None,
                # observability riders: vec-tier telemetry plus this
                # task's compile-cache delta (the worker counters are
                # process-wide, so ship differences, not totals)
                "vec": res.vec,
                "compile_cache": {
                    k: cache_after[k] - cache_before[k]
                    for k in ("hits", "misses")}}
    raise ValueError(f"unknown task kind {kind!r}")


def failure_payload(kind: str, detail: str) -> Dict[str, object]:
    """Placeholder result for a task whose retry budget is exhausted.

    The status is ``system_error`` — the *infrastructure* gave up, the
    sample was never judged — so metric denominators exclude it instead
    of depressing pass@k the way a (model-attributed) ``runtime_error``
    would.  Never journaled or cached — a resumed run retries the task."""
    if kind == KIND_BASELINE:
        return {"baseline": None}
    return {"status": "system_error",
            "detail": f"scheduler: {detail}", "times": {},
            "diagnostics": [], "profile": None, "vec": None,
            "compile_cache": None}


def quarantine_payload(kind: str, detail: str) -> Dict[str, object]:
    """Persisted result for a poison task the HealthLedger quarantined.

    Unlike ``system_error`` (transient: resampled on resume, never
    journaled), ``quarantined`` is a *sticky* verdict: the task killed
    multiple distinct workers, so it is journaled, replayed on resume,
    and reported as its own status lane — never silently retried.  Like
    ``system_error`` it is excluded from every pass@k and speedup
    denominator (the sample was never judged)."""
    if kind == KIND_BASELINE:
        return {"baseline": None}
    return {"status": "quarantined",
            "detail": f"guard: {detail}", "times": {},
            "diagnostics": [], "profile": None, "vec": None,
            "compile_cache": None}


def valid_result(task_payload: Dict[str, object], body: object) -> bool:
    """Shape-check one worker result before it is accepted/journaled.

    Guards the parent against results corrupted on the result channel: a
    payload failing this check is requeued like a raised exception."""
    if not isinstance(body, dict):
        return False
    if task_payload.get("kind") == KIND_BASELINE:
        baseline = body.get("baseline", "missing")
        return baseline is None or isinstance(baseline, (int, float))
    return (isinstance(body.get("status"), str)
            and isinstance(body.get("times", {}), dict)
            and isinstance(body.get("detail", ""), str))
