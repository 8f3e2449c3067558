"""Micro-batching: coalesce concurrent requests into one shared job graph.

The planner (:func:`repro.sched.plan.build_plan`) keys every task by a
content hash of ``(kind, source, prompt uid, runner fingerprint, mode)``,
so coalescing *across* requests is set union: two requests that generate
a byte-identical sample for the same prompt under the same runner share
one task, exactly as two samples within one run already do.  The batch
executes the union once, and each request's :class:`EvalRun` is
reassembled from the shared result map through its *own* plan
(:func:`repro.sched.plan.assemble`), which is what keeps a served result
byte-identical to a direct ``evaluate_model`` call — the demultiplexing
step cannot perturb science outputs because it never touches payloads,
only routes them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..bench.registry import PCGBench
from ..harness.evaluate import effective_samples
from ..harness.runner import Runner
from ..models import load_model
from ..sched.plan import Plan, TaskSpec, build_plan


def plan_request(request, runner: Runner) -> Plan:
    """Expand one admitted request into its deterministic job graph."""
    llm = load_model(request.model)
    bench = PCGBench(
        problem_types=list(request.ptypes) if request.ptypes else None,
        models=list(request.exec_models) if request.exec_models else None)
    return build_plan(llm, bench, effective_samples(request.samples),
                      request.temperature, request.with_timing, runner,
                      request.seed, profile=request.profile)


def plan_batch(requests: Sequence, runner: Runner) -> List[Plan]:
    """Plans for every request of one batch, in request order."""
    return [plan_request(req, runner) for req in requests]


def union_tasks(plans: Sequence[Plan]) -> Dict[str, TaskSpec]:
    """Content-deduplicated union of every plan's tasks, in first-use
    order (deterministic: plan order, then each plan's task order)."""
    union: Dict[str, TaskSpec] = {}
    for plan in plans:
        for task_id, spec in plan.tasks.items():
            union.setdefault(task_id, spec)
    return union


__all__ = ["plan_request", "plan_batch", "union_tasks"]
