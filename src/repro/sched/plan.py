"""Decompose an ``(llm, bench, config)`` evaluation into a deterministic
job graph.

Generation is cheap and deterministic (the simulated LLMs are pure
functions of ``(model, prompt, seed)``), so the planner materialises every
sample *source* up front in the parent process.  What remains — compile,
check, run, time — is the expensive part, and each ``(prompt, sample)``
becomes one independent task.  Timing runs add one baseline task per
distinct problem (prompts for the same problem under different execution
models share a sequential baseline).

Task identity is a content hash of ``(kind, source, prompt uid,
runner fingerprint, with_timing)``.  Two samples with byte-identical
source for the same prompt therefore share one task — the scheduler
executes it once and fans the result out to every slot — and the same
hash keys the cross-run sample cache.  The sampling seed never enters the
hash: it already determined the source text, and folding it in would
defeat cross-run deduplication.

``assemble`` rebuilds the :class:`~repro.harness.evaluate.EvalRun` in
*plan order* (bench prompt order, then sample index), independent of the
order results arrived in.  Both evaluation paths share this module: the
in-process ``evaluate_model(jobs=1)`` and the pool in
:mod:`repro.sched.scheduler` execute the same tasks, which is what makes
a ``jobs=N`` run byte-identical to a ``jobs=1`` run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bench.registry import PCGBench
from ..harness.evaluate import (ConfigurationError, EvalRun, PromptRecord,
                                SampleRecord)
from ..harness.runner import Runner
from ..models.llm import SimulatedLLM

#: task kinds
KIND_SAMPLE = "sample"
KIND_BASELINE = "baseline"

#: detail strings are truncated to this many chars in SampleRecords
DETAIL_LIMIT = 160


def runner_fingerprint(runner: Runner) -> str:
    """Stable digest of everything about the runner that affects results.

    The machine is a frozen dataclass tree of numbers, so its ``repr`` is
    a deterministic, complete description of the cost model.
    """
    desc = repr((runner.machine, runner.thread_counts,
                 runner.mpi_rank_counts, runner.hybrid_config,
                 runner.correctness_trials, runner.seed,
                 runner.static_screen))
    return hashlib.sha256(desc.encode()).hexdigest()[:16]


def bench_spec(bench: PCGBench) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """(problem_types, models) from which a worker can rebuild the bench."""
    ptypes = tuple(dict.fromkeys(p.ptype for p in bench.problems))
    return ptypes, tuple(bench.models)


def sample_task_id(source: str, prompt_uid: str, fingerprint: str,
                   with_timing: bool, profile: bool = False) -> str:
    # the profile marker extends the mode string only when profiling is
    # on, so every pre-profiling task id (and its cached result) survives
    mode = ("timed" if with_timing else "plain") + ("-prof" if profile else "")
    digest = hashlib.sha256()
    for part in (KIND_SAMPLE, prompt_uid, fingerprint, mode, source):
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def baseline_task_id(problem_name: str, fingerprint: str) -> str:
    digest = hashlib.sha256()
    for part in (KIND_BASELINE, problem_name, fingerprint):
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


@dataclass(frozen=True)
class TaskSpec:
    """One unit of work a pool worker can execute in isolation."""

    task_id: str
    kind: str                       # KIND_SAMPLE | KIND_BASELINE
    prompt_uid: str = ""            # sample tasks
    source: str = ""                # sample tasks
    with_timing: bool = False
    problem: str = ""               # baseline tasks
    profile: bool = False           # sample tasks: record a cost profile

    def payload(self) -> Dict[str, object]:
        """The picklable message handed to a worker on its task pipe."""
        if self.kind == KIND_SAMPLE:
            return {"kind": self.kind, "uid": self.prompt_uid,
                    "source": self.source, "with_timing": self.with_timing,
                    "profile": self.profile}
        return {"kind": self.kind, "problem": self.problem}


@dataclass(frozen=True)
class SampleSlot:
    """One (prompt, sample index) position in the final EvalRun."""

    prompt_uid: str
    sample_index: int
    intended: str                   # generation-side label, not a result
    task_id: str


@dataclass(frozen=True)
class PromptPlan:
    uid: str
    ptype: str
    exec_model: str
    problem: str
    baseline_task: Optional[str]    # task id, timing runs only
    slots: Tuple[SampleSlot, ...]


@dataclass
class Plan:
    """A full evaluation decomposed into deduplicated tasks."""

    llm: str
    temperature: float
    num_samples: int
    with_timing: bool
    seed: int
    fingerprint: str
    bench_ptypes: Tuple[str, ...]
    bench_models: Tuple[str, ...]
    profile: bool = False
    prompts: List[PromptPlan] = field(default_factory=list)
    tasks: Dict[str, TaskSpec] = field(default_factory=dict)

    @property
    def num_slots(self) -> int:
        return sum(len(p.slots) for p in self.prompts)

    def run_key(self) -> str:
        """Digest identifying this exact run configuration; stored in the
        journal header so a stale journal is never resumed against a
        different configuration."""
        desc = json.dumps({
            "llm": self.llm, "temperature": self.temperature,
            "num_samples": self.num_samples, "with_timing": self.with_timing,
            "seed": self.seed, "fingerprint": self.fingerprint,
            "ptypes": list(self.bench_ptypes),
            "models": list(self.bench_models),
            "profile": self.profile,
        }, sort_keys=True)
        return hashlib.sha256(desc.encode()).hexdigest()[:24]


def build_plan(llm: SimulatedLLM, bench: PCGBench, num_samples: int,
               temperature: float, with_timing: bool, runner: Runner,
               seed: int, profile: bool = False) -> Plan:
    """Expand the evaluation into slots and deduplicated tasks."""
    if profile and not with_timing:
        raise ConfigurationError("profile=True requires with_timing=True")
    fingerprint = runner_fingerprint(runner)
    ptypes, models = bench_spec(bench)
    plan = Plan(llm=llm.name, temperature=temperature,
                num_samples=num_samples, with_timing=with_timing, seed=seed,
                fingerprint=fingerprint, bench_ptypes=ptypes,
                bench_models=models, profile=profile)
    for prompt in bench.prompts:
        baseline_tid = None
        if with_timing:
            baseline_tid = baseline_task_id(prompt.problem.name, fingerprint)
            plan.tasks.setdefault(baseline_tid, TaskSpec(
                task_id=baseline_tid, kind=KIND_BASELINE,
                problem=prompt.problem.name))
        slots = []
        samples = llm.generate(prompt, num_samples, temperature, seed)
        for index, sample in enumerate(samples):
            tid = sample_task_id(sample.source, prompt.uid, fingerprint,
                                 with_timing, profile)
            plan.tasks.setdefault(tid, TaskSpec(
                task_id=tid, kind=KIND_SAMPLE, prompt_uid=prompt.uid,
                source=sample.source, with_timing=with_timing,
                profile=profile))
            slots.append(SampleSlot(prompt_uid=prompt.uid,
                                    sample_index=index,
                                    intended=sample.intended, task_id=tid))
        plan.prompts.append(PromptPlan(
            uid=prompt.uid, ptype=prompt.problem.ptype,
            exec_model=prompt.model, problem=prompt.problem.name,
            baseline_task=baseline_tid, slots=tuple(slots)))
    return plan


def assemble(plan: Plan, results: Dict[str, Dict[str, object]]) -> EvalRun:
    """Rebuild the EvalRun from task results, in plan order.

    ``results`` maps task id → result payload (the dict produced by
    ``worker.execute_task``, possibly round-tripped through the JSONL
    journal, so ``times`` keys may be strings).
    """
    run = EvalRun(llm=plan.llm, temperature=plan.temperature,
                  num_samples=plan.num_samples, with_timing=plan.with_timing,
                  seed=plan.seed)
    for pp in plan.prompts:
        record = PromptRecord(uid=pp.uid, ptype=pp.ptype,
                              exec_model=pp.exec_model)
        if pp.baseline_task is not None:
            payload = results[pp.baseline_task]
            record.baseline = payload.get("baseline")
        for slot in pp.slots:
            payload = results[slot.task_id]
            times = payload.get("times") or {}
            record.samples.append(SampleRecord(
                # a payload with no status means the infrastructure lost
                # the result — a system_error, never blamed on the model
                status=str(payload.get("status", "system_error")),
                intended=slot.intended,
                detail=str(payload.get("detail", ""))[:DETAIL_LIMIT],
                times={int(k): v for k, v in times.items()},
                diagnostics=list(payload.get("diagnostics") or []),
                profile=payload.get("profile"),
                vec=payload.get("vec"),
            ))
        run.prompts[pp.uid] = record
    return run
