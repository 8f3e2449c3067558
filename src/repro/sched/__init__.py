"""repro.sched — a parallel, resumable evaluation scheduler.

Turns one ``(llm, bench, config)`` evaluation into a deterministic job
graph of independent ``(prompt, sample)`` and baseline-timing tasks,
executes it on a fault-isolated multiprocessing pool, checkpoints every
finished task to a JSONL journal (resume without recomputation), and
deduplicates identical generated sources through a content-addressed
sample cache.  See ``docs/scheduler.md``.

The public entry points most callers want are ``evaluate_model(...,
jobs=N)`` / ``EvalCache.get_or_run(..., pool=pool, resume=True)`` in
:mod:`repro.harness`, the latter on a pool from
:func:`repro.sched.scheduler.harness_pool`; this package is the
machinery underneath.
"""

from .events import (
    ProgressPrinter,
    ProgressSnapshot,
    RunFinished,
    SOURCE_CACHE,
    SOURCE_EXECUTED,
    SOURCE_FAILED,
    SOURCE_JOURNAL,
    SOURCE_QUARANTINED,
    SchedulerAbort,
    StageFinished,
    TaskFinished,
    TaskStarted,
    Telemetry,
    WorkerCrashed,
    WorkerReplaced,
    chain,
)
from .journal import Journal, SampleCache, journal_path_for
from .plan import (
    KIND_BASELINE,
    KIND_SAMPLE,
    Plan,
    PromptPlan,
    SampleSlot,
    TaskSpec,
    assemble,
    baseline_task_id,
    bench_spec,
    build_plan,
    runner_fingerprint,
    sample_task_id,
)
from .pool import WorkerPool
from .predict import (
    CostEstimator,
    DISPATCH_FIFO,
    DISPATCH_LPT,
    DISPATCH_POLICIES,
    DurationLedger,
    PRED_ESTIMATOR,
    PRED_LEDGER,
    feature_key,
    ledger_path_for,
    order_tasks,
    plan_keys,
    predict_plan,
)
from .scheduler import TRANSIENT_STATUSES, run_scheduled
from .worker import (execute_task, failure_payload, init_harness,
                     quarantine_payload)

__all__ = [
    # plan
    "Plan", "PromptPlan", "SampleSlot", "TaskSpec", "build_plan", "assemble",
    "sample_task_id", "baseline_task_id", "runner_fingerprint", "bench_spec",
    "KIND_SAMPLE", "KIND_BASELINE",
    # pool + worker
    "WorkerPool", "init_harness", "execute_task", "failure_payload",
    "quarantine_payload",
    # journal
    "Journal", "SampleCache", "journal_path_for",
    # events
    "Telemetry", "TaskStarted", "TaskFinished",
    "WorkerCrashed", "WorkerReplaced", "ProgressSnapshot", "StageFinished",
    "RunFinished", "ProgressPrinter", "SchedulerAbort", "chain",
    "SOURCE_EXECUTED", "SOURCE_JOURNAL", "SOURCE_CACHE", "SOURCE_FAILED",
    "SOURCE_QUARANTINED",
    # cost-predictive dispatch
    "CostEstimator", "DurationLedger", "feature_key", "ledger_path_for",
    "order_tasks", "plan_keys", "predict_plan",
    "DISPATCH_LPT", "DISPATCH_FIFO", "DISPATCH_POLICIES",
    "PRED_LEDGER", "PRED_ESTIMATOR",
    # orchestration
    "run_scheduled", "TRANSIENT_STATUSES",
]
