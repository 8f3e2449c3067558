"""Orchestration: plan → (journal replay | cache hits | pool execution)
→ deterministic assembly.

:func:`execute_tasks` is the one task-set executor: cache hits, then a
worker pool with journal-then-notify persistence and a write-behind
sample cache.  ``run_scheduled`` drives it on the :func:`harness_pool`
its caller owns; the service (:mod:`repro.serve.service`) on one pool
that serves every batch.

``run_scheduled`` runs the same plan as the in-process ``jobs=1`` path
of :func:`repro.harness.evaluate.evaluate_model`, on a worker pool with
journal and cache layers, and produces a byte-identical ``EvalRun`` for
the same configuration: results are keyed by content-hash task id and
reassembled in plan order, so neither worker count nor completion order
can leak into the output.
"""

from __future__ import annotations

import queue
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from ..bench.registry import PCGBench
from ..harness.evaluate import EvalRun, effective_samples
from ..harness.runner import Runner
from ..models.llm import SimulatedLLM
from .events import (
    EmitFn,
    RunFinished,
    SOURCE_CACHE,
    SOURCE_JOURNAL,
    StageFinished,
    TaskFinished,
    Telemetry,
    chain,
)
from .journal import Journal, SampleCache
from .plan import TaskSpec, assemble, build_plan
from .pool import WorkerPool
from .predict import (
    DISPATCH_LPT,
    DurationLedger,
    ledger_feedback,
    ledger_path_for,
    order_tasks,
    plan_keys,
    predict_plan,
)
from .worker import (
    execute_task,
    failure_payload,
    init_harness,
    quarantine_payload,
    valid_result,
)

#: statuses that are never journaled or cached: the infrastructure (not
#: the sample) failed, so a resumed run must resample the task.
#: ``quarantined`` is deliberately NOT here — quarantine is a sticky
#: verdict: it is journaled and replayed on resume, never re-executed.
TRANSIENT_STATUSES = frozenset({"system_error"})


def replay_journal(journal: Journal, run_key: str,
                   tasks: Dict[str, TaskSpec], results: Dict[str, dict],
                   sink: EmitFn) -> None:
    """Settle ``tasks`` from ``journal``'s records for ``run_key``.

    Records for unknown tasks (a stale plan) and transient statuses
    (infrastructure failures, to be resampled) are skipped, as are tasks
    ``results`` already holds."""
    for task_id, payload in journal.load(run_key).items():
        spec = tasks.get(task_id)
        status = str(payload.get("status", ""))
        if (spec is None or task_id in results
                or status in TRANSIENT_STATUSES):
            continue
        results[task_id] = payload
        sink(TaskFinished(
            task_id=task_id, kind=spec.kind, source=SOURCE_JOURNAL,
            status=status,
            diagnostics=len(payload.get("diagnostics") or ())))


def harness_pool(runner: Runner, jobs: int,
                 task_timeout: Optional[float] = 300.0) -> WorkerPool:
    """A pool of ``jobs`` harness workers that judge with ``runner``.

    The caller owns it, best in a ``with`` block: the first run with work
    forks the workers, and they serve every task set run on the pool
    until the block ends."""
    return WorkerPool(
        jobs=jobs, work_fn=execute_task, init_fn=init_harness,
        init_args=(runner,), task_timeout=task_timeout,
        validate=valid_result, quarantine=quarantine_payload)


class _CacheWriter:
    """Write-behind for a :class:`SampleCache`.

    The result loop encodes each entry (the cache's fault points fire
    there, on the thread that also forks replacement workers) and one
    thread writes it: plain file I/O under no lock, so a worker forked
    mid-write inherits nothing held.  :meth:`close` returns once every
    queued entry is on disk."""

    def __init__(self, cache: SampleCache):
        self.cache = cache
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._drain, name="repro-cache-writer", daemon=True)
        self._thread.start()

    def put(self, task_id: str, payload: dict) -> None:
        entry = self.cache.encode(task_id, payload)
        if entry is not None:
            self._queue.put(entry)

    def _drain(self) -> None:
        for entry in iter(self._queue.get, None):
            SampleCache.write(*entry)

    def close(self) -> None:
        self._queue.put(None)
        self._thread.join()


def execute_tasks(tasks: Dict[str, TaskSpec], results: Dict[str, dict],
                  pool: WorkerPool, sink: EmitFn,
                  journal: Optional[Journal] = None,
                  cache: Optional[SampleCache] = None,
                  dispatch: str = DISPATCH_LPT,
                  predictions: Optional[Dict[str, Tuple[float, str]]] = None,
                  progress_total: Optional[int] = None,
                  on_drain: Optional[Callable[[], None]] = None
                  ) -> Dict[str, str]:
    """Settle every task in ``tasks`` that ``results`` does not hold yet.

    Sample-cache hits settle first; the rest run on ``pool`` (see
    :func:`harness_pool`) in ``dispatch`` order.  Each settled payload
    whose status is not transient lands in ``results`` (updated in
    place) and ``journal`` before its event reaches ``sink``
    (journal-then-notify); transient ones land in ``results`` only when
    the pool run returns.  Cache entries are written behind the result
    loop by one thread; every entry is on disk when this returns.  The
    journal is group-committed once per drain cycle, then ``on_drain``
    runs.

    Returns the pool's failures: task id -> last error, for tasks that
    exhausted their retry budget.  If the pool loop itself dies, the
    exception propagates and ``results`` still holds every
    non-transient task the sink was told about, so a second call with
    the same map executes only the rest.
    """
    remaining = []
    for task_id, spec in tasks.items():
        if task_id in results:
            continue
        hit = cache.get(task_id) if cache is not None else None
        if hit is None:
            remaining.append(task_id)
            continue
        results[task_id] = hit
        if journal is not None:
            journal.append(task_id, hit)
        sink(TaskFinished(
            task_id=task_id, kind=spec.kind, source=SOURCE_CACHE,
            status=str(hit.get("status", "")),
            diagnostics=len(hit.get("diagnostics") or ())))
    if not remaining:
        return {}
    # throughput-only reordering: assemble() rebuilds in plan order
    remaining = order_tasks(remaining, dispatch, predictions)
    writer = _CacheWriter(cache) if cache is not None else None

    def on_result(task_id: str, payload: dict) -> None:
        if str(payload.get("status", "")) in TRANSIENT_STATUSES:
            return                      # never persist infra failures
        results[task_id] = payload
        if journal is not None:
            journal.append(task_id, payload)
        if writer is not None:
            writer.put(task_id, payload)

    def drained() -> None:
        # one fsync per drain cycle instead of one per record
        if journal is not None:
            journal.commit()
        if on_drain is not None:
            on_drain()

    try:
        executed, failures = pool.run(
            [(tid, tasks[tid].payload()) for tid in remaining],
            on_result=on_result, progress_total=progress_total,
            predictions=predictions, on_drain=drained, emit=sink)
    finally:
        if writer is not None:
            writer.close()
    results.update(executed)
    return failures


def run_scheduled(
    llm: SimulatedLLM,
    bench: PCGBench,
    pool: WorkerPool,
    num_samples: int = 8,
    temperature: float = 0.2,
    with_timing: bool = False,
    seed: int = 1,
    journal_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    sample_cache_dir: Optional[Union[str, Path]] = None,
    emit: Optional[EmitFn] = None,
    progress: Optional[Callable[[str], None]] = None,
    profile: bool = False,
    dispatch: str = DISPATCH_LPT,
    ledger_path: Optional[Union[str, Path]] = None,
) -> Tuple[EvalRun, Telemetry]:
    """Run the §7 pipeline through the scheduler; returns (run, telemetry).

    The tasks run on ``pool``, a :func:`harness_pool` the caller owns and
    closes; planning uses the pool's runner, so task ids (which carry
    the runner fingerprint) always name the runner that judged them.
    With ``journal_path`` set, every finished task is checkpointed and a
    later call with ``resume=True`` replays finished work instead of
    recomputing it.  With ``sample_cache_dir`` set, results are also
    stored content-addressed and shared across runs.

    ``dispatch`` picks the ready-queue policy
    (:mod:`repro.sched.predict`): ``"lpt"`` (default) dispatches
    longest-predicted-first to cut the straggler tail, ``"fifo"`` keeps
    plan order.  Predictions come from the
    :class:`~repro.sched.predict.DurationLedger` at ``ledger_path``
    (default: ``durations.jsonl`` inside ``sample_cache_dir``) with a
    static estimator fallback; observed durations are fed back after
    every executed task.  Policy choice is
    pure throughput: ``assemble`` rebuilds the run in plan order, so
    every policy yields byte-identical output.
    """
    order_tasks((), dispatch)           # reject bad policy before any work
    runner: Runner = pool.init_args[0]
    num_samples = effective_samples(num_samples)
    telemetry = Telemetry()
    began = time.monotonic()

    stage = time.monotonic()
    plan = build_plan(llm, bench, num_samples, temperature, with_timing,
                      runner, seed, profile=profile)
    # cost-predictive dispatch: ledger history (EMA seconds per feature
    # key) where warm, static feature estimates where cold
    if ledger_path is None and sample_cache_dir is not None:
        ledger_path = ledger_path_for(sample_cache_dir)
    ledger = (DurationLedger(ledger_path)
              if ledger_path is not None else None)
    predictions = predict_plan(plan, runner, ledger)

    sink = chain(ledger_feedback(ledger, plan_keys(plan))
                 if ledger is not None else None, telemetry, emit)
    sink(StageFinished(stage="plan", seconds=time.monotonic() - stage))

    stage = time.monotonic()
    run_key = plan.run_key()
    results: dict = {}
    journal = Journal(journal_path) if journal_path is not None else None
    try:
        if journal is not None:
            if resume:
                replay_journal(journal, run_key, plan.tasks, results, sink)
            journal.start(run_key, fresh=not resume)
        failures = execute_tasks(
            plan.tasks, results, pool, sink, journal=journal,
            cache=(SampleCache(sample_cache_dir)
                   if sample_cache_dir is not None else None),
            dispatch=dispatch, predictions=predictions,
            progress_total=len(plan.tasks),
            on_drain=ledger.flush if ledger is not None else None)
        for task_id, detail in failures.items():
            results[task_id] = failure_payload(plan.tasks[task_id].kind,
                                               detail)
        sink(StageFinished(stage="execute", seconds=time.monotonic() - stage))

        stage = time.monotonic()
        run = assemble(plan, results)
        if progress is not None:
            for pp in plan.prompts:
                progress(pp.uid)
        sink(StageFinished(stage="assemble",
                           seconds=time.monotonic() - stage))
        sink(RunFinished(
            total_tasks=len(plan.tasks), executed=telemetry.executed,
            from_journal=telemetry.from_journal,
            from_cache=telemetry.from_cache, failed=telemetry.failed,
            wall_seconds=time.monotonic() - began,
            quarantined=telemetry.quarantined))
    finally:
        if journal is not None:
            journal.close()
        if ledger is not None:
            ledger.close()
    return run, telemetry
