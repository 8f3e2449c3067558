"""Shard execution: one worker pool + one journal per shard, with resume.

A shard runs the subset of a batch's merged task set that hashes to it
(:func:`repro.sched.plan.shard_for`), on its own
:class:`~repro.sched.pool.WorkerPool`, journaling every finished task to
a per-shard JSONL file *before* the corresponding event fires
(journal-then-notify, inherited from the pool).  If the shard's pool loop
dies — an injected ``serve.shard.die`` abort, a worker-init failure, any
unexpected exception — the runner reloads the journal and re-executes
only the remainder: the same resume path an interrupted CLI run uses,
now exercised per-shard inside a live service.

This function runs in an executor thread; everything it touches is
either thread-private (pool, journal, telemetry) or lock-protected
(the service metrics the caller merges into afterwards).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, Optional, Set, Tuple

from ..faults import inject
from ..harness.runner import Runner
from ..sched.events import (
    EmitFn,
    SOURCE_CACHE,
    SOURCE_JOURNAL,
    SchedulerAbort,
    TaskFinished,
    Telemetry,
    chain,
)
from ..sched.journal import Journal, SampleCache
from ..sched.plan import TaskSpec
from ..sched.pool import WorkerPool
from ..sched.scheduler import TRANSIENT_STATUSES
from ..sched.worker import (
    execute_task,
    init_harness,
    quarantine_payload,
    valid_result,
)


class TaskBoard:
    """Shared work-stealing board over one batch's shard partition.

    Each shard owns a queue (its LPT-packed partition, longest-first)
    and *claims* tasks one at a time through its pool's feed callback.
    A shard whose own queue drains steals from the **deepest** surviving
    queue (ties broken by lowest shard id), front-first — the front
    holds the longest remaining task, so a steal moves the most load.
    Only queued, not-yet-started work moves; a task in flight on another
    shard is never duplicated by the board.

    Stealing is byte-identical by the same argument as dispatch order:
    every copy of a task computes identical judged content, and
    ``assemble`` rebuilds each run in plan order, so *where* a task ran
    is unobservable in the output.  :meth:`release` returns a dead
    shard's claimed-but-unsettled tasks to its queue so a restart (or a
    stealing sibling) can pick them up.
    """

    def __init__(self, parts: Dict[int, Dict[str, TaskSpec]]):
        self._lock = threading.Lock()
        #: merged task id -> spec over every queue (journal replay on a
        #: restart must accept stolen tasks, not just home ones)
        self.specs: Dict[str, TaskSpec] = {}
        self._queues: Dict[int, Deque[str]] = {}
        self._claimed: Dict[int, Set[str]] = {}
        self.steals = 0
        for shard_id, part in parts.items():
            self.specs.update(part)
            self._queues[shard_id] = deque(part)
            self._claimed[shard_id] = set()

    def claim(self, shard_id: int) -> Optional[Tuple[str, TaskSpec]]:
        """Pop one task for ``shard_id`` (own queue, else steal), or
        None when every queue is empty."""
        with self._lock:
            queue = self._queues.get(shard_id)
            if queue is None:               # unknown claimant: steal-only
                queue = self._queues.setdefault(shard_id, deque())
                self._claimed.setdefault(shard_id, set())
            if not queue:
                victim = max(self._queues,
                             key=lambda s: (len(self._queues[s]), -s))
                if not self._queues[victim]:
                    return None
                queue = self._queues[victim]
                self.steals += 1
            task_id = queue.popleft()
            self._claimed[shard_id].add(task_id)
            return task_id, self.specs[task_id]

    def release(self, shard_id: int, settled: Set[str]) -> None:
        """Return ``shard_id``'s claimed-but-unsettled tasks to its own
        queue (front, sorted — deterministic) after a pool-loop death."""
        with self._lock:
            claimed = self._claimed.get(shard_id, set())
            back = sorted(tid for tid in claimed if tid not in settled)
            for tid in reversed(back):
                self._queues[shard_id].appendleft(tid)
            claimed.clear()

    def depth(self) -> int:
        with self._lock:
            return sum(len(q) for q in self._queues.values())


@dataclass
class ShardResult:
    """Everything one shard run reports back to the batch."""

    shard: int
    results: Dict[str, dict] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)
    telemetry: Telemetry = field(default_factory=Telemetry)
    restarts: int = 0
    error: str = ""


def _death_probe(shard_id: int) -> EmitFn:
    """Event sink that consults the ``serve.shard.die`` injection point
    after a task finishes; a matching rule aborts the shard's pool loop
    (the journal already holds the task — journal-then-notify)."""
    key = f"shard{shard_id}"

    def probe(event: object) -> None:
        if isinstance(event, TaskFinished) and inject.ACTIVE is not None:
            rule = inject.ACTIVE.fire("serve.shard.die", key)
            if rule is not None:
                raise SchedulerAbort(f"injected shard death on {key}")

    return probe


def run_shard(shard_id: int,
              batch_key: str,
              specs: Dict[str, TaskSpec],
              journal_path: Path,
              runner: Runner,
              ptypes: Tuple[str, ...],
              models: Tuple[str, ...],
              jobs: int = 1,
              cache_dir: Optional[Path] = None,
              task_timeout: Optional[float] = 120.0,
              max_retries: int = 2,
              max_restarts: int = 2,
              emit: Optional[EmitFn] = None,
              board: Optional[TaskBoard] = None,
              predictions: Optional[Dict[str, Tuple[float, str]]] = None
              ) -> ShardResult:
    """Execute one shard's tasks; survives pool-loop deaths via resume.

    Attempt 0 starts a fresh journal for ``batch_key``; every restart
    replays the journal first and executes only the remainder, so a
    shard death costs at most the tasks in flight when it died — never
    the work already committed.

    With a :class:`TaskBoard`, ``specs`` is only the shard's *home*
    partition: tasks are pulled one at a time through the pool's feed
    callback (own queue first, then stolen from the deepest sibling),
    so a shard that drains early keeps working instead of idling behind
    a skewed partition.  ``predictions`` threads the cost-predictive
    dispatch state (:mod:`repro.sched.predict`) into the shard's pool.
    """
    out = ShardResult(shard=shard_id)
    telemetry = out.telemetry
    sink = chain(telemetry, emit)
    pool_sink = chain(sink, _death_probe(shard_id))
    cache = SampleCache(cache_dir) if cache_dir is not None else None
    journal = Journal(journal_path)
    #: replay must accept every task this shard *may* have run — with a
    #: board that includes stolen tasks, not just the home partition
    known = board.specs if board is not None else specs
    try:
        for attempt in range(max_restarts + 1):
            if attempt:
                out.restarts += 1
                for task_id, payload in journal.load(batch_key).items():
                    if (task_id not in known or task_id in out.results
                            or str(payload.get("status", ""))
                            in TRANSIENT_STATUSES):
                        continue
                    out.results[task_id] = payload
                    sink(TaskFinished(
                        task_id=task_id, kind=known[task_id].kind,
                        source=SOURCE_JOURNAL,
                        status=str(payload.get("status", "")),
                        diagnostics=len(payload.get("diagnostics") or ())))
                if board is not None:
                    # claimed-but-unsettled tasks go back on the queue
                    board.release(shard_id, set(out.results))
            journal.start(batch_key, fresh=(attempt == 0))

            if board is None:
                for task_id, spec in specs.items():
                    if task_id in out.results or cache is None:
                        continue
                    hit = cache.get(task_id)
                    if hit is not None:
                        out.results[task_id] = hit
                        journal.append(task_id, hit)
                        sink(TaskFinished(
                            task_id=task_id, kind=spec.kind,
                            source=SOURCE_CACHE,
                            status=str(hit.get("status", "")),
                            diagnostics=len(hit.get("diagnostics") or ())))

                remaining = [t for t in specs if t not in out.results]
                if not remaining:
                    out.error = ""
                    return out

            def on_result(task_id: str, payload: dict) -> None:
                if str(payload.get("status", "")) in TRANSIENT_STATUSES:
                    return              # never persist infra failures
                journal.append(task_id, payload)
                if cache is not None:
                    cache.put(task_id, payload)

            def feed() -> Optional[Tuple[str, dict]]:
                """Claim the next task (cache hits settle in-line)."""
                while True:
                    claimed = board.claim(shard_id)
                    if claimed is None:
                        return None
                    task_id, spec = claimed
                    if task_id in out.results:
                        continue        # settled by an earlier attempt
                    if cache is not None:
                        hit = cache.get(task_id)
                        if hit is not None:
                            out.results[task_id] = hit
                            journal.append(task_id, hit)
                            sink(TaskFinished(
                                task_id=task_id, kind=spec.kind,
                                source=SOURCE_CACHE,
                                status=str(hit.get("status", "")),
                                diagnostics=len(
                                    hit.get("diagnostics") or ())))
                            continue
                    return task_id, spec.payload()

            pool = WorkerPool(
                jobs=jobs, work_fn=execute_task, init_fn=init_harness,
                init_args=(runner, tuple(ptypes), tuple(models)),
                task_timeout=task_timeout, max_retries=max_retries,
                emit=pool_sink, validate=valid_result,
                quarantine=quarantine_payload)
            try:
                if board is not None:
                    executed, failed = pool.run(
                        [], on_result=on_result, feed=feed,
                        predictions=predictions,
                        on_drain=journal.commit)
                else:
                    executed, failed = pool.run(
                        [(t, specs[t].payload()) for t in remaining],
                        on_result=on_result,
                        predictions=predictions,
                        on_drain=journal.commit)
            except Exception as exc:    # noqa: BLE001 - shard loop death
                out.error = f"{type(exc).__name__}: {exc}"
                journal.close()         # next attempt reloads + reopens
                continue
            out.results.update(executed)
            out.failures.update(failed)
            if board is not None:
                board.release(shard_id,
                              set(out.results) | set(out.failures))
            out.error = ""
            return out
        # restarts exhausted: salvage whatever the journal committed so
        # the batch loses only the genuinely unfinished tasks
        for task_id, payload in journal.load(batch_key).items():
            if (task_id in known and task_id not in out.results
                    and str(payload.get("status", ""))
                    not in TRANSIENT_STATUSES):
                out.results[task_id] = payload
        if board is not None:
            board.release(shard_id, set(out.results) | set(out.failures))
        return out
    finally:
        journal.close()


__all__ = ["ShardResult", "TaskBoard", "run_shard"]
