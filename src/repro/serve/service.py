"""The asynchronous evaluation service: admission, batching, one pool.

:class:`EvalService` is the in-process core the HTTP front end
(:mod:`repro.serve.http`) wraps.  Lifecycle of one request:

1. **Admission** (:meth:`EvalService.submit`, synchronous): validate,
   reject with :class:`Overloaded` when the bounded queue is full (the
   HTTP layer turns that into ``429`` + ``Retry-After``), otherwise
   enqueue a :class:`RequestTicket`.
2. **Batching** (:meth:`EvalService._batch_loop`): the loop takes the
   oldest queued ticket, then every ticket already queued behind it, up
   to ``max_batch``.  It never waits for more: batches run one at a
   time, so requests that arrive during a batch queue up for the next.
3. **Execution** (:meth:`EvalService._run_batch`): expired-while-queued
   tickets are retired; the rest are planned and their task sets merged
   by content hash (:mod:`repro.serve.batcher`).  The merged set runs in
   longest-predicted-first order on the service's one worker pool,
   through the same executor ``run_scheduled`` uses
   (:func:`repro.sched.scheduler.execute_tasks`), which records each
   task in the batch's result map as it settles.  The pool forks its
   workers at the first batch and keeps them until
   :meth:`EvalService.shutdown`.  If the pool loop dies, its workers
   stop; the batch calls the executor again on the same map, which
   re-executes only the remainder on fresh workers, up to
   :data:`BATCH_RESTARTS` times.  All of this runs in an executor
   thread, so the event loop stays responsive for status polls.
4. **Demultiplexing**: each ticket's :class:`~repro.harness.evaluate.EvalRun`
   is reassembled from the shared result map through its own plan, so a
   served run is byte-identical to a direct ``evaluate_model`` call.

Graceful shutdown (:meth:`EvalService.shutdown` with ``drain=True``)
closes admission, finishes every accepted request, then stops the
workers; nothing accepted is ever dropped.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..bench.spec import EXECUTION_MODELS, PROBLEM_TYPES
from ..faults import inject
from ..harness.evaluate import EvalRun
from ..harness.runner import Runner
from ..models import MODEL_ORDER
from ..prof import run_cost_totals
from ..sched.events import (
    SOURCE_EXECUTED,
    SchedulerAbort,
    StageFinished,
    TaskFinished,
    chain,
)
from ..sched.journal import SampleCache
from ..sched.plan import Plan, TaskSpec, assemble
from ..sched.predict import (
    DurationLedger,
    ledger_feedback,
    plan_keys,
    predict_plan,
)
from ..sched.scheduler import execute_tasks, harness_pool
from ..sched.worker import failure_payload
from .batcher import plan_batch, union_tasks
from .metrics import ServiceMetrics

#: ledger key tracking whole-batch wall time across service restarts —
#: warm-starts the Retry-After EMA before the first batch completes
BATCH_EMA_KEY = "serve|batch||wall"

#: times a batch re-runs its unsettled tasks on fresh workers after its
#: pool loop dies; tasks still unsettled after that become failures
BATCH_RESTARTS = 2

#: ticket lifecycle states
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
EXPIRED = "expired"
TERMINAL = frozenset({DONE, FAILED, EXPIRED})


def _death_probe(event: object) -> None:
    """Consult the ``serve.batch.die`` injection point after each
    executed task; a matching rule aborts the batch's pool loop (the
    batch's result map already holds the task — it is recorded before
    its event)."""
    if (inject.ACTIVE is not None and isinstance(event, TaskFinished)
            and event.source == SOURCE_EXECUTED
            and inject.ACTIVE.fire("serve.batch.die", "batch") is not None):
        raise SchedulerAbort("injected batch pool-loop death")


class Overloaded(Exception):
    """Admission rejected: the queue is full.  Carries the back-off hint
    the HTTP layer surfaces as ``Retry-After``."""

    def __init__(self, retry_after: int):
        super().__init__(f"service overloaded; retry after {retry_after}s")
        self.retry_after = retry_after


class ServiceClosed(Exception):
    """Admission rejected: the service is shutting down."""


@dataclass(frozen=True)
class EvalRequest:
    """One validated evaluation request."""

    model: str
    ptypes: Tuple[str, ...] = ()
    exec_models: Tuple[str, ...] = ()
    samples: int = 1
    temperature: float = 0.2
    with_timing: bool = False
    seed: int = 1234
    profile: bool = False
    #: seconds the client is willing to wait in the queue; a request
    #: still queued past its deadline is retired as ``expired`` without
    #: ever executing (a *running* request always finishes)
    deadline: Optional[float] = None

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "EvalRequest":
        """Validate a JSON request body; raises ``ValueError`` (HTTP 400)."""
        if not isinstance(raw, dict):
            raise ValueError("request body must be a JSON object")
        known = {"model", "ptypes", "exec", "exec_models", "samples",
                 "temperature", "timing", "with_timing", "seed", "profile",
                 "deadline"}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown request fields: {unknown}")
        model = raw.get("model")
        if not isinstance(model, str) or model not in MODEL_ORDER:
            raise ValueError(f"model must be one of {list(MODEL_ORDER)}")
        ptypes = tuple(raw.get("ptypes") or ())
        for pt in ptypes:
            if pt not in PROBLEM_TYPES:
                raise ValueError(f"unknown problem type {pt!r}; "
                                 f"known: {list(PROBLEM_TYPES)}")
        exec_models = tuple(raw.get("exec_models") or raw.get("exec") or ())
        for m in exec_models:
            if m not in EXECUTION_MODELS:
                raise ValueError(f"unknown execution model {m!r}; "
                                 f"known: {list(EXECUTION_MODELS)}")
        samples = raw.get("samples", 1)
        if not isinstance(samples, int) or isinstance(samples, bool) \
                or samples < 1:
            raise ValueError("samples must be a positive integer")
        with_timing = bool(raw.get("with_timing", raw.get("timing", False)))
        profile = bool(raw.get("profile", False))
        if profile and not with_timing:
            raise ValueError("profile requires timing")
        deadline = raw.get("deadline")
        if deadline is not None:
            deadline = float(deadline)
            if deadline <= 0:
                raise ValueError("deadline must be positive seconds")
        return cls(model=model, ptypes=ptypes, exec_models=exec_models,
                   samples=samples,
                   temperature=float(raw.get("temperature", 0.2)),
                   with_timing=with_timing,
                   seed=int(raw.get("seed", 1234)),
                   profile=profile, deadline=deadline)


@dataclass
class RequestTicket:
    """One admitted request's mutable lifecycle record."""

    id: str
    request: EvalRequest
    status: str = QUEUED
    created: float = 0.0            # monotonic admission time
    started: float = 0.0            # monotonic execution start
    finished: float = 0.0
    error: str = ""
    run: Optional[EvalRun] = None
    plan: Optional[Plan] = None
    done: asyncio.Event = field(default_factory=asyncio.Event)

    def expired_deadline(self, now: float) -> bool:
        d = self.request.deadline
        return d is not None and (now - self.created) > d

    def snapshot(self) -> Dict[str, object]:
        """JSON-able status view (``GET /v1/requests/{id}``)."""
        out: Dict[str, object] = {
            "id": self.id,
            "status": self.status,
            "model": self.request.model,
            "samples": self.request.samples,
        }
        if self.status in TERMINAL:
            out["wait_seconds"] = ((self.started or self.finished)
                                   - self.created)
            if self.started:
                out["run_seconds"] = self.finished - self.started
        if self.error:
            out["error"] = self.error
        if self.run is not None:
            out["digest"] = self.run.digest()
        return out


class EvalService:
    """Async batched evaluation service over one long-lived worker pool.

    The pool has ``shards`` x ``jobs_per_shard`` worker processes, forked
    by the first batch that runs a task and stopped by :meth:`shutdown`."""

    def __init__(self,
                 workdir: Path,
                 runner: Optional[Runner] = None,
                 shards: int = 2,
                 jobs_per_shard: int = 1,
                 max_queue: int = 64,
                 max_batch: int = 16,
                 sample_cache: bool = True,
                 retry_after_cap: float = 60.0):
        if shards < 1 or jobs_per_shard < 1:
            raise ValueError("shards and jobs_per_shard must be >= 1")
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.runner = runner if runner is not None else Runner()
        self.jobs = shards * jobs_per_shard
        self.max_queue = max_queue
        #: 1 runs every request as its own batch
        self.max_batch = max_batch
        self.cache_dir = (self.workdir / "cache") if sample_cache else None
        #: durable wall-time history shared by every batch; feeds pool
        #: dispatch order and Retry-After
        self.ledger = DurationLedger(self.workdir / "durations.jsonl")
        self.metrics = ServiceMetrics(self.jobs,
                                      retry_after_cap=retry_after_cap)
        warm = self.ledger.predict(BATCH_EMA_KEY)
        if warm is not None:
            self.metrics.seed_ema(warm)
        #: the service's one pool tally, over every batch; ``/metrics``
        #: reads it
        self.telemetry = self.metrics.telemetry
        self.tickets: Dict[str, RequestTicket] = {}
        self._ids = itertools.count(1)
        self._queue: asyncio.Queue = asyncio.Queue()
        self._inflight = 0              # admitted, not yet terminal
        self._running = 0               # tickets currently executing
        self._closed = False
        self._gate = asyncio.Event()    # cleared by pause()
        self._gate.set()
        self._loop_task: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        #: every batch runs on this pool; the first task run forks it
        self._pool = harness_pool(self.runner, self.jobs, task_timeout=120.0)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self._loop_task is not None:
            raise RuntimeError("service already started")
        # batches run one at a time, so one thread plans and executes
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve")
        self._loop_task = asyncio.get_running_loop().create_task(
            self._batch_loop())

    async def shutdown(self, drain: bool = True) -> None:
        """Close admission; with ``drain`` finish every accepted request
        first, otherwise retire still-queued tickets as failed."""
        self._closed = True
        if drain:
            self._gate.set()            # a paused service still drains
            for ticket in list(self.tickets.values()):
                await ticket.done.wait()
        if self._loop_task is not None:
            self._loop_task.cancel()
            try:
                await self._loop_task
            except asyncio.CancelledError:
                pass
            self._loop_task = None
        while not self._queue.empty():  # drain=False leftovers
            ticket = self._queue.get_nowait()
            if ticket.status == QUEUED:
                self._finish(ticket, FAILED, error="service shut down")
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._pool.close()
        self.ledger.close()

    def pause(self) -> None:
        """Stop dispatching batches (admission stays open; for tests)."""
        self._gate.clear()

    def resume(self) -> None:
        self._gate.set()

    @property
    def state(self) -> str:
        if self._closed:
            return "closing"
        if not self._gate.is_set():
            return "paused"
        return "running"

    # -- admission -----------------------------------------------------------

    def submit(self, request: EvalRequest) -> RequestTicket:
        """Admit a request (synchronous, called from the event loop).

        Raises :class:`ServiceClosed` after shutdown began and
        :class:`Overloaded` when ``max_queue`` requests are in flight.
        """
        if self._closed:
            self.metrics.record_admission(False)
            raise ServiceClosed("service is shutting down")
        if self._inflight >= self.max_queue:
            self.metrics.record_admission(False)
            raise Overloaded(self.metrics.retry_after(self._inflight))
        ticket = RequestTicket(id=f"req-{next(self._ids):06d}",
                               request=request, created=time.monotonic())
        self.tickets[ticket.id] = ticket
        self._inflight += 1
        self.metrics.record_admission(True)
        self._queue.put_nowait(ticket)
        return ticket

    def get(self, request_id: str) -> Optional[RequestTicket]:
        return self.tickets.get(request_id)

    async def wait(self, request_id: str) -> RequestTicket:
        ticket = self.tickets[request_id]
        await ticket.done.wait()
        return ticket

    def metrics_snapshot(self) -> Dict[str, object]:
        return self.metrics.snapshot(queue_depth=self._queue.qsize(),
                                     running=self._running,
                                     state=self.state)

    # -- batching loop -------------------------------------------------------

    async def _batch_loop(self) -> None:
        while True:
            await self._gate.wait()
            first = await self._queue.get()
            if not self._gate.is_set():
                # paused between get() and dispatch: requeue and wait
                self._queue.put_nowait(first)
                continue
            batch = [first]
            while len(batch) < self.max_batch and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            try:
                await self._run_batch(batch)
            except Exception as exc:    # noqa: BLE001 - keep the loop alive
                for ticket in batch:
                    if ticket.status not in TERMINAL:
                        self._finish(ticket, FAILED,
                                     error=f"{type(exc).__name__}: {exc}")

    async def _run_batch(self, batch: List[RequestTicket]) -> None:
        now = time.monotonic()
        live: List[RequestTicket] = []
        for ticket in batch:
            if ticket.expired_deadline(now):
                self._finish(ticket, EXPIRED,
                             error="deadline expired while queued")
            else:
                ticket.status = RUNNING
                ticket.started = now
                self._running += 1
                live.append(ticket)
        if not live:
            return
        try:
            await self._execute(live)
        finally:
            self._running -= len(live)

    async def _execute(self, live: List[RequestTicket]) -> None:
        loop = asyncio.get_running_loop()
        t0 = time.monotonic()
        plans = await loop.run_in_executor(
            self._executor, plan_batch,
            [t.request for t in live], self.runner)
        for ticket, plan in zip(live, plans):
            ticket.plan = plan
        union = union_tasks(plans)
        # cost predictions: ledger EMA where warm, static estimate where
        # cold — drive the pool's longest-first dispatch order
        task_keys: Dict[str, str] = {}
        predictions: Dict[str, Tuple[float, str]] = {}
        for plan in plans:
            task_keys.update(plan_keys(plan))
            predictions.update(predict_plan(plan, self.runner, self.ledger))
        self.metrics.observe(
            StageFinished(stage="plan", seconds=time.monotonic() - t0))
        results = await loop.run_in_executor(
            self._executor, self._run_tasks, union, task_keys, predictions)
        wall = time.monotonic() - t0
        self.metrics.record_batch(
            requests=len(live),
            planned=sum(len(p.tasks) for p in plans),
            unique=len(union),
            wall_seconds=wall)
        self.ledger.observe(BATCH_EMA_KEY, wall)
        self.ledger.flush()
        for ticket in live:
            try:
                run = assemble(ticket.plan, results)
            except Exception as exc:    # noqa: BLE001 - per-ticket isolation
                self._finish(ticket, FAILED,
                             error=f"assemble: {type(exc).__name__}: {exc}")
                continue
            ticket.run = run
            if ticket.request.profile:
                self.metrics.record_profile(run_cost_totals(run))
            self._finish(ticket, DONE)

    def _run_tasks(self, union: Dict[str, TaskSpec],
                   task_keys: Dict[str, str],
                   predictions: Dict[str, Tuple[float, str]]
                   ) -> Dict[str, dict]:
        """Settle one batch's merged task set; survives pool-loop deaths.

        :func:`execute_tasks` puts each settled task into ``results`` as
        it settles.  A pool-loop death stops the pool's workers; each
        restart calls it again on the same map, so only the remainder
        runs, on fresh workers, and a death costs at most the tasks in
        flight.  Once the restarts are spent, every task still unsettled
        becomes a failure payload.  Runs in the executor thread.
        """
        sink = chain(ledger_feedback(self.ledger, task_keys),
                     self.metrics.observe, _death_probe)
        cache = (SampleCache(self.cache_dir)
                 if self.cache_dir is not None else None)
        results: Dict[str, dict] = {}
        failures: Dict[str, str] = {}
        error = ""
        for attempt in range(BATCH_RESTARTS + 1):
            if attempt:
                self.metrics.record_restart()
            try:
                failures = execute_tasks(union, results, self._pool, sink,
                                         cache=cache, predictions=predictions)
                break
            except Exception as exc:    # noqa: BLE001 - pool-loop death
                error = f"{type(exc).__name__}: {exc}"
        for task_id, spec in union.items():
            if task_id not in results:
                results[task_id] = failure_payload(spec.kind, failures.get(
                    task_id, f"batch restarts exhausted; last: {error}"))
        return results

    def _finish(self, ticket: RequestTicket, status: str,
                error: str = "") -> None:
        ticket.status = status
        ticket.error = error
        ticket.finished = time.monotonic()
        self._inflight -= 1
        wait_s = (ticket.started or ticket.finished) - ticket.created
        run_s = (ticket.finished - ticket.started) if ticket.started else None
        self.metrics.record_terminal(status, wait_s=wait_s, run_s=run_s)
        ticket.done.set()


__all__ = ["DONE", "EXPIRED", "EvalRequest", "EvalService", "FAILED",
           "Overloaded", "QUEUED", "RUNNING", "RequestTicket",
           "ServiceClosed", "TERMINAL"]
