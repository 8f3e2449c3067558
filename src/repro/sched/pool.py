"""A fault-isolated multiprocessing worker pool with a bounded queue.

The pool is deliberately generic — it moves ``(task_id, payload)`` pairs
to N worker processes and results back — so the fault-handling logic can
be unit-tested with synthetic crash/hang/raise tasks independently of the
harness.  :mod:`repro.sched.worker` supplies the harness-specific init
and execute functions.

Fault model (the part a naive ``multiprocessing.Pool`` gets wrong):

* a task that **raises** inside a worker is reported and requeued, up to
  ``max_retries`` extra attempts, then recorded as a failure; retries
  queue strictly *behind* pending fresh work, so a retry storm can never
  starve the queue tail;
* a worker that **dies** (segfault, ``os._exit``, OOM-kill) is detected
  by liveness polling; its in-flight task is requeued and a replacement
  worker is spawned — the run never dies with it, even when the worker
  died idle (idle workers wait for work without holding the task
  queue's lock, :func:`_next_task`) or just after it reported (each
  worker reports on a pipe of its own, so no lock is shared, and what
  it wrote before it died is still read);
* a task that **hangs** past ``task_timeout`` gets its worker terminated
  and is treated like a crash;
* a task that kills ``poison_threshold`` *distinct* workers is **poison**
  (the task, not the machine, is what kills workers) and is moved to the
  ``quarantined`` lane by the :class:`~repro.guard.health.HealthLedger`
  instead of burning budget forever;
* repeated crashes exhaust a crash budget (``max_crashes``) that fails
  the remaining tasks instead of respawning forever.

Results are reported through ``on_result`` *before* the corresponding
:class:`TaskFinished` event is emitted, so a sink that aborts the run
(:class:`SchedulerAbort`) is guaranteed that whatever ``on_result``
records (the caller's result map and journal) already holds every task
it was told about.

Lifetime: the caller owns the pool, best in a ``with`` block.  The
first :meth:`WorkerPool.run` with work forks the workers; they serve
every later run until :meth:`WorkerPool.close` (the block's end), so
many task sets share one fork and a caller with no task forks nothing.
Retries, deadlines, quarantine and the crash budget are per run; if a
worker died between runs, the next run starts on fresh workers and
queues; any exception out of ``run()`` closes the workers, so the next
``run()`` starts on fresh ones.  Messages about a task the current run
did not dispatch (a late copy from an earlier run) are dropped.

Workers poll their parent pid while idle: if the whole scheduler process
is SIGKILLed (``repro.guard.supervisor``), the orphaned workers notice
the reparenting and exit instead of blocking on the task queue forever.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as stdlib_queue
import time
from collections import deque
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from ..faults import inject
from ..guard.health import GuardPolicy, HealthLedger, VERDICT_POISON
from .events import (
    EmitFn,
    ProgressSnapshot,
    SOURCE_EXECUTED,
    SOURCE_FAILED,
    SOURCE_QUARANTINED,
    SchedulerAbort,
    TaskFinished,
    TaskStarted,
    WorkerCrashed,
    WorkerReplaced,
    payload_counters,
)

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

#: parent-side poll interval for results / liveness, seconds
_POLL = 0.05
#: seconds of total silence before sweeping for orphaned tasks
_STALL_SWEEP = 2.0
#: idle-worker wakeup interval for the orphaned-parent check, seconds
_ORPHAN_POLL = 1.0


def _pool_context() -> mp.context.BaseContext:
    """fork where available (cheap, inherits the compiled problem bank);
    spawn otherwise."""
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    return mp.get_context(method)


def _receive(conns: Dict[int, Connection], timeout: float) -> List[tuple]:
    """One message from each worker pipe readable within ``timeout``; an
    empty list means silence.

    Each worker reports on a pipe of its own, written synchronously
    (``Connection.send``, no feeder thread), so a worker killed by
    ``os._exit`` or a segfault can never take already-reported results
    down with it — with a buffered ``mp.Queue`` the parent would
    mis-blame (and eventually fail) tasks that actually finished.  No
    write lock is shared either: a shared ``SimpleQueue`` let a worker
    killed just after a write die holding its lock, and every other
    worker then blocked on its next report.  A pipe at EOF (its worker
    exited) or torn by a dying writer is closed and dropped.
    """
    # imported on first use, so importing the package does not load it
    from multiprocessing.connection import wait

    ready = wait(list(conns.values()), timeout)
    messages = []
    for wid, conn in list(conns.items()):
        if conn not in ready:
            continue
        try:
            messages.append(conn.recv())
        except (EOFError, OSError):
            del conns[wid]
            conn.close()
    return messages


def _drain(conns: Dict[int, Connection], wid: int) -> List[tuple]:
    """Every message a dead worker wrote before it died; drops its pipe."""
    conn = conns.pop(wid, None)
    if conn is None:
        return []
    messages = []
    try:
        while conn.poll(0):
            messages.append(conn.recv())
    except (EOFError, OSError):         # EOF, or a torn last write
        pass
    conn.close()
    return messages


def _next_task(task_q, timeout: float):
    """Wait up to ``timeout`` for the next task; raises ``queue.Empty``.

    ``Queue.get(timeout=...)`` waits while holding the queue's read lock,
    so a worker killed while idle (an OOM kill, a stray SIGKILL) would
    leave that lock held and every other worker blocked for good.  Wait
    on the pipe without the lock, and take the lock only to read."""
    reader = getattr(task_q, "_reader", None)
    if reader is None:                  # pragma: no cover - fallback path
        return task_q.get(timeout=timeout)
    if not reader.poll(timeout):
        raise stdlib_queue.Empty
    return task_q.get_nowait()         # Empty if another worker won


def _worker_main(worker_id: int, init_fn: Optional[Callable],
                 init_args: tuple, work_fn: Callable,
                 task_q: "mp.Queue", result_conn: Connection) -> None:
    """Worker loop: init once, then execute tasks until the sentinel;
    every message goes to the parent on this worker's own pipe.

    Every exception is caught and reported — a worker only ever exits via
    the sentinel, by being killed from outside, or by noticing its parent
    process vanished (a whole-process SIGKILL reparents the worker; an
    orphan must not sit on ``task_q.get()`` forever).
    """
    # the forking parent's pid; getppid() may already name the reaper
    parent_pid = mp.parent_process().pid
    try:
        ctx = init_fn(*init_args) if init_fn is not None else init_args
    except BaseException as exc:  # noqa: BLE001 - must never escape
        result_conn.send(("init_error", worker_id, None,
                          f"{type(exc).__name__}: {exc}", 0.0))
        return
    while True:
        try:
            item = _next_task(task_q, _ORPHAN_POLL)
        except stdlib_queue.Empty:
            if os.getppid() != parent_pid:
                os._exit(0)         # orphaned: the scheduler was killed
            continue
        if item is None:
            result_conn.send(("bye", worker_id, None, None, 0.0))
            return
        task_id, attempt, payload = item
        result_conn.send(("start", worker_id, task_id, None, 0.0))
        if inject.ACTIVE is not None:
            # fork-inherited injector: keys carry the attempt index so a
            # kill rule matching "#a0" takes down only the first dispatch
            # and the requeued attempt survives on the replacement worker
            rule = inject.ACTIVE.fire("sched.worker.kill",
                                      f"{task_id}#a{attempt}")
            if rule is not None:
                os._exit(17)
        began = time.perf_counter()
        try:
            result = work_fn(ctx, payload)
        except BaseException as exc:  # noqa: BLE001 - fault isolation
            result_conn.send(("fail", worker_id, task_id,
                              f"{type(exc).__name__}: {exc}",
                              time.perf_counter() - began))
        else:
            result_conn.send(("done", worker_id, task_id, result,
                              time.perf_counter() - began))


class WorkerPool:
    """N worker processes fed from a bounded task queue."""

    def __init__(self, jobs: int, work_fn: Callable,
                 init_fn: Optional[Callable] = None,
                 init_args: tuple = (),
                 task_timeout: Optional[float] = 300.0,
                 max_retries: int = 2,
                 queue_bound: Optional[int] = None,
                 max_crashes: Optional[int] = None,
                 validate: Optional[Callable[[dict, object], bool]] = None,
                 guard: Optional[GuardPolicy] = None,
                 quarantine: Optional[Callable[[str, str], dict]] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.work_fn = work_fn
        self.init_fn = init_fn
        self.init_args = init_args
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        #: optional result validator ``(task_payload, result) -> bool``;
        #: a result that fails validation (e.g. corrupted on the result
        #: channel) is treated exactly like a raised exception: requeued
        #: up to the retry budget, never reported to ``on_result``
        self.validate = validate
        self.queue_bound = queue_bound or max(2 * jobs, 4)
        self.max_crashes = max_crashes if max_crashes is not None \
            else 4 * jobs + 4
        #: supervision policy (poison-task quarantine); defaults on
        self.guard = guard or GuardPolicy()
        #: ``(kind, detail) -> payload`` factory for quarantined tasks;
        #: without one a poison task fails fast through the failure lane
        #: (the ledger still short-circuits its remaining retries)
        self.quarantine = quarantine
        self._ctx = _pool_context()
        # set by start(), cleared by close()
        self._task_q = None
        self._procs: Dict[int, mp.process.BaseProcess] = {}
        #: worker id → the read end of that worker's result pipe
        self._conns: Dict[int, Connection] = {}
        self._next_wid = 0

    # -- lifetime ------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._task_q is not None

    def start(self) -> "WorkerPool":
        """Fork the workers and keep them across :meth:`run` calls until
        :meth:`close`; :meth:`run` calls this itself.

        On a started pool with a dead worker this starts over on fresh
        workers and a fresh task queue: a worker killed while it read a
        task can die holding the task queue's read lock, and then no
        other worker could ever take a task again."""
        if any(not proc.is_alive() for proc in self._procs.values()):
            for proc in self._procs.values():
                proc.terminate()
            self.close()
        if self._task_q is None:
            self._task_q = self._ctx.Queue(maxsize=self.queue_bound + 1)
        while len(self._procs) < self.jobs:
            self._spawn()
        return self

    def close(self) -> None:
        """Stop every worker; a later :meth:`run` forks fresh ones."""
        if self._task_q is None:
            return
        procs, task_q, conns = self._procs, self._task_q, self._conns
        self._procs, self._conns = {}, {}
        self._task_q = None
        # drain the task queue so sentinels are the next thing workers see
        _discard_queued(task_q)
        for _ in procs:
            try:
                task_q.put_nowait(None)
            except stdlib_queue.Full:
                break
        deadline = time.monotonic() + 5.0
        for proc in procs.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in procs.values():
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        task_q.cancel_join_thread()
        task_q.close()
        for conn in conns.values():
            conn.close()

    def __enter__(self) -> "WorkerPool":
        return self                     # the first run with work forks

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _spawn(self) -> int:
        """Fork one worker under the next id, with its own result pipe;
        returns the id."""
        wid = self._next_wid
        self._next_wid += 1
        reader, writer = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, self.init_fn, self.init_args, self.work_fn,
                  self._task_q, writer),
            daemon=True,
        )
        proc.start()
        # only the worker may hold the write end, so its death is EOF
        writer.close()
        self._procs[wid] = proc
        self._conns[wid] = reader
        return wid

    # -- the run loop --------------------------------------------------------

    def run(self, tasks: Sequence[Tuple[str, dict]],
            on_result: Optional[Callable[[str, dict], None]] = None,
            progress_total: Optional[int] = None,
            predictions: Optional[Dict[str, Tuple[float, str]]] = None,
            on_drain: Optional[Callable[[], None]] = None,
            emit: Optional[EmitFn] = None,
            ) -> Tuple[Dict[str, dict], Dict[str, str]]:
        """Execute ``tasks``; returns ``(results, failures)``.

        ``on_result(task_id, result)`` runs in the parent, in completion
        order, before the task's ``TaskFinished`` event (journal-then-
        notify).  ``failures`` maps task id → last error string for tasks
        that exhausted their retry budget.  Quarantined tasks land in
        ``results`` via the ``quarantine`` payload factory (or in
        ``failures`` when the pool has none).

        ``tasks`` arrive pre-ordered by the caller's dispatch policy
        (:func:`repro.sched.predict.order_tasks`); the pool preserves
        that order for fresh work.  ``predictions`` (task id →
        ``(value, provenance)``) decorate ``TaskFinished`` events so
        predicted-vs-actual error is observable.  ``on_drain`` fires
        once per drain cycle — when every result pipe goes momentarily
        quiet — and is the journal's group-commit hook.  ``emit``
        receives the run's events.

        A run with work starts the pool (:meth:`start`) if it is not
        running; the workers outlive the run.  Any exception out of the
        run loop closes the workers before it propagates.
        """
        payloads: Dict[str, dict] = dict(tasks)
        if not payloads:
            return {}, {}
        self.start()
        try:
            return self._run(payloads, on_result, progress_total,
                             predictions or {}, on_drain,
                             emit or (lambda event: None))
        except BaseException:
            self.close()
            raise

    def _run(self, payloads: Dict[str, dict],
             on_result: Optional[Callable[[str, dict], None]],
             progress_total: Optional[int],
             preds: Dict[str, Tuple[float, str]],
             on_drain: Optional[Callable[[], None]],
             emit: EmitFn) -> Tuple[Dict[str, dict], Dict[str, str]]:
        total = len(payloads)
        if progress_total is None:
            progress_total = total
        progress_base = progress_total - total
        results: Dict[str, dict] = {}
        failures: Dict[str, str] = {}

        task_q, conns, procs = self._task_q, self._conns, self._procs
        pending = deque(payloads)         # fresh work, dispatch order
        retries: deque = deque()          # requeues: strictly behind fresh
        outstanding: set = set()          # dispatched, not yet finished
        #: worker → (task, deadline); the task may be a late copy from an
        #: earlier run, which still holds its worker until it finishes
        running: Dict[int, Tuple[str, float]] = {}
        attempts: Dict[str, int] = {tid: 0 for tid in payloads}  # dispatches
        fails: Dict[str, int] = {tid: 0 for tid in payloads}
        ledger = HealthLedger(self.guard.poison_threshold)
        crashes = 0
        last_message = time.monotonic()

        def finished() -> int:
            return len(results) + len(failures)

        def settled(tid: str) -> bool:
            return tid in results or tid in failures

        def dispatch(tid: str) -> bool:
            try:
                task_q.put_nowait((tid, attempts[tid], payloads[tid]))
            except stdlib_queue.Full:
                return False
            attempts[tid] += 1
            outstanding.add(tid)
            return True

        def fill_queue() -> None:
            while len(outstanding) < self.queue_bound:
                source = pending if pending else retries
                if not source:
                    return
                tid = source[0]
                if settled(tid):
                    source.popleft()
                    continue
                if not dispatch(tid):
                    return              # queue full: keep position
                source.popleft()

        def record_failure(tid: str, detail: str) -> None:
            failures[tid] = detail
            outstanding.discard(tid)
            emit(TaskFinished(
                task_id=tid, kind=payloads[tid].get("kind", ""),
                source=SOURCE_FAILED, status="system_error", worker=-1,
                duration=0.0, attempts=attempts[tid]))

        def record_quarantine(tid: str, last_detail: str) -> None:
            detail = f"{ledger.fingerprint(tid)}; last: {last_detail}"
            ledger.quarantine(tid, detail)
            if self.quarantine is None:
                record_failure(tid, detail)
                return
            payload = self.quarantine(payloads[tid].get("kind", ""), detail)
            results[tid] = payload
            outstanding.discard(tid)
            if on_result is not None:
                on_result(tid, payload)
            emit(TaskFinished(
                task_id=tid, kind=payloads[tid].get("kind", ""),
                source=SOURCE_QUARANTINED,
                status=str((payload or {}).get("status", "")), worker=-1,
                duration=0.0, attempts=attempts[tid]))

        def copy_failed(tid: str, detail: str) -> None:
            """One dispatch of ``tid`` definitively failed."""
            if settled(tid):
                return
            fails[tid] += 1
            outstanding.discard(tid)
            if fails[tid] <= self.max_retries:
                retries.append(tid)
            else:
                record_failure(tid, detail)

        def on_worker_death(wid: int, detail: str,
                            kind: str = "crash") -> None:
            nonlocal crashes
            crashes += 1
            entry = running.pop(wid, None)
            tid = entry[0] if entry is not None and entry[0] in payloads \
                else None
            emit(WorkerCrashed(worker=wid, task_id=tid, detail=detail,
                               kind=kind))
            procs.pop(wid, None)
            if tid is not None and not settled(tid):
                verdict = ledger.record_death(tid, wid, kind, detail)
                if verdict == VERDICT_POISON and self.guard.quarantine:
                    record_quarantine(tid, detail)
                else:
                    copy_failed(tid, detail)
            if crashes <= self.max_crashes and finished() < total:
                emit(WorkerReplaced(old_worker=wid,
                                    new_worker=self._spawn()))

        def snapshot() -> None:
            emit(ProgressSnapshot(
                done=finished() + progress_base,
                total=progress_total,
                queue_depth=len(outstanding), busy_workers=len(running),
                workers=len(procs)))

        def handle(message: tuple) -> None:
            kind, wid, tid, body, duration = message
            if kind == "init_error":
                # a worker that cannot even initialise is a
                # configuration problem, not a task fault
                raise RuntimeError(
                    f"scheduler worker failed to initialise: {body}")
            if kind == "start":
                deadline = (time.monotonic()
                            + (self.task_timeout or float("inf")))
                running[wid] = (tid, deadline)
                if tid in payloads:
                    emit(TaskStarted(
                        task_id=tid,
                        kind=payloads[tid].get("kind", ""), worker=wid))
                return
            if kind not in ("done", "fail"):
                return
            running.pop(wid, None)
            if tid not in payloads or settled(tid):
                return      # an earlier run's task, or a swept orphan
            if kind == "fail":
                copy_failed(tid, body)
                snapshot()
                return
            if inject.ACTIVE is not None and inject.ACTIVE.fire(
                    "sched.result.corrupt", tid) is not None:
                body = {"__corrupted__": True}
            if self.validate is not None \
                    and not self.validate(payloads[tid], body):
                copy_failed(
                    tid, "result payload failed validation "
                         "(corrupted on the result channel)")
                snapshot()
                return
            outstanding.discard(tid)
            results[tid] = body
            if on_result is not None:
                on_result(tid, body)
            predicted, pred_source = preds.get(tid, (0.0, ""))
            emit(TaskFinished(
                task_id=tid,
                kind=payloads[tid].get("kind", ""),
                source=SOURCE_EXECUTED,
                status=str((body or {}).get("status", "")),
                worker=wid, duration=duration,
                attempts=attempts[tid],
                diagnostics=len(
                    (body or {}).get("diagnostics") or ()),
                counters=payload_counters(body),
                predicted=predicted,
                predicted_source=pred_source))
            snapshot()

        while True:
            fill_queue()
            if finished() >= total:
                break
            messages = _receive(conns, _POLL)
            now = time.monotonic()
            if messages:
                last_message = now
                for message in messages:
                    handle(message)
                continue

            # silence: the drain cycle ended — group-commit whatever
            # the result burst journaled, then check worker liveness
            # and task deadlines
            if on_drain is not None:
                on_drain()
            for wid in list(procs):
                proc = procs[wid]
                if not proc.is_alive():
                    # what it reported before it died counts first
                    for message in _drain(conns, wid):
                        handle(message)
                    on_worker_death(
                        wid, f"worker exited with code {proc.exitcode}")
            for wid, (tid, deadline) in list(running.items()):
                if now > deadline:
                    proc = procs.get(wid)
                    if proc is not None:
                        proc.terminate()
                        proc.join(timeout=5.0)
                    on_worker_death(
                        wid, f"task exceeded {self.task_timeout:.0f}s "
                             "wall-clock timeout (infrastructure, "
                             "unlike a fuel-budget sample timeout)",
                        kind="timeout")
            if crashes > self.max_crashes:
                for tid in list(outstanding) + list(pending) \
                        + list(retries):
                    if not settled(tid):
                        record_failure(
                            tid, "worker crash budget exhausted")
                pending.clear()
                retries.clear()
                break
            # orphan sweep: tasks dispatched to a worker that died
            # between dequeue and its "start" message
            if (outstanding and not running
                    and now - last_message > _STALL_SWEEP
                    and task_q.empty()):
                for tid in list(outstanding):
                    outstanding.discard(tid)
                    if not settled(tid):
                        retries.append(tid)
                last_message = now
        _discard_queued(task_q)         # leftovers of this run
        return results, failures


def _discard_queued(task_q) -> None:
    """Drop every task still queued (not yet taken by a worker)."""
    try:
        while True:
            task_q.get_nowait()
    except (stdlib_queue.Empty, OSError):
        pass
