"""A fault-isolated multiprocessing worker pool, one pipe pair per worker.

The pool is deliberately generic — it moves ``(task_id, payload)`` pairs
to N worker processes and results back — so the fault-handling logic can
be unit-tested with synthetic crash/hang/raise tasks independently of the
harness.  :mod:`repro.sched.worker` supplies the harness-specific init
and execute functions.

Each worker has a task pipe and a result pipe of its own, and holds at
most one task: the parent hands the next task to a worker only once the
worker is idle, and that hand-off starts the task's deadline.  No lock
is shared between workers, so no worker's death, wherever it happens,
can block another.

Fault model (the part a naive ``multiprocessing.Pool`` gets wrong):

* a task that **raises** inside a worker is reported and requeued, up to
  ``max_retries`` extra attempts, then recorded as a failure; retries
  wait strictly *behind* pending fresh work, so a retry storm can never
  starve the tail of the run;
* a worker that **dies** (segfault, ``os._exit``, OOM-kill) is detected
  by liveness polling, or by a broken task pipe when the parent hands it
  a task; the task it held is requeued (uncharged if it still sat
  unread in the pipe) and a replacement worker is spawned — the run
  never dies with it, and what the worker reported before it died is
  still read;
* a task that **hangs** past ``task_timeout`` gets its worker terminated
  and is treated like a crash;
* a task that kills :data:`~repro.guard.health.POISON_THRESHOLD`
  *distinct* workers is **poison** (the task, not the machine, is what
  kills workers) and is moved to the ``quarantined`` lane by the
  :class:`~repro.guard.health.HealthLedger` instead of burning budget
  forever;
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
Retries, deadlines, quarantine and the crash budget are per run; a
worker that died between runs is replaced on its own by the next run,
and any exception out of ``run()`` closes the workers, so the next
``run()`` starts on fresh ones.  A run ends with no worker holding a
task — it terminates any that still does — so no result of one run can
reach the next.

Workers poll their parent pid while idle: if the whole scheduler process
is SIGKILLed (``repro.guard.supervisor``), the orphaned workers notice
the reparenting and exit instead of waiting on their task pipe forever.
"""

from __future__ import annotations

import array
import fcntl
import multiprocessing as mp
import os
import termios
import time
from collections import deque
from typing import (TYPE_CHECKING, Callable, Deque, Dict, List, Optional,
                    Sequence, Tuple)

from ..faults import inject
from ..guard.health import HealthLedger, VERDICT_POISON
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


def _unread(conn: Connection) -> bool:
    """Whether bytes sent on ``conn``, the write end of a worker's task
    pipe, still wait in the pipe: a worker that died with its task
    unread never took it."""
    count = array.array("i", [0])
    fcntl.ioctl(conn.fileno(), termios.FIONREAD, count)
    return count[0] > 0


def _worker_main(worker_id: int, init_fn: Optional[Callable],
                 init_args: tuple, work_fn: Callable,
                 task_q: Connection, result_conn: Connection) -> None:
    """Worker loop: init once and report ``ready``, then execute the
    tasks the parent hands over on ``task_q`` (this worker's own pipe)
    until the ``None`` sentinel; every message goes to the parent on
    ``result_conn``, this worker's own result pipe.

    Every exception is caught and reported — a worker only ever exits via
    the sentinel, by being killed from outside, or by noticing its parent
    process vanished (a whole-process SIGKILL reparents the worker; an
    orphan must not wait on ``task_q`` forever).
    """
    # the forking parent's pid; getppid() may already name the reaper
    parent_pid = mp.parent_process().pid
    try:
        ctx = init_fn(*init_args) if init_fn is not None else init_args
    except BaseException as exc:  # noqa: BLE001 - must never escape
        result_conn.send(("init_error", worker_id, None,
                          f"{type(exc).__name__}: {exc}", 0.0))
        return
    result_conn.send(("ready", worker_id, None, None, 0.0))
    while True:
        try:
            if not task_q.poll(_ORPHAN_POLL):
                if os.getppid() != parent_pid:
                    os._exit(0)     # orphaned: the scheduler was killed
                continue
            item = task_q.recv()
        except EOFError:
            return                  # every copy of the write end is gone
        if item is None:
            return
        task_id, attempt, payload = item
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
    """N worker processes, each handed one task at a time on its own
    pipe."""

    def __init__(self, jobs: int, work_fn: Callable,
                 init_fn: Optional[Callable] = None,
                 init_args: tuple = (),
                 task_timeout: Optional[float] = 300.0,
                 max_retries: int = 2,
                 max_crashes: Optional[int] = None,
                 validate: Optional[Callable[[dict, object], bool]] = None,
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
        self.max_crashes = max_crashes if max_crashes is not None \
            else 4 * jobs + 4
        #: ``(kind, detail) -> payload`` factory for quarantined tasks;
        #: without one a poison task fails fast through the failure lane
        #: (the ledger still short-circuits its remaining retries)
        self.quarantine = quarantine
        self._ctx = _pool_context()
        self._procs: Dict[int, mp.process.BaseProcess] = {}
        #: worker id → the write end of that worker's task pipe
        self._tasks: Dict[int, Connection] = {}
        #: worker id → the read end of that worker's result pipe
        self._conns: Dict[int, Connection] = {}
        #: workers that reported ``ready`` or a result and hold no task,
        #: longest idle first; they stay idle across runs
        self._idle: Deque[int] = deque()
        self._next_wid = 0

    # -- lifetime ------------------------------------------------------------

    @property
    def started(self) -> bool:
        return bool(self._procs)

    def start(self) -> "WorkerPool":
        """Fork workers up to ``jobs`` and keep them across :meth:`run`
        calls until :meth:`close`; :meth:`run` calls this itself.  A
        worker that died since the last run is replaced on its own."""
        for wid, proc in list(self._procs.items()):
            if not proc.is_alive():
                self._drop(wid)
        while len(self._procs) < self.jobs:
            self._spawn()
        return self

    def close(self) -> None:
        """Stop every worker; a later :meth:`run` forks fresh ones."""
        procs, tasks, conns = self._procs, self._tasks, self._conns
        self._procs, self._tasks, self._conns = {}, {}, {}
        self._idle.clear()
        for conn in tasks.values():
            try:
                conn.send(None)         # a busy worker ends its task first
            except OSError:             # it has died already
                pass
        deadline = time.monotonic() + 5.0
        for proc in procs.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in procs.values():
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in (*tasks.values(), *conns.values()):
            conn.close()

    def __enter__(self) -> "WorkerPool":
        return self                     # the first run with work forks

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _spawn(self) -> int:
        """Fork one worker under the next id, with its own task and
        result pipes; returns the id."""
        wid = self._next_wid
        self._next_wid += 1
        task_reader, task_writer = self._ctx.Pipe(duplex=False)
        reader, writer = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, self.init_fn, self.init_args, self.work_fn,
                  task_reader, writer),
            daemon=True,
        )
        proc.start()
        # only the worker may hold these ends, so its death is EOF on
        # its result pipe and a broken pipe on its task pipe
        task_reader.close()
        writer.close()
        self._procs[wid] = proc
        self._tasks[wid] = task_writer
        self._conns[wid] = reader
        return wid

    def _drop(self, wid: int) -> None:
        """Forget a dead or terminated worker and close its pipes."""
        self._procs.pop(wid, None)
        for conn in (self._tasks.pop(wid, None), self._conns.pop(wid, None)):
            if conn is not None:
                conn.close()
        if wid in self._idle:
            self._idle.remove(wid)

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
        (:func:`repro.sched.predict.order_tasks`); the pool hands fresh
        work to idle workers in exactly that order.  ``predictions``
        (task id → ``(value, provenance)``) decorate ``TaskFinished``
        events so predicted-vs-actual error is observable.  ``on_drain``
        fires once per drain cycle — when every result pipe goes
        momentarily quiet — and is the journal's group-commit hook.
        ``emit`` receives the run's events.

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

        tasks, conns, procs, idle = \
            self._tasks, self._conns, self._procs, self._idle
        pending = deque(payloads)         # fresh work, dispatch order
        retries: deque = deque()          # requeues: strictly behind fresh
        #: worker → (the task it holds, deadline)
        running: Dict[int, Tuple[str, float]] = {}
        attempts: Dict[str, int] = {tid: 0 for tid in payloads}  # dispatches
        fails: Dict[str, int] = {tid: 0 for tid in payloads}
        ledger = HealthLedger()
        crashes = 0

        def finished() -> int:
            return len(results) + len(failures)

        def feed() -> None:
            """Hand each idle worker the next task, fresh work first."""
            while idle and (pending or retries):
                source = pending if pending else retries
                tid = source.popleft()
                wid = idle.popleft()
                try:
                    tasks[wid].send((tid, attempts[tid], payloads[tid]))
                except OSError:         # BrokenPipeError: it died idle
                    source.appendleft(tid)      # not an attempt
                    bury(wid, "worker died while idle")
                    continue
                attempts[tid] += 1
                running[wid] = (tid, time.monotonic()
                                + (self.task_timeout or float("inf")))
                emit(TaskStarted(task_id=tid,
                                 kind=payloads[tid].get("kind", ""),
                                 worker=wid))

        def record_failure(tid: str, detail: str) -> None:
            failures[tid] = detail
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
            if on_result is not None:
                on_result(tid, payload)
            emit(TaskFinished(
                task_id=tid, kind=payloads[tid].get("kind", ""),
                source=SOURCE_QUARANTINED,
                status=str((payload or {}).get("status", "")), worker=-1,
                duration=0.0, attempts=attempts[tid]))

        def copy_failed(tid: str, detail: str) -> None:
            """One dispatch of ``tid`` definitively failed."""
            fails[tid] += 1
            if fails[tid] <= self.max_retries:
                retries.append(tid)
            else:
                record_failure(tid, detail)

        def bury(wid: int, detail: str, kind: str = "crash") -> None:
            """Settle a dead or terminated worker: what it reported
            before it died counts first, then its death."""
            nonlocal crashes
            messages = _drain(conns, wid)
            untaken = _unread(tasks[wid])
            self._drop(wid)
            for message in messages:
                handle(message)
            crashes += 1
            entry = running.pop(wid, None)
            tid = entry[0] if entry is not None else None
            if tid is not None and untaken:
                # handed off but never read: back to the head of its
                # queue, and not an attempt
                attempts[tid] -= 1
                (retries if fails[tid] else pending).appendleft(tid)
                tid = None
            emit(WorkerCrashed(worker=wid, task_id=tid, detail=detail,
                               kind=kind))
            if tid is not None:
                verdict = ledger.record_death(tid, wid, kind, detail)
                if verdict == VERDICT_POISON:
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
                busy_workers=len(running), workers=len(procs)))

        def handle(message: tuple) -> None:
            kind, wid, tid, body, duration = message
            if kind == "init_error":
                # a worker that cannot even initialise is a
                # configuration problem, not a task fault
                raise RuntimeError(
                    f"scheduler worker failed to initialise: {body}")
            if kind == "ready":
                if wid in procs:
                    idle.append(wid)
                return
            entry = running.get(wid)
            if kind not in ("done", "fail") or entry is None \
                    or entry[0] != tid:
                return      # names no task its worker holds: stale
            del running[wid]
            if wid in procs:            # not a worker being buried
                idle.append(wid)
            if kind == "done" and inject.ACTIVE is not None \
                    and inject.ACTIVE.fire("sched.result.corrupt",
                                           tid) is not None:
                body = {"__corrupted__": True}
            if kind == "done" and self.validate is not None \
                    and not self.validate(payloads[tid], body):
                kind, body = "fail", ("result payload failed validation "
                                      "(corrupted on the result channel)")
            if kind == "fail":
                copy_failed(tid, body)
            # the freed worker starts its next task before the parent
            # spends time on this result
            feed()
            if kind == "done":
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

        while finished() < total:
            feed()
            messages = _receive(conns, _POLL)
            if messages:
                for message in messages:
                    handle(message)
                continue

            # silence: the drain cycle ended — group-commit whatever
            # the result burst journaled, then check worker liveness
            # and task deadlines
            if on_drain is not None:
                on_drain()
            now = time.monotonic()
            for wid, proc in list(procs.items()):
                # a hand-off inside an earlier bury() may have buried it
                if wid in procs and not proc.is_alive():
                    bury(wid, f"worker exited with code {proc.exitcode}")
            for wid, (tid, deadline) in list(running.items()):
                if now > deadline:
                    procs[wid].terminate()
                    procs[wid].join(timeout=5.0)
                    bury(wid, f"task exceeded {self.task_timeout:.0f}s "
                              "wall-clock timeout (infrastructure, "
                              "unlike a fuel-budget sample timeout)",
                         kind="timeout")
            if crashes > self.max_crashes:
                for tid in [tid for tid, _ in running.values()] \
                        + list(pending) + list(retries):
                    record_failure(tid, "worker crash budget exhausted")
                pending.clear()
                retries.clear()
                # no task may outlive its run on a worker
                for wid in list(running):
                    procs[wid].terminate()
                    procs[wid].join(timeout=5.0)
                    self._drop(wid)
                running.clear()
                break
        return results, failures
