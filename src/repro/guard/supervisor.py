"""Crash-only recovery: SIGKILL the whole scheduler, resume, same bytes.

The journal layer proves a *journal* survives being killed at any byte
offset; this module proves the *process* does.  :func:`run_supervised`
forks a child that runs :func:`repro.sched.scheduler.run_scheduled`
against a journal with ``resume=True``, on a worker pool the child
builds and stops itself.  When armed with ``kill_at=k``,
the child installs a fault plan containing ``guard.process.kill`` with
occurrence ``k`` and fires the point once per scheduler event — so at
the k-th event boundary the child delivers ``SIGKILL`` to itself: no
atexit hooks, no flushes, no cleanup, the crash-only worst case.  The
supervisor then respawns the child (unarmed) until a run completes, and
returns its digest.  :func:`crash_resume_sweep` drives that at *every*
event boundary of a reference run and checks each resumed digest
against the reference — the whole-process analogue of the
kill-at-every-journal-index chaos invariant.

Workers orphaned by the SIGKILL (the pool's child processes survive
their parent's death) check their parent's pid while they wait on
their own task pipe, and exit on their own once it has changed — see
``_worker_main`` in :mod:`repro.sched.pool`.

Fork is required: the benchmark and model objects carry numpy closures
that cannot cross a spawn boundary.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..faults import inject
from ..faults.plan import FaultPlan, FaultRule


@dataclass(frozen=True)
class SupervisedResult:
    """Outcome of one supervised (possibly killed-and-resumed) run."""

    digest: str
    json: str
    #: scheduler events emitted by the final (completing) incarnation;
    #: with a resumed run this includes journal-replay events
    events: int
    #: child incarnations beyond the first (0 for an unkilled run)
    restarts: int


def _guard_kill_sink(counter: List[int]):
    """Event sink: count boundaries and consult ``guard.process.kill``.

    The key is constant (""), so the injector's per-(point, key)
    occurrence counter *is* the event-boundary index."""

    def sink(event: object) -> None:
        counter[0] += 1
        act = inject.ACTIVE
        if act is not None \
                and act.fire("guard.process.kill", "") is not None:
            os.kill(os.getpid(), signal.SIGKILL)

    return sink


def _child_main(conn, kill_at: Optional[int], plan: Optional[FaultPlan],
                journal_path: str, run_kwargs: dict) -> None:
    from ..harness.runner import Runner
    from ..sched.events import chain
    from ..sched.scheduler import harness_pool, run_scheduled

    # The fork inherited the parent's process-global injector (if any);
    # this incarnation installs its own plan, so drop the inherited one
    # first — a nested install is a usage error by design.
    if inject.ACTIVE is not None:
        inject.uninstall()
    rules = tuple(plan.rules) if plan is not None else ()
    if kill_at is not None:
        rules += (FaultRule(point="guard.process.kill", action="kill",
                            occurrences=(kill_at,)),)
    if rules:
        inject.install(FaultPlan(rules=rules))
    counter = [0]
    emit = chain(_guard_kill_sink(counter), run_kwargs.pop("emit", None))
    try:
        # the child's own pool, forked after the plan above is installed:
        # a worker sees only the fault plan its parent held at the fork
        with harness_pool(run_kwargs.pop("runner", None) or Runner(),
                          run_kwargs.pop("jobs", 1)) as pool:
            run, _telemetry = run_scheduled(
                pool=pool, journal_path=journal_path, resume=True,
                emit=emit, **run_kwargs)
        conn.send({"ok": True, "digest": run.digest(),
                   "json": run.to_json(), "events": counter[0]})
    except BaseException as exc:  # noqa: BLE001 - report, don't hang parent
        conn.send({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
    finally:
        conn.close()


#: how often the supervisor checks whether a silent child is still alive
_LIVENESS_POLL_S = 0.05


def _await_payload(conn, proc) -> Optional[dict]:
    """The child's one message, or None when it died without sending it.

    EOF on the pipe is not a death notice: pool workers the child forked
    inherit the pipe's write end (and the process sentinel's), so EOF
    waits for every one of them to exit too.  Poll the pipe and
    ``proc.is_alive()`` instead, and once the child is gone read any
    message it sent before it died.
    """
    while not conn.poll(_LIVENESS_POLL_S):
        if not proc.is_alive():
            if not conn.poll():
                return None         # died without a word (SIGKILL)
            break
    try:
        return conn.recv()
    except EOFError:                # every write end closed, no message
        return None


def run_supervised(llm, bench, *, workdir: Union[str, Path],
                   kill_at: Optional[int] = None,
                   plan: Optional[FaultPlan] = None,
                   max_restarts: int = 25,
                   **run_kwargs) -> SupervisedResult:
    """Run ``run_scheduled(llm, bench, **run_kwargs)`` under supervision.

    ``run_kwargs`` are ``run_scheduled``'s, except that ``runner`` and
    ``jobs`` (default 1) describe the worker pool each child builds for
    itself after it forks; a pool the caller holds is never used there.
    ``kill_at`` arms a one-shot whole-process SIGKILL at that event
    boundary of the *first* incarnation; every later incarnation runs
    unarmed and resumes from the shared journal.  ``plan`` composes
    additional fault rules into every incarnation.  Raises when a child
    fails for any reason other than the armed kill, or when
    ``max_restarts`` incarnations still have not completed.
    """
    if "fork" not in mp.get_all_start_methods():  # pragma: no cover
        raise RuntimeError("run_supervised requires the fork start method")
    ctx = mp.get_context("fork")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    journal_path = str(workdir / "supervised.journal.jsonl")
    restarts = 0
    while True:
        armed = kill_at if restarts == 0 else None
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_child_main,
            args=(child_conn, armed, plan, journal_path,
                  dict(run_kwargs, llm=llm, bench=bench)))
        proc.start()
        child_conn.close()
        try:
            payload = _await_payload(parent_conn, proc)
        finally:
            parent_conn.close()
        proc.join()
        if payload is not None:
            if payload.get("ok"):
                return SupervisedResult(
                    digest=payload["digest"], json=payload["json"],
                    events=int(payload["events"]), restarts=restarts)
            raise RuntimeError(
                f"supervised child failed: {payload.get('error')}")
        if armed is None:
            raise RuntimeError(
                "supervised child died without being armed "
                f"(exitcode {proc.exitcode})")
        restarts += 1
        if restarts > max_restarts:
            raise RuntimeError(
                f"supervised run did not converge in {max_restarts} "
                "restarts")


def crash_resume_sweep(llm, bench, *, workdir: Union[str, Path],
                       kill_points: Optional[List[int]] = None,
                       progress=None, **run_kwargs) -> Dict[str, object]:
    """SIGKILL a scheduled run at event boundaries; verify every resumed
    digest matches an unkilled reference.

    ``kill_points=None`` sweeps *every* boundary of the reference run
    (the full-process extension of the kill-at-every-journal-index
    invariant); a list restricts the sweep for cheaper smoke checks.
    Returns a report dict with ``mismatches`` empty on success.
    """
    workdir = Path(workdir)
    reference = run_supervised(llm, bench, workdir=workdir / "reference",
                               **run_kwargs)
    points = (list(kill_points) if kill_points is not None
              else list(range(reference.events)))
    mismatches: List[int] = []
    restarts = 0
    for index, kill_at in enumerate(points):
        if progress is not None:
            progress(f"  kill boundary {index + 1}/{len(points)} "
                     f"(event {kill_at})")
        result = run_supervised(
            llm, bench, workdir=workdir / f"kill_at_{kill_at}",
            kill_at=kill_at, **run_kwargs)
        restarts += result.restarts
        if result.digest != reference.digest \
                or result.json != reference.json:
            mismatches.append(kill_at)
    return {"reference_digest": reference.digest,
            "reference_events": reference.events,
            "checked": len(points), "restarts": restarts,
            "mismatches": mismatches}


__all__ = ["SupervisedResult", "crash_resume_sweep", "run_supervised"]
