"""Structured scheduler telemetry (progress, worker health, stage times).

Every observable state change in a scheduled evaluation is emitted as a
small frozen dataclass through a single callback (``EmitFn``).  Consumers
range from the CLI progress printer to the throughput benchmarks to the
resumability tests, which count how many tasks were *executed* vs served
from the journal or the content-addressed sample cache.

An emit callback may raise :class:`SchedulerAbort` to stop a run
gracefully: the pool drains its workers and the exception propagates to
the caller with the journal already containing every finished task — the
hook the interrupt/resume tests (and a Ctrl-C handler) build on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: where a task's result came from
SOURCE_EXECUTED = "executed"    # computed by a worker this run
SOURCE_JOURNAL = "journal"      # replayed from the resume journal
SOURCE_CACHE = "cache"          # content-addressed sample cache hit
SOURCE_FAILED = "failed"        # retry budget exhausted; placeholder result
SOURCE_QUARANTINED = "quarantined"  # poison task pulled by the HealthLedger


class SchedulerAbort(Exception):
    """Raised by an event sink to stop a scheduled run gracefully."""


@dataclass(frozen=True)
class TaskStarted:
    task_id: str
    kind: str                   # "sample" | "baseline"
    worker: int


@dataclass(frozen=True)
class TaskFinished:
    task_id: str
    kind: str
    source: str                 # one of the SOURCE_* constants
    status: str = ""            # harness status for sample tasks
    worker: int = -1
    duration: float = 0.0       # wall seconds inside the worker loop
    attempts: int = 1
    diagnostics: int = 0        # MiniParSan findings on the result
    #: observability riders from the worker payload, keyed by the names
    #: in :data:`WORKER_COUNTERS`.  Only executed tasks carry them —
    #: replays describe work already counted.
    counters: Dict[str, int] = field(default_factory=dict)
    #: cost prediction the dispatcher held for this task (0.0 when no
    #: prediction existed) and its provenance: "ledger" (seconds, from
    #: observed history) or "estimator" (arbitrary units, static
    #: features).  Only executed tasks carry one — replays were never
    #: dispatched.  See :mod:`repro.sched.predict`.
    predicted: float = 0.0
    predicted_source: str = ""


@dataclass(frozen=True)
class WorkerCrashed:
    worker: int
    task_id: Optional[str]
    detail: str
    #: "crash" (died on its own) or "timeout" (killed by the parent's
    #: wall-clock deadline — an infrastructure fault, distinct from a
    #: sample exhausting its fuel budget inside the worker)
    kind: str = "crash"


@dataclass(frozen=True)
class WorkerReplaced:
    old_worker: int
    new_worker: int


@dataclass(frozen=True)
class ProgressSnapshot:
    done: int
    total: int
    busy_workers: int
    workers: int


@dataclass(frozen=True)
class StageFinished:
    stage: str                  # "plan" | "execute" | "assemble"
    seconds: float


@dataclass(frozen=True)
class RunFinished:
    total_tasks: int
    executed: int
    from_journal: int
    from_cache: int
    failed: int
    wall_seconds: float
    quarantined: int = 0


#: every counter a worker result payload may carry.  Payload section
#: ``body[section][key]`` reports as ``f"{section}_{key}"``: the
#: vectorized-tier counters (``repro.runtime.vectorize.VecStats``) and the
#: task's compile-cache delta.  Adding a worker counter means adding its
#: producer in ``repro.sched.worker`` and its name here; ``Telemetry`` and
#: the service's ``/metrics`` pick it up from this tuple.
WORKER_COUNTERS = ("vec_bulk_loops", "vec_bulk_iters", "vec_fallbacks",
                   "compile_cache_hits", "compile_cache_misses")


def payload_counters(body: object) -> Dict[str, int]:
    """Extract the declared integer counters from a worker result
    payload; undeclared and non-integer entries are dropped."""
    out: Dict[str, int] = {}
    if not isinstance(body, dict):
        return out
    for section, entries in body.items():
        if not isinstance(entries, dict):
            continue
        for key, value in entries.items():
            name = f"{section}_{key}"
            if (name in WORKER_COUNTERS and isinstance(value, int)
                    and not isinstance(value, bool)):
                out[name] = value
    return out


EmitFn = Callable[[object], None]


def chain(*sinks: Optional[EmitFn]) -> EmitFn:
    """Compose event sinks; ``None`` entries are skipped."""
    live = [s for s in sinks if s is not None]

    def emit(event: object) -> None:
        for sink in live:
            sink(event)

    return emit


@dataclass
class Telemetry:
    """Aggregating event sink: counters the tests and benchmarks assert on."""

    counts: Dict[str, int] = field(default_factory=dict)
    statuses: Dict[str, int] = field(default_factory=dict)
    diagnostics: int = 0
    provenance: Dict[str, str] = field(default_factory=dict)
    #: wall seconds per stage, summed over its ``StageFinished`` events:
    #: one each for a ``run_scheduled`` run, one ``plan`` per service batch
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    busy_seconds: float = 0.0
    crashes: int = 0
    #: subset of ``crashes`` that were wall-clock deadline kills — the
    #: infrastructure timeouts, reported apart from sample ``timeout``
    #: statuses (which mean the sample itself hung)
    infra_timeouts: int = 0
    retries: int = 0
    workers: int = 0
    wall_seconds: float = 0.0
    #: always 0: kept only because the pipeline benchmark reads it
    hedges: int = 0
    #: worker counters (:data:`WORKER_COUNTERS`) summed over executed
    #: tasks; a name no task reported is absent
    counters: Dict[str, int] = field(default_factory=dict)
    #: cost-prediction provenance over executed tasks (repro.sched.predict):
    #: how many dispatches carried a ledger-history prediction vs the
    #: static-estimator fallback — the ledger *hit rate* numerator and
    #: denominator
    ledger_predictions: int = 0
    estimator_predictions: int = 0
    #: predicted-vs-actual error, accumulated only over ledger-sourced
    #: predictions (both sides in seconds; estimator units are rank-only
    #: and would pollute a seconds-denominated error)
    pred_samples: int = 0
    pred_abs_err_seconds: float = 0.0
    events: List[object] = field(default_factory=list)
    keep_events: bool = False

    def __call__(self, event: object) -> None:
        if self.keep_events:
            self.events.append(event)
        if isinstance(event, TaskFinished):
            self.counts[event.source] = self.counts.get(event.source, 0) + 1
            self.provenance[event.task_id] = event.source
            if event.status:
                self.statuses[event.status] = \
                    self.statuses.get(event.status, 0) + 1
            self.busy_seconds += event.duration
            self.retries += max(0, event.attempts - 1)
            self.diagnostics += event.diagnostics
            for name, n in event.counters.items():
                self.counters[name] = self.counters.get(name, 0) + n
            if event.source == SOURCE_EXECUTED:
                if event.predicted_source == "ledger":
                    self.ledger_predictions += 1
                    self.pred_samples += 1
                    self.pred_abs_err_seconds += abs(
                        event.duration - event.predicted)
                elif event.predicted_source == "estimator":
                    self.estimator_predictions += 1
        elif isinstance(event, WorkerCrashed):
            self.crashes += 1
            if event.kind == "timeout":
                self.infra_timeouts += 1
        elif isinstance(event, StageFinished):
            self.stage_seconds[event.stage] = (
                self.stage_seconds.get(event.stage, 0.0) + event.seconds)
        elif isinstance(event, ProgressSnapshot):
            self.workers = max(self.workers, event.workers)
        elif isinstance(event, RunFinished):
            self.wall_seconds = event.wall_seconds

    # -- derived views -------------------------------------------------------

    @property
    def executed(self) -> int:
        return self.counts.get(SOURCE_EXECUTED, 0)

    @property
    def from_journal(self) -> int:
        return self.counts.get(SOURCE_JOURNAL, 0)

    @property
    def from_cache(self) -> int:
        return self.counts.get(SOURCE_CACHE, 0)

    @property
    def failed(self) -> int:
        return self.counts.get(SOURCE_FAILED, 0)

    @property
    def quarantined(self) -> int:
        return self.counts.get(SOURCE_QUARANTINED, 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def compile_cache_hits(self) -> int:
        # kept only because the pipeline benchmark reads it
        return self.counters.get("compile_cache_hits", 0)

    @property
    def compile_cache_misses(self) -> int:
        # kept only because the pipeline benchmark reads it
        return self.counters.get("compile_cache_misses", 0)

    def ledger_hit_rate(self) -> float:
        """Fraction of executed-task dispatches predicted from ledger
        history (vs the static-estimator fallback)."""
        denom = self.ledger_predictions + self.estimator_predictions
        return self.ledger_predictions / denom if denom else 0.0

    def pred_mae_seconds(self) -> float:
        """Mean absolute predicted-vs-actual error over ledger-sourced
        predictions, seconds."""
        if not self.pred_samples:
            return 0.0
        return self.pred_abs_err_seconds / self.pred_samples

    def utilization(self) -> float:
        """Mean fraction of run wall-clock each worker spent on tasks."""
        if self.workers <= 0 or self.wall_seconds <= 0.0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.workers * self.wall_seconds))


class ProgressPrinter:
    """Small CLI sink: one status line every ``every`` finished tasks."""

    def __init__(self, write: Callable[[str], None], every: int = 25):
        self.write = write
        self.every = max(1, every)

    def __call__(self, event: object) -> None:
        if isinstance(event, ProgressSnapshot):
            if event.done and (event.done % self.every == 0
                               or event.done == event.total):
                self.write(
                    f"sched: {event.done}/{event.total} tasks, "
                    f"{event.busy_workers}/{event.workers} workers busy"
                )
        elif isinstance(event, WorkerCrashed):
            self.write(f"sched: worker {event.worker} crashed "
                       f"({event.detail}); requeueing")
        elif isinstance(event, RunFinished):
            quarantined = (f", {event.quarantined} quarantined"
                           if event.quarantined else "")
            self.write(
                f"sched: done — {event.executed} executed, "
                f"{event.from_journal} from journal, "
                f"{event.from_cache} from cache, {event.failed} failed"
                f"{quarantined} in {event.wall_seconds:.2f}s"
            )
