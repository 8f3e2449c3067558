"""Service observability: counters, latency histograms, pool accounting.

One :class:`ServiceMetrics` instance aggregates everything the
``/metrics`` endpoint exposes — admission counters, queue depth, wait/run
latency histograms, batching effectiveness (tasks planned vs unique vs
executed), the pool tallies of the service's one scheduler
:class:`~repro.sched.events.Telemetry`, and the cost-category totals of
profiled requests (:func:`repro.prof.run_cost_totals`).

Everything is guarded by one lock: batches report from the executor
thread while the HTTP handlers read from the event loop.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from ..sched.events import WORKER_COUNTERS, Telemetry

#: histogram bucket upper bounds, seconds (log-ish spacing; the last
#: bucket is open-ended)
LATENCY_BUCKETS = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0,
                   30.0, 60.0)


class Histogram:
    """Fixed-bucket latency histogram (callers hold the metrics lock)."""

    def __init__(self, bounds=LATENCY_BUCKETS):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.n = 0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.n += 1
        self.total += value
        self.max = max(self.max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def to_dict(self) -> Dict[str, object]:
        buckets = {f"le_{b:g}": c for b, c in zip(self.bounds, self.counts)}
        buckets["inf"] = self.counts[-1]
        return {
            "count": self.n,
            "sum_seconds": self.total,
            "max_seconds": self.max,
            "mean_seconds": (self.total / self.n) if self.n else 0.0,
            "buckets": buckets,
        }


class ServiceMetrics:
    """Thread-safe aggregate of everything ``/metrics`` reports."""

    def __init__(self, workers: int, retry_after_cap: float = 60.0):
        self._lock = threading.Lock()
        #: worker processes in the service's pool; the Retry-After
        #: estimate spreads queued work over them
        self.workers = workers
        #: ceiling on the Retry-After estimate, seconds — a pathological
        #: EMA after one stalled batch must not tell clients to go away
        #: for hours
        self.retry_after_cap = max(1.0, float(retry_after_cap))
        # admission / lifecycle counters
        self.accepted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.expired = 0
        # batching effectiveness
        self.batches = 0
        self.batched_requests = 0
        self.tasks_planned = 0      # naive sum over per-request plans
        self.tasks_unique = 0       # after cross-request content dedup
        #: pool-loop deaths a batch recovered from by re-running its
        #: unsettled tasks on fresh workers
        self.batch_restarts = 0
        #: the one pool tally: every batch's scheduler events, folded per
        #: event (:meth:`observe`) — task provenance, worker counters,
        #: cost-prediction health, busy time and crashes
        self.telemetry = Telemetry()
        # latency
        self.wait_seconds = Histogram()
        self.run_seconds = Histogram()
        #: exponential moving average of per-batch wall seconds — feeds
        #: the Retry-After estimate on overload rejections
        self.ema_batch_seconds = 0.0
        # cost-category totals of profiled completed requests
        self.profile_totals: Dict[str, float] = {}

    # -- recording ----------------------------------------------------------

    def record_admission(self, accepted: bool) -> None:
        with self._lock:
            if accepted:
                self.accepted += 1
            else:
                self.rejected += 1

    def record_terminal(self, status: str, wait_s: Optional[float] = None,
                        run_s: Optional[float] = None) -> None:
        with self._lock:
            if status == "done":
                self.completed += 1
            elif status == "expired":
                self.expired += 1
            else:
                self.failed += 1
            if wait_s is not None:
                self.wait_seconds.observe(wait_s)
            if run_s is not None:
                self.run_seconds.observe(run_s)

    def seed_ema(self, batch_seconds: float) -> None:
        """Warm-start the Retry-After EMA from ledger history, so the
        very first overload rejection after a restart quotes a real
        back-off instead of the 1-second floor.  A no-op once any batch
        has been recorded."""
        with self._lock:
            if self.ema_batch_seconds == 0.0 and batch_seconds > 0.0:
                self.ema_batch_seconds = batch_seconds

    def record_batch(self, requests: int, planned: int, unique: int,
                     wall_seconds: float) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += requests
            self.tasks_planned += planned
            self.tasks_unique += unique
            alpha = 0.3
            if self.ema_batch_seconds == 0.0:
                self.ema_batch_seconds = wall_seconds
            else:
                self.ema_batch_seconds = (alpha * wall_seconds
                                          + (1 - alpha) * self.ema_batch_seconds)

    def observe(self, event: object) -> None:
        """Event sink: fold one scheduler event into the pool tally."""
        with self._lock:
            self.telemetry(event)

    def record_restart(self) -> None:
        with self._lock:
            self.batch_restarts += 1

    def record_profile(self, totals: Dict[str, float]) -> None:
        with self._lock:
            for cat, v in totals.items():
                self.profile_totals[cat] = self.profile_totals.get(cat, 0.0) + v

    # -- reading ------------------------------------------------------------

    def retry_after(self, inflight: int) -> int:
        """Integer seconds a rejected client should back off — queue depth
        times the smoothed batch cost over ``workers``, never less than one
        second and never more than ``retry_after_cap``."""
        with self._lock:
            per_batch = self.ema_batch_seconds or 1.0
            cap = self.retry_after_cap
        estimate = max(1.0, inflight * per_batch / self.workers)
        return min(int(cap + 0.999), int(estimate + 0.999))

    def snapshot(self, queue_depth: int = 0, running: int = 0,
                 state: str = "") -> Dict[str, object]:
        """One JSON-able dict: the body of ``GET /metrics``."""
        with self._lock:
            t = self.telemetry
            return {
                "state": state,
                "queue_depth": queue_depth,
                "running": running,
                "accepted": self.accepted,
                "rejected": self.rejected,
                "completed": self.completed,
                "failed": self.failed,
                "expired": self.expired,
                "batches": self.batches,
                "batched_requests": self.batched_requests,
                "tasks_planned": self.tasks_planned,
                "tasks_unique": self.tasks_unique,
                "tasks_deduped": self.tasks_planned - self.tasks_unique,
                "tasks_executed": t.executed,
                "tasks_from_cache": t.from_cache,
                # always 0 (a service batch replays no journal): kept
                # only because the pipeline benchmark reads it
                "tasks_from_journal": t.from_journal,
                "tasks_failed": t.failed,
                "tasks_quarantined": t.quarantined,
                "batch_restarts": self.batch_restarts,
                # always 0: kept only because the pipeline benchmark reads it
                "hedges": 0,
                "ledger_predictions": t.ledger_predictions,
                "estimator_predictions": t.estimator_predictions,
                "ledger_hit_rate": t.ledger_hit_rate(),
                "pred_mae_seconds": t.pred_mae_seconds(),
                "stage_seconds": dict(t.stage_seconds),
                **{name: t.counters.get(name, 0)
                   for name in WORKER_COUNTERS},
                "ema_batch_seconds": self.ema_batch_seconds,
                "wait_seconds": self.wait_seconds.to_dict(),
                "run_seconds": self.run_seconds.to_dict(),
                # one entry, the pool: kept only because the pipeline
                # benchmark reads it
                "shards": {"0": {
                    "busy_seconds": t.busy_seconds,
                    "tasks": t.total,
                    "crashes": t.crashes,
                }},
                "profile_totals": dict(self.profile_totals),
            }


__all__ = ["Histogram", "LATENCY_BUCKETS", "ServiceMetrics"]
