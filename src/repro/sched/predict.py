"""Cost prediction for dispatch: the duration ledger and the estimator.

The evaluation workload is embarrassingly parallel but badly *skewed*:
a timed sample sweeps every problem size (and every thread/rank count),
while a sample that fails the static screen costs microseconds.  A FIFO
dispatcher therefore routinely strands a worker behind one long task
after every short task has drained — the classic longest-task-last
makespan pathology.  This module supplies the two ingredients the
scheduler and the service use to do better:

* :class:`DurationLedger` — a durable, append-only JSONL record of
  observed per-task wall times, keyed not by task id (content hashes
  almost never repeat across configurations) but by a coarse *feature
  key* ``(kind, problem, execution model, timed/profiled)``.  Tasks
  sharing a key have near-identical cost structure — same sweep sizes,
  same simulated runtime — so the ledger's per-key EMA is a good
  predictor from the second run onwards.  The file lives next to the
  sample cache, is merged on load (any process may append; torn tails
  and malformed lines are skipped, exactly like the journal's
  committed-iff-newline rule), and is compacted into per-key summary
  records when it grows.

* :class:`CostEstimator` — a static fallback for cold keys, scoring
  *relative* cost from features alone: source length, loop count, the
  timing-sweep size implied by the execution model, and a cheap textual
  vectorizability screen (bodies the tier-2 recognizer can lower run
  much faster).  Its unit is arbitrary — estimates only ever *rank*
  tasks, they are never mixed into seconds-denominated telemetry.

Neither prediction can perturb results: dispatch order is throughput
policy, and :func:`repro.sched.plan.assemble` rebuilds every
``EvalRun`` in plan order regardless of execution order.  That is the
whole byte-identity argument, and ``tests/sched/test_dispatch.py``
pins it for every problem under all seven execution models.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..harness.evaluate import ConfigurationError
from ..harness.runner import Runner
from .events import SOURCE_EXECUTED, EmitFn, TaskFinished
from .plan import KIND_BASELINE, KIND_SAMPLE, Plan

#: dispatch policies for the pool's ready queue
DISPATCH_LPT = "lpt"            # longest-predicted-first (default)
DISPATCH_FIFO = "fifo"          # plan first-use order (the pre-ledger order)
DISPATCH_POLICIES = (DISPATCH_LPT, DISPATCH_FIFO)

#: prediction provenance markers carried on TaskFinished events
PRED_LEDGER = "ledger"          # seconds, from observed history
PRED_ESTIMATOR = "estimator"    # arbitrary units, from static features

#: buffered observations before an automatic flush
_FLUSH_EVERY = 64
#: observation lines on disk that trigger compaction on close
_COMPACT_AT = 8192
#: recent observations kept per key (carried through compaction and
#: replayed when a summary merges into a ledger that has history)
_RECENT_CAP = 64


def feature_key(kind: str, problem: str, exec_model: str = "",
                with_timing: bool = False, profile: bool = False) -> str:
    """Coarse cost-class key shared by tasks with the same cost shape.

    Deliberately excludes the source text and the runner fingerprint:
    two samples for the same problem under the same execution model and
    mode cost nearly the same regardless of their exact bytes, and a key
    that almost never repeats would never accumulate history.
    """
    mode = ("timed" if with_timing else "plain") + ("-prof" if profile else "")
    return f"{kind}|{problem}|{exec_model}|{mode}"


class _KeyStats:
    """In-memory summary of one feature key's observations."""

    __slots__ = ("count", "ema", "recent")

    def __init__(self) -> None:
        self.count = 0
        self.ema = 0.0
        self.recent: Deque[float] = deque(maxlen=_RECENT_CAP)


class DurationLedger:
    """Durable per-key wall-time history with EMA summaries.

    One JSONL observation per line (``{"k": key, "d": seconds}``), plus
    optional ``{"kind": "summary", ...}`` records written by compaction.
    Appends are buffered and written as whole lines in a single
    ``write`` call, so concurrent appenders (service batches, parallel
    runs sharing a cache directory) interleave at line granularity and
    a torn tail from a killed process is skipped on the next load —
    losing buffered observations only costs prediction accuracy, never
    correctness.  All methods are thread-safe.
    """

    def __init__(self, path: Path | str, alpha: float = 0.3):
        self.path = Path(path)
        self.alpha = alpha
        self._lock = threading.Lock()
        self._stats: Dict[str, _KeyStats] = {}
        self._buffer: List[str] = []
        self._fh = None
        self._disk_lines = 0
        self._load()

    # -- loading / merging ---------------------------------------------------

    def _load(self) -> None:
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return
        committed, newline, _torn = text.rpartition("\n")
        if not newline:
            return
        for line in committed.split("\n"):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue                # torn or corrupt line: skip
            if not isinstance(record, dict):
                continue
            self._disk_lines += 1
            key = record.get("k")
            if not isinstance(key, str):
                continue
            if record.get("kind") == "summary":
                self._absorb_summary(key, record)
                continue
            dur = record.get("d")
            if isinstance(dur, (int, float)) and dur >= 0:
                self._absorb(key, float(dur))

    def _absorb(self, key: str, duration: float) -> None:
        st = self._stats.setdefault(key, _KeyStats())
        st.count += 1
        st.ema = (duration if st.count == 1
                  else self.alpha * duration + (1 - self.alpha) * st.ema)
        st.recent.append(duration)

    def _absorb_summary(self, key: str, record: dict) -> None:
        st = self._stats.setdefault(key, _KeyStats())
        try:
            count = int(record.get("count", 0))
            ema = float(record.get("ema", 0.0))
            recent = [float(v) for v in record.get("recent", ())]
        except (TypeError, ValueError):
            return
        if st.count == 0:
            st.count, st.ema = count, ema
            st.recent.extend(recent)
        else:                           # merged file: replay as observations
            st.count += count
            for v in recent:
                st.ema = self.alpha * v + (1 - self.alpha) * st.ema
                st.recent.append(v)

    # -- recording -----------------------------------------------------------

    def observe(self, key: str, duration: float) -> None:
        """Record one observed wall time (seconds) for ``key``."""
        if duration < 0:
            return
        with self._lock:
            self._absorb(key, float(duration))
            self._buffer.append(json.dumps(
                {"k": key, "d": round(float(duration), 6)}) + "\n")
            if len(self._buffer) >= _FLUSH_EVERY:
                self._flush_locked()

    def flush(self) -> None:
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if not self._buffer:
            return
        if self._fh is None:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("a", encoding="utf-8")
            except OSError:             # read-only cache dir: predictions
                self._buffer.clear()    # still work, history just not saved
                return
        try:
            self._fh.write("".join(self._buffer))
            self._fh.flush()
        except OSError:
            pass
        self._disk_lines += len(self._buffer)
        self._buffer.clear()

    def close(self) -> None:
        with self._lock:
            self._flush_locked()
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            if self._disk_lines > _COMPACT_AT:
                self._compact_locked()

    def _compact_locked(self) -> None:
        """Rewrite the file as one summary line per key (atomic)."""
        tmp = self.path.with_suffix(".tmp")
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                for key in sorted(self._stats):
                    st = self._stats[key]
                    fh.write(json.dumps({
                        "kind": "summary", "k": key, "count": st.count,
                        "ema": round(st.ema, 6),
                        "recent": [round(v, 6) for v in st.recent],
                    }) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            self._disk_lines = len(self._stats)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

    # -- prediction ----------------------------------------------------------

    def predict(self, key: str) -> Optional[float]:
        """EMA wall seconds for ``key``, or None while the key is cold."""
        with self._lock:
            st = self._stats.get(key)
            return st.ema if st is not None and st.count > 0 else None

    def __enter__(self) -> "DurationLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: textual markers of bodies the tier-2 recognizer will not lower; their
#: presence predicts scalar-tier (slower) execution.  A heuristic over
#: source text — rank-only, it never has to be exactly right.
_VEC_BLOCKERS = ("/", "%", "while", "if ", "sqrt", "exp(", "log(", "pow(")


class CostEstimator:
    """Static relative-cost model for keys with no ledger history.

    The output unit is arbitrary ("cost units", roughly milliseconds of
    a plain untimed sample): estimates are only ever compared with each
    other to *order* a ready queue, so only the ranking matters.
    Estimator values are flagged ``estimator`` on events and excluded
    from the seconds-denominated prediction-error telemetry.
    """

    def __init__(self, runner: Optional[Runner] = None):
        self.runner = runner or Runner()

    def sweep_points(self, exec_model: str) -> int:
        """Timing configurations the runner sweeps for one sample."""
        if exec_model in ("openmp", "kokkos"):
            return len(self.runner.thread_counts)
        if exec_model == "mpi":
            return len(self.runner.mpi_rank_counts)
        return 1                        # serial / mpi+omp / cuda / hip

    def estimate_sample(self, source: str, exec_model: str,
                        with_timing: bool, profile: bool = False) -> float:
        cost = 1.0 + len(source) / 2000.0
        cost += 0.2 * (source.count("for ") + source.count("pfor "))
        if with_timing:
            # a timed sample reruns the program across the n-sweep and
            # every thread/rank configuration — the dominant cost axis
            cost *= 4.0 * self.sweep_points(exec_model)
        if profile:
            cost *= 1.15
        if self.runner.vectorize and not any(
                marker in source for marker in _VEC_BLOCKERS):
            cost *= 0.5                 # likely lowered to the numpy tier
        return cost

    def estimate_baseline(self) -> float:
        """Baselines run the handwritten serial solution over the full
        n-sweep — reliably one of the longest tasks in a timed run."""
        return 8.0


def predict_plan(plan: Plan, runner: Optional[Runner] = None,
                 ledger: Optional[DurationLedger] = None
                 ) -> Dict[str, Tuple[float, str]]:
    """Per-task cost predictions: task id → ``(value, provenance)``.

    Ledger history wins (seconds, ``"ledger"``); cold keys fall back to
    the static estimator (arbitrary units, ``"estimator"``).  Mixing the
    two units inside one ordering is deliberate: both rank long before
    short, and LPT only consumes the ranking.
    """
    est = CostEstimator(runner)
    out: Dict[str, Tuple[float, str]] = {}
    for tid, key in plan_keys(plan).items():
        hist = ledger.predict(key) if ledger is not None else None
        if hist is not None:
            out[tid] = (hist, PRED_LEDGER)
            continue
        spec = plan.tasks[tid]
        if spec.kind == KIND_BASELINE:
            out[tid] = (est.estimate_baseline(), PRED_ESTIMATOR)
        else:
            exec_model = key.split("|")[2]
            out[tid] = (est.estimate_sample(
                spec.source, exec_model, spec.with_timing, spec.profile),
                PRED_ESTIMATOR)
    return out


def plan_keys(plan: Plan) -> Dict[str, str]:
    """Feature key for every task in the plan (task id → key)."""
    keys: Dict[str, str] = {}
    for pp in plan.prompts:
        if pp.baseline_task is not None:
            keys.setdefault(pp.baseline_task, feature_key(
                KIND_BASELINE, pp.problem, "", with_timing=True))
        for slot in pp.slots:
            spec = plan.tasks[slot.task_id]
            keys.setdefault(slot.task_id, feature_key(
                KIND_SAMPLE, pp.problem, pp.exec_model,
                spec.with_timing, spec.profile))
    return keys


def ledger_feedback(ledger: DurationLedger,
                    task_keys: Dict[str, str]) -> EmitFn:
    """Event sink that records each executed task's wall time in
    ``ledger`` under its feature key (``task_keys``: task id → key)."""
    def observe(event: object) -> None:
        if (isinstance(event, TaskFinished)
                and event.source == SOURCE_EXECUTED
                and event.task_id in task_keys):
            ledger.observe(task_keys[event.task_id], event.duration)

    return observe


def order_tasks(task_ids: Sequence[str], policy: str,
                predictions: Optional[Dict[str, Tuple[float, str]]] = None
                ) -> List[str]:
    """Order the ready queue under a dispatch policy — deterministically.

    ``lpt`` sorts longest-predicted-first with the plan index as the
    stable tie-break; ``fifo`` keeps first-use plan order.
    """
    if policy not in DISPATCH_POLICIES:
        raise ConfigurationError(
            f"unknown dispatch policy {policy!r}; "
            f"choose from {list(DISPATCH_POLICIES)}")
    ids = list(task_ids)
    if policy == DISPATCH_FIFO or len(ids) <= 1:
        return ids
    index = {tid: i for i, tid in enumerate(ids)}
    preds = predictions or {}

    def lpt_key(tid: str) -> Tuple[float, int]:
        value = preds.get(tid, (0.0, ""))[0]
        return (-value, index[tid])

    return sorted(ids, key=lpt_key)


def ledger_path_for(cache_root: Path | str) -> Path:
    """Canonical ledger location next to a sample-cache directory.

    Cache shards are two-hex-digit subdirectories, so a fixed filename
    at the root can never collide with an entry."""
    return Path(cache_root) / "durations.jsonl"


__all__ = [
    "CostEstimator", "DISPATCH_FIFO", "DISPATCH_LPT", "DISPATCH_POLICIES",
    "DurationLedger", "PRED_ESTIMATOR", "PRED_LEDGER",
    "feature_key", "ledger_feedback", "ledger_path_for", "order_tasks",
    "plan_keys",
    "predict_plan",
]
