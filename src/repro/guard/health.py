"""Task-health classification: transient faults vs poison tasks.

The pool's retry budget treats every failure the same way; the ledger
does not.  A worker that dies *while running a task* leaves a death
fingerprint on that task, and a task whose fingerprints span
``POISON_THRESHOLD`` distinct workers is reclassified from "unlucky"
to "poison": the task itself (an infinite loop, an OOM, a segfaulting
interpreter path) is what kills workers, and retrying it anywhere only
burns more of them.  Poison tasks move to the ``quarantined`` status
lane — journaled and resumed (unlike ``system_error``, which is
resampled), reported as their own status, and excluded from every
metric denominator (see ``repro.metrics.passk.INFRA_STATUSES`` and
``repro.analysis.aggregate.PERF_EXCLUDED_STATUSES``).

The quarantine detail is built from content-deterministic facts only
(death count and kinds, never worker ids), so two runs under the same
fault schedule journal byte-identical quarantine payloads — the
property the ``guard-resilience`` chaos invariant asserts.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

#: verdicts from :meth:`HealthLedger.record_death`
VERDICT_TRANSIENT = "transient"
VERDICT_POISON = "poison"
#: distinct workers a task must kill to be classified poison
POISON_THRESHOLD = 2


class HealthLedger:
    """Per-task record of worker deaths and the quarantine register."""

    def __init__(self, poison_threshold: int = POISON_THRESHOLD):
        self.poison_threshold = max(1, poison_threshold)
        #: task id -> [(worker, kind, detail), ...]
        self._deaths: Dict[str, List[Tuple[int, str, str]]] = {}
        #: task id -> quarantine detail
        self.quarantined: Dict[str, str] = {}

    # -- recording ----------------------------------------------------------

    def record_death(self, task_id: str, worker: int, kind: str,
                     detail: str) -> str:
        """Record one worker death attributed to ``task_id``; returns
        ``VERDICT_POISON`` once the task has killed ``poison_threshold``
        distinct workers, ``VERDICT_TRANSIENT`` before that."""
        self._deaths.setdefault(task_id, []).append((worker, kind, detail))
        if len(self.distinct_workers(task_id)) >= self.poison_threshold:
            return VERDICT_POISON
        return VERDICT_TRANSIENT

    def quarantine(self, task_id: str, detail: str) -> None:
        self.quarantined[task_id] = detail

    # -- reading ------------------------------------------------------------

    def distinct_workers(self, task_id: str) -> Set[int]:
        return {w for (w, _kind, _detail) in self._deaths.get(task_id, ())}

    def fingerprint(self, task_id: str) -> str:
        """Content-deterministic description of why a task is poison.

        Deliberately excludes worker ids and timings: two runs under the
        same fault schedule may dispatch the task to differently-numbered
        workers, and the fingerprint flows into the journaled quarantine
        payload, which must be byte-identical across such runs."""
        records = self._deaths.get(task_id, ())
        kinds = ",".join(sorted({kind for (_w, kind, _d) in records}))
        return (f"poison task: killed {len(self.distinct_workers(task_id))} "
                f"distinct workers ({kinds or 'crash'})")


__all__ = ["HealthLedger", "POISON_THRESHOLD",
           "VERDICT_POISON", "VERDICT_TRANSIENT"]
