"""Poison-task quarantine inside the worker pool, driven by synthetic
tasks."""

import os

from repro.guard import POISON_THRESHOLD
from repro.sched import SOURCE_QUARANTINED, Telemetry, WorkerPool
from repro.sched.events import TaskFinished


def _init(tag):
    return tag


def _work(ctx, payload):
    action = payload["action"]
    if action == "ok":
        return {"v": payload["v"] * 2}
    if action == "crash":
        os._exit(13)
    raise ValueError(f"unknown action {action}")


def _ok_tasks(n):
    return [(f"ok{i}", {"kind": "sample", "action": "ok", "v": i})
            for i in range(n)]


def _quarantine(kind, detail):
    return {"status": "quarantined", "detail": f"guard: {detail}"}


class TestQuarantine:
    def test_poison_task_is_quarantined_not_failed(self):
        tel = Telemetry()
        tel.keep_events = True
        tasks = _ok_tasks(4) + [("doom", {"kind": "sample",
                                          "action": "crash"})]
        with WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                        init_args=("t",), max_retries=5,
                        quarantine=_quarantine) as pool:
            results, failures = pool.run(tasks, emit=tel)
        assert failures == {}
        assert results["doom"]["status"] == "quarantined"
        assert "poison task" in results["doom"]["detail"]
        assert "2 distinct workers" in results["doom"]["detail"]
        assert tel.quarantined == 1
        finished = [e for e in tel.events if isinstance(e, TaskFinished)
                    and e.task_id == "doom"]
        assert [e.source for e in finished] == [SOURCE_QUARANTINED]

    def test_quarantine_spends_exactly_threshold_workers(self):
        """The ledger pulls the task after ``POISON_THRESHOLD`` distinct
        worker deaths — the retry budget never burns further workers."""
        tel = Telemetry()
        with WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                        init_args=("t",), max_retries=10,
                        quarantine=_quarantine) as pool:
            results, _ = pool.run([("doom", {"kind": "sample",
                                             "action": "crash"})],
                                  emit=tel)
        assert results["doom"]["status"] == "quarantined"
        assert tel.crashes == POISON_THRESHOLD == 2

    def test_no_factory_fails_fast_with_poison_detail(self):
        """Without a payload factory the task still short-circuits into
        the failure lane, carrying the poison fingerprint."""
        with WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                        init_args=("t",), max_retries=10) as pool:
            results, failures = pool.run([("doom", {"kind": "sample",
                                                    "action": "crash"})])
        assert results == {}
        assert "poison task" in failures["doom"]
