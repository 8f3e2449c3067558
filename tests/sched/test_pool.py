"""Fault-isolation tests for the worker pool, using synthetic tasks that
succeed, raise, crash the worker process, or hang."""

import multiprocessing as mp
import os
import signal
import time
from pathlib import Path

import pytest

from repro.faults import FaultPlan, FaultRule, injector
from repro.sched import SOURCE_FAILED, Telemetry, WorkerPool
from repro.sched.events import (TaskFinished, TaskStarted, WorkerCrashed,
                                 WorkerReplaced)


def _init(tag):
    return tag


def _work(ctx, payload):
    action = payload["action"]
    if action == "ok":
        return {"v": payload["v"] * 2}
    if action == "pid":
        return {"pid": os.getpid()}
    if action == "mark_then_sleep":
        Path(payload["marker"]).write_text(str(os.getpid()))
        time.sleep(payload["s"])
        return {"v": "slept"}
    if action == "raise":
        raise RuntimeError("boom")
    if action == "crash_once":
        marker = Path(payload["marker"])
        if not marker.exists():
            marker.write_text("died here")
            os._exit(13)          # simulate a segfault / OOM kill
        return {"v": "recovered"}
    if action == "raise_once":
        marker = Path(payload["marker"])
        if not marker.exists():
            marker.write_text("raised here")
            raise RuntimeError("transient boom")
        return {"v": "recovered"}
    if action == "after_marker":
        marker = Path(payload["marker"])
        deadline = time.monotonic() + 10.0
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return {"v": payload["v"] * 2}
    if action == "crash":
        os._exit(13)
    if action == "hang":
        time.sleep(120.0)
    raise ValueError(f"unknown action {action}")


def _ok_tasks(n):
    return [(f"ok{i}", {"kind": "sample", "action": "ok", "v": i})
            for i in range(n)]


class TestHappyPath:
    def test_all_tasks_complete(self):
        with WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                        init_args=("t",)) as pool:
            results, failures = pool.run(_ok_tasks(20))
        assert failures == {}
        assert results["ok7"] == {"v": 14}
        assert len(results) == 20

    def test_single_worker(self):
        with WorkerPool(jobs=1, work_fn=_work, init_fn=_init,
                        init_args=("t",)) as pool:
            results, failures = pool.run(_ok_tasks(5))
        assert len(results) == 5 and not failures

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(jobs=0, work_fn=_work)

    def test_empty_task_list(self):
        with WorkerPool(jobs=2, work_fn=_work) as pool:
            assert pool.run([]) == ({}, {})


class TestFaults:
    def test_raising_task_fails_without_killing_run(self):
        tel = Telemetry()
        tasks = _ok_tasks(6) + [("bad", {"kind": "sample",
                                         "action": "raise"})]
        with WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                        init_args=("t",), max_retries=1) as pool:
            results, failures = pool.run(tasks, emit=tel)
        assert len(results) == 6
        assert "boom" in failures["bad"]
        assert tel.provenance["bad"] == SOURCE_FAILED

    def test_worker_crash_is_requeued_and_recovers(self, tmp_path):
        tel = Telemetry()
        tel.keep_events = True
        marker = tmp_path / "crashed"
        tasks = _ok_tasks(6) + [
            ("lazarus", {"kind": "sample", "action": "crash_once",
                         "marker": str(marker)})]
        with WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                        init_args=("t",), max_retries=2) as pool:
            results, failures = pool.run(tasks, emit=tel)
        assert failures == {}
        assert results["lazarus"] == {"v": "recovered"}
        assert tel.crashes >= 1
        assert any(isinstance(e, WorkerCrashed) for e in tel.events)
        assert any(isinstance(e, WorkerReplaced) for e in tel.events)

    def test_worker_killed_while_idle_does_not_stall_the_run(self, tmp_path):
        """An idle worker killed from outside must not take the task
        queue down with it: with one task in flight, the other worker
        idles; killing it must not keep the next task from running."""
        import threading

        marker = tmp_path / "busy.pid"
        pool = WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                          init_args=("t",))
        tasks = [("long", {"kind": "sample", "action": "mark_then_sleep",
                           "marker": str(marker), "s": 1.5}),
                 ("after", {"kind": "sample", "action": "ok", "v": 5})]
        out = {}
        runner = threading.Thread(
            target=lambda: out.update(zip(("results", "failures"),
                                          pool.run(tasks))),
            daemon=True)
        runner.start()
        deadline = time.monotonic() + 10.0
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.3)                 # let the idle worker wait again
        busy = int(marker.read_text())
        idle = [p.pid for p in mp.active_children() if p.pid != busy]
        assert len(idle) == 1
        os.kill(idle[0], signal.SIGKILL)
        runner.join(timeout=20.0)
        pool.close()
        assert not runner.is_alive(), "run stalled after an idle kill"
        assert out["failures"] == {}
        assert out["results"]["after"] == {"v": 10}

    def test_worker_dead_on_the_result_channel_does_not_stall_the_run(
            self, tmp_path, monkeypatch):
        """A worker killed just after it wrote to the result channel must
        not keep any other worker from reporting.  The victim takes the
        channel's write lock, where the channel has one, and exits; every
        other task reports only after that.  The run must still finish,
        whole and on time."""
        import threading

        from repro.sched import pool as pool_mod

        real_main = pool_mod._worker_main
        marker = tmp_path / "died"

        def dying_main(wid, init_fn, init_args, work_fn, task_q, channel):
            def work(ctx, payload):
                if payload["action"] == "die_on_channel" \
                        and not marker.exists():
                    lock = getattr(channel, "_wlock", None)
                    if lock is not None:
                        lock.acquire()
                    marker.write_text("died here")
                    os._exit(13)
                if payload["action"] == "die_on_channel":
                    return {"v": "recovered"}
                return work_fn(ctx, payload)
            real_main(wid, init_fn, init_args, work, task_q, channel)

        monkeypatch.setattr(pool_mod, "_worker_main", dying_main)
        pool = WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                          init_args=("t",), task_timeout=3.0,
                          max_retries=2, max_crashes=3)
        tasks = [("victim", {"kind": "sample", "action": "die_on_channel"})]
        tasks += [(f"ok{i}", {"kind": "sample", "action": "after_marker",
                              "marker": str(marker), "v": i})
                  for i in range(6)]
        out = {}
        runner = threading.Thread(
            target=lambda: out.update(zip(("results", "failures"),
                                          pool.run(tasks))),
            daemon=True)
        runner.start()
        runner.join(timeout=30.0)
        stalled = runner.is_alive()
        deadline = time.monotonic() + 60.0
        while runner.is_alive() and time.monotonic() < deadline:
            for proc in list(pool._procs.values()):
                proc.terminate()    # spend the crash budget to end it
            runner.join(timeout=0.5)
        pool.close()
        assert not stalled, "run stalled behind a worker dead on the channel"
        assert out["failures"] == {}
        assert out["results"]["victim"] == {"v": "recovered"}
        assert out["results"]["ok5"] == {"v": 10}

    def test_worker_dead_on_the_task_channel_does_not_stall_the_run(
            self, tmp_path, monkeypatch):
        """A worker killed while it held its task channel's read lock
        must not keep any other worker from taking a task.  The victim
        takes the channel's read lock, where the channel has one, and
        exits; every other task finishes only after that.  The run must
        still finish, whole and on time."""
        import threading

        from repro.sched import pool as pool_mod

        real_main = pool_mod._worker_main
        marker = tmp_path / "died"

        def dying_main(wid, init_fn, init_args, work_fn, task_q, channel):
            def work(ctx, payload):
                if payload["action"] == "die_on_task_channel" \
                        and not marker.exists():
                    lock = getattr(task_q, "_rlock", None)
                    if lock is not None:
                        lock.acquire()
                    marker.write_text("died here")
                    os._exit(13)
                if payload["action"] == "die_on_task_channel":
                    return {"v": "recovered"}
                return work_fn(ctx, payload)
            real_main(wid, init_fn, init_args, work, task_q, channel)

        monkeypatch.setattr(pool_mod, "_worker_main", dying_main)
        pool = WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                          init_args=("t",), task_timeout=3.0,
                          max_retries=2, max_crashes=3)
        tasks = [("victim", {"kind": "sample",
                             "action": "die_on_task_channel"})]
        tasks += [(f"ok{i}", {"kind": "sample", "action": "after_marker",
                              "marker": str(marker), "v": i})
                  for i in range(6)]
        out = {}
        runner = threading.Thread(
            target=lambda: out.update(zip(("results", "failures"),
                                          pool.run(tasks))),
            daemon=True)
        runner.start()
        runner.join(timeout=30.0)
        stalled = runner.is_alive()
        deadline = time.monotonic() + 60.0
        while runner.is_alive() and time.monotonic() < deadline:
            for proc in list(pool._procs.values()):
                proc.terminate()    # spend the crash budget to end it
            runner.join(timeout=0.5)
        pool.close()
        assert not stalled, "run stalled behind a worker dead on the task " \
            "channel"
        assert out["failures"] == {}
        assert out["results"]["victim"] == {"v": "recovered"}
        assert out["results"]["ok5"] == {"v": 10}

    def test_a_hand_off_to_a_dead_worker_is_not_an_attempt(self):
        """A worker that died idle, unseen, fails the hand-off of its
        next task: that is its death, and the task goes back to the head
        of the queue without being charged an attempt."""
        tel = Telemetry()
        tel.keep_events = True
        pool = WorkerPool(jobs=1, work_fn=_work, init_fn=_init,
                          init_args=("t",), max_retries=0)
        try:
            pool.run(_pid_tasks(1, "a"))
            [victim] = pool._procs.values()
            real_start = pool.start

            def start_then_kill():
                real_start()
                victim.kill()           # after start() looked for the dead
                victim.join(timeout=10.0)
                return pool

            pool.start = start_then_kill
            results, failures = pool.run(_ok_tasks(2), emit=tel)
        finally:
            pool.close()
        assert failures == {}
        assert results == {"ok0": {"v": 0}, "ok1": {"v": 2}}
        assert tel.crashes == 1
        assert [e.task_id for e in tel.events
                if isinstance(e, WorkerCrashed)] == [None]
        assert [e.attempts for e in tel.events
                if isinstance(e, TaskFinished)] == [1, 1]

    def test_a_report_written_before_death_still_counts(self, tmp_path,
                                                         monkeypatch):
        """A worker that dies right after it reported keeps its result:
        the task is neither retried nor blamed for the death."""
        from repro.sched import pool as pool_mod

        real_main = pool_mod._worker_main

        class LastWords:
            def __init__(self, conn):
                self.conn = conn

            def send(self, message):
                self.conn.send(message)
                if message[0] == "done" and message[2] == "last":
                    os._exit(13)

        def dying_main(wid, init_fn, init_args, work_fn, task_q, conn):
            real_main(wid, init_fn, init_args, work_fn, task_q,
                      LastWords(conn))

        monkeypatch.setattr(pool_mod, "_worker_main", dying_main)
        tel = Telemetry()
        tel.keep_events = True
        # the slow task keeps the run open until the death is seen
        tasks = [("last", {"kind": "sample", "action": "ok", "v": 4}),
                 ("slow", {"kind": "sample", "action": "mark_then_sleep",
                           "marker": str(tmp_path / "slow"), "s": 1.0})]
        with WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                        init_args=("t",), max_retries=0) as pool:
            results, failures = pool.run(tasks, emit=tel)
        assert failures == {}
        assert results["last"] == {"v": 8}
        assert tel.crashes == 1
        assert [e.task_id for e in tel.events
                if isinstance(e, WorkerCrashed)] == [None]

    def test_a_torn_report_is_a_crash_not_a_stall(self, tmp_path,
                                                   monkeypatch):
        from repro.sched import pool as pool_mod

        real_main = pool_mod._worker_main
        marker = tmp_path / "torn"

        def dying_main(wid, init_fn, init_args, work_fn, task_q, conn):
            def work(ctx, payload):
                if payload["action"] == "tear" and not marker.exists():
                    marker.write_text("tore here")
                    # a length header for 256 bytes, then 7 of them
                    os.write(conn.fileno(), b"\0\0\1\0partial")
                    os._exit(13)
                if payload["action"] == "tear":
                    return {"v": "recovered"}
                return work_fn(ctx, payload)
            real_main(wid, init_fn, init_args, work, task_q, conn)

        monkeypatch.setattr(pool_mod, "_worker_main", dying_main)
        began = time.monotonic()
        with WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                        init_args=("t",), max_retries=1) as pool:
            results, failures = pool.run(
                [("torn", {"kind": "sample", "action": "tear"})]
                + _ok_tasks(4))
        assert failures == {}
        assert results["torn"] == {"v": "recovered"}
        assert time.monotonic() - began < 20.0

    def test_always_crashing_task_exhausts_budget(self):
        tasks = _ok_tasks(4) + [("doom", {"kind": "sample",
                                          "action": "crash"})]
        with WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                        init_args=("t",), max_retries=1) as pool:
            results, failures = pool.run(tasks)
        assert len(results) == 4
        assert "doom" in failures

    def test_hang_is_detected_and_contained(self):
        tasks = _ok_tasks(4) + [("stuck", {"kind": "sample",
                                           "action": "hang"})]
        began = time.monotonic()
        with WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                        init_args=("t",), task_timeout=1.0,
                        max_retries=0) as pool:
            results, failures = pool.run(tasks)
        assert len(results) == 4
        assert "timeout" in failures["stuck"]
        # the hang cost ~task_timeout, not the full 120s sleep
        assert time.monotonic() - began < 30.0

    def test_deadline_kill_is_an_infra_timeout(self):
        """A wall-clock kill is infrastructure, distinct from a sample's
        own fuel-budget timeout: the crash event carries kind='timeout',
        telemetry counts it, and the detail says so."""
        tel = Telemetry()
        tel.keep_events = True
        with WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                        init_args=("t",), task_timeout=1.0,
                        max_retries=0) as pool:
            _, failures = pool.run([("stuck", {"kind": "sample",
                                               "action": "hang"})],
                                   emit=tel)
        assert "infrastructure" in failures["stuck"]
        assert tel.infra_timeouts == 1
        kinds = [e.kind for e in tel.events if isinstance(e, WorkerCrashed)]
        assert "timeout" in kinds

    def test_exhausted_task_reports_system_error_status(self):
        tel = Telemetry()
        with WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                        init_args=("t",), max_retries=0) as pool:
            _, failures = pool.run([("bad", {"kind": "sample",
                                             "action": "raise"})],
                                   emit=tel)
        assert "bad" in failures
        # the infra lane, never a model-blaming status
        assert tel.statuses.get("system_error") == 1


class TestRetryOrdering:
    def test_retries_queue_strictly_behind_fresh_work(self, tmp_path):
        """Satellite: a retried task re-enqueues behind all still-pending
        fresh tasks, deterministically — a retry storm can never starve
        the queue tail.  With one worker and a queue bound of one, the
        completion order is fully determined: the flaky task (submitted
        first, failed once) completes *after* every fresh task."""
        order = []
        tasks = [("flaky", {"kind": "sample", "action": "raise_once",
                            "marker": str(tmp_path / "flaky.marker")}),
                 ("a", {"kind": "sample", "action": "ok", "v": 1}),
                 ("b", {"kind": "sample", "action": "ok", "v": 2})]
        with WorkerPool(jobs=1, work_fn=_work, init_fn=_init,
                        init_args=("t",), max_retries=2) as pool:
            results, failures = pool.run(
                tasks, on_result=lambda tid, res: order.append(tid))
        assert failures == {}
        assert results["flaky"] == {"v": "recovered"}
        assert order == ["a", "b", "flaky"]

    def test_ordering_is_reproducible(self, tmp_path):
        def drive(tag):
            order = []
            marker = tmp_path / f"{tag}.marker"
            tasks = [("flaky", {"kind": "sample", "action": "raise_once",
                                "marker": str(marker)})] \
                + [(f"fresh{i}", {"kind": "sample", "action": "ok",
                                  "v": i}) for i in range(4)]
            with WorkerPool(jobs=1, work_fn=_work, init_fn=_init,
                            init_args=("t",), max_retries=2) as pool:
                pool.run(tasks,
                         on_result=lambda tid, res: order.append(tid))
            return order

        assert drive("one") == drive("two") \
            == [f"fresh{i}" for i in range(4)] + ["flaky"]


class TestDispatchOrder:
    def test_fresh_tasks_start_in_the_order_given(self):
        tel = Telemetry()
        tel.keep_events = True
        tasks = _ok_tasks(12)[::-1]
        with WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                        init_args=("t",)) as pool:
            results, failures = pool.run(tasks, emit=tel)
        assert failures == {} and len(results) == 12
        assert [e.task_id for e in tel.events
                if isinstance(e, TaskStarted)] == [tid for tid, _ in tasks]


class TestInjectedSchedFaults:
    def test_injected_worker_kill_recovers_by_retry(self):
        tel = Telemetry()
        tel.keep_events = True
        plan = FaultPlan(rules=(
            FaultRule(point="sched.worker.kill", action="kill",
                      match="victim#a0"),))
        tasks = _ok_tasks(4) + [("victim", {"kind": "sample",
                                            "action": "ok", "v": 21})]
        # the workers fork inside the injector, so they see its plan
        with injector(plan), WorkerPool(jobs=2, work_fn=_work,
                                        init_fn=_init, init_args=("t",),
                                        max_retries=2) as pool:
            results, failures = pool.run(tasks, emit=tel)
        assert failures == {}
        assert results["victim"] == {"v": 42}
        assert any(isinstance(e, WorkerCrashed) for e in tel.events)

    def test_injected_result_corruption_is_retried(self):
        plan = FaultPlan(rules=(
            FaultRule(point="sched.result.corrupt", action="corrupt",
                      match="ok3"),))
        with injector(plan), WorkerPool(
                jobs=2, work_fn=_work, init_fn=_init, init_args=("t",),
                max_retries=2,
                validate=lambda p, b: "__corrupted__" not in b) as pool:
            results, failures = pool.run(_ok_tasks(6))
        assert failures == {}
        assert results["ok3"] == {"v": 6}

    def test_validation_failure_exhausts_retries(self):
        with WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                        init_args=("t",), max_retries=1,
                        validate=lambda p, b: False) as pool:
            results, failures = pool.run(_ok_tasks(2))
        assert results == {}
        assert all("validation" in d for d in failures.values())


def _pid_tasks(n, tag):
    return [(f"{tag}{i}", {"kind": "sample", "action": "pid"})
            for i in range(n)]


def _worker_pids(before):
    return {p.pid for p in mp.active_children()} - before


class TestLongLivedPool:
    def test_runs_on_a_started_pool_reuse_the_workers(self):
        before = {p.pid for p in mp.active_children()}
        pool = WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                          init_args=("t",)).start()
        try:
            workers = _worker_pids(before)
            assert len(workers) == 2
            seen = set()
            for run in range(3):
                results, failures = pool.run(_pid_tasks(8, f"r{run}-"))
                assert failures == {} and len(results) == 8
                seen |= {body["pid"] for body in results.values()}
                assert _worker_pids(before) == workers
            assert seen <= workers
        finally:
            pool.close()

    def test_worker_killed_between_runs_is_replaced(self):
        before = {p.pid for p in mp.active_children()}
        pool = WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                          init_args=("t",)).start()
        try:
            pool.run(_pid_tasks(4, "a"))
            victim = min(_worker_pids(before))
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while victim in _worker_pids(before) \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            assert victim not in _worker_pids(before)
            results, failures = pool.run(_pid_tasks(6, "b"))
            assert failures == {} and len(results) == 6
            workers = _worker_pids(before)
            assert len(workers) == 2 and victim not in workers
        finally:
            pool.close()

    def test_messages_about_an_earlier_runs_task_are_ignored(self):
        tel = Telemetry()
        tel.keep_events = True
        pool = WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                          init_args=("t",)).start()
        try:
            pool.run(_ok_tasks(3), emit=tel)
            # late messages from the first run, read by the second
            late, writer = mp.Pipe(duplex=False)
            pool._conns[-1] = late
            writer.send(("start", 0, "ok1", None, 0.0))
            writer.send(("done", 0, "ok1", {"v": -1}, 0.1))
            writer.send(("fail", 1, "ok2", "stale boom", 0.1))
            writer.close()
            results, failures = pool.run(
                [(f"new{i}", {"kind": "sample", "action": "ok", "v": i})
                 for i in range(4)], emit=tel)
        finally:
            pool.close()
        assert failures == {}
        assert results == {f"new{i}": {"v": 2 * i} for i in range(4)}
        assert tel.executed == 3 + 4

    def test_exception_out_of_run_stops_the_workers(self):
        before = set(mp.active_children())
        pool = WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                          init_args=("t",)).start()
        assert len(_worker_pids({p.pid for p in before})) == 2

        def explode(tid, result):
            raise RuntimeError("sink died")

        with pytest.raises(RuntimeError, match="sink died"):
            pool.run(_ok_tasks(4), on_result=explode)
        assert set(mp.active_children()) == before
        assert not pool.started
        # the next run starts on fresh workers
        pool.start()
        results, _ = pool.run(_ok_tasks(2))
        assert results == {"ok0": {"v": 0}, "ok1": {"v": 2}}
        pool.close()
        assert set(mp.active_children()) == before

    def test_close_stops_the_workers(self):
        before = set(mp.active_children())
        pool = WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                          init_args=("t",)).start()
        pool.run(_ok_tasks(4))
        assert set(mp.active_children()) != before
        pool.close()
        assert set(mp.active_children()) == before
        pool.close()                    # idempotent

    def test_with_block_forks_at_the_first_run_and_stops_at_its_end(self):
        before = set(mp.active_children())
        with WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                        init_args=("t",)) as pool:
            assert set(mp.active_children()) == before
            assert pool.run([]) == ({}, {})     # no work forks nothing
            assert not pool.started
            pool.run(_ok_tasks(4))
            workers = set(mp.active_children()) - before
            assert len(workers) == 2
            pool.run(_ok_tasks(4))              # the workers outlive a run
            assert set(mp.active_children()) - before == workers
        assert not pool.started
        assert set(mp.active_children()) == before

    def test_leaving_the_with_block_on_an_exception_stops_the_workers(self):
        before = set(mp.active_children())
        with pytest.raises(KeyError, match="caller failed"):
            with WorkerPool(jobs=2, work_fn=_work, init_fn=_init,
                            init_args=("t",)) as pool:
                pool.run(_ok_tasks(4))
                assert len(set(mp.active_children()) - before) == 2
                raise KeyError("caller failed")
        assert not pool.started
        assert set(mp.active_children()) == before
