"""Crash-only recovery: SIGKILL the whole scheduler process at every
event boundary and prove each resumed run is byte-identical.

This is the whole-process extension of the kill-at-every-journal-index
chaos invariant: not a truncated file, an actual ``SIGKILL`` delivered
to the running scheduler (no atexit, no flushes), with orphaned pool
workers left to notice the reparenting on their own.
"""

import multiprocessing as mp
import os
import signal
import time

import pytest

from repro.bench import PCGBench
from repro.guard import crash_resume_sweep, run_supervised, supervisor
from repro.harness import Runner
from repro.models import load_model
from repro.sched.scheduler import harness_pool

#: the smallest slice that still exercises the pool: one problem type,
#: one execution model, two samples
KW = dict(num_samples=2, temperature=0.2, seed=7, jobs=2)


@pytest.fixture(scope="module")
def slice_():
    return load_model("GPT-3.5"), PCGBench(problem_types=["transform"],
                                           models=["serial"])


class TestRunSupervised:
    def test_unkilled_run_completes_without_restarts(self, slice_,
                                                     tmp_path):
        llm, bench = slice_
        result = run_supervised(llm, bench, workdir=tmp_path, **KW)
        assert result.restarts == 0
        assert result.events > 0
        assert len(result.digest) == 64

    def test_armed_kill_fires_and_recovers(self, slice_, tmp_path):
        llm, bench = slice_
        clean = run_supervised(llm, bench, workdir=tmp_path / "clean", **KW)
        killed = run_supervised(llm, bench, workdir=tmp_path / "killed",
                                kill_at=clean.events // 2, **KW)
        assert killed.restarts >= 1       # the SIGKILL actually landed
        assert killed.digest == clean.digest
        assert killed.json == clean.json

    def test_kill_past_the_end_never_fires(self, slice_, tmp_path):
        llm, bench = slice_
        clean = run_supervised(llm, bench, workdir=tmp_path / "c", **KW)
        result = run_supervised(llm, bench, workdir=tmp_path / "k",
                                kill_at=clean.events + 1000, **KW)
        assert result.restarts == 0
        assert result.digest == clean.digest

    def test_a_pool_the_caller_holds_stays_out_of_the_child(self, slice_,
                                                            tmp_path):
        """The child builds its own pool; the caller's live workers are
        neither used nor joined by the fork, and no process outlives the
        supervised run."""
        llm, bench = slice_
        clean = run_supervised(llm, bench, workdir=tmp_path / "c", **KW)
        with harness_pool(Runner(), 2) as pool:
            pool.start()
            before = set(mp.active_children())
            held = run_supervised(llm, bench, workdir=tmp_path / "h", **KW)
            assert set(mp.active_children()) == before
            assert pool.run([("ok", {"kind": "baseline",
                                     "problem": "sum_of_elements"})])[0]
        assert held.digest == clean.digest and held.json == clean.json


class TestEveryBoundary:
    def test_sweep_every_event_boundary_is_byte_identical(self, slice_,
                                                          tmp_path):
        """SIGKILL at *every* event boundary of the reference run; every
        resumed digest must match, and every armed kill must fire."""
        llm, bench = slice_
        sweep = crash_resume_sweep(llm, bench, workdir=tmp_path, **KW)
        assert sweep["checked"] == sweep["reference_events"] > 0
        assert sweep["mismatches"] == []
        # each armed boundary is before the run's end, so each kill
        # landed and forced at least one restart
        assert sweep["restarts"] >= sweep["checked"]


def _child_with_grandchild(pidfile):
    """A stand-in child that forks a grandchild holding the result pipe's
    write end open, as a scheduler's pool workers do, then dies by
    SIGKILL when armed and reports success otherwise."""

    def child_main(conn, kill_at, plan, journal_path, run_kwargs):
        pid = os.fork()
        if pid == 0:
            time.sleep(30)
            os._exit(0)
        with open(pidfile, "a") as f:
            f.write(f"{pid}\n")
        if kill_at is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        conn.send({"ok": True, "digest": "0" * 64, "json": "{}",
                   "events": 0})
        conn.close()

    return child_main


class TestInheritedPipe:
    def test_killed_child_is_noticed_while_a_grandchild_holds_the_pipe(
            self, tmp_path, monkeypatch):
        pidfile = tmp_path / "grandchildren"
        monkeypatch.setattr(supervisor, "_child_main",
                            _child_with_grandchild(pidfile))
        t0 = time.monotonic()
        try:
            result = run_supervised(None, None, workdir=tmp_path, kill_at=0)
        finally:
            for line in pidfile.read_text().split():
                try:
                    os.kill(int(line), signal.SIGKILL)
                except ProcessLookupError:
                    pass
        assert result.restarts == 1
        assert time.monotonic() - t0 < 10, \
            "the supervisor waited for the grandchild to close the pipe"
