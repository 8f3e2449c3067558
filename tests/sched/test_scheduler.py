"""End-to-end scheduler tests: the determinism and resumability
acceptance criteria, cross-run caching, and the EvalCache/CLI wiring."""

import json
import multiprocessing as mp

import pytest

from repro.bench import PCGBench
from repro.faults import FaultPlan, FaultRule, injector
from repro.harness import ConfigurationError, EvalCache, Runner, evaluate_model
from repro.models import load_model
from repro.sched import (
    SOURCE_EXECUTED,
    SchedulerAbort,
    TaskFinished,
    Telemetry,
    WorkerPool,
    chain,
    run_scheduled,
)
from repro.sched.plan import build_plan
from repro.sched.scheduler import execute_tasks, harness_pool


@pytest.fixture(scope="module")
def bench():
    return PCGBench(problem_types=["transform"], models=["serial", "openmp"])


@pytest.fixture(scope="module")
def llm():
    return load_model("GPT-3.5")


@pytest.fixture(scope="module")
def serial_timed(llm, bench):
    return evaluate_model(llm, bench, num_samples=3, temperature=0.2,
                          with_timing=True, seed=7)


class TestDeterminism:
    def test_parallel_matches_serial(self, llm, bench, serial_timed):
        parallel = evaluate_model(llm, bench, num_samples=3, temperature=0.2,
                                  with_timing=True, seed=7, jobs=4)
        assert parallel.to_json() == serial_timed.to_json()

    def test_jobs_counts_agree(self, llm, bench):
        runs = [evaluate_model(llm, bench, num_samples=2, seed=3, jobs=j)
                for j in (1, 2, 3)]
        assert runs[0].to_json() == runs[1].to_json() == runs[2].to_json()

    def test_hot_temperature_matches(self, llm, bench):
        serial = evaluate_model(llm, bench, num_samples=4, temperature=0.8,
                                seed=13)
        parallel = evaluate_model(llm, bench, num_samples=4, temperature=0.8,
                                  seed=13, jobs=2)
        assert parallel.to_json() == serial.to_json()


class _AbortAfter:
    """Event sink that interrupts the run after K executed tasks."""

    def __init__(self, k):
        self.k = k
        self.seen = 0

    def __call__(self, event):
        if isinstance(event, TaskFinished) and \
                event.source == SOURCE_EXECUTED:
            self.seen += 1
            if self.seen >= self.k:
                raise SchedulerAbort(f"aborted after {self.k} tasks")


class TestResumability:
    K = 5

    def test_interrupt_then_resume_recomputes_nothing(self, llm, bench,
                                                      serial_timed,
                                                      tmp_path):
        journal = tmp_path / "run.journal.jsonl"
        with pytest.raises(SchedulerAbort):
            evaluate_model(llm, bench, num_samples=3, temperature=0.2,
                           with_timing=True, seed=7, jobs=2,
                           journal=str(journal), events=_AbortAfter(self.K))
        lines = [json.loads(l) for l in journal.read_text().splitlines()]
        journaled = {l["task"] for l in lines if l.get("kind") != "header"}
        # journal-then-notify: every task the sink saw is checkpointed
        assert len(journaled) >= self.K

        telemetry = Telemetry()
        events = []
        resumed = evaluate_model(llm, bench, num_samples=3, temperature=0.2,
                                 with_timing=True, seed=7, jobs=2,
                                 journal=str(journal), resume=True,
                                 events=chain(telemetry, events.append))
        # no finished task was recomputed ...
        executed = {e.task_id for e in events
                    if isinstance(e, TaskFinished)
                    and e.source == SOURCE_EXECUTED}
        assert executed and journaled.isdisjoint(executed)
        assert telemetry.from_journal == len(journaled)
        assert telemetry.executed + telemetry.from_journal == \
            telemetry.total
        # ... and the result is still byte-identical to the serial run
        assert resumed.to_json() == serial_timed.to_json()

    def test_resume_of_finished_run_executes_nothing(self, llm, bench,
                                                     tmp_path):
        journal = tmp_path / "done.journal.jsonl"
        evaluate_model(llm, bench, num_samples=2, seed=3, jobs=2,
                       journal=str(journal))
        telemetry = Telemetry()
        evaluate_model(llm, bench, num_samples=2, seed=3, jobs=2,
                       journal=str(journal), resume=True, events=telemetry)
        assert telemetry.executed == 0
        assert telemetry.from_journal == telemetry.total > 0

    def test_stale_journal_from_other_config_is_ignored(self, llm, bench,
                                                        tmp_path):
        journal = tmp_path / "stale.journal.jsonl"
        evaluate_model(llm, bench, num_samples=2, seed=3, jobs=2,
                       journal=str(journal))
        telemetry = Telemetry()
        evaluate_model(llm, bench, num_samples=2, seed=4, jobs=2,
                       journal=str(journal), resume=True, events=telemetry)
        assert telemetry.from_journal == 0
        assert telemetry.executed == telemetry.total

    def test_resume_requires_journal(self, llm, bench):
        with pytest.raises(ConfigurationError):
            evaluate_model(llm, bench, num_samples=2, resume=True)


class TestExecuteTasks:
    K = 3

    def test_abort_keeps_settled_tasks_and_a_second_call_runs_the_rest(
            self, llm, bench):
        runner = Runner()
        plan = build_plan(llm, bench, 2, 0.2, False, runner, 3)
        results = {}
        first = Telemetry()
        with harness_pool(runner, 2) as pool:
            with pytest.raises(SchedulerAbort):
                execute_tasks(plan.tasks, results, pool,
                              chain(first, _AbortAfter(self.K)))
            settled = dict(results)
            # the K tasks the sink was told about, and nothing else
            assert set(settled) == {
                t for t, s in first.provenance.items()
                if s == SOURCE_EXECUTED}
            assert len(settled) == self.K < len(plan.tasks)
            second = Telemetry()
            failures = execute_tasks(plan.tasks, results, pool, second)
        assert failures == {}
        assert second.executed == len(plan.tasks) - self.K
        assert set(second.provenance).isdisjoint(settled)
        assert all(results[t] is settled[t] for t in settled)
        assert set(results) == set(plan.tasks)


class TestSystemErrorResampling:
    def test_journaled_system_error_is_resampled_on_resume(self, llm, bench,
                                                           tmp_path):
        """An infra-failed record planted in the journal must be replayed
        as *missing* — the task re-executes and the run comes out clean."""
        journal = tmp_path / "run.jsonl"
        clean = evaluate_model(llm, bench, num_samples=2, seed=3, jobs=2,
                               journal=str(journal))
        lines = journal.read_text().splitlines()
        victim = json.loads(lines[1])          # first task record
        lines[1] = json.dumps({"task": victim["task"], "result": {
            "status": "system_error", "detail": "scheduler: planted"}})
        journal.write_text("\n".join(lines) + "\n")
        telemetry = Telemetry()
        resumed = evaluate_model(llm, bench, num_samples=2, seed=3, jobs=2,
                                 journal=str(journal), resume=True,
                                 events=telemetry)
        assert telemetry.executed == 1         # exactly the planted task
        assert resumed.to_json() == clean.to_json()

    def test_system_errors_are_never_journaled(self, llm, bench, tmp_path):
        """Samples of one prompt are forced into system_error by a
        persistent injected flake; their tasks must not be checkpointed,
        and a fault-free resume re-executes them to the clean result."""
        clean = evaluate_model(llm, bench, num_samples=2, seed=3, jobs=2)
        uid = sorted(clean.prompts)[0]
        journal = tmp_path / "run.jsonl"
        plan = FaultPlan(rules=(
            FaultRule(point="harness.flake", action="raise",
                      match=uid, occurrences=None),))
        with injector(plan):
            faulted = evaluate_model(llm, bench, num_samples=2, seed=3,
                                     jobs=2, journal=str(journal))
        statuses = set(faulted.prompts[uid].statuses())
        assert statuses == {"system_error"}
        journaled = {json.loads(l)["task"]
                     for l in journal.read_text().splitlines()[1:]}
        telemetry = Telemetry()
        resumed = evaluate_model(llm, bench, num_samples=2, seed=3, jobs=2,
                                 journal=str(journal), resume=True,
                                 events=telemetry)
        assert telemetry.executed > 0
        assert telemetry.from_journal == len(journaled)
        assert resumed.to_json() == clean.to_json()


class TestSampleCache:
    def test_cross_run_dedup(self, llm, bench, tmp_path):
        first = Telemetry()
        run1 = evaluate_model(llm, bench, num_samples=2, seed=3, jobs=2,
                              sample_cache=str(tmp_path / "samples"),
                              events=first)
        assert first.executed == first.total > 0
        second = Telemetry()
        run2 = evaluate_model(llm, bench, num_samples=2, seed=3, jobs=2,
                              sample_cache=str(tmp_path / "samples"),
                              events=second)
        assert second.executed == 0
        assert second.from_cache == second.total
        assert run2.to_json() == run1.to_json()

    def test_injected_enospc_is_a_miss_never_a_failed_run(self, llm, bench,
                                                          tmp_path):
        samples = tmp_path / "samples"
        reference = evaluate_model(llm, bench, num_samples=2, seed=3)
        plan = FaultPlan(rules=(
            FaultRule(point="guard.disk.enospc", action="enospc"),))
        first = Telemetry()
        with injector(plan):
            run1 = evaluate_model(llm, bench, num_samples=2, seed=3,
                                  jobs=2, sample_cache=str(samples),
                                  events=first)
        assert run1.to_json() == reference.to_json()
        assert first.failed == 0 and first.executed == first.total > 0
        assert list(samples.rglob("*.json")) == []
        assert list(samples.rglob("*.tmp")) == []
        # every write degraded to a miss: the rerun executes everything
        second = Telemetry()
        run2 = evaluate_model(llm, bench, num_samples=2, seed=3, jobs=2,
                              sample_cache=str(samples), events=second)
        assert second.from_cache == 0
        assert run2.to_json() == reference.to_json()

    def test_cache_faults_fire_on_the_result_loop_not_the_writer(
            self, llm, bench, tmp_path, monkeypatch):
        """The writer thread gets only bytes and a path: every cache
        fault point fires on the thread that runs the pool's result
        loop, so a worker forked mid-write never inherits a held
        injector lock."""
        import threading

        from repro.faults.inject import FaultInjector
        from repro.sched import SampleCache

        fired, written = [], []
        real_fire, real_write = FaultInjector.fire, SampleCache.write

        def spy_fire(self, point, key=""):
            fired.append((point, threading.current_thread().name))
            return real_fire(self, point, key)

        def spy_write(path, data):
            written.append(threading.current_thread().name)
            return real_write(path, data)

        monkeypatch.setattr(FaultInjector, "fire", spy_fire)
        monkeypatch.setattr(SampleCache, "write", staticmethod(spy_write))
        plan = FaultPlan(rules=tuple(
            FaultRule(point=point, action=action, match="no-such-task")
            for point, action in (("sched.cache.truncate", "truncate"),
                                  ("sched.cache.bitflip", "bitflip"),
                                  ("guard.disk.enospc", "enospc"))))
        with injector(plan):
            evaluate_model(llm, bench, num_samples=2, seed=3, jobs=2,
                           sample_cache=str(tmp_path / "samples"))
        here = threading.current_thread().name
        cache_points = [name for point, name in fired
                        if point.startswith(("sched.cache.", "guard.disk."))]
        assert cache_points and set(cache_points) == {here}
        assert written and here not in written


class TestTelemetry:
    def test_stage_and_status_accounting(self, llm, bench):
        telemetry = Telemetry()
        with harness_pool(Runner(), 2) as pool:
            run, returned = run_scheduled(llm, bench, pool, num_samples=2,
                                          seed=3, emit=telemetry)
        assert set(telemetry.stage_seconds) == {"plan", "execute",
                                                "assemble"}
        assert sum(telemetry.statuses.values()) == telemetry.total
        assert telemetry.wall_seconds > 0.0
        assert returned.counts == telemetry.counts
        assert len(run.prompts) == len(bench.prompts)

    def test_clean_timed_run_reports_no_retries_or_crashes(self, llm, bench,
                                                           serial_timed):
        # every task runs exactly once: nothing may count as a retry
        telemetry = Telemetry()
        run = evaluate_model(llm, bench, num_samples=3, temperature=0.2,
                             with_timing=True, seed=7, jobs=2,
                             events=telemetry)
        assert run.to_json() == serial_timed.to_json()
        assert telemetry.executed > 0
        assert telemetry.retries == 0
        assert telemetry.crashes == 0


class TestEvalCacheIntegration:
    def test_scheduled_get_or_run_matches_serial(self, llm, bench, tmp_path):
        serial_cache = EvalCache(cache_dir=str(tmp_path / "a"))
        sched_cache = EvalCache(cache_dir=str(tmp_path / "b"))
        serial = serial_cache.get_or_run(llm, bench, num_samples=2,
                                         temperature=0.2, seed=5, tag="t")
        with harness_pool(Runner(), 2) as pool:
            scheduled = sched_cache.get_or_run(llm, bench, num_samples=2,
                                               temperature=0.2, seed=5,
                                               tag="t", pool=pool)
        assert scheduled.to_json() == serial.to_json()
        # the journal is superseded by the cache file and removed
        assert not list((tmp_path / "b" / "journal").glob("*"))
        # the content-addressed sample store was populated
        assert list((tmp_path / "b" / "samples").rglob("*.json"))
        # second call is a pure cache hit
        again = sched_cache.get_or_run(llm, bench, num_samples=2,
                                       temperature=0.2, seed=5, tag="t",
                                       pool=pool)
        assert again.to_json() == scheduled.to_json()

    def test_invalid_jobs_rejected(self, llm, bench):
        with pytest.raises(ConfigurationError):
            evaluate_model(llm, bench, num_samples=2, jobs=0)

    def test_resume_without_a_pool_is_rejected(self, llm, bench, tmp_path):
        with pytest.raises(ConfigurationError):
            EvalCache(cache_dir=str(tmp_path)).get_or_run(
                llm, bench, num_samples=2, temperature=0.2, resume=True)


@pytest.fixture
def spawned(monkeypatch):
    """Ids of every worker a pool forks while the test runs."""
    ids = []
    real_spawn = WorkerPool._spawn

    def counting_spawn(pool):
        wid = real_spawn(pool)
        ids.append(wid)
        return wid

    monkeypatch.setattr(WorkerPool, "_spawn", counting_spawn)
    return ids


class TestCallerOwnedPool:
    def test_get_or_run_calls_on_one_pool_fork_the_workers_once(
            self, llm, bench, tmp_path, spawned):
        serial = EvalCache(cache_dir=str(tmp_path / "serial"))
        cache = EvalCache(cache_dir=str(tmp_path / "pooled"))
        kw = dict(num_samples=2, temperature=0.2, tag="t")
        before = set(mp.active_children())
        with harness_pool(Runner(), 2) as pool:
            runs = {seed: cache.get_or_run(llm, bench, seed=seed, pool=pool,
                                           **kw)
                    for seed in (3, 4, 5)}
        assert len(spawned) == 2
        assert set(mp.active_children()) == before
        for seed, run in runs.items():
            assert run.to_json() == serial.get_or_run(
                llm, bench, seed=seed, **kw).to_json()

    def test_all_cache_hit_call_forks_no_worker(self, llm, bench, tmp_path,
                                                spawned):
        kw = dict(num_samples=2, seed=3, jobs=2,
                  sample_cache=str(tmp_path / "samples"))
        first = evaluate_model(llm, bench, **kw)
        forked = len(spawned)
        assert forked == 2
        telemetry = Telemetry()
        again = evaluate_model(llm, bench, events=telemetry, **kw)
        assert len(spawned) == forked
        assert telemetry.executed == 0 and telemetry.from_cache > 0
        assert again.to_json() == first.to_json()

    def test_planning_uses_the_pools_runner(self, llm, bench, monkeypatch):
        from repro.sched import scheduler

        planned = []
        real_build_plan = scheduler.build_plan

        def spy_build_plan(*args, **kwargs):
            planned.append(args[5])     # build_plan's runner argument
            return real_build_plan(*args, **kwargs)

        monkeypatch.setattr(scheduler, "build_plan", spy_build_plan)
        runner = Runner(static_screen=False)
        with harness_pool(runner, 2) as pool:
            run, _ = run_scheduled(llm, bench, pool, num_samples=2, seed=3)
        assert planned == [runner]
        assert run.to_json() == evaluate_model(
            llm, bench, num_samples=2, seed=3, runner=runner).to_json()
