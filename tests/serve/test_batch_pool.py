"""The service's one worker pool, through a live service: a clean
batch, a restart after an injected pool-loop death that re-runs only the
unsettled tasks, the settled verdicts kept when the restarts run out,
warm-ledger dispatch, and workers that live from the first batch until
shutdown."""

import multiprocessing as mp

import pytest

from repro.faults import FaultPlan, FaultRule, injector
from repro.harness import Runner
from repro.sched import SOURCE_EXECUTED, WorkerPool
from repro.serve import ServiceClient, plan_request
from repro.serve.batcher import union_tasks
from repro.serve.service import BATCH_RESTARTS, DONE

from .conftest import make_request, run_with_service


@pytest.fixture(scope="module")
def union():
    plan = plan_request(make_request(), Runner())
    return union_tasks([plan])


async def _evaluate(service):
    return await ServiceClient(service).evaluate(make_request())


def _die(occurrences):
    return FaultPlan(rules=(
        FaultRule(point="serve.batch.die", action="abort",
                  occurrences=occurrences),), seed=0)


class TestBatchPool:
    def test_clean_batch_executes_every_task_once(self, tmp_path, union,
                                                  direct_run):
        run, service = run_with_service(tmp_path, _evaluate)
        assert run.to_json() == direct_run.to_json()
        snap = service.metrics_snapshot()
        assert snap["batch_restarts"] == 0
        assert snap["tasks_executed"] == len(union)
        assert snap["tasks_from_journal"] == 0
        # every dispatch carried a prediction (cold ledger: estimator)
        assert snap["estimator_predictions"] + snap["ledger_predictions"] \
            == snap["tasks_executed"]
        assert snap["shards"]["0"]["tasks"] == len(union)
        assert service.telemetry.executed == len(union)

    def test_injected_death_reruns_only_the_unsettled_tasks(
            self, tmp_path, union, direct_run):
        with injector(_die((0,))):
            run, service = run_with_service(tmp_path, _evaluate)
        snap = service.metrics_snapshot()
        assert snap["batch_restarts"] == 1
        # the task that executed just before the death was already in
        # the batch's result map, so the restart runs each other task
        # once and none twice; nothing is read back from disk
        assert snap["tasks_executed"] == len(union)
        assert snap["tasks_from_journal"] == 0
        assert run.digest() == direct_run.digest()
        assert not list(tmp_path.glob("*journal*"))

    def test_restarts_exhausted_keep_the_settled_verdicts(
            self, tmp_path, union, direct_run):
        # die after every executed task: each restart re-dies as soon as
        # its first task finishes, until the restarts are spent
        async def go(service):
            client = ServiceClient(service)
            return await client.wait(client.submit(make_request()))

        with injector(_die(None)):
            ticket, service = run_with_service(tmp_path, go,
                                               jobs_per_shard=1)
        snap = service.metrics_snapshot()
        assert snap["batch_restarts"] == BATCH_RESTARTS
        # the batch degraded, it did not fail
        assert ticket.status == DONE
        # one executed task per attempt, each settled before its death
        executed = {tid for tid, source
                    in service.telemetry.provenance.items()
                    if source == SOURCE_EXECUTED}
        assert len(executed) == BATCH_RESTARTS + 1 < len(union)
        # every settled task keeps its verdict; only the lost ones are
        # system_error
        for pp in ticket.plan.prompts:
            samples = ticket.run.prompts[pp.uid].samples
            direct = direct_run.prompts[pp.uid].samples
            for slot in pp.slots:
                got = samples[slot.sample_index]
                if slot.task_id in executed:
                    want = direct[slot.sample_index]
                    assert (got.status, got.detail) \
                        == (want.status, want.detail)
                else:
                    assert got.status == "system_error"
                    assert "batch restarts exhausted" in got.detail

    def test_warm_ledger_service_hits_and_matches(self, tmp_path,
                                                  direct_run):
        async def go(service):
            client = ServiceClient(service)
            first = await client.evaluate(make_request())
            second = await client.evaluate(make_request())
            return first, second

        # no sample cache: the second request re-executes, now with a
        # warm duration ledger ordering the pool's dispatch
        (first, second), service = run_with_service(tmp_path, go)
        assert first.to_json() == direct_run.to_json()
        assert second.to_json() == direct_run.to_json()
        snap = service.metrics_snapshot()
        assert snap["ledger_predictions"] > 0
        assert 0.0 < snap["ledger_hit_rate"] <= 1.0
        assert snap["pred_mae_seconds"] >= 0.0


class TestLongLivedPool:
    def test_sequential_batches_fork_the_workers_once(self, tmp_path,
                                                      monkeypatch,
                                                      direct_run):
        spawned = []
        real_spawn = WorkerPool._spawn

        def counting_spawn(pool):
            wid = real_spawn(pool)
            spawned.append(wid)
            return wid

        monkeypatch.setattr(WorkerPool, "_spawn", counting_spawn)

        async def go(service):
            client = ServiceClient(service)
            return [await client.evaluate(make_request())
                    for _ in range(3)]

        runs, service = run_with_service(tmp_path, go)
        assert service.metrics_snapshot()["batches"] == 3
        assert len(spawned) == service.jobs == 2
        assert all(r.to_json() == direct_run.to_json() for r in runs)

    def test_shutdown_leaves_no_child_alive(self, tmp_path):
        before = set(mp.active_children())

        async def go(service):
            run = await _evaluate(service)
            assert set(mp.active_children()) != before
            return run

        run_with_service(tmp_path, go)
        assert set(mp.active_children()) == before
