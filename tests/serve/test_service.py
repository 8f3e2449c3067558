"""Differential golden tests: a served result is byte-identical to the
direct ``evaluate_model`` call it stands in for — records, CSV export,
profiles, and digest — plus request validation and ticket lifecycle."""

import sys
import threading

import pytest

from repro.analysis import profile_csv, to_csv
from repro.sched.events import (
    SOURCE_EXECUTED,
    WORKER_COUNTERS,
    StageFinished,
    TaskFinished,
)
from repro.serve import EvalRequest, ServiceClient, ServiceMetrics
from repro.serve.service import DONE

from .conftest import direct_reference, make_request, run_with_service


class TestDifferentialGolden:
    def test_served_run_is_byte_identical(self, tmp_path, direct_run):
        async def go(service):
            return await ServiceClient(service).evaluate(make_request())

        served, service = run_with_service(tmp_path, go)
        assert served.to_json() == direct_run.to_json()
        assert served.digest() == direct_run.digest()
        assert to_csv(served) == to_csv(direct_run)

    def test_served_profiled_run_matches_direct(self, tmp_path):
        request = make_request(with_timing=True, profile=True)
        direct = direct_reference(request)

        async def go(service):
            return await ServiceClient(service).evaluate(request)

        served, service = run_with_service(tmp_path, go)
        assert served.to_json() == direct.to_json()
        assert profile_csv(served) == profile_csv(direct)
        # profiled requests feed the service-level cost breakdown
        totals = service.metrics_snapshot()["profile_totals"]
        assert totals and all(v >= 0.0 for v in totals.values())

    def test_single_shard_service_matches_too(self, tmp_path, direct_run):
        async def go(service):
            return await ServiceClient(service).evaluate(make_request())

        served, _ = run_with_service(tmp_path, go, shards=1,
                                     jobs_per_shard=1)
        assert served.to_json() == direct_run.to_json()

    def test_sample_cache_round_trip_identical(self, tmp_path, direct_run):
        """Second request over a warm cache: zero executions, same bytes."""
        async def go(service):
            client = ServiceClient(service)
            first = await client.evaluate(make_request())
            second = await client.evaluate(make_request())
            return first, second

        (first, second), service = run_with_service(
            tmp_path, go, sample_cache=True)
        assert first.to_json() == direct_run.to_json()
        assert second.to_json() == direct_run.to_json()
        snap = service.metrics_snapshot()
        assert snap["tasks_from_cache"] > 0


class TestMetricsContract:
    def test_keys_the_pipeline_benchmark_reads(self, tmp_path):
        """``benchmarks/pipeline/replay.py::traced_serve`` reads these
        ``/metrics`` keys; renaming or dropping one breaks the frozen
        benchmark."""
        async def go(service):
            await ServiceClient(service).evaluate(make_request())
            return service.metrics_snapshot()

        snap, _ = run_with_service(tmp_path, go)
        for key in ("tasks_executed", "tasks_from_cache",
                    "tasks_from_journal", "compile_cache_hits",
                    "compile_cache_misses", "batched_requests", "batches",
                    "tasks_deduped", "tasks_planned", "hedges",
                    "ledger_hit_rate", "pred_mae_seconds"):
            assert isinstance(snap[key], (int, float)), key
        assert snap["hedges"] == 0
        (pool,) = snap["shards"].values()
        assert pool["busy_seconds"] > 0.0
        assert pool["tasks"] == snap["tasks_executed"]


def test_stage_seconds_sum_repeated_stages():
    metrics = ServiceMetrics(workers=1)
    for seconds in (0.25, 0.5):
        metrics.observe(StageFinished(stage="plan", seconds=seconds))
    assert metrics.snapshot()["stage_seconds"] == {"plan": 0.75}


class TestPoolTally:
    def test_metrics_read_the_one_service_telemetry(self, tmp_path):
        """Two batches, the second served entirely from the sample cache:
        every pool key of ``/metrics`` is the service's one Telemetry,
        and the worker counters stay reported after a batch that
        executed nothing."""
        async def go(service):
            client = ServiceClient(service)
            snaps = []
            for _ in range(2):
                await client.evaluate(make_request())
                snaps.append(service.metrics_snapshot())
            return snaps

        (first, second), service = run_with_service(tmp_path, go,
                                                    sample_cache=True)
        t = service.telemetry
        assert t is service.metrics.telemetry
        assert second["batches"] == 2
        assert first["tasks_executed"] == first["tasks_unique"] > 0
        assert second["tasks_executed"] == first["tasks_executed"]
        assert second["tasks_from_cache"] == (second["tasks_unique"]
                                              - first["tasks_unique"])
        for key, value in (("tasks_executed", t.executed),
                           ("tasks_from_cache", t.from_cache),
                           ("tasks_from_journal", t.from_journal),
                           ("tasks_failed", t.failed),
                           ("tasks_quarantined", t.quarantined),
                           ("ledger_predictions", t.ledger_predictions),
                           ("estimator_predictions",
                            t.estimator_predictions),
                           ("ledger_hit_rate", t.ledger_hit_rate()),
                           ("pred_mae_seconds", t.pred_mae_seconds())):
            assert second[key] == value, key
        assert second["shards"] == {"0": {"busy_seconds": t.busy_seconds,
                                          "tasks": t.total,
                                          "crashes": t.crashes}}
        assert t.compile_cache_hits + t.compile_cache_misses > 0
        assert set(WORKER_COUNTERS) <= set(second)
        for name in WORKER_COUNTERS:
            assert second[name] == t.counters.get(name, 0), name
            assert second[name] == first[name], name

    def test_planning_time_accumulates_per_batch(self, tmp_path):
        """Each batch adds its planning wall time to ``stage_seconds``;
        the service reports no other stage."""
        async def go(service):
            client = ServiceClient(service)
            snaps = []
            for _ in range(2):
                await client.evaluate(make_request())
                snaps.append(service.metrics_snapshot())
            return snaps

        (first, second), service = run_with_service(tmp_path, go)
        assert set(first["stage_seconds"]) == {"plan"}
        assert 0.0 < first["stage_seconds"]["plan"] \
            < second["stage_seconds"]["plan"]
        assert second["stage_seconds"] == service.telemetry.stage_seconds

    def test_concurrent_observe_loses_no_update(self):
        """Every read-modify-write of the shared Telemetry happens under
        the metrics lock, whichever thread folds the event."""
        metrics = ServiceMetrics(workers=1)
        threads, per_thread = 8, 2000
        event = TaskFinished("t", "sample", SOURCE_EXECUTED, duration=0.5,
                             counters={"vec_bulk_loops": 1})

        def fold():
            for _ in range(per_thread):
                metrics.observe(event)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=fold)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        snap = metrics.snapshot()
        assert snap["tasks_executed"] == threads * per_thread
        assert snap["vec_bulk_loops"] == threads * per_thread
        assert snap["shards"]["0"]["busy_seconds"] == \
            0.5 * threads * per_thread


class TestTicketLifecycle:
    def test_ticket_snapshot_fields(self, tmp_path):
        async def go(service):
            ticket_id = ServiceClient(service).submit(make_request())
            ticket = await service.wait(ticket_id)
            return ticket.snapshot()

        snap, _ = run_with_service(tmp_path, go)
        assert snap["status"] == DONE
        assert snap["id"].startswith("req-")
        assert snap["model"] == "GPT-3.5"
        assert snap["wait_seconds"] >= 0.0
        assert snap["run_seconds"] > 0.0
        assert len(snap["digest"]) == 64

    def test_unknown_ticket_is_none(self, tmp_path):
        async def go(service):
            return service.get("req-999999")

        ticket, _ = run_with_service(tmp_path, go)
        assert ticket is None


class TestRequestValidation:
    def test_minimal_valid(self):
        req = EvalRequest.from_dict({"model": "GPT-3.5"})
        assert req.samples == 1 and not req.with_timing

    def test_aliases(self):
        req = EvalRequest.from_dict({
            "model": "GPT-3.5", "exec": ["serial"], "timing": True})
        assert req.exec_models == ("serial",) and req.with_timing

    @pytest.mark.parametrize("raw", [
        "not a dict",
        {},
        {"model": "GPT-99"},
        {"model": "GPT-3.5", "ptypes": ["nope"]},
        {"model": "GPT-3.5", "exec": ["fortran"]},
        {"model": "GPT-3.5", "samples": 0},
        {"model": "GPT-3.5", "samples": True},
        {"model": "GPT-3.5", "profile": True},          # needs timing
        {"model": "GPT-3.5", "deadline": -1},
        {"model": "GPT-3.5", "bogus_field": 1},
    ])
    def test_invalid_rejected(self, raw):
        with pytest.raises(ValueError):
            EvalRequest.from_dict(raw)
