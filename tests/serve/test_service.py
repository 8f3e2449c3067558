"""Differential golden tests: a served result is byte-identical to the
direct ``evaluate_model`` call it stands in for — records, CSV export,
profiles, and digest — plus request validation and ticket lifecycle."""

import pytest

from repro.analysis import profile_csv, to_csv
from repro.serve import EvalRequest, ServiceClient
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
