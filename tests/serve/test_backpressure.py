"""Admission control: bounded queue, overload rejection, deadlines, and
graceful shutdown.  Determinism comes from ``pause()`` — the batch loop
is held so queue occupancy is fully under test control."""

import asyncio

import pytest

from repro.serve import EvalService, Overloaded, ServiceClient, ServiceClosed
from repro.serve.service import DONE, EXPIRED

from .conftest import direct_reference, make_request, run_with_service


class TestOverload:
    def test_queue_full_rejects_with_retry_after(self, tmp_path):
        async def go(service):
            service.pause()
            client = ServiceClient(service)
            accepted = [client.submit(make_request()) for _ in range(3)]
            with pytest.raises(Overloaded) as err:
                client.submit(make_request())
            retry_after = err.value.retry_after
            # rejection must not corrupt the accepted requests: they all
            # complete once the loop resumes
            service.resume()
            runs = await asyncio.gather(
                *(client.result(i) for i in accepted))
            return retry_after, runs

        (retry_after, runs), service = run_with_service(
            tmp_path, go, max_queue=3)
        assert 1 <= retry_after <= 60
        reference = direct_reference(make_request()).to_json()
        assert all(r.to_json() == reference for r in runs)
        snap = service.metrics_snapshot()
        assert snap["rejected"] == 1
        assert snap["completed"] == 3
        assert snap["failed"] == 0

    def test_capacity_frees_after_completion(self, tmp_path):
        async def go(service):
            client = ServiceClient(service)
            first = client.submit(make_request())
            await client.wait(first)
            # the terminal ticket no longer occupies the queue
            second = client.submit(make_request())
            return await client.result(second)

        run, _ = run_with_service(tmp_path, go, max_queue=1)
        assert run.prompts


class TestDeadlines:
    def test_expired_while_queued_never_executes(self, tmp_path):
        async def go(service):
            service.pause()
            client = ServiceClient(service)
            doomed = client.submit(make_request(deadline=0.01))
            fine = client.submit(make_request())
            await asyncio.sleep(0.05)      # let the deadline lapse
            service.resume()
            doomed_ticket = await client.wait(doomed)
            fine_run = await client.result(fine)
            return doomed_ticket, fine_run

        (doomed, fine_run), service = run_with_service(tmp_path, go)
        assert doomed.status == EXPIRED
        assert doomed.run is None
        assert "deadline" in doomed.error
        assert fine_run.to_json() == direct_reference(make_request()).to_json()
        snap = service.metrics_snapshot()
        assert snap["expired"] == 1 and snap["completed"] == 1

    def test_generous_deadline_completes(self, tmp_path):
        async def go(service):
            return await ServiceClient(service).evaluate(
                make_request(deadline=300.0))

        run, _ = run_with_service(tmp_path, go)
        assert run.prompts


class TestShutdown:
    def test_drain_finishes_accepted_work(self, tmp_path):
        async def main():
            service = EvalService(tmp_path, shards=1, jobs_per_shard=2,
                                  sample_cache=False)
            await service.start()
            client = ServiceClient(service)
            ids = [client.submit(make_request()) for _ in range(3)]
            # shutdown begins while the requests are queued/running
            await service.shutdown(drain=True)
            tickets = [service.get(i) for i in ids]
            return tickets, service

        tickets, service = asyncio.run(main())
        assert all(t.status == DONE for t in tickets)
        assert all(t.run is not None for t in tickets)
        assert service.metrics_snapshot()["completed"] == 3

    def test_submit_after_shutdown_raises(self, tmp_path):
        async def main():
            service = EvalService(tmp_path, sample_cache=False)
            await service.start()
            await service.shutdown(drain=True)
            with pytest.raises(ServiceClosed):
                service.submit(make_request())
            return service.metrics_snapshot()

        snap = asyncio.run(main())
        assert snap["rejected"] == 1
        assert snap["state"] == "closing"

    def test_no_drain_fails_queued_requests(self, tmp_path):
        async def main():
            service = EvalService(tmp_path, sample_cache=False)
            await service.start()
            service.pause()
            ticket_id = service.submit(make_request()).id
            await service.shutdown(drain=False)
            return service.get(ticket_id)

        ticket = asyncio.run(main())
        assert ticket.status == "failed"
        assert "shut down" in ticket.error
