"""The acceptance load test: 64 concurrent in-process clients, every
accepted request completes — zero dropped after admission."""

import asyncio

from repro.serve import Overloaded, ServiceClient
from repro.serve.service import DONE

from .conftest import direct_reference, make_request, run_with_service

N_CLIENTS = 64


class TestLoad:
    def test_64_concurrent_clients_zero_dropped(self, tmp_path):
        request = make_request()

        async def go(service):
            client = ServiceClient(service)

            async def one_client(i):
                # interleave admissions across the event loop like real
                # concurrent clients would
                await asyncio.sleep(0.001 * (i % 8))
                ticket_id = client.submit(request)
                ticket = await client.wait(ticket_id)
                return ticket

            return await asyncio.gather(
                *(one_client(i) for i in range(N_CLIENTS)))

        tickets, service = run_with_service(
            tmp_path, go, max_queue=N_CLIENTS, max_batch=N_CLIENTS)
        # zero dropped after accept: every admitted request reached DONE
        assert len(tickets) == N_CLIENTS
        assert all(t.status == DONE for t in tickets), \
            {t.id: (t.status, t.error) for t in tickets if t.status != DONE}
        reference = direct_reference(request).to_json()
        assert all(t.run.to_json() == reference for t in tickets)
        snap = service.metrics_snapshot()
        assert snap["accepted"] == N_CLIENTS
        assert snap["completed"] == N_CLIENTS
        assert snap["failed"] == 0 and snap["expired"] == 0
        assert snap["queue_depth"] == 0 and snap["running"] == 0
        # identical requests: batching collapses the work massively
        assert snap["tasks_executed"] < snap["tasks_planned"]
        assert snap["wait_seconds"]["count"] == N_CLIENTS

    def test_overloaded_burst_rejects_but_never_drops(self, tmp_path):
        """Admission beyond the queue bound 429s; everything admitted
        still completes."""
        request = make_request()

        async def go(service):
            service.pause()
            client = ServiceClient(service)
            admitted, rejected = [], 0
            for _ in range(N_CLIENTS):
                try:
                    admitted.append(client.submit(request))
                except Overloaded:
                    rejected += 1
            service.resume()
            tickets = await asyncio.gather(
                *(client.wait(i) for i in admitted))
            return tickets, rejected

        (tickets, rejected), service = run_with_service(
            tmp_path, go, max_queue=8, max_batch=8)
        assert rejected == N_CLIENTS - 8
        assert len(tickets) == 8
        assert all(t.status == DONE for t in tickets)
        snap = service.metrics_snapshot()
        assert snap["accepted"] == 8
        assert snap["rejected"] == N_CLIENTS - 8
        assert snap["completed"] == 8
