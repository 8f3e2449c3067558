"""Micro-batching and cross-request deduplication.

Two concurrent requests with overlapping benchmark slices must coalesce:
the batch executes strictly fewer tasks than the naive per-request sum,
and each request still gets back exactly the run a direct evaluation
would have produced (correct demultiplexing)."""

import asyncio

from repro.serve import ServiceClient, plan_batch, union_tasks
from repro.harness import Runner

from .conftest import direct_reference, make_request, run_with_service


def overlapping_requests():
    """Identical slice except one adds the kokkos column — the serial and
    openmp tasks are shared, the kokkos ones are not."""
    a = make_request()
    b = make_request(exec_models=("serial", "openmp", "kokkos"))
    return a, b


class TestCoalescing:
    def test_overlap_executes_fewer_than_naive_sum(self, tmp_path):
        a, b = overlapping_requests()

        async def go(service):
            client = ServiceClient(service)
            # submit both before yielding so one batch takes both
            id_a, id_b = client.submit(a), client.submit(b)
            return await asyncio.gather(client.result(id_a),
                                        client.result(id_b))

        (run_a, run_b), service = run_with_service(
            tmp_path, go)
        snap = service.metrics_snapshot()
        assert snap["batches"] == 1, "requests were not coalesced"
        assert snap["batched_requests"] == 2
        assert snap["tasks_unique"] < snap["tasks_planned"]
        assert snap["tasks_deduped"] == (snap["tasks_planned"]
                                         - snap["tasks_unique"])
        assert snap["tasks_executed"] == snap["tasks_unique"]
        # demux correctness: each request got its own exact run
        assert run_a.to_json() == direct_reference(a).to_json()
        assert run_b.to_json() == direct_reference(b).to_json()

    def test_identical_requests_fully_dedup(self, tmp_path):
        request = make_request()

        async def go(service):
            client = ServiceClient(service)
            ids = [client.submit(request) for _ in range(3)]
            return await asyncio.gather(*(client.result(i) for i in ids))

        runs, service = run_with_service(tmp_path, go)
        snap = service.metrics_snapshot()
        assert snap["batches"] == 1
        assert snap["tasks_planned"] == 3 * snap["tasks_unique"]
        reference = direct_reference(request).to_json()
        assert all(r.to_json() == reference for r in runs)

    def test_batching_disabled_runs_separate_batches(self, tmp_path):
        request = make_request()

        async def go(service):
            client = ServiceClient(service)
            ids = [client.submit(request) for _ in range(2)]
            return await asyncio.gather(*(client.result(i) for i in ids))

        runs, service = run_with_service(tmp_path, go, max_batch=1)
        snap = service.metrics_snapshot()
        assert snap["batches"] == 2
        reference = direct_reference(request).to_json()
        assert all(r.to_json() == reference for r in runs)


class TestUnionPlanning:
    def test_union_tasks_is_content_dedup(self):
        a, b = overlapping_requests()
        plans = plan_batch([a, b], Runner())
        union = union_tasks(plans)
        naive = sum(len(p.tasks) for p in plans)
        assert len(union) < naive
        # the union covers every plan's tasks exactly
        for plan in plans:
            assert set(plan.tasks) <= set(union)
        assert set(union) == set(plans[0].tasks) | set(plans[1].tasks)
