"""Serving-layer throughput: requests/sec with batching on vs off.

The workload is a burst of overlapping requests — the shape the
micro-batcher exists for.  With batching on, one batch executes the
content-deduplicated union of the requests' task sets; with batching
off, every request is its own batch and re-executes its full plan.  The
sample cache is disabled so the comparison measures *batching*, not
cross-batch caching.
"""

import asyncio
import time

import pytest

from repro.serve import EvalRequest, EvalService, ServiceClient

#: a burst of overlapping requests: same slice, staggered exec columns,
#: so cross-request dedup has both shared and private tasks
_BURST = [
    EvalRequest(model="GPT-3.5", ptypes=("transform",),
                exec_models=("serial", "openmp"), samples=2, seed=7),
    EvalRequest(model="GPT-3.5", ptypes=("transform",),
                exec_models=("serial", "openmp"), samples=2, seed=7),
    EvalRequest(model="GPT-3.5", ptypes=("transform",),
                exec_models=("openmp", "kokkos"), samples=2, seed=7),
    EvalRequest(model="GPT-3.5", ptypes=("transform",),
                exec_models=("serial", "kokkos"), samples=2, seed=7),
]


def _serve_burst(workdir, batching):
    """Push the burst through a fresh service; returns (wall_s, metrics)."""

    async def main():
        service = EvalService(workdir, shards=1, jobs_per_shard=2,
                              sample_cache=False,
                              max_batch=len(_BURST) if batching else 1,
                              max_queue=len(_BURST))
        await service.start()
        client = ServiceClient(service)
        t0 = time.perf_counter()
        ids = [client.submit(req) for req in _BURST]
        runs = await asyncio.gather(*(client.result(i) for i in ids))
        wall = time.perf_counter() - t0
        await service.shutdown(drain=True)
        assert all(r.prompts for r in runs)
        return wall, service.metrics_snapshot()

    return asyncio.run(main())


@pytest.mark.parametrize("batching", [False, True],
                         ids=["batching-off", "batching-on"])
def test_service_burst_throughput(benchmark, tmp_path_factory, batching):
    """Requests/sec over the burst, batching on vs off."""
    counter = [0]

    def once():
        counter[0] += 1
        workdir = tmp_path_factory.mktemp(
            f"serve-{'on' if batching else 'off'}-{counter[0]}")
        return _serve_burst(workdir, batching)

    wall, snap = benchmark.pedantic(once, rounds=2, iterations=1,
                                    warmup_rounds=0)
    assert snap["completed"] == len(_BURST)
    print(f"\nbatching={'on' if batching else 'off'}: "
          f"{len(_BURST) / wall:.2f} req/s, "
          f"{snap['tasks_executed']} tasks executed "
          f"({snap['tasks_deduped']} deduped)")


def test_batching_executes_fewer_tasks(tmp_path):
    """The acceptance check: batching on strictly beats batching off on
    executed-task count for an overlapping burst, and completes every
    request either way."""
    wall_off, snap_off = _serve_burst(tmp_path / "off", batching=False)
    wall_on, snap_on = _serve_burst(tmp_path / "on", batching=True)
    print(f"\nburst of {len(_BURST)}: off {wall_off:.2f}s "
          f"({snap_off['tasks_executed']} tasks) vs on {wall_on:.2f}s "
          f"({snap_on['tasks_executed']} tasks, "
          f"{snap_on['tasks_deduped']} deduped)")
    assert snap_off["completed"] == len(_BURST)
    assert snap_on["completed"] == len(_BURST)
    assert snap_off["failed"] == 0 and snap_on["failed"] == 0
    # same total demand either way ...
    assert snap_on["tasks_planned"] == snap_off["tasks_planned"]
    # ... but batching executes only the deduplicated union
    assert snap_on["tasks_executed"] < snap_off["tasks_executed"]
    assert snap_on["tasks_deduped"] > 0
