"""Shared fixtures for the serving-layer tests.

Every test drives the same small benchmark slice the chaos suite uses
(transform x {serial, openmp}, GPT-3.5, two samples, seed 7) so the
session-scoped direct reference run is computed once and reused by all
the differential assertions.
"""

import asyncio

import pytest

from repro.bench import PCGBench
from repro.harness import Runner, evaluate_model
from repro.models import load_model
from repro.serve import EvalRequest, EvalService

PTYPES = ("transform",)
EXEC = ("serial", "openmp")
LLM = "GPT-3.5"
SAMPLES = 2
SEED = 7


def make_request(**overrides) -> EvalRequest:
    base = dict(model=LLM, ptypes=PTYPES, exec_models=EXEC,
                samples=SAMPLES, seed=SEED)
    base.update(overrides)
    return EvalRequest(**base)


def direct_reference(request: EvalRequest):
    """What evaluate_model produces for the same request, directly."""
    return evaluate_model(
        load_model(request.model),
        PCGBench(problem_types=list(request.ptypes),
                 models=list(request.exec_models)),
        num_samples=request.samples, temperature=request.temperature,
        with_timing=request.with_timing, runner=Runner(),
        seed=request.seed, profile=request.profile)


@pytest.fixture(scope="session")
def direct_run():
    """Direct (unserved) run of the standard request."""
    return direct_reference(make_request())


def run_with_service(tmp_path, coro_fn, **service_kwargs):
    """Start a service, run ``coro_fn(service)``, drain, shut down."""
    kwargs = dict(shards=1, jobs_per_shard=2, sample_cache=False)
    kwargs.update(service_kwargs)

    async def main():
        service = EvalService(tmp_path, **kwargs)
        await service.start()
        try:
            return await coro_fn(service), service
        finally:
            await service.shutdown(drain=True)

    return asyncio.run(main())
