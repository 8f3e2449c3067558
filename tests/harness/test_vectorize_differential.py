"""Golden differential suite: the vectorized tier must be invisible.

Every problem in the benchmark, under all seven execution models, is
evaluated with the tier on and off; the resulting :class:`EvalRun`
records, CSV exports, profiles, and digests must be byte-identical.
Also covers the runner-level plumbing: the fingerprint ignores the tier,
``vec`` telemetry stays out of the serialised run, and the compile cache
serves repeated sources.
"""

import numpy as np
import pytest

from repro import PCGBench, Runner, evaluate_model, load_model
from repro.analysis import to_csv
from repro.analysis.export import profile_csv
from repro.bench import all_problems
from repro.bench.baselines import baseline_source
from repro.bench.registry import PCGBench as Registry
from repro.harness.runner import (
    clear_compile_cache,
    compile_cache_stats,
    compile_sample,
)
from repro.sched.plan import runner_fingerprint

ALL_MODELS = ["serial", "openmp", "kokkos", "mpi", "mpi+omp", "cuda", "hip"]


class TestRunnerPlumbing:
    def test_fingerprint_ignores_vectorize(self):
        # the tier changes throughput, never results: runs from either
        # tier must share journal/cache identities
        assert (runner_fingerprint(Runner(vectorize=True))
                == runner_fingerprint(Runner(vectorize=False)))

    def test_vec_telemetry_on_result(self):
        bench = PCGBench(problem_types=["reduce"], models=["serial"])
        prompt = bench.prompts[0]
        runner = Runner()
        src = baseline_source(prompt.problem.name)
        res = runner.evaluate_sample(src, prompt)
        assert res.vec is not None
        assert res.vec["tier"] == "numpy"
        assert res.vec["vectorize"] is True
        off = Runner(vectorize=False).evaluate_sample(src, prompt)
        assert off.vec["tier"] == "scalar"
        assert off.vec["bulk_loops"] == 0

    def test_vec_stripped_from_json(self):
        bench = PCGBench(problem_types=["reduce"], models=["serial"])
        run = evaluate_model(load_model("GPT-4"), bench, num_samples=2,
                             seed=5)
        some = next(iter(run.prompts.values())).samples[0]
        assert some.vec is not None          # in-memory observability
        assert '"vec"' not in run.to_json()  # never serialised


class TestCompileCache:
    def test_repeat_compiles_hit(self):
        clear_compile_cache()
        src = baseline_source("sum_of_elements")
        p1, r1 = compile_sample(src, "serial")
        p2, r2 = compile_sample(src, "serial")
        assert p1 is not None and r1 is None
        assert p2 is p1                      # content-addressed reuse
        stats = compile_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        # a different model is a different link target: its own entry
        compile_sample(src, "openmp")
        assert compile_cache_stats()["misses"] == 2

    def test_failed_compiles_cached_too(self):
        clear_compile_cache()
        prog, reason = compile_sample("kernel broken(", "serial")
        assert prog is None and reason
        prog2, reason2 = compile_sample("kernel broken(", "serial")
        assert prog2 is None and reason2 == reason
        assert compile_cache_stats()["hits"] == 1

    def test_cache_is_bounded(self):
        from repro.harness import runner as runner_mod

        clear_compile_cache()
        for k in range(runner_mod._COMPILE_CACHE_MAX + 20):
            compile_sample(f"kernel k{k}(x: array<float>) {{ fill(x, "
                           f"{k}.0); }}", "serial")
        assert len(runner_mod._COMPILE_CACHE) == runner_mod._COMPILE_CACHE_MAX


@pytest.fixture(scope="module")
def full_bench():
    return Registry(models=ALL_MODELS)


class TestFullDifferential:
    """The acceptance gate: byte-identical EvalRuns, tier on vs off."""

    def test_every_problem_every_model_digest_identical(self, full_bench):
        # correctness-only pass over the whole benchmark (every problem
        # x all seven models, 2 samples each)
        assert {p.name for p in full_bench.problems} \
            == {p.name for p in all_problems()}
        llm = load_model("GPT-4")
        kwargs = dict(num_samples=2, temperature=0.2, seed=9)
        on = evaluate_model(llm, full_bench,
                            runner=Runner(vectorize=True), **kwargs)
        off = evaluate_model(llm, full_bench,
                             runner=Runner(vectorize=False), **kwargs)
        assert on.to_json() == off.to_json()
        assert on.digest() == off.digest()
        assert to_csv(on) == to_csv(off)
        # and the tier actually did something on the on-side
        bulk = sum(s.vec["bulk_loops"]
                   for pr in on.prompts.values() for s in pr.samples
                   if s.vec)
        assert bulk > 0

    def test_timed_profiled_slice_identical(self):
        # timing + profiling exercise the windowed executors, the
        # parallel_adjust pricing, and prof conservation on both tiers
        bench = Registry(problem_types=["reduce", "transform"],
                         models=ALL_MODELS)
        llm = load_model("GPT-4")
        kwargs = dict(num_samples=2, temperature=0.2, seed=9,
                      with_timing=True, profile=True)
        on = evaluate_model(llm, bench, runner=Runner(vectorize=True),
                            **kwargs)
        off = evaluate_model(llm, bench, runner=Runner(vectorize=False),
                             **kwargs)
        assert on.to_json() == off.to_json()
        assert profile_csv(on) == profile_csv(off)

    def test_baselines_all_models_identical(self, full_bench):
        # handwritten baselines through the raw sample pipeline, which
        # covers solution shapes the simulated LLM may not emit
        by_uid = {}
        for vec in (True, False):
            runner = Runner(vectorize=vec)
            for prompt in full_bench.prompts:
                src = baseline_source(prompt.problem.name)
                res = runner.evaluate_sample(src, prompt, with_timing=False)
                by_uid.setdefault(prompt.uid, []).append(
                    (res.status, res.detail))
        for uid, (on, off) in by_uid.items():
            assert on == off, uid


class TestSchedulerTelemetry:
    def test_vec_and_cache_counters_flow_to_telemetry(self):
        from repro.sched.events import Telemetry

        clear_compile_cache()
        bench = PCGBench(problem_types=["reduce"], models=["serial"])
        telemetry = Telemetry()
        evaluate_model(load_model("GPT-4"), bench, num_samples=2, seed=5,
                       jobs=1, events=telemetry)
        assert telemetry.counters["vec_bulk_loops"] > 0
        assert (telemetry.counters["vec_bulk_iters"]
                >= telemetry.counters["vec_bulk_loops"])
        total_cache = (telemetry.compile_cache_hits
                       + telemetry.compile_cache_misses)
        assert total_cache > 0

    def test_scheduled_run_digest_matches_serial(self):
        bench = PCGBench(problem_types=["reduce"], models=["openmp"])
        llm = load_model("GPT-4")
        kwargs = dict(num_samples=2, temperature=0.2, seed=7)
        serial = evaluate_model(llm, bench, **kwargs)
        for vec in (True, False):
            sched = evaluate_model(llm, bench, jobs=2,
                                   runner=Runner(vectorize=vec), **kwargs)
            assert sched.to_json() == serial.to_json()
