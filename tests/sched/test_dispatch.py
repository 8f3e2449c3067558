"""Dispatch-policy determinism: the ready-queue order is throughput
policy, never content.

Every problem in the benchmark, under all seven execution models, is
evaluated serially and then under each dispatch policy (``lpt``,
``fifo``) plus a reversed ready queue on a parallel pool; the resulting
:class:`EvalRun` records, CSV exports, profiles, and digests must be
byte-identical.  Also covers the warm-ledger path: a second run whose
predictions come from observed history must still produce the same
bytes, while the prediction telemetry proves the ledger was actually
consulted.
"""

import pytest

from repro import evaluate_model, load_model
from repro.analysis import to_csv
from repro.analysis.export import profile_csv
from repro.bench.registry import PCGBench as Registry
from repro.harness import ConfigurationError, Runner
from repro.sched import DISPATCH_POLICIES, scheduler
from repro.sched.scheduler import harness_pool, run_scheduled

ALL_MODELS = ["serial", "openmp", "kokkos", "mpi", "mpi+omp", "cuda", "hip"]

#: every policy, then a non-plan order no policy produces
ORDERS = DISPATCH_POLICIES + ("reversed",)


def _policy(order, monkeypatch):
    """The ``dispatch=`` argument for ``order``; ``"reversed"`` swaps
    the scheduler's ordering for the reversed ready queue."""
    if order != "reversed":
        return order
    monkeypatch.setattr(scheduler, "order_tasks",
                        lambda ids, policy, predictions=None: list(ids)[::-1])
    return "lpt"


@pytest.fixture(scope="module")
def full_bench():
    return Registry(models=ALL_MODELS)


class TestFullDifferential:
    """The acceptance gate: byte-identical EvalRuns under every policy."""

    def test_every_problem_every_model_every_policy(self, full_bench,
                                                    monkeypatch):
        llm = load_model("GPT-4")
        kwargs = dict(num_samples=2, temperature=0.2, seed=9)
        reference = evaluate_model(llm, full_bench, **kwargs)
        for order in ORDERS:
            run = evaluate_model(llm, full_bench, jobs=2,
                                 dispatch=_policy(order, monkeypatch),
                                 **kwargs)
            assert run.to_json() == reference.to_json(), order
            assert run.digest() == reference.digest(), order
            assert to_csv(run) == to_csv(reference), order

    def test_timed_profiled_slice_every_policy(self, monkeypatch):
        # timing + profiling produce the heaviest, most skewed tasks —
        # exactly where LPT reorders hardest
        bench = Registry(problem_types=["reduce", "transform"],
                         models=ALL_MODELS)
        llm = load_model("GPT-4")
        kwargs = dict(num_samples=2, temperature=0.2, seed=9,
                      with_timing=True, profile=True)
        reference = evaluate_model(llm, bench, **kwargs)
        for order in ORDERS:
            run = evaluate_model(llm, bench, jobs=2,
                                 dispatch=_policy(order, monkeypatch),
                                 **kwargs)
            assert run.to_json() == reference.to_json(), order
            assert profile_csv(run) == profile_csv(reference), order


class TestWarmLedger:
    def test_second_run_uses_history_and_matches(self, tmp_path):
        bench = Registry(problem_types=["transform"],
                         models=["serial", "openmp"])
        llm = load_model("GPT-3.5")
        kwargs = dict(num_samples=2, temperature=0.2, seed=7,
                      ledger_path=tmp_path / "durations.jsonl")
        with harness_pool(Runner(), 2) as pool:
            cold_run, cold_tel = run_scheduled(llm, bench, pool, **kwargs)
            warm_run, warm_tel = run_scheduled(llm, bench, pool, **kwargs)
        # first run: every key is cold, predictions are estimator-ranked
        assert cold_tel.ledger_predictions == 0
        assert cold_tel.estimator_predictions > 0
        assert cold_tel.pred_samples == 0        # estimator units: no MAE
        # second run: same feature keys, now served from observed history
        assert warm_tel.ledger_predictions > 0
        assert warm_tel.ledger_hit_rate() == pytest.approx(1.0)
        assert warm_tel.pred_samples > 0
        assert warm_tel.pred_mae_seconds() >= 0.0
        # and the history changed dispatch order only, never bytes
        assert warm_run.to_json() == cold_run.to_json()

    def test_ledger_file_is_created_and_grows(self, tmp_path):
        bench = Registry(problem_types=["transform"], models=["serial"])
        path = tmp_path / "durations.jsonl"
        kwargs = dict(num_samples=2, temperature=0.2, seed=7,
                      ledger_path=path)
        with harness_pool(Runner(), 2) as pool:
            run_scheduled(load_model("GPT-3.5"), bench, pool, **kwargs)
            assert path.exists()
            first = path.stat().st_size
            assert first > 0
            run_scheduled(load_model("GPT-3.5"), bench, pool, **kwargs)
        assert path.stat().st_size > first       # merged, not truncated


class TestValidation:
    def test_unknown_policy_rejected_before_any_work(self):
        bench = Registry(problem_types=["transform"], models=["serial"])
        with pytest.raises(ConfigurationError):
            evaluate_model(load_model("GPT-3.5"), bench, num_samples=2,
                           seed=7, jobs=2, dispatch="sjf")

    def test_dispatch_flag_routes_single_job_through_scheduler(self):
        # dispatch != default forces the scheduled path even at jobs=1,
        # and the result still matches the serial loop
        bench = Registry(problem_types=["transform"], models=["serial"])
        llm = load_model("GPT-3.5")
        kwargs = dict(num_samples=2, temperature=0.2, seed=7)
        reference = evaluate_model(llm, bench, **kwargs)
        run = evaluate_model(llm, bench, dispatch="fifo", **kwargs)
        assert run.to_json() == reference.to_json()
