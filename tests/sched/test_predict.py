"""Cost prediction: the duration ledger, the static estimator, and the
dispatch-order policies (``repro.sched.predict``)."""

import json

import pytest

from repro.bench import PCGBench
from repro.harness import ConfigurationError, Runner
from repro.models import load_model
from repro.sched import (
    CostEstimator,
    DISPATCH_POLICIES,
    DurationLedger,
    PRED_ESTIMATOR,
    PRED_LEDGER,
    SOURCE_CACHE,
    SOURCE_EXECUTED,
    TaskFinished,
    feature_key,
    ledger_path_for,
    order_tasks,
    plan_keys,
    predict_plan,
)
from repro.sched.plan import build_plan
from repro.sched.predict import _COMPACT_AT, _RECENT_CAP, ledger_feedback


class TestFeatureKey:
    def test_mode_encodes_timing_and_profile(self):
        assert feature_key("sample", "relu", "openmp") \
            == "sample|relu|openmp|plain"
        assert feature_key("sample", "relu", "openmp", with_timing=True) \
            == "sample|relu|openmp|timed"
        assert feature_key("sample", "relu", "openmp", with_timing=True,
                           profile=True) == "sample|relu|openmp|timed-prof"

    def test_baseline_keys_have_no_exec_model(self):
        assert feature_key("baseline", "relu", with_timing=True) \
            == "baseline|relu||timed"


class TestDurationLedger:
    def test_cold_key_predicts_none(self, tmp_path):
        ledger = DurationLedger(tmp_path / "d.jsonl")
        assert ledger.predict("sample|relu|serial|plain") is None

    def test_observe_predict_round_trip(self, tmp_path):
        ledger = DurationLedger(tmp_path / "d.jsonl")
        ledger.observe("k", 2.0)
        assert ledger.predict("k") == pytest.approx(2.0)
        # EMA with alpha=0.3 pulls toward the new observation
        ledger.observe("k", 4.0)
        assert ledger.predict("k") == pytest.approx(0.3 * 4.0 + 0.7 * 2.0)

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "d.jsonl"
        with DurationLedger(path) as ledger:
            ledger.observe("k", 1.5)
        reloaded = DurationLedger(path)
        assert reloaded.predict("k") == pytest.approx(1.5)
        assert [json.loads(line)["k"] for line
                in path.read_text().splitlines()] == ["k"]

    def test_concurrent_appends_merge_on_load(self, tmp_path):
        # two processes appending to the same file: both histories count
        path = tmp_path / "d.jsonl"
        a, b = DurationLedger(path), DurationLedger(path)
        a.observe("k", 1.0)
        a.close()
        b.observe("k", 3.0)
        b.close()
        merged = DurationLedger(path)
        assert merged.predict("k") == pytest.approx(0.3 * 3.0 + 0.7 * 1.0)

    def test_torn_tail_and_garbage_lines_are_skipped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            json.dumps({"k": "good", "d": 1.0}) + "\n"
            + "not json at all\n"
            + json.dumps(["wrong", "shape"]) + "\n"
            + json.dumps({"k": "neg", "d": -5.0}) + "\n"
            + '{"k": "torn", "d"')            # killed mid-write: no newline
        ledger = DurationLedger(path)
        assert ledger.predict("good") == pytest.approx(1.0)
        assert ledger.predict("torn") is None
        assert ledger.predict("neg") is None

    def test_file_without_trailing_newline_is_all_torn(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"k": "only", "d": 1.0}')   # single torn line
        assert DurationLedger(path).predict("only") is None

    def test_negative_observations_ignored(self, tmp_path):
        ledger = DurationLedger(tmp_path / "d.jsonl")
        ledger.observe("k", -1.0)
        assert ledger.predict("k") is None

    def test_compaction_rewrites_as_summaries(self, tmp_path):
        path = tmp_path / "d.jsonl"
        ledger = DurationLedger(path)
        for i in range(_COMPACT_AT + 10):
            ledger.observe(f"key-{i % 3}", 1.0 + (i % 5))
        before = ledger.predict("key-0")
        ledger.close()
        # compacted: one summary line per key, loads to the same stats
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert len(lines) == 3
        assert all(rec["kind"] == "summary" for rec in lines)
        reloaded = DurationLedger(path)
        assert reloaded.predict("key-0") == pytest.approx(before)
        # each summary carries the key's recent window
        assert all(len(rec["recent"]) == _RECENT_CAP for rec in lines)

    def test_unwritable_directory_degrades_gracefully(self, tmp_path):
        # a file path whose parent is an existing *file*: open fails, but
        # in-memory predictions keep working
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        ledger = DurationLedger(blocker / "d.jsonl")
        ledger.observe("k", 1.0)
        ledger.flush()
        ledger.close()
        assert ledger.predict("k") == pytest.approx(1.0)


class TestLedgerFeedback:
    def test_only_executed_tasks_with_a_key_are_observed(self, tmp_path):
        ledger = DurationLedger(tmp_path / "d.jsonl")
        sink = ledger_feedback(ledger, {"t1": "k1", "t2": "k2"})
        sink(TaskFinished(task_id="t1", kind="sample",
                          source=SOURCE_EXECUTED, duration=2.0))
        sink(TaskFinished(task_id="t2", kind="sample",
                          source=SOURCE_CACHE, duration=5.0))
        sink(TaskFinished(task_id="t3", kind="sample",
                          source=SOURCE_EXECUTED, duration=7.0))
        sink("not an event")
        assert ledger.predict("k1") == pytest.approx(2.0)
        assert ledger.predict("k2") is None


class TestCostEstimator:
    def test_timed_dominates_plain(self):
        est = CostEstimator(Runner())
        src = "kernel f(x: array<float>) { for i in 0..n { x[i] = 1.0; } }"
        assert est.estimate_sample(src, "serial", True) \
            > est.estimate_sample(src, "serial", False)

    def test_sweep_width_ranks_execution_models(self):
        est = CostEstimator(Runner())
        src = "kernel f(x: array<float>) { pfor i in 0..n { x[i] = 1.0; } }"
        # openmp/kokkos sweep the thread grid; serial runs once
        assert est.estimate_sample(src, "openmp", True) \
            > est.estimate_sample(src, "serial", True)
        assert est.sweep_points("openmp") == len(Runner().thread_counts)
        assert est.sweep_points("mpi") == len(Runner().mpi_rank_counts)
        assert est.sweep_points("serial") == 1

    def test_profile_and_vectorizability_adjust(self):
        est = CostEstimator(Runner())
        vec = "kernel f(x: array<float>) { for i in 0..n { x[i] = 1.0; } }"
        non = "kernel f(x: array<float>) { for i in 0..n { x[i] = x[i] / 2.0; } }"
        assert est.estimate_sample(vec, "serial", True, profile=True) \
            > est.estimate_sample(vec, "serial", True)
        assert est.estimate_sample(non, "serial", False) \
            > est.estimate_sample(vec, "serial", False)

    def test_baseline_is_long(self):
        est = CostEstimator(Runner())
        assert est.estimate_baseline() > est.estimate_sample(
            "kernel f(x: array<float>) { fill(x, 0.0); }", "serial", False)


@pytest.fixture(scope="module")
def small_plan():
    bench = PCGBench(problem_types=["transform"], models=["serial", "openmp"])
    return build_plan(load_model("GPT-3.5"), bench, 2, 0.2, True,
                      Runner(), 7)


class TestPredictPlan:
    def test_every_task_gets_a_key_and_a_prediction(self, small_plan):
        keys = plan_keys(small_plan)
        preds = predict_plan(small_plan, Runner())
        assert set(keys) == set(small_plan.tasks)
        assert set(preds) == set(small_plan.tasks)
        assert all(prov == PRED_ESTIMATOR for _, prov in preds.values())
        assert all(value > 0 for value, _ in preds.values())

    def test_ledger_history_wins_over_estimator(self, small_plan, tmp_path):
        keys = plan_keys(small_plan)
        warm_key = next(iter(keys.values()))
        ledger = DurationLedger(tmp_path / "d.jsonl")
        ledger.observe(warm_key, 42.0)
        preds = predict_plan(small_plan, Runner(), ledger)
        for tid, key in keys.items():
            value, prov = preds[tid]
            if key == warm_key:
                assert (value, prov) == (pytest.approx(42.0), PRED_LEDGER)
            else:
                assert prov == PRED_ESTIMATOR


class TestOrderTasks:
    PREDS = {"a": (1.0, "estimator"), "b": (9.0, "estimator"),
             "c": (5.0, "estimator"), "d": (9.0, "estimator")}

    def test_fifo_preserves_plan_order(self):
        assert order_tasks(["a", "b", "c"], "fifo", self.PREDS) \
            == ["a", "b", "c"]

    def test_lpt_sorts_longest_first_with_stable_ties(self):
        # b and d tie at 9.0: plan index breaks the tie
        assert order_tasks(["a", "b", "c", "d"], "lpt", self.PREDS) \
            == ["b", "d", "c", "a"]

    def test_lpt_without_predictions_degrades_to_plan_order(self):
        assert order_tasks(["a", "b", "c"], "lpt", None) == ["a", "b", "c"]

    def test_unknown_policy_rejected_before_any_work(self):
        with pytest.raises(ConfigurationError):
            order_tasks(["a"], "shortest-first")

    def test_all_registered_policies_accepted(self):
        for policy in DISPATCH_POLICIES:
            assert sorted(order_tasks(["a", "b"], policy, self.PREDS)) \
                == ["a", "b"]


class TestLedgerPath:
    def test_lives_next_to_the_sample_cache(self, tmp_path):
        assert ledger_path_for(tmp_path) == tmp_path / "durations.jsonl"
