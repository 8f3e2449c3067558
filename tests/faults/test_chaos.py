"""The chaos invariant suite, pinned as regressions (the same checks
``repro chaos`` runs from the command line)."""

from repro.faults import FaultPlan, injector
from repro.faults.chaos import (
    ChaosReport,
    chaos_slice,
    check_dispatch_resilience,
    check_event_determinism,
    check_guard_resilience,
    check_injector_transparency,
    check_kill_resume,
    check_profile_determinism,
    check_sched_resilience,
    check_serve_resilience,
    check_vectorize_resilience,
    run_chaos,
)
from repro.harness import evaluate_model


class TestInvariants:
    def test_injector_transparency(self):
        report = check_injector_transparency()
        assert report.passed, report.detail

    def test_event_determinism(self):
        report = check_event_determinism(seed=11)
        assert report.passed, report.detail

    def test_profile_determinism(self):
        report = check_profile_determinism(seed=11)
        assert report.passed, report.detail

    def test_vectorize_resilience(self):
        report = check_vectorize_resilience(seed=11)
        assert report.passed, report.detail

    def test_sched_resilience(self):
        report = check_sched_resilience(jobs=4)
        assert report.passed, report.detail

    def test_kill_resume(self, tmp_path):
        report = check_kill_resume(tmp_path, jobs=2)
        assert report.passed, report.detail
        assert "kill points" in report.detail

    def test_serve_resilience(self, tmp_path):
        report = check_serve_resilience(tmp_path, jobs=2)
        assert report.passed, report.detail
        assert "batch pool-loop deaths" in report.detail

    def test_guard_resilience(self, tmp_path):
        report = check_guard_resilience(tmp_path, jobs=2)
        assert report.passed, report.detail
        assert "quarantined exactly once" in report.detail
        assert "SIGKILL" in report.detail

    def test_dispatch_resilience(self, tmp_path):
        report = check_dispatch_resilience(tmp_path, jobs=2)
        assert report.passed, report.detail
        assert "ledger-predicted" in report.detail


class TestSuiteDriver:
    def test_run_chaos_collects_all_reports(self, tmp_path):
        lines = []
        reports = run_chaos(seed=3, jobs=2, workdir=tmp_path,
                            log=lines.append)
        assert [r.invariant for r in reports] == [
            "injector-transparency", "event-determinism",
            "profile-determinism", "vectorize-resilience",
            "sched-resilience", "kill-resume", "serve-resilience",
            "guard-resilience", "dispatch-resilience"]
        assert all(r.passed for r in reports), \
            [r.line() for r in reports if not r.passed]
        assert any("chaos: checking" in line for line in lines)

    def test_report_line_format(self):
        assert ChaosReport("x", True, "ok").line() == "[PASS] x: ok"
        assert ChaosReport("x", False, "bad").line().startswith("[FAIL]")


class TestSeededFaultsStillTerminate:
    def test_seeded_runtime_plan_yields_only_known_statuses(self):
        """Whatever a seeded plan breaks, every sample still lands in a
        documented terminal status — faults never wedge the harness."""
        llm, bench = chaos_slice()
        plan = FaultPlan.from_seed(23).restricted(("runtime", "harness"))
        with injector(plan):
            run = evaluate_model(llm, bench, num_samples=2,
                                 temperature=0.2, with_timing=True, seed=7)
        allowed = {"correct", "wrong_answer", "runtime_error", "timeout",
                   "not_parallel", "static_fail", "build_error",
                   "system_error", "degraded"}
        seen = {s.status for r in run.prompts.values() for s in r.samples}
        assert seen <= allowed
