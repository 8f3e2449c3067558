"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out

    def test_prompt(self, capsys):
        assert main(["prompt", "scan/partial_minimums/kokkos"]) == 0
        out = capsys.readouterr().out
        assert "Kokkos" in out
        assert "kernel partial_minimums" in out

    def test_prompt_unknown(self, capsys):
        assert main(["prompt", "bogus/uid/here"]) == 2

    def test_run(self, capsys):
        assert main(["run", "transform/relu/openmp", "--model", "GPT-4",
                     "--samples", "3"]) == 0
        out = capsys.readouterr().out
        assert "pass@1 estimate:" in out

    def test_run_with_timing_and_verbose(self, capsys):
        assert main(["run", "reduce/sum_of_elements/serial",
                     "--model", "GPT-3.5", "--samples", "2",
                     "--timing", "-v"]) == 0
        out = capsys.readouterr().out
        assert "kernel sum_of_elements" in out

    def test_eval_slice(self, capsys):
        assert main([
            "eval", "--models", "CodeLlama-7B",
            "--ptypes", "transform", "--exec", "serial,openmp",
            "--samples", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 3" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_eval_no_static_screen(self, capsys):
        assert main([
            "eval", "--models", "CodeLlama-7B",
            "--ptypes", "transform", "--exec", "serial",
            "--samples", "2", "--no-static-screen",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out

    def test_jobs_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["eval", "--models", "GPT-4", "--ptypes", "transform",
                  "--exec", "serial", "--samples", "2", "--jobs", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_bad_repro_samples_is_a_clean_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLES", "abc")
        assert main(["eval", "--models", "GPT-4", "--ptypes", "transform",
                     "--exec", "serial", "--samples", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") or "error:" in err
        assert "REPRO_SAMPLES" in err

    def test_parallel_eval_slice(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        assert main([
            "eval", "--models", "CodeLlama-7B",
            "--ptypes", "transform", "--exec", "serial,openmp",
            "--samples", "2", "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 3" in out

    def test_parallel_eval_forks_one_pool_for_every_model(
            self, capsys, tmp_path, monkeypatch):
        import multiprocessing as mp

        from repro.sched import WorkerPool

        spawned = []
        real_spawn = WorkerPool._spawn

        def counting_spawn(pool):
            spawned.append(real_spawn(pool))
            return spawned[-1]

        monkeypatch.setattr(WorkerPool, "_spawn", counting_spawn)
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        before = set(mp.active_children())
        assert main([
            "eval", "--models", "CodeLlama-7B,GPT-3.5",
            "--ptypes", "transform", "--exec", "serial",
            "--samples", "2", "--jobs", "2",
        ]) == 0
        assert len(spawned) == 2
        assert set(mp.active_children()) == before


class TestProfileCommand:
    def test_reference_solution_cost_tree(self, capsys):
        assert main(["profile", "stencil/jacobi_2d/openmp"]) == 0
        out = capsys.readouterr().out
        assert "solution[0]" in out and "correct" in out
        assert "n=1" in out and "n=32" in out
        assert "compute" in out and "fork_join" in out
        assert "Karp–Flatt" in out
        assert "counters:" in out and "parallel_regions=1" in out

    def test_llm_samples(self, capsys):
        assert main(["profile", "transform/relu/openmp",
                     "--model", "GPT-4", "--samples", "2", "--all"]) == 0
        out = capsys.readouterr().out
        assert "GPT-4[0]" in out and "GPT-4[1]" in out

    def test_unknown_uid(self, capsys):
        assert main(["profile", "bogus/uid/here"]) == 2
        assert "unknown prompt" in capsys.readouterr().err

    def test_eval_profile_requires_timing(self, capsys):
        assert main(["eval", "--models", "GPT-3.5", "--ptypes",
                     "transform", "--exec", "serial", "--samples", "1",
                     "--profile"]) == 2
        assert "with_timing" in capsys.readouterr().err

    def test_eval_profile_prints_lost_cycles(self, capsys):
        assert main([
            "eval", "--models", "GPT-3.5", "--ptypes", "stencil",
            "--exec", "openmp,kokkos", "--samples", "2",
            "--timing", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out and "lost-cycles share" in out


_RACY = """
kernel sum_of_elements(x: array<float>) -> float {
    let total = 0.0;
    pragma omp parallel for
    for (i in 0..len(x)) {
        total += x[i];
    }
    return total;
}
"""

_CLEAN = """
kernel relu(x: array<float>) {
    pragma omp parallel for
    for (i in 0..len(x)) {
        x[i] = max(x[i], 0.0);
    }
}
"""


class TestLintCommand:
    def test_clean_file_exits_zero(self, capsys, tmp_path):
        f = tmp_path / "clean.minipar"
        f.write_text(_CLEAN)
        assert main(["lint", str(f)]) == 0
        assert "clean under 'openmp'" in capsys.readouterr().out

    def test_definite_race_exits_one(self, capsys, tmp_path):
        f = tmp_path / "racy.minipar"
        f.write_text(_RACY)
        assert main(["lint", str(f)]) == 1
        out = capsys.readouterr().out
        assert "error[race/" in out

    def test_explicit_exec_model_overrides_detection(self, capsys, tmp_path):
        f = tmp_path / "racy.minipar"
        f.write_text(_RACY)
        # under serial the pragma is inert: no race regions to analyze,
        # but the usage analyzer has nothing to complain about either
        assert main(["lint", str(f), "--exec", "serial"]) == 0

    def test_build_error_exits_two(self, capsys, tmp_path):
        f = tmp_path / "broken.minipar"
        f.write_text("kernel nope(")
        assert main(["lint", str(f)]) == 2
        assert "build error" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["lint", "/no/such/file.minipar"]) == 2

    def test_no_file_and_no_corpus_exits_two(self, capsys):
        assert main(["lint"]) == 2

    def test_corpus_sweep_is_clean(self, capsys):
        assert main(["lint", "--corpus"]) == 0
        out = capsys.readouterr().out
        assert "0 definite" in out


class TestChaosCommand:
    def test_plan_mode_writes_the_schedule(self, capsys, tmp_path):
        from repro.faults import FaultPlan

        out_file = tmp_path / "plan.json"
        assert main(["chaos", "--seed", "42", "--plan", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "fault plan for seed 42" in out
        plan = FaultPlan.from_json(out_file.read_text())
        assert plan == FaultPlan.from_seed(42)

    def test_chaos_suite_passes(self, capsys):
        assert main(["chaos", "--seed", "11", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "9/9 invariants hold" in out
        assert "[FAIL]" not in out

    def test_single_invariant_filter(self, capsys):
        assert main(["chaos", "--seed", "11", "--jobs", "2",
                     "--invariant", "injector-transparency"]) == 0
        out = capsys.readouterr().out
        assert "1/1 invariants hold" in out
        assert "injector-transparency" in out

    def test_unknown_invariant_is_an_error(self, capsys):
        assert main(["chaos", "--invariant", "no-such-invariant"]) == 2
        assert "unknown invariant" in capsys.readouterr().err
