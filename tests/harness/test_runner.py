"""End-to-end tests of the Runner pipeline on hand-picked samples."""

import pytest

from repro.bench import all_problems, baseline_source, render_prompt
from repro.harness import Runner, compile_sample


@pytest.fixture(scope="module")
def runner():
    return Runner(correctness_trials=2)


@pytest.fixture(scope="module")
def runner_noscreen():
    """Dynamic-only runner: MiniParSan pre-execution screen disabled."""
    return Runner(correctness_trials=2, static_screen=False)


def problem(name):
    return next(p for p in all_problems() if p.name == name)


_RACY_SUM = """
kernel sum_of_elements(x: array<float>) -> float {
    let total = 0.0;
    pragma omp parallel for
    for (i in 0..len(x)) {
        total += x[i];
    }
    return total;
}
"""

_MPI_DEADLOCK = """
kernel sum_of_elements(x: array<float>) -> float {
    return mpi_recv_float((mpi_rank() + 1) % mpi_size(), 0);
}
"""


class TestStatuses:
    def test_correct_serial(self, runner):
        p = problem("sum_of_elements")
        prompt = render_prompt(p, "serial")
        res = runner.evaluate_sample(baseline_source(p.name), prompt)
        assert res.status == "correct"

    def test_build_error_syntax(self, runner):
        p = problem("sum_of_elements")
        prompt = render_prompt(p, "serial")
        res = runner.evaluate_sample("kernel sum_of_elements(", prompt)
        assert res.status == "build_error"
        assert "compile error" in res.detail

    def test_build_error_type(self, runner):
        p = problem("sum_of_elements")
        prompt = render_prompt(p, "serial")
        src = "kernel sum_of_elements(x: array<float>) -> float { return x; }"
        res = runner.evaluate_sample(src, prompt)
        assert res.status == "build_error"

    def test_link_error_is_build_error(self, runner):
        p = problem("sum_of_elements")
        prompt = render_prompt(p, "serial")
        src = ('kernel sum_of_elements(x: array<float>) -> float { '
               'return parallel_reduce(len(x), "sum", (i) => x[i]); }')
        res = runner.evaluate_sample(src, prompt)
        assert res.status == "build_error"
        assert "link error" in res.detail

    @pytest.mark.parametrize("body", ["(" * 3000 + "1" + ")" * 3000,
                                      "-" * 3000 + "1"],
                             ids=["parens", "unary-minus"])
    def test_deep_nesting_is_build_error(self, runner, body):
        src = f"kernel f(n: int) -> int {{ return {body}; }}"
        program, reason = compile_sample(src, "serial")
        assert program is None
        assert reason == ("compile error: program too deeply nested "
                          "to analyze")
        p = problem("sum_of_elements")
        res = runner.evaluate_sample(src, render_prompt(p, "serial"))
        assert res.status == "build_error"
        assert res.detail == reason

    def test_not_parallel(self, runner):
        p = problem("sum_of_elements")
        prompt = render_prompt(p, "openmp")
        res = runner.evaluate_sample(baseline_source(p.name), prompt)
        assert res.status == "not_parallel"

    def test_wrong_answer(self, runner):
        p = problem("sum_of_elements")
        prompt = render_prompt(p, "serial")
        src = """
        kernel sum_of_elements(x: array<float>) -> float {
            let total = 0.0;
            for (i in 1..len(x)) {
                total += x[i];
            }
            return total;
        }
        """
        res = runner.evaluate_sample(src, prompt)
        assert res.status == "wrong_answer"

    def test_runtime_error_trap(self, runner):
        p = problem("sum_of_elements")
        prompt = render_prompt(p, "serial")
        src = """
        kernel sum_of_elements(x: array<float>) -> float {
            return x[len(x)];
        }
        """
        res = runner.evaluate_sample(src, prompt)
        assert res.status == "runtime_error"

    def test_timeout(self, runner):
        p = problem("sum_of_elements")
        prompt = render_prompt(p, "serial")
        src = """
        kernel sum_of_elements(x: array<float>) -> float {
            let total = 0.0;
            while (total >= 0.0) {
                total += 1.0;
            }
            return total;
        }
        """
        res = runner.evaluate_sample(src, prompt)
        assert res.status == "timeout"

    def test_race_is_runtime_error(self, runner_noscreen):
        p = problem("sum_of_elements")
        prompt = render_prompt(p, "openmp")
        res = runner_noscreen.evaluate_sample(_RACY_SUM, prompt)
        assert res.status == "runtime_error"
        assert "race" in res.detail.lower()
        assert res.diagnostics == []    # screen off: nothing attached

    def test_race_is_static_fail_with_screen(self, runner):
        p = problem("sum_of_elements")
        prompt = render_prompt(p, "openmp")
        res = runner.evaluate_sample(_RACY_SUM, prompt)
        assert res.status == "static_fail"
        assert res.detail.startswith("static:")
        assert any(d.analyzer == "race" and d.certainty == "definite"
                   for d in res.diagnostics)

    def test_mpi_deadlock_is_runtime_error(self, runner_noscreen):
        p = problem("sum_of_elements")
        prompt = render_prompt(p, "mpi")
        res = runner_noscreen.evaluate_sample(_MPI_DEADLOCK, prompt)
        assert res.status == "runtime_error"

    def test_mpi_deadlock_is_static_fail_with_screen(self, runner):
        p = problem("sum_of_elements")
        prompt = render_prompt(p, "mpi")
        res = runner.evaluate_sample(_MPI_DEADLOCK, prompt)
        assert res.status == "static_fail"
        assert any(d.analyzer == "mpi" and d.certainty == "definite"
                   for d in res.diagnostics)


class TestTiming:
    def test_baseline_time_positive(self, runner):
        assert runner.baseline_time(problem("sum_of_elements")) > 0.0

    def test_openmp_timing_covers_thread_grid(self, runner):
        p = problem("relu")
        prompt = render_prompt(p, "openmp")
        src = """
        kernel relu(x: array<float>) {
            pragma omp parallel for
            for (i in 0..len(x)) {
                x[i] = max(x[i], 0.0);
            }
        }
        """
        res = runner.evaluate_sample(src, prompt, with_timing=True)
        assert res.status == "correct"
        assert set(res.times) == set(runner.thread_counts)
        assert res.times[32] < res.times[1]

    def test_mpi_timing_covers_rank_grid(self, runner):
        p = problem("sum_of_elements")
        prompt = render_prompt(p, "mpi")
        src = """
        kernel sum_of_elements(x: array<float>) -> float {
            let rank = mpi_rank();
            let size = mpi_size();
            let chunk = (len(x) + size - 1) / size;
            let lo = rank * chunk;
            let hi = min(lo + chunk, len(x));
            let local = 0.0;
            for (i in lo..hi) {
                local += x[i];
            }
            return mpi_allreduce_float(local, "sum");
        }
        """
        small = Runner(mpi_rank_counts=(1, 4, 16))
        res = small.evaluate_sample(src, prompt, with_timing=True)
        assert res.status == "correct"
        assert set(res.times) == {1, 4, 16}

    def test_gpu_timing_uses_kernel_threads(self, runner):
        p = problem("relu")
        prompt = render_prompt(p, "cuda")
        src = """
        kernel relu(x: array<float>) {
            let i = block_idx() * block_dim() + thread_idx();
            if (i < len(x)) {
                x[i] = max(x[i], 0.0);
            }
        }
        """
        res = runner.evaluate_sample(src, prompt, with_timing=True)
        assert res.status == "correct"
        (n,) = res.times
        # n is the (work-scaled) kernel thread count
        assert n >= p.timing_size

    def test_speedup_against_baseline_sane(self, runner):
        p = problem("relu")
        prompt = render_prompt(p, "openmp")
        src = """
        kernel relu(x: array<float>) {
            pragma omp parallel for
            for (i in 0..len(x)) {
                x[i] = max(x[i], 0.0);
            }
        }
        """
        res = runner.evaluate_sample(src, prompt, with_timing=True)
        t_star = runner.baseline_time(p)
        speedup32 = t_star / res.times[32]
        assert 2.0 < speedup32 < 40.0


class TestGPUResultBuffer:
    def test_scalar_return_via_result_buffer(self, runner):
        p = problem("sum_of_elements")
        prompt = render_prompt(p, "cuda")
        src = """
        kernel sum_of_elements(x: array<float>, result: array<float>) {
            let i = block_idx() * block_dim() + thread_idx();
            if (i < len(x)) {
                atomic_add(result, 0, x[i]);
            }
        }
        """
        res = runner.evaluate_sample(src, prompt)
        assert res.status == "correct"

    def test_min_reduction_uses_seed(self, runner):
        p = problem("smallest_element")
        prompt = render_prompt(p, "cuda")
        src = """
        kernel smallest_element(x: array<float>, result: array<float>) {
            let i = block_idx() * block_dim() + thread_idx();
            if (i < len(x)) {
                atomic_min(result, 0, x[i]);
            }
        }
        """
        res = runner.evaluate_sample(src, prompt)
        assert res.status == "correct"

    def test_not_found_sentinel(self, runner):
        p = problem("index_of_first")
        prompt = render_prompt(p, "cuda")
        src = """
        kernel index_of_first(x: array<float>, v: float, result: array<int>) {
            let i = block_idx() * block_dim() + thread_idx();
            if (i < len(x)) {
                if (x[i] == v) {
                    atomic_min(result, 0, i);
                }
            }
        }
        """
        res = runner.evaluate_sample(src, prompt)
        assert res.status == "correct"
