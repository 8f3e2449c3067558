"""MiniPar's user-call depth limit (``compile.MAX_CALL_DEPTH``).

Recursion past the limit is a MiniPar ``runtime_error`` with the same
detail in process, in a pool worker and on MPI rank threads, instead of
a Python ``RecursionError`` whose depth depends on the host stack.  The
deepest chain the limit allows fits Python's recursion limit on each of
those paths, even with extra host stack above the harness."""

import pytest

from repro.bench import PCGBench
from repro.harness import Runner
from repro.models.solutions import bank
from repro.runtime.compile import MAX_CALL_DEPTH
from repro.sched.scheduler import harness_pool

#: the recursive call sits under four levels of control flow, so each
#: MiniPar level costs about nine Python frames (plain tail recursion
#: costs four)
HELPER = """
kernel deep(n: int) -> int {
    let s = 0;
    if (n > 0) {
        for (i in 0..1) {
            if (n > 0) {
                for (j in 0..1) {
                    s = deep(n - 1) + 1;
                }
            }
        }
    }
    return s;
}

"""

MODELS = ("serial", "mpi")
#: deep(n) makes n + 1 nested calls
DEEPEST = MAX_CALL_DEPTH - 1


def _sample(model: str, depth: int) -> str:
    """The handwritten ``sum_of_elements`` variant for ``model``, with a
    ``deep(depth)`` call as its first statement."""
    source = bank()[("sum_of_elements", model)][0].source
    signature, brace, body = source.partition("{\n")
    return (HELPER + signature + brace
            + f"    let d = deep({depth});\n" + body)


@pytest.fixture(scope="module")
def prompts():
    bench = PCGBench(problem_types=["reduce"], models=list(MODELS))
    return {model: next(p for p in bench.prompts
                        if p.uid == f"reduce/sum_of_elements/{model}")
            for model in MODELS}


def _in_process(prompt, source, with_timing=False):
    res = Runner().evaluate_sample(source, prompt, with_timing=with_timing)
    return res.status, res.detail


def _on_pool(cases):
    """``{task id: (prompt, source)}`` judged by a two-worker pool."""
    with harness_pool(Runner(), 2) as pool:
        results, failures = pool.run([
            (tid, {"kind": "sample", "uid": prompt.uid, "source": source,
                   "with_timing": False, "profile": False})
            for tid, (prompt, source) in cases.items()])
    assert failures == {}
    return {tid: (r["status"], r["detail"]) for tid, r in results.items()}


def _padded(depth, fn):
    """Call ``fn`` under ``depth`` extra Python frames."""
    if depth == 0:
        return fn()
    return _padded(depth - 1, fn)


class TestCallDepthLimit:
    def test_deep_recursion_is_one_verdict_on_every_path(self, prompts):
        cases = {f"{model}-{depth}": (prompts[model], _sample(model, depth))
                 for model in MODELS for depth in (150, 199, 100000)}
        served = _on_pool(cases)
        for tid, (prompt, source) in cases.items():
            status, detail = _in_process(prompt, source)
            assert status == "runtime_error", (tid, detail)
            assert "call depth limit" in detail
            assert served[tid] == (status, detail), tid

    def test_one_call_past_the_limit_fails(self, prompts):
        status, detail = _in_process(prompts["serial"],
                                     _sample("serial", DEEPEST + 1))
        assert status == "runtime_error"
        assert f"({MAX_CALL_DEPTH} nested calls)" in detail

    def test_deepest_allowed_chain_fits_every_path(self, prompts):
        cases = {model: (prompts[model], _sample(model, DEEPEST))
                 for model in MODELS}
        assert set(_on_pool(cases).values()) == {("correct", "")}
        for prompt, source in cases.values():
            assert _in_process(prompt, source) == ("correct", "")
            # 250 frames more host stack than the test runner's own
            assert _padded(250, lambda: _in_process(prompt, source)) \
                == ("correct", "")

    def test_deepest_allowed_chain_times_on_rank_threads(self, prompts):
        status, _ = _in_process(prompts["mpi"], _sample("mpi", DEEPEST),
                                with_timing=True)
        assert status == "correct"
