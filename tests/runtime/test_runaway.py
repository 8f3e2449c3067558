"""Runaway-loop early exit: a ``while`` loop that provably never exits
raises the fuel timeout at loop entry instead of spinning the budget away.

The recognizer must be invisible: a recognized loop raises exactly the
exception ``ExecCtx.check_fuel`` would have raised, and every loop it
rejects (or whose condition is false at entry) runs the scalar loop with
bit-identical results and simulated time.
"""

import time

import numpy as np
import pytest

from repro.bench import all_problems, render_prompt
from repro.bench.spec import EXECUTION_MODELS
from repro.harness import Runner
from repro.harness import runner as runner_mod
from repro.lang import FuelExhausted, compile_source
from repro.models.mutate import _MUTATORS
from repro.models.solutions import variants_for
from repro.runtime import DEFAULT_MACHINE, Array, ExecCtx, SerialRuntime
from repro.runtime.compile import Compiler

BIG_FUEL = 10 ** 9


def compile_spied(src):
    """Compile ``src``; returns (program, guards): per ``while`` loop in
    compile order, the run-time guard, or None where it was rejected."""
    guards = []
    real = Compiler._runaway_guard

    def spy(self, s, cond):
        guards.append(real(self, s, cond))
        return guards[-1]

    Compiler._runaway_guard = spy
    try:
        return Compiler(compile_source(src)).compile(), guards
    finally:
        Compiler._runaway_guard = real


def recognized(src):
    return [g is not None for g in compile_spied(src)[1]]


def compile_unguarded(src):
    """The scalar-only reference: the same program with the guard off."""
    real = Compiler._runaway_guard
    Compiler._runaway_guard = lambda self, s, cond: None
    try:
        return Compiler(compile_source(src)).compile()
    finally:
        Compiler._runaway_guard = real


def run(program, args, fuel):
    """(outcome, ctx.cost) of one serial run; the outcome is the return
    value or the raised exception's type and message."""
    ctx = ExecCtx(DEFAULT_MACHINE, SerialRuntime(), fuel=fuel)
    try:
        outcome = ("ret", program.run_kernel("f", ctx, args))
    except FuelExhausted as exc:
        outcome = ("raised", type(exc).__name__, str(exc))
    return outcome, ctx.cost


def fuel_message(fuel):
    ctx = ExecCtx(DEFAULT_MACHINE, SerialRuntime(), fuel=fuel)
    ctx.cost = fuel + 1.0
    with pytest.raises(FuelExhausted) as info:
        ctx.check_fuel()
    return str(info.value)


RECOGNIZED = {
    "mutant_shape": """
        kernel f(n: int) -> int {
            let spin = 0;
            while (spin >= 0) { spin += 1; }
            return spin;
        }""",
    "down_below_name": """
        kernel f(n: int) -> int {
            let i = 0;
            while (i < n) { i -= 2; i += -1; }
            return i;
        }""",
    "literal_on_left": """
        kernel f(n: int) -> int {
            let x = 5;
            while (3 <= x) { x -= -1; }
            return x;
        }""",
    "float_scalars": """
        kernel f(n: int) -> float {
            let t = 0.5;
            let u = 0.0;
            while (t > 0.25) { t += 1.5; u -= 2; }
            return t;
        }""",
    "negative_float_literal": """
        kernel f(n: int) -> float {
            let t = -1.0;
            while (t < 0.0) { t += -0.5; }
            return t;
        }""",
}


@pytest.mark.parametrize("name", sorted(RECOGNIZED))
def test_recognized_loop_raises_check_fuel_message_at_entry(name):
    program, guards = compile_spied(RECOGNIZED[name])
    assert [g is not None for g in guards] == [True]
    began = time.perf_counter()
    outcome, cost = run(program, [1], BIG_FUEL)
    # the scalar loop would burn 10**9 op units: minutes of wall time
    assert time.perf_counter() - began < 1.0
    assert outcome == ("raised", "FuelExhausted", fuel_message(BIG_FUEL))
    assert cost < 100


NEGATIVE = {
    # name: (source, args)
    "exits_by_break": ("""
        kernel f(n: int) -> int {
            let x = 0;
            while (x >= 0) { x += 1; if (x > 50) { break; } }
            return x;
        }""", [1]),
    "step_toward_exit": ("""
        kernel f(n: int) -> int {
            let x = 100;
            while (x > n) { x -= 3; }
            return x;
        }""", [1]),
    "mixed_sign_steps": ("""
        kernel f(n: int) -> int {
            let x = 0;
            while (x >= -40) { x += 1; x -= 2; }
            return x;
        }""", [1]),
    "bound_written_in_body": ("""
        kernel f(n: int) -> int {
            let x = 0;
            while (x < n) { x -= 1; n -= 2; }
            return x + n;
        }""", [60]),
    "array_store_in_body": ("""
        kernel f(a: array<float>) -> int {
            let x = 0;
            while (x >= 0) { x += 1; a[0] += 1.0; }
            return x;
        }""", None),
    "call_in_body": ("""
        kernel g() -> int { return 1; }
        kernel f(n: int) -> int {
            let x = 0;
            while (x >= 0) { x += g(); }
            return x;
        }""", [1]),
    "not_equal_condition": ("""
        kernel f(n: int) -> int {
            let x = 0;
            while (x != 70) { x += 1; }
            return x;
        }""", [1]),
    "equal_condition_spins": ("""
        kernel f(n: int) -> int {
            let x = 0;
            while (x == 0) { x += 0; }
            return x;
        }""", [1]),
    "step_in_if": ("""
        kernel f(n: int) -> int {
            let x = 0;
            while (x >= 0) { if (true) { x += 1; } }
            return x;
        }""", [1]),
}


def _args(args):
    if args is None:
        return [Array([0.0, 2.5, 1.0], "float", (3,))]
    return list(args)


@pytest.mark.parametrize("name", sorted(NEGATIVE))
def test_rejected_loop_is_bit_identical_to_scalar_loop(name):
    src, args = NEGATIVE[name]
    guarded, guards = compile_spied(src)
    assert guards == [None]
    reference = compile_unguarded(src)
    a, b = _args(args), _args(args)
    assert run(guarded, a, 20_000) == run(reference, b, 20_000)
    assert [x.data if isinstance(x, Array) else x for x in a] == \
        [x.data if isinstance(x, Array) else x for x in b]


@pytest.mark.parametrize("start", [-1, -7])
def test_condition_false_at_entry_runs_scalar_loop(start):
    src = f"""
        kernel f(n: int) -> int {{
            let x = {start};
            while (x >= 0) {{ x += 1; }}
            return x * n;
        }}"""
    guarded, guards = compile_spied(src)
    assert guards[0] is not None
    outcome, cost = run(guarded, [3], BIG_FUEL)
    assert (outcome, cost) == run(compile_unguarded(src), [3], BIG_FUEL)
    assert outcome == ("ret", start * 3)


def test_guard_needs_finite_fuel_and_exact_scalar_types():
    """Infinite fuel would never raise, and numpy scalars can wrap: both
    fall back to the scalar loop."""
    (guard,) = compile_spied(RECOGNIZED["down_below_name"])[1]
    ctx = ExecCtx(DEFAULT_MACHINE, SerialRuntime(), fuel=BIG_FUEL)
    assert guard({"i": 0, "n": 1}, ctx) is True
    assert guard({"i": 0, "n": np.int64(1)}, ctx) is False
    assert guard({"i": np.int64(0), "n": 1}, ctx) is False
    assert guard({"i": 0.0, "n": 1}, ctx) is False
    inf = ExecCtx(DEFAULT_MACHINE, SerialRuntime(), fuel=float("inf"))
    assert guard({"i": 0, "n": 1}, inf) is False


# -- the runaway_loop mutant under every execution model -------------------


def _correct_source(model):
    problem = next(p for p in all_problems() if p.name == "sum_of_elements")
    return problem, variants_for(problem, model)[0].source


@pytest.mark.parametrize("model", EXECUTION_MODELS)
def test_runaway_mutant_verdict_matches_unrecognized_twin(model, monkeypatch):
    """The mutant (recognized, exits at entry) and its twin with the step
    wrapped in ``if (true)`` (rejected, spins the scalar loop) get the
    same status and detail, timed and untimed.  The correctness budget
    is scaled down so the twin's scalar loop is quick; both see it."""
    monkeypatch.setattr(runner_mod, "CORRECTNESS_FUEL", 60_000)
    problem, src = _correct_source(model)
    mutant = _MUTATORS["runaway_loop"](src, np.random.default_rng(7))
    twin = mutant.replace("spin += 1;", "if (true) { spin += 1; }")
    assert twin != mutant
    assert recognized(mutant) == [True]
    assert recognized(twin) == [False]
    runner = Runner()
    prompt = render_prompt(problem, model)
    for timed in (False, True):
        fast = runner.evaluate_sample(mutant, prompt, with_timing=timed)
        slow = runner.evaluate_sample(twin, prompt, with_timing=timed)
        assert fast.status == "timeout", (model, fast.detail)
        assert (fast.status, fast.detail) == (slow.status, slow.detail)
        assert "60000 op units" in fast.detail
