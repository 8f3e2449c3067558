"""Microbenchmarks of the harness itself: per-sample cost of the
compile → check → run → validate pipeline under each execution model,
plus end-to-end throughput of the serial loop vs the repro.sched worker
pool at jobs ∈ {1, 2, 4}.

These are genuine wall-clock benchmarks (pytest-benchmark's bread and
butter) and what bounds the cost of a full 420-prompt evaluation pass.
"""

import gc
import json
import os
import time
from pathlib import Path

import pytest

from repro.bench import PCGBench, all_problems, render_prompt
from repro.harness import Runner, evaluate_model
from repro.models import load_model
from repro.models.solutions import variants_for

_RUNNER = Runner(correctness_trials=2)
_PROBLEM = next(p for p in all_problems() if p.name == "sum_of_elements")


@pytest.mark.parametrize(
    "model", ["serial", "openmp", "kokkos", "mpi", "mpi+omp", "cuda"]
)
def test_sample_evaluation_throughput(benchmark, model):
    prompt = render_prompt(_PROBLEM, model)
    source = variants_for(_PROBLEM, model)[0].source
    result = benchmark(_RUNNER.evaluate_sample, source, prompt)
    assert result.status == "correct"


def test_compile_throughput(benchmark):
    from repro.harness import compile_sample

    source = variants_for(_PROBLEM, "openmp")[0].source
    program, reason = benchmark(compile_sample, source, "openmp")
    assert program is not None, reason


def test_timing_sweep_throughput(benchmark):
    prompt = render_prompt(_PROBLEM, "openmp")
    source = variants_for(_PROBLEM, "openmp")[0].source
    program, _ = __import__("repro.harness", fromlist=["compile_sample"]) \
        .compile_sample(source, "openmp")

    result = benchmark(_RUNNER.measure, program, prompt)
    assert set(result) == set(_RUNNER.thread_counts)


# -- scheduler vs serial loop ---------------------------------------------------

def _sched_workload():
    """A moderate slice: 30 prompts x 6 samples with timing sweeps."""
    bench = PCGBench(problem_types=["transform", "reduce"],
                     models=["serial", "openmp", "kokkos"])
    return load_model("GPT-3.5"), bench


def _sched_pass(llm, bench, jobs):
    return evaluate_model(llm, bench, num_samples=6, temperature=0.2,
                          with_timing=True, seed=21, jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_scheduler_throughput(benchmark, jobs):
    """Wall-clock of one full evaluation pass: in process (jobs=1) vs
    the worker pool.  Both paths judge each distinct generated source
    once (content-hash task dedup), so the pool's edge is parallelism."""
    llm, bench = _sched_workload()
    run = benchmark.pedantic(_sched_pass, args=(llm, bench, jobs),
                             rounds=2, iterations=1, warmup_rounds=0)
    assert len(run.prompts) == len(bench.prompts)


# -- tiered vectorized execution -----------------------------------------------

_BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_harness.json"


def _record_baseline(**updates):
    """Read-modify-write the committed baseline file, so the vectorize
    and dispatch recorders can each refresh their own keys."""
    doc = {}
    if _BASELINE_PATH.exists():
        doc = json.loads(_BASELINE_PATH.read_text())
    doc.update(updates)
    _BASELINE_PATH.write_text(json.dumps(doc, indent=2) + "\n")

#: Element-wise affine workloads the numpy tier lowers to bulk kernels.
#: (Problems whose bodies divide, branch, or call builtins stay scalar by
#: design — see docs/vectorize.md — so they are not speedup cases.)
_VEC_CASES = [("sum_of_elements", "serial"), ("sum_of_elements", "openmp"),
              ("sum_of_squares", "openmp"), ("cube_elements", "serial"),
              ("cube_elements", "kokkos")]


def _vec_case_inputs(name, model):
    problem = next(p for p in all_problems() if p.name == name)
    return render_prompt(problem, model), variants_for(problem, model)[0].source


def _tier_seconds(runner, prompt, source, repeats, batch=8):
    """Best-of-N wall-clock of a *batch* of timed evaluations — a single
    evaluation is ~1ms here, so batching keeps timer noise out of the
    regression gate."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            result = runner.evaluate_sample(source, prompt, with_timing=True)
            assert result.status == "correct", result.detail
        best = min(best, time.perf_counter() - t0)
    return best


def measure_vectorize_speedups(repeats=5):
    """Per-case wall-clock speedup of the numpy tier over the scalar tier
    on the timed pipeline.  A ratio of two timings on the same host, so
    the committed baseline is machine-portable."""
    speedups = {}
    for name, model in _VEC_CASES:
        prompt, source = _vec_case_inputs(name, model)
        on = Runner(correctness_trials=2, vectorize=True)
        off = Runner(correctness_trials=2, vectorize=False)
        on.evaluate_sample(source, prompt, with_timing=True)    # warm caches
        off.evaluate_sample(source, prompt, with_timing=True)
        t_on = _tier_seconds(on, prompt, source, repeats)
        t_off = _tier_seconds(off, prompt, source, repeats)
        speedups[f"{name}/{model}"] = t_off / t_on
    return speedups


@pytest.mark.parametrize("vectorize", [False, True],
                         ids=["vec-off", "vec-on"])
def test_vectorized_tier_throughput(benchmark, vectorize):
    """Per-sample timed-pipeline cost on each execution tier — the pair of
    numbers behind the committed BENCH_harness.json speedups."""
    prompt, source = _vec_case_inputs("cube_elements", "openmp")
    runner = Runner(correctness_trials=2, vectorize=vectorize)
    result = benchmark(runner.evaluate_sample, source, prompt,
                       with_timing=True)
    assert result.status == "correct"


def test_vectorize_speedup_meets_baseline():
    """The acceptance check + CI perf-regression gate for the numpy tier:
    element-wise problems run >=2x faster with the tier on, and no case
    drops more than 20% below the speedup recorded in BENCH_harness.json.

    Re-record after a deliberate change with::

        REPRO_BENCH_RECORD=1 PYTHONPATH=src python -m pytest \
            benchmarks/bench_harness_throughput.py -k vectorize_speedup
    """
    measured = measure_vectorize_speedups()
    geomean = 1.0
    for speedup in measured.values():
        geomean *= speedup
    geomean **= 1.0 / len(measured)
    print("\nvectorize speedup (timed pipeline, scalar/numpy):")
    for case, speedup in measured.items():
        print(f"  {case:28s} {speedup:5.2f}x")
    print(f"  {'geomean':28s} {geomean:5.2f}x")
    if os.environ.get("REPRO_BENCH_RECORD"):
        _record_baseline(
            comment="wall-clock speedup of the numpy tier over the "
                    "scalar tier on the timed pipeline; same-host "
                    "ratios, so portable across machines",
            vectorize_speedup={k: round(v, 2)
                               for k, v in measured.items()},
            geomean=round(geomean, 2))
        return
    baseline = json.loads(_BASELINE_PATH.read_text())
    assert set(measured) == set(baseline["vectorize_speedup"])
    assert geomean >= 2.0, \
        f"geomean {geomean:.2f}x is below the 2x acceptance floor"
    assert geomean >= baseline["geomean"] * 0.8, (
        f"geomean {geomean:.2f}x regressed >20% below the recorded "
        f"{baseline['geomean']:.2f}x")
    for case, speedup in measured.items():
        # per-case floor: a lowering that stops firing shows up as ~1.0x
        assert speedup >= 1.5, \
            f"{case}: {speedup:.2f}x — did the bulk lowering stop firing?"


# -- MPI rank cost: read-only inputs shared across ranks ------------------------

#: MPI samples whose 1-512-rank timing sweep per-rank cost dominates
_MPI_SWEEP_CASES = ("is_bipartite", "sum_of_squares")


def measure_mpi_sweep_speedups(repeats=7):
    """Per-case wall-clock speedup of the MPI timing sweep
    (``Runner.measure`` over 1-512 ranks) when ranks share the inputs
    the kernel never writes, over deep-copying every input for every
    rank.  Runs alternate between the two, best of ``repeats`` each; a
    ratio of two timings on the same host, so machine-portable.  The
    collector stays on: fewer per-rank lists also means less for it to
    scan, which is part of the saving."""
    from repro.harness import compile_sample
    from repro.runtime.compile import CompiledProgram

    runner = Runner()
    written_params = CompiledProgram.written_params
    speedups = {}
    for name in _MPI_SWEEP_CASES:
        problem = next(p for p in all_problems() if p.name == name)
        prompt = render_prompt(problem, "mpi")
        program, reason = compile_sample(
            variants_for(problem, "mpi")[0].source, "mpi")
        assert program is not None, reason
        assert program.written_params(problem.entry) == frozenset()
        runner.measure(program, prompt)   # start the 512 rank threads
        best = {"shared": float("inf"), "copied": float("inf")}
        for _ in range(repeats):
            for mode in best:
                if mode == "copied":
                    CompiledProgram.written_params = \
                        lambda self, kernel: None
                gc.collect()      # start each run with the same heap
                try:
                    t0 = time.perf_counter()
                    runner.measure(program, prompt)
                    elapsed = time.perf_counter() - t0
                finally:
                    CompiledProgram.written_params = written_params
                best[mode] = min(best[mode], elapsed)
        speedups[f"{name}/mpi"] = best["copied"] / best["shared"]
    return speedups


def test_mpi_sweep_speedup_meets_baseline():
    """CI perf-regression gate for per-rank MPI cost: sharing read-only
    inputs keeps every case's sweep speedup over per-rank copies within
    20% of the speedup recorded in BENCH_harness.json.  A sharing
    analysis that stops proving inputs read-only reads about 1.0x.

    Re-record after a deliberate change with::

        REPRO_BENCH_RECORD=1 PYTHONPATH=src python -m pytest \
            benchmarks/bench_harness_throughput.py -k mpi_sweep
    """
    measured = measure_mpi_sweep_speedups()
    print("\nMPI sweep speedup (1-512 ranks, per-rank copies/shared):")
    for case, speedup in measured.items():
        print(f"  {case:28s} {speedup:5.2f}x")
    if os.environ.get("REPRO_BENCH_RECORD"):
        _record_baseline(mpi_sweep={
            "comment": "wall-clock speedup of the 1-512-rank MPI timing "
                       "sweep when ranks share read-only inputs, over "
                       "deep-copying every input per rank; same-host "
                       "ratios, so portable across machines",
            **{k: round(v, 2) for k, v in measured.items()}})
        return
    baseline = json.loads(_BASELINE_PATH.read_text())["mpi_sweep"]
    for case, speedup in measured.items():
        assert speedup >= baseline[case] * 0.8, (
            f"{case}: {speedup:.2f}x regressed >20% below the recorded "
            f"{baseline[case]:.2f}x")


# -- MiniParSan pre-execution screen -------------------------------------------

def _mutant_heavy_samples():
    """Race/deadlock mutants of every parallel solution: the workload the
    static screen is built for (each one costs a full Tracer conviction
    when executed dynamically)."""
    import numpy as np

    from repro.models.mutate import _MUTATORS, mutator_names

    race_muts = ["drop_reduction_clause", "drop_atomic_pragma",
                 "drop_critical", "atomic_to_plain", "inplace_stencil",
                 "mpi_collective_skew", "mpi_recv_deadlock"]
    samples = []
    for p in all_problems():
        for model in ("openmp", "kokkos", "mpi", "mpi+omp", "cuda"):
            variants = variants_for(p, model)
            if not variants:
                continue
            applicable = set(mutator_names(model))
            for name in race_muts:
                if name not in applicable:
                    continue
                mutated = _MUTATORS[name](variants[0].source,
                                          np.random.default_rng(7))
                if mutated is not None and mutated != variants[0].source:
                    samples.append((render_prompt(p, model), mutated))
    return samples


def _screen_pass(samples, static_screen):
    runner = Runner(correctness_trials=2, static_screen=static_screen)
    return [runner.evaluate_sample(src, prompt).status
            for prompt, src in samples]


def test_static_screen_reduces_wall_time_on_mutants():
    """The acceptance check: short-circuiting definite diagnostics to
    ``static_fail`` beats executing every racy mutant under the Tracer."""
    samples = _mutant_heavy_samples()
    t0 = time.perf_counter()
    off = _screen_pass(samples, static_screen=False)
    t_off = time.perf_counter() - t0
    t0 = time.perf_counter()
    on = _screen_pass(samples, static_screen=True)
    t_on = time.perf_counter() - t0
    screened = sum(s == "static_fail" for s in on)
    print(f"\nstatic screen: off {t_off:.2f}s vs on {t_on:.2f}s over "
          f"{len(samples)} mutants ({screened} screened statically)")
    assert screened > 0
    assert t_on < t_off


@pytest.mark.parametrize("static_screen", [False, True],
                         ids=["screen-off", "screen-on"])
def test_mutant_screen_throughput(benchmark, static_screen):
    samples = _mutant_heavy_samples()[:20]
    benchmark.pedantic(_screen_pass, args=(samples, static_screen),
                       rounds=2, iterations=1, warmup_rounds=0)


# -- fault injector hot-path overhead ------------------------------------------

def test_idle_injector_adds_no_overhead():
    """The acceptance check for ``repro.faults``: an installed injector
    with a fault-free plan must cost nothing on the hot path — `fire()`
    never runs for unlisted points — and must not perturb a single byte
    of the run."""
    from repro.faults import FaultPlan, injector

    llm, bench = _sched_workload()
    t0 = time.perf_counter()
    bare = _sched_pass(llm, bench, jobs=1)
    t_bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    with injector(FaultPlan(rules=())) as inj:
        installed = _sched_pass(llm, bench, jobs=1)
    t_installed = time.perf_counter() - t0
    print(f"\nidle injector: bare {t_bare:.2f}s vs installed "
          f"{t_installed:.2f}s ({t_installed / t_bare - 1.0:+.1%})")
    assert installed.to_json() == bare.to_json()
    assert inj.events == []
    # generous noise margin: the guard is one global load per site
    assert t_installed < t_bare * 1.10


@pytest.mark.parametrize("installed", [False, True],
                         ids=["no-injector", "idle-injector"])
def test_injector_guard_throughput(benchmark, installed):
    """Per-sample pipeline cost with and without an idle injector — the
    pair of numbers that quantifies the `inject.ACTIVE` guard."""
    from repro.faults import FaultPlan, injector

    prompt = render_prompt(_PROBLEM, "openmp")
    source = variants_for(_PROBLEM, "openmp")[0].source
    if installed:
        with injector(FaultPlan(rules=())):
            result = benchmark(_RUNNER.evaluate_sample, source, prompt)
    else:
        result = benchmark(_RUNNER.evaluate_sample, source, prompt)
    assert result.status == "correct"


# -- cost-decomposed profiler overhead -----------------------------------------

def test_profiling_off_is_free_on_is_bounded():
    """The acceptance check for ``repro.prof``: with ``profile=False``
    every instrumentation site is one ``ctx.prof is None`` load (the
    default path *is* today's pipeline), and turning profiling on only
    decorates the run — same statuses and times, bounded wall overhead."""
    import json

    llm, bench = _sched_workload()
    _sched_pass(llm, bench, jobs=1)     # warm compile/solution caches
    t0 = time.perf_counter()
    off = _sched_pass(llm, bench, jobs=1)
    t_off = time.perf_counter() - t0
    t0 = time.perf_counter()
    on = evaluate_model(llm, bench, num_samples=6, temperature=0.2,
                        with_timing=True, seed=21, profile=True)
    t_on = time.perf_counter() - t0
    print(f"\nprofiler: off {t_off:.2f}s vs on {t_on:.2f}s "
          f"({t_on / t_off - 1.0:+.1%})")

    def strip(run):
        doc = json.loads(run.to_json())
        for rec in doc["prompts"].values():
            for sample in rec["samples"]:
                sample.pop("profile", None)
        return doc

    assert strip(on) == strip(off)
    assert any(s.profile for r in on.prompts.values() for s in r.samples)
    # attribution is bookkeeping on already-priced quantities; generous
    # noise margin, same spirit as the idle-injector bound above
    assert t_on < t_off * 1.25


@pytest.mark.parametrize("profile", [False, True],
                         ids=["prof-off", "prof-on"])
def test_profiler_guard_throughput(benchmark, profile):
    """Per-sample timed-pipeline cost with and without profiling — the
    pair of numbers that quantifies the ``ctx.prof`` guard."""
    prompt = render_prompt(_PROBLEM, "openmp")
    source = variants_for(_PROBLEM, "openmp")[0].source
    result = benchmark(_RUNNER.evaluate_sample, source, prompt,
                       with_timing=True, profile=profile)
    assert result.status == "correct"
    assert (result.profile is not None) == profile


# -- cost-predictive dispatch: makespan on skewed workloads ---------------------

def _dispatch_sleep(ctx, payload):
    """Synthetic task: cost is the payload, exactly — the pure-dispatch
    workload (no harness noise) behind the committed makespan baseline."""
    time.sleep(payload["seconds"])
    return {"status": "ok", "seconds": payload["seconds"]}


def _skewed_tasks():
    """The longest-task-last pathology: one 0.8s task buried near the
    end of FIFO order behind forty 0.06s tasks.  FIFO strands one worker
    on the long task after the shorts have drained; LPT starts it first
    and packs the shorts around it (0.8 ~= sum(shorts)/(jobs-1), the
    skew that maximises the gap between the two policies)."""
    tasks = [(f"short-{i:03d}", {"seconds": 0.06}) for i in range(40)]
    tasks.insert(36, ("long-000", {"seconds": 0.8}))
    return tasks


def _dispatch_pass(policy, jobs=4):
    """One pool pass over the skewed workload under ``policy``; returns
    (makespan, queue-wait p50, queue-wait p95), measured from the first
    task dispatch so process-spawn cost cancels out of the comparison."""
    from repro.sched import WorkerPool, order_tasks
    from repro.sched.events import TaskStarted

    tasks = _skewed_tasks()
    predictions = {tid: (payload["seconds"], "ledger")
                   for tid, payload in tasks}
    order = order_tasks([tid for tid, _ in tasks], policy, predictions)
    payloads = dict(tasks)
    started = {}

    def sink(event):
        if isinstance(event, TaskStarted):
            started.setdefault(event.task_id, time.perf_counter())

    with WorkerPool(jobs=jobs, work_fn=_dispatch_sleep) as pool:
        executed, failures = pool.run(
            [(tid, payloads[tid]) for tid in order],
            predictions=predictions, emit=sink)
    done = time.perf_counter()
    assert not failures and len(executed) == len(tasks)
    t0 = min(started.values())
    waits = sorted(t - t0 for t in started.values())
    return (done - t0, waits[len(waits) // 2],
            waits[min(len(waits) - 1, int(len(waits) * 0.95))])


@pytest.mark.parametrize("policy", ["fifo", "lpt"])
def test_dispatch_makespan_throughput(benchmark, policy):
    """Makespan of the skewed workload under each dispatch policy — the
    pair of numbers behind the committed dispatch baseline."""
    makespan, _, _ = benchmark.pedantic(_dispatch_pass, args=(policy,),
                                        rounds=2, iterations=1,
                                        warmup_rounds=0)
    assert makespan > 0


def test_dispatch_makespan_meets_baseline():
    """The acceptance check + CI perf-regression gate for LPT dispatch:
    on the skewed workload at jobs=4, LPT cuts makespan >=20% vs FIFO,
    and neither the improvement nor the absolute LPT makespan regresses
    more than 20% past the committed baseline (the workload is
    sleep-dominated, so absolute seconds are machine-portable).

    Re-record after a deliberate change with::

        REPRO_BENCH_RECORD=1 PYTHONPATH=src python -m pytest \
            benchmarks/bench_harness_throughput.py -k dispatch_makespan
    """
    best = {}
    wait_p50 = {}
    wait_p95 = {}
    for policy in ("fifo", "lpt"):
        best[policy] = float("inf")
        for _ in range(2):
            makespan, p50, p95 = _dispatch_pass(policy)
            if makespan < best[policy]:
                best[policy] = makespan
                wait_p50[policy], wait_p95[policy] = p50, p95
    improvement = 1.0 - best["lpt"] / best["fifo"]
    print(f"\ndispatch makespan (jobs=4, skewed): "
          f"fifo {best['fifo']:.3f}s vs lpt {best['lpt']:.3f}s "
          f"({improvement:+.1%}); queue-wait p95 "
          f"fifo {wait_p95['fifo']:.3f}s vs lpt {wait_p95['lpt']:.3f}s")
    if os.environ.get("REPRO_BENCH_RECORD"):
        _record_baseline(dispatch={
            "comment": "makespan of a skewed sleep workload (one 0.8s "
                       "task behind forty 0.06s tasks) on a jobs=4 pool "
                       "under each dispatch policy; sleep-dominated, so "
                       "portable across machines",
            "jobs": 4,
            "fifo_makespan": round(best["fifo"], 3),
            "lpt_makespan": round(best["lpt"], 3),
            "improvement": round(improvement, 3),
            "queue_wait_p50": {k: round(v, 3)
                               for k, v in wait_p50.items()},
            "queue_wait_p95": {k: round(v, 3)
                               for k, v in wait_p95.items()},
        })
        return
    baseline = json.loads(_BASELINE_PATH.read_text())["dispatch"]
    assert improvement >= 0.20, (
        f"LPT improved makespan only {improvement:.1%} over FIFO — "
        "below the 20% acceptance floor")
    assert best["lpt"] <= baseline["lpt_makespan"] * 1.2, (
        f"LPT makespan {best['lpt']:.3f}s regressed >20% past the "
        f"recorded {baseline['lpt_makespan']:.3f}s")

