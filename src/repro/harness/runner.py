"""The PCGBench test harness runner (paper §7.2).

For one generated sample this module implements the full pipeline the
paper describes: compile, link-check, usage-check, run against the test
driver, validate against the numpy reference, and time against the
handwritten sequential baseline at each processor count.

Statuses mirror the paper's bookkeeping:

* ``build_error``   — lexing/parsing/type errors or link failures;
* ``not_parallel``  — built, but failed the parallel-model usage check;
* ``static_fail``   — MiniParSan proved a race or deadlock before any
  execution (``repro.lint``); skipped dynamically.  Disable with
  ``Runner(static_screen=False)`` / ``--no-static-screen``;
* ``runtime_error`` — trap / race / deadlock / MPI misuse;
* ``timeout``       — exhausted the interpreter's fuel budget, the only
  timeout budget (the *sample* hung — a model failure, unlike the
  scheduler's wall-clock ``task_timeout`` which is infrastructure and
  becomes ``system_error``);
* ``wrong_answer``  — ran but the outputs disagree with the reference;
* ``correct``       — everything above passed;
* ``system_error``  — the *harness*, not the sample, failed: an injected
  or real infrastructure fault survived the bounded retry budget.  Never
  attributed to the model — excluded from every metric denominator and
  resampled on ``--resume``;
* ``degraded``      — correctness passed but the timing sweep was
  fault-perturbed; the record keeps its correctness verdict (it counts
  for pass@k / build@k) but reports no times and is excluded from
  speedup estimates.

"Possible" (unprovable) lint findings never change a status; they ride
along on :attr:`RunResult.diagnostics` for reporting.

Resilience: when a :class:`~repro.faults.inject.FaultInjector` is
installed, ``evaluate_sample`` runs under a per-sample fault scope and
classifies failures as *transient* (fault-influenced — the injector fired
during the attempt — or an explicit :class:`FaultInjected` with
``transient=True``) or *deterministic* (the sample's own fault).
Transient failures are retried with bounded exponential backoff
(``transient_retries`` attempts, ``retry_backoff`` initial delay);
deterministic failures are returned immediately.  Without an injector the
same code makes one attempt, computes no scope digest and enters no fault
scope.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bench.spec import Problem, Prompt
from ..faults import inject
from ..faults.inject import FaultInjected
from ..lang import CompileError, compile_source
from ..lang.errors import (
    DataRaceError,
    DeadlockError,
    FuelExhausted,
    MiniParError,
    MPIUsageError,
    RuntimeFailure,
    TrapError,
)
from ..runtime import (
    Array,
    CompiledProgram,
    ExecCtx,
    KokkosRuntime,
    Machine,
    OpenMPRuntime,
    SerialRuntime,
    compile_program,
    launch,
    run_mpi,
)
from ..lint import Diagnostic, blocking, lint_checked
from ..prof.record import ProfBuilder, Profile
from ..runtime.machine import CPU_THREAD_COUNTS, DEFAULT_MACHINE
from ..runtime.vectorize import VecStats
from .usagecheck import link_error, uses_parallel_model

#: canonical processor counts used for correctness runs per model
CORRECTNESS_PROCS = {"mpi": 4, "mpi+omp": (2, 4)}

#: fuel budgets (interpreter op units) per run kind
CORRECTNESS_FUEL = 3_000_000
TIMING_FUEL = 40_000_000

#: process-wide memo of sequential-baseline times.  Keyed by the machine
#: *value* (a frozen dataclass tree of cost constants), never ``id()`` —
#: ids are reused after GC and would alias distinct machines.  Values are
#: deterministic functions of the key, so forked scheduler workers each
#: warming their own copy stay mutually consistent.
_BASELINE_CACHE: Dict[tuple, float] = {}


@dataclass
class RunResult:
    """Outcome of evaluating one sample of generated code."""

    status: str                       # see module docstring
    detail: str = ""
    #: simulated seconds per processor count (timing runs only)
    times: Dict[int, float] = field(default_factory=dict)
    baseline_time: Optional[float] = None
    #: MiniParSan findings (definite and possible) for this sample
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: cost-decomposed timing profile (``repro.prof``; timing runs with
    #: profiling requested only)
    profile: Optional[Profile] = None
    #: vectorized-tier telemetry (``VecStats.as_dict``): which tier ran
    #: and how many loops/iterations the numpy tier absorbed.  Pure
    #: observability — excluded from the serialised EvalRun so digests
    #: stay byte-identical with the tier on or off.
    vec: Optional[Dict] = None


#: process-wide content-addressed compile cache.  Keyed by
#: ``(sha256(source), model)`` — the two inputs that fully determine the
#: compile/link outcome — and LRU-bounded so long sweeps cannot grow it
#: without limit.  Compiled programs are reentrant (closures take the
#: ExecCtx and argument list per call and hold no mutable state), so one
#: cached program can serve any number of runs; the same reuse already
#: happens inside a single sample between correctness and timing phases.
_COMPILE_CACHE_MAX = 256
_COMPILE_CACHE: "OrderedDict[Tuple[str, str], tuple]" = OrderedDict()
_COMPILE_CACHE_LOCK = threading.Lock()
_COMPILE_CACHE_STATS = {"hits": 0, "misses": 0}


def compile_cache_stats() -> Dict[str, int]:
    """Snapshot of the process-wide compile-cache hit/miss counters."""
    with _COMPILE_CACHE_LOCK:
        return dict(_COMPILE_CACHE_STATS)


def clear_compile_cache() -> None:
    """Drop every cached program and zero the counters (test isolation)."""
    with _COMPILE_CACHE_LOCK:
        _COMPILE_CACHE.clear()
        _COMPILE_CACHE_STATS["hits"] = 0
        _COMPILE_CACHE_STATS["misses"] = 0


def _compile_checked(source: str, model: str):
    """Compile + link, keeping the type-checked AST for the linter.
    Returns (program, checked, None) or (None, None, reason)."""
    key = (hashlib.sha256(source.encode()).hexdigest(), model)
    with _COMPILE_CACHE_LOCK:
        cached = _COMPILE_CACHE.get(key)
        if cached is not None:
            _COMPILE_CACHE.move_to_end(key)
            _COMPILE_CACHE_STATS["hits"] += 1
            return cached
        _COMPILE_CACHE_STATS["misses"] += 1
    entry = _compile_checked_uncached(source, model)
    with _COMPILE_CACHE_LOCK:
        _COMPILE_CACHE[key] = entry
        while len(_COMPILE_CACHE) > _COMPILE_CACHE_MAX:
            _COMPILE_CACHE.popitem(last=False)
    return entry


def _compile_checked_uncached(source: str, model: str):
    try:
        return _compile_stages(source, model)
    except RecursionError:
        # the recursive-descent front end and the AST walkers after it
        # share Python's stack; pathological nesting is a build error
        return (None, None,
                "compile error: program too deeply nested to analyze")


def _compile_stages(source: str, model: str):
    try:
        checked = compile_source(source)
    except CompileError as exc:
        return None, None, f"compile error: {exc}"
    err = link_error(checked, model)
    if err is not None:
        return None, None, f"link error: {err}"
    try:
        program = compile_program(checked)
    except MiniParError as exc:  # pragma: no cover - defensive
        return None, None, f"codegen error: {exc}"
    return program, checked, None


def compile_sample(source: str, model: str):
    """Compile + link a generated sample.  Returns (program, None) or
    (None, reason)."""
    program, _, reason = _compile_checked(source, model)
    return program, reason


def _classify(exc: BaseException) -> str:
    if isinstance(exc, FuelExhausted):
        return "timeout"
    if isinstance(exc, (DataRaceError, DeadlockError, MPIUsageError,
                        TrapError, RuntimeFailure)):
        return "runtime_error"
    if isinstance(exc, MiniParError):
        return "runtime_error"
    # anything else (including an injected FaultInjected escaping a
    # runtime layer) propagates to the resilience wrapper
    raise exc


class Runner:
    """Compiles, checks, runs and times generated samples.

    ``transient_retries`` / ``retry_backoff`` govern the resilience
    wrapper (active only with a fault injector installed); they do not
    affect results and are deliberately excluded from the scheduler's
    runner fingerprint.
    """

    def __init__(self, machine: Machine = DEFAULT_MACHINE,
                 thread_counts: Sequence[int] = CPU_THREAD_COUNTS,
                 mpi_rank_counts: Sequence[int] = (1, 4, 16, 64, 256, 512),
                 hybrid_config: Sequence[int] = (4, 64),
                 correctness_trials: int = 2,
                 seed: int = 20240603,
                 static_screen: bool = True,
                 vectorize: bool = True,
                 transient_retries: int = 2,
                 retry_backoff: float = 0.05):
        self.machine = machine
        self.thread_counts = tuple(thread_counts)
        self.mpi_rank_counts = tuple(mpi_rank_counts)
        self.hybrid_config = tuple(hybrid_config)
        self.correctness_trials = correctness_trials
        self.seed = seed
        self.static_screen = static_screen
        # tier-2 numpy execution (repro.runtime.vectorize).  Bit-identical
        # to the scalar tier by contract, so — like the retry knobs — it
        # is deliberately excluded from the scheduler runner fingerprint.
        self.vectorize = bool(vectorize)
        self.transient_retries = int(transient_retries)
        self.retry_backoff = float(retry_backoff)

    # -- single executions -------------------------------------------------------

    def _run_shared(self, program: CompiledProgram, problem: Problem,
                    inputs: Dict, model: str, fuel: int, work_scale: float,
                    profile: bool = False, vec_stats: Optional[VecStats] = None):
        """serial / openmp / kokkos execution; returns (args, ret, ctx)."""
        if model == "serial":
            rt = SerialRuntime()
        elif model == "openmp":
            rt = OpenMPRuntime(self.thread_counts)
        else:
            rt = KokkosRuntime(self.thread_counts)
        ctx = ExecCtx(self.machine, rt, fuel=fuel, work_scale=work_scale,
                      vectorize=self.vectorize, vec_stats=vec_stats)
        if profile:
            ctx.prof = ProfBuilder()
        args = problem.to_minipar_args(inputs)
        ret = program.run_kernel(problem.entry, ctx, args)
        return args, ret, ctx

    def _gpu_args(self, problem: Problem, inputs: Dict, model: str):
        args = problem.to_minipar_args(inputs)
        if problem.ret is not None:
            elem = "int" if problem.ret == "int" else "float"
            seed_val = problem.gpu_result_seed(inputs)
            result = Array([int(seed_val) if elem == "int" else float(seed_val)],
                           elem, (1,))
            args = list(args) + [result]
        return args

    # -- correctness --------------------------------------------------------------

    def check_correct(self, program: CompiledProgram, source: str,
                      prompt: Prompt, checked=None,
                      vec_stats: Optional[VecStats] = None) -> RunResult:
        """Run the correctness driver: usage check + reference trials."""
        problem, model = prompt.problem, prompt.model
        if not uses_parallel_model(source, model, checked=checked):
            return RunResult("not_parallel",
                             f"generated code does not use {model}")
        rng = np.random.default_rng(self.seed)
        for trial in range(self.correctness_trials):
            inputs = problem.generate(rng, problem.correctness_size)
            try:
                ok = self._correct_once(program, problem, model, inputs,
                                        vec_stats)
            except BaseException as exc:  # noqa: BLE001
                return RunResult(_classify(exc), f"{type(exc).__name__}: {exc}")
            if not ok:
                return RunResult("wrong_answer", f"trial {trial} mismatch")
        return RunResult("correct")

    def _correct_once(self, program, problem: Problem, model: str,
                      inputs: Dict,
                      vec_stats: Optional[VecStats] = None) -> bool:
        if model in ("serial", "openmp", "kokkos"):
            args, ret, _ = self._run_shared(
                program, problem, inputs, model,
                fuel=CORRECTNESS_FUEL, work_scale=1.0, vec_stats=vec_stats,
            )
            return problem.check(inputs, args, ret)
        if model in ("mpi", "mpi+omp"):
            if model == "mpi":
                nranks, tpr = CORRECTNESS_PROCS["mpi"], 0
            else:
                nranks, tpr = CORRECTNESS_PROCS["mpi+omp"]
            res = run_mpi(program, problem.entry,
                          problem.to_minipar_args(inputs), nranks,
                          self.machine, fuel=CORRECTNESS_FUEL,
                          threads_per_rank=tpr,
                          vectorize=self.vectorize, vec_stats=vec_stats)
            if res.error is not None:
                raise res.error
            return problem.check(inputs, res.args, res.ret)
        # cuda / hip
        args = self._gpu_args(problem, inputs, model)
        res = launch(program, problem.entry, args,
                     problem.default_gpu_threads(inputs), self.machine,
                     dialect=model, fuel=CORRECTNESS_FUEL,
                     vectorize=self.vectorize, vec_stats=vec_stats)
        if res.error is not None:
            raise res.error
        return problem.gpu_check(inputs, args)

    # -- timing ----------------------------------------------------------------------

    def baseline_time(self, problem: Problem) -> float:
        """Simulated time of the handwritten sequential baseline at the
        timing size (T* in the metrics).  Deterministic, so cached
        process-wide per (problem, seed)."""
        key = (problem.name, self.seed, self.machine)
        cached = _BASELINE_CACHE.get(key)
        if cached is not None:
            return cached
        from ..bench.baselines import baseline_source

        program = compile_program(compile_source(baseline_source(problem.name)))
        rng = np.random.default_rng(self.seed + 1)
        inputs = problem.generate(rng, problem.timing_size)
        args = problem.to_minipar_args(inputs)
        # vectorize follows the runner switch; either tier produces the
        # bit-identical time, so the cache key need not mention the tier
        ctx = ExecCtx(self.machine, SerialRuntime(), fuel=TIMING_FUEL,
                      work_scale=problem.work_scale,
                      vectorize=self.vectorize)
        program.run_kernel(problem.entry, ctx, args)
        _BASELINE_CACHE[key] = ctx.sim_seconds()
        return _BASELINE_CACHE[key]

    def measure(self, program: CompiledProgram, prompt: Prompt,
                vec_stats: Optional[VecStats] = None) -> Dict[int, float]:
        """Simulated time per processor count at the timing size.

        Configurations where the sample fails (e.g. a scatter that needs
        divisibility at some rank count) are simply absent from the dict,
        as a crashed run would be absent from the paper's measurements.
        """
        times, _ = self.measure_profiled(program, prompt, profile=False,
                                         vec_stats=vec_stats)
        return times

    def measure_profiled(self, program: CompiledProgram, prompt: Prompt,
                         profile: bool = True,
                         vec_stats: Optional[VecStats] = None
                         ) -> Tuple[Dict[int, float], Optional[Profile]]:
        """:meth:`measure` plus an optional cost-decomposed profile.

        With ``profile=False`` this *is* ``measure`` — profiling is off at
        every instrumentation site (``ctx.prof is None``) and the times
        are bit-identical.  With ``profile=True`` every configuration also
        attributes its machine-model charges into a :class:`Profile`
        whose category sums equal the returned times exactly.  For models
        that run one job per configuration (MPI, hybrid, GPU) the profile
        counters are those of the largest successfully measured
        configuration.
        """
        problem, model = prompt.problem, prompt.model
        rng = np.random.default_rng(self.seed + 1)
        inputs = problem.generate(rng, problem.timing_size)
        scale = problem.work_scale
        times: Dict[int, float] = {}
        prof = Profile(model=model) if profile else None
        if model == "serial":
            try:
                _, _, ctx = self._run_shared(program, problem, inputs, model,
                                             TIMING_FUEL, scale,
                                             profile=profile,
                                             vec_stats=vec_stats)
                times[1] = ctx.sim_seconds()
                if prof is not None:
                    prof.categories[1] = ctx.prof.categories_for(ctx, 1)
                    prof.counters = dict(ctx.prof.counters)
            except MiniParError:
                pass
            return times, prof
        if model in ("openmp", "kokkos"):
            try:
                _, _, ctx = self._run_shared(program, problem, inputs, model,
                                             TIMING_FUEL, scale,
                                             profile=profile,
                                             vec_stats=vec_stats)
            except MiniParError:
                return times, prof
            for t in self.thread_counts:
                times[t] = ctx.sim_seconds(t)
                if prof is not None:
                    prof.categories[t] = ctx.prof.categories_for(ctx, t)
            if prof is not None:
                prof.counters = dict(ctx.prof.counters)
            return times, prof
        if model == "mpi":
            # run_mpi never writes the caller's arrays: one set serves
            # every rank count
            args = problem.to_minipar_args(inputs)
            for p in self.mpi_rank_counts:
                res = run_mpi(program, problem.entry, args, p, self.machine,
                              work_scale=scale, fuel=TIMING_FUEL,
                              profile=profile, vectorize=self.vectorize,
                              vec_stats=vec_stats)
                if res.error is None:
                    times[p] = res.sim_seconds
                    if prof is not None and res.profile is not None:
                        prof.categories[p] = res.profile.categories
                        prof.counters = dict(res.profile.counters)
            return times, prof
        if model == "mpi+omp":
            ranks, tpr = self.hybrid_config
            res = run_mpi(program, problem.entry,
                          problem.to_minipar_args(inputs), ranks, self.machine,
                          work_scale=scale, fuel=TIMING_FUEL,
                          threads_per_rank=tpr, profile=profile,
                          vectorize=self.vectorize, vec_stats=vec_stats)
            if res.error is None:
                times[ranks * tpr] = res.sim_seconds
                if prof is not None and res.profile is not None:
                    prof.categories[ranks * tpr] = res.profile.categories
                    prof.counters = dict(res.profile.counters)
            return times, prof
        # cuda / hip
        args = self._gpu_args(problem, inputs, model)
        res = launch(program, problem.entry, args,
                     problem.default_gpu_threads(inputs), self.machine,
                     dialect=model, work_scale=scale, fuel=TIMING_FUEL,
                     profile=profile, vectorize=self.vectorize,
                     vec_stats=vec_stats)
        if res.error is None:
            times[res.total_threads] = res.sim_seconds
            if prof is not None and res.profile is not None:
                prof.categories[res.total_threads] = res.profile.categories
                prof.counters = dict(res.profile.counters)
        return times, prof

    # -- the full per-sample pipeline ----------------------------------------------------

    def _correct_phase(self, source: str, prompt: Prompt,
                       vec_stats: Optional[VecStats] = None
                       ) -> Tuple[RunResult, Optional[CompiledProgram]]:
        """Compile → static screen → correctness.  Returns the result and
        the compiled program (for the timing phase), or ``None`` when the
        pipeline stopped before execution."""
        program, checked, reason = _compile_checked(source, prompt.model)
        if program is None:
            return RunResult("build_error", reason or "build failed"), None
        diagnostics: List[Diagnostic] = []
        if self.static_screen:
            diagnostics = lint_checked(checked, prompt.model)
            fatal = blocking(diagnostics)
            if fatal:
                return RunResult("static_fail",
                                 f"static: {fatal[0].message}",
                                 diagnostics=diagnostics), program
        result = self.check_correct(program, source, prompt, checked=checked,
                                    vec_stats=vec_stats)
        result.diagnostics = diagnostics
        return result, program

    def evaluate_sample(self, source: str, prompt: Prompt,
                        with_timing: bool = False,
                        profile: bool = False) -> RunResult:
        """The per-sample pipeline: compile, screen, check, then time.

        With no fault injector installed this is one attempt that enters
        no fault scope.  Under an installed injector, each attempt runs
        in a fault scope named after the *sample* (not the attempt), so
        occurrence counters persist across retries: a single-occurrence
        fault consumed by attempt 0 will not re-fire on attempt 1, which
        is exactly how a transient infrastructure fault behaves.
        Failures are retried (with bounded exponential backoff) only
        when the injector actually fired during the attempt or the fault
        announced itself as transient; a clean failure is the sample's
        own and is returned immediately.
        """
        inj = inject.ACTIVE
        if inj is not None:
            digest = hashlib.sha256(source.encode()).hexdigest()[:12]
            scope_name = f"{prompt.uid}/{digest}"

        def fired() -> int:
            return inj.scope_fired() if inj is not None else 0

        delay = self.retry_backoff
        last_detail = ""
        for attempt in range(self.transient_retries + 1):
            # fresh counters per attempt: a retried attempt re-runs every
            # loop, and the record should describe the attempt it kept
            stats = VecStats()
            with (inj.scope(scope_name) if inj is not None
                  else nullcontext()):
                fired_before = fired()
                try:
                    if inj is not None and inj.fire(
                            "harness.flake", "attempt") is not None:
                        raise FaultInjected(
                            "harness.flake",
                            "injected harness infrastructure flake")
                    result, program = self._correct_phase(source, prompt,
                                                          vec_stats=stats)
                except FaultInjected as exc:
                    last_detail = f"infra: {exc}"
                    if exc.transient and attempt < self.transient_retries:
                        time.sleep(min(delay, 1.0))
                        delay *= 2
                        continue
                    break
                if fired() > fired_before and result.status not in (
                        "correct", "build_error", "static_fail"):
                    # the attempt was fault-perturbed and failed: treat
                    # the failure as transient infrastructure, not the
                    # sample's own defect
                    last_detail = (f"infra: fault-perturbed attempt ended in "
                                   f"{result.status} ({result.detail})")
                    if attempt < self.transient_retries:
                        time.sleep(min(delay, 1.0))
                        delay *= 2
                        continue
                    break
                if result.status != "correct" or not with_timing:
                    result.vec = stats.as_dict(self.vectorize)
                    return result
                # timing phase: faults here degrade rather than discard
                timing_fired = fired()
                sweep_prof: Optional[Profile] = None
                try:
                    rule = (inj.fire("harness.timing", "sweep")
                            if inj is not None else None)
                    if rule is not None:
                        times: Optional[Dict[int, float]] = {}
                    elif profile:
                        times, sweep_prof = self.measure_profiled(
                            program, prompt, vec_stats=stats)
                    else:
                        times = self.measure(program, prompt,
                                             vec_stats=stats)
                except FaultInjected:
                    rule, times = None, None
                if rule is not None or times is None \
                        or fired() > timing_fired:
                    result.status = "degraded"
                    result.detail = ("timing sweep fault-perturbed; "
                                     "correctness-only record")
                    result.times = {}
                    result.vec = stats.as_dict(self.vectorize)
                    return result
                result.times = times
                result.profile = sweep_prof
                result.vec = stats.as_dict(self.vectorize)
                return result
        detail = last_detail or "infrastructure fault"
        return RunResult(
            "system_error",
            f"{detail} (retry budget of {self.transient_retries} exhausted)")
