"""Chaos invariants: the properties that make fault injection *safe*.

An injection engine is only trustworthy if it is (a) deterministic —
the same seed must replay the same faults, or a chaos failure cannot be
debugged; (b) transparent — installing the injector with nothing to
inject must not perturb a single byte of output, or every fault-free run
pays an integrity tax; and (c) survivable — the resilience machinery it
exists to exercise must actually recover.  This module states those
properties as executable checks over a small fixed benchmark slice
(transform x {serial, openmp}, two samples of one simulated LLM):

1. **event-determinism** — evaluating twice under ``FaultPlan.from_seed``
   yields an identical canonical event stream *and* identical
   ``EvalRun`` JSON.
2. **injector-transparency** — a fault-free plan with the injector
   installed produces an ``EvalRun`` byte-identical to no injector at
   all, and records zero decision events (counters only advance for
   points with rules).
3. **sched-resilience** — killing every task's first worker attempt and
   corrupting every task's first result still converges, via the pool's
   retry budget, to the fault-free run.
4. **kill-resume** — for a journaled run, truncating the journal after
   *every* record index (a kill between any two commits) and resuming
   reproduces the fault-free metrics exactly.
5. **profile-determinism** — cost-decomposed profiling (``repro.prof``)
   composes with injection: the same seed yields byte-identical
   *profiled* ``EvalRun`` JSON, and turning profiling on never perturbs
   the statuses or times of the run it decorates.
6. **serve-resilience** — the evaluation service (``repro.serve``)
   survives its batch pool loop dying mid-request (``serve.batch.die``)
   composed with worker kills: the batch re-runs only its unsettled
   tasks on fresh workers and the served result stays byte-identical to a direct
   ``evaluate_model`` call.
7. **vectorize-resilience** — the tier-2 numpy executor
   (``repro.runtime.vectorize``) composes with injection: under the
   same fault plan, runs with the tier on and off produce byte-identical
   ``EvalRun`` JSON — faults land at the same points regardless of which
   tier executes the loops between them.
8. **guard-resilience** — the self-healing supervision layer
   (``repro.guard``) preserves exactness: a task that kills every worker
   it touches lands in the ``quarantined`` lane exactly once,
   deterministically across runs; and SIGKILLing the whole scheduler
   process at event boundaries (``guard.process.kill``) resumes to the
   reference digest.
9. **dispatch-resilience** — cost-predictive dispatch
   (``repro.sched.predict``) is throughput policy only: both dispatch
   policies (``lpt``/``fifo``) reproduce the serial reference byte for
   byte, and a warm duration ledger composed with batch pool-loop
   deaths and worker kills inside the service (LPT pool dispatch under
   ``serve.batch.die``) still serves the byte-identical run.

``repro chaos`` runs all nine from the command line; the CI ``chaos``
job and ``tests/faults/test_chaos.py`` pin them as regressions.
"""

from __future__ import annotations

import contextlib
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

from ..bench.registry import PCGBench
from ..harness.evaluate import EvalRun, evaluate_model
from ..models import load_model
from .inject import injector
from .plan import FaultPlan, FaultRule

#: the fixed slice every chaos check runs on: small enough for CI, rich
#: enough to cross two runtimes and exercise source-level task dedup
CHAOS_PTYPES = ("transform",)
CHAOS_EXEC = ("serial", "openmp")
CHAOS_LLM = "GPT-3.5"
CHAOS_SAMPLES = 2
CHAOS_SEED = 7


@dataclass
class ChaosReport:
    """Outcome of one invariant check."""

    invariant: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.invariant}: {self.detail}"


def chaos_slice() -> Tuple[object, PCGBench]:
    """(llm, bench) for the fixed chaos slice."""
    bench = PCGBench(problem_types=list(CHAOS_PTYPES),
                     models=list(CHAOS_EXEC))
    return load_model(CHAOS_LLM), bench


def _eval(llm, bench, with_timing: bool = False, **kw) -> EvalRun:
    return evaluate_model(llm, bench, num_samples=CHAOS_SAMPLES,
                          temperature=0.2, with_timing=with_timing,
                          seed=CHAOS_SEED, **kw)


def check_event_determinism(seed: int = 11) -> ChaosReport:
    """Same seed => identical event stream and identical EvalRun."""
    llm, bench = chaos_slice()
    plan = FaultPlan.from_seed(seed).restricted(("runtime", "harness"))
    logs: List[str] = []
    payloads: List[str] = []
    inj = None
    for _ in range(2):
        with injector(plan) as inj:
            run = _eval(llm, bench, with_timing=True)
        logs.append(inj.canonical_log())
        payloads.append(run.to_json())
    if logs[0] != logs[1]:
        return ChaosReport("event-determinism", False,
                           f"seed {seed} produced two different event "
                           "streams")
    if payloads[0] != payloads[1]:
        return ChaosReport("event-determinism", False,
                           f"seed {seed} produced two different EvalRuns")
    return ChaosReport(
        "event-determinism", True,
        f"seed {seed}: {len(inj.events)} decisions "
        f"({len(inj.fired_events())} fired) replayed identically")


def check_injector_transparency() -> ChaosReport:
    """Fault-free plan installed => byte-identical EvalRun, zero events."""
    llm, bench = chaos_slice()
    bare = _eval(llm, bench, with_timing=True)
    with injector(FaultPlan(rules=(), seed=0)) as inj:
        shadowed = _eval(llm, bench, with_timing=True)
    if shadowed.to_json() != bare.to_json():
        return ChaosReport("injector-transparency", False,
                           "installing a fault-free injector changed the "
                           "EvalRun")
    if inj.events:
        return ChaosReport("injector-transparency", False,
                           f"a fault-free plan recorded {len(inj.events)} "
                           "decision events; the fast path leaked")
    return ChaosReport("injector-transparency", True,
                       "fault-free run is byte-identical with the injector "
                       "installed and recorded zero events")


def check_profile_determinism(seed: int = 11) -> ChaosReport:
    """Profiling composes with injection: replayable and non-perturbing.

    Same seed twice with ``profile=True`` must yield byte-identical
    profiled ``EvalRun`` JSON (profiles replay with the faults), and the
    profiled run stripped of its ``profile`` fields must equal the
    unprofiled run under the same plan (profiling observes the
    simulation, it never changes it — even mid-fault)."""
    import json

    llm, bench = chaos_slice()
    plan = FaultPlan.from_seed(seed).restricted(("runtime", "harness"))
    payloads: List[str] = []
    for _ in range(2):
        with injector(plan):
            run = _eval(llm, bench, with_timing=True, profile=True)
        payloads.append(run.to_json())
    if payloads[0] != payloads[1]:
        return ChaosReport("profile-determinism", False,
                           f"seed {seed} produced two different profiled "
                           "EvalRuns")
    with injector(plan):
        plain = _eval(llm, bench, with_timing=True)

    def strip(payload: str) -> dict:
        doc = json.loads(payload)
        for rec in doc.get("prompts", {}).values():
            for sample in rec.get("samples", ()):
                sample.pop("profile", None)
        return doc

    if strip(payloads[0]) != strip(plain.to_json()):
        return ChaosReport("profile-determinism", False,
                           "enabling profiling perturbed statuses or times "
                           "under the injected plan")
    n_profiles = sum(
        1 for rec in plain.prompts.values() for _ in rec.samples)
    return ChaosReport(
        "profile-determinism", True,
        f"seed {seed}: profiled run replayed identically and matches the "
        f"unprofiled run across {n_profiles} samples")


def check_sched_resilience(jobs: int = 4) -> ChaosReport:
    """Worker kills + result corruption still converge to the clean run.

    Every task's first worker attempt is killed (``#a0``) and every
    task's first delivered result is corrupted; the pool's retry budget
    (kill -> retry 1, corrupt -> retry 2) must absorb both and produce
    the fault-free ``EvalRun``.  The slice's task count stays under the
    worker crash budget (``4*jobs + 4``).
    """
    llm, bench = chaos_slice()
    reference = _eval(llm, bench, jobs=1)
    plan = FaultPlan(rules=(
        FaultRule(point="sched.worker.kill", action="kill", match="#a0"),
        FaultRule(point="sched.result.corrupt", action="corrupt"),
    ), seed=0)
    with injector(plan):
        chaotic = _eval(llm, bench, jobs=jobs)
    if chaotic.to_json() != reference.to_json():
        return ChaosReport("sched-resilience", False,
                           "run under worker kills + result corruption "
                           "diverged from the fault-free run")
    return ChaosReport("sched-resilience", True,
                       "every first attempt killed and every first result "
                       "corrupted; retries converged to the clean run")


def check_kill_resume(workdir: Union[str, Path],
                      jobs: int = 2,
                      log: Optional[Callable[[str], None]] = None
                      ) -> ChaosReport:
    """Kill at every journal index => resume reproduces the clean run.

    A "kill after the i-th committed record" is simulated by truncating
    a reference journal to its first i lines (records are committed iff
    newline-terminated; mid-record kills are covered byte-by-byte in
    ``tests/sched/test_journal.py``) and resuming from the truncation.
    """
    llm, bench = chaos_slice()
    workdir = Path(workdir)
    ref_journal = workdir / "reference.jsonl"
    reference = _eval(llm, bench, jobs=jobs, journal=str(ref_journal))
    lines = ref_journal.read_text().splitlines(keepends=True)
    mismatches: List[int] = []
    for cut in range(len(lines)):
        if log is not None:
            log(f"  kill point {cut + 1}/{len(lines)}")
        path = workdir / f"kill_at_{cut}.jsonl"
        path.write_text("".join(lines[:cut]))
        resumed = _eval(llm, bench, jobs=jobs, journal=str(path),
                        resume=True)
        if resumed.to_json() != reference.to_json():
            mismatches.append(cut)
    if mismatches:
        return ChaosReport("kill-resume", False,
                           "resume diverged after kills at journal "
                           f"indices {mismatches}")
    return ChaosReport("kill-resume", True,
                       f"{len(lines)} kill points (header + "
                       f"{len(lines) - 1} records), every resume "
                       "reproduced the reference run")


def _serve_under_deaths(workdir: Union[str, Path],
                        jobs: int) -> Tuple[EvalRun, dict]:
    """Serve the chaos request on a fresh :class:`EvalService` while every
    task's first worker attempt is killed and the batch's pool loop dies
    once, right after its first task executes (``serve.batch.die``).
    Returns the served run and the service's ``/metrics`` snapshot."""
    import asyncio

    from ..serve import EvalRequest, EvalService
    from ..serve.client import ServiceClient

    plan = FaultPlan(rules=(
        FaultRule(point="sched.worker.kill", action="kill", match="#a0"),
        FaultRule(point="serve.batch.die", action="abort",
                  occurrences=(0,)),
    ), seed=0)
    request = EvalRequest(model=CHAOS_LLM, ptypes=CHAOS_PTYPES,
                          exec_models=CHAOS_EXEC, samples=CHAOS_SAMPLES,
                          seed=CHAOS_SEED)

    async def serve_once() -> Tuple[EvalRun, dict]:
        service = EvalService(Path(workdir), shards=1, jobs_per_shard=jobs,
                              sample_cache=False)
        await service.start()
        try:
            run = await ServiceClient(service).evaluate(request)
        finally:
            await service.shutdown(drain=True)
        return run, service.metrics_snapshot()

    with injector(plan):
        return asyncio.run(serve_once())


def check_serve_resilience(workdir: Union[str, Path],
                           jobs: int = 2) -> ChaosReport:
    """Batch pool-loop deaths + worker kills inside the service still
    serve the byte-identical run.

    One request is pushed through an in-process :class:`EvalService`
    under a plan that (a) hard-kills every task's first worker attempt
    and (b) aborts the batch's pool loop right after its first task
    executes (``serve.batch.die``, once).  The batch must re-run only
    its unsettled tasks on fresh workers, and the served
    ``EvalRun`` must match a direct fault-free ``evaluate_model`` call
    byte for byte — the differential guarantee under maximum
    infrastructure hostility.
    """
    llm, bench = chaos_slice()
    reference = _eval(llm, bench)
    served, snap = _serve_under_deaths(workdir, jobs)
    if served.to_json() != reference.to_json():
        return ChaosReport("serve-resilience", False,
                           "served run under batch deaths + worker kills "
                           "diverged from direct evaluation")
    if snap["batch_restarts"] < 1:
        return ChaosReport("serve-resilience", False,
                           "the batch-death fault never fired "
                           "(batch_restarts == 0); the invariant is vacuous")
    return ChaosReport(
        "serve-resilience", True,
        f"{snap['batch_restarts']} batch pool-loop deaths and every first "
        f"worker attempt killed; {snap['tasks_executed']} tasks executed "
        "across the restarts and the served run matches direct "
        "evaluation")


def check_vectorize_resilience(seed: int = 11) -> ChaosReport:
    """Tier choice is invisible even mid-fault.

    The vectorized executor claims byte-identical behaviour to the
    scalar tier; that claim must hold *under injection* too — a fault
    plan whose rules fire between, before, or after vectorized loops
    must produce the identical event sequence and the identical
    ``EvalRun`` on both tiers.  This closes the one gap the fault-free
    differential suite cannot: a tier that perturbed fault ordering
    (e.g. by skipping an injection point inside a bulk-executed loop)
    would pass every clean-run golden and still desynchronise replay.
    """
    from ..harness.runner import Runner

    llm, bench = chaos_slice()
    plan = FaultPlan.from_seed(seed).restricted(("runtime", "harness"))
    payloads: List[str] = []
    logs: List[str] = []
    for vec in (True, False):
        with injector(plan) as inj:
            run = _eval(llm, bench, with_timing=True,
                        runner=Runner(vectorize=vec))
        payloads.append(run.to_json())
        logs.append(inj.canonical_log())
    if logs[0] != logs[1]:
        return ChaosReport("vectorize-resilience", False,
                           "the two tiers drew different fault-decision "
                           "streams from the same plan")
    if payloads[0] != payloads[1]:
        return ChaosReport("vectorize-resilience", False,
                           "EvalRuns diverged between the numpy and scalar "
                           "tiers under the injected plan")
    return ChaosReport(
        "vectorize-resilience", True,
        f"seed {seed}: fault plan replayed identically on both execution "
        "tiers with byte-identical EvalRuns")


def check_guard_resilience(workdir: Union[str, Path],
                           jobs: int = 2,
                           log: Optional[Callable[[str], None]] = None
                           ) -> ChaosReport:
    """The guard layer (quarantine, crash-only recovery) preserves
    exactness under maximum supervision pressure.

    Two sub-properties, each non-vacuous by construction:

    * **poison determinism** — a kill rule pinned to one sample task's
      every attempt makes that task slaughter workers until the health
      ledger quarantines it.  Two such runs must be byte-identical, the
      victim's slots must carry ``quarantined`` (exactly its slot count,
      exactly once per task), and pass@1 over the victim's prompt must
      equal pass@1 with the quarantined samples dropped — the
      denominator-exclusion wiring, end to end.
    * **crash-only recovery** — SIGKILLing the whole scheduler process
      at sampled event boundaries (``guard.process.kill`` via
      :func:`repro.guard.run_supervised`) and resuming from the journal
      reproduces the unkilled reference digest every time.
    """
    from ..guard import crash_resume_sweep
    from ..harness.runner import Runner
    from ..metrics import prompt_pass_at_k
    from ..sched.plan import KIND_SAMPLE, build_plan

    llm, bench = chaos_slice()
    emit = log or (lambda line: None)

    # (a) a poison task is quarantined exactly once, deterministically
    emit("  guard: poison-task quarantine ...")
    plan_obj = build_plan(llm, bench, CHAOS_SAMPLES, 0.2, False, Runner(),
                          CHAOS_SEED)
    victim = next(tid for tid, spec in plan_obj.tasks.items()
                  if spec.kind == KIND_SAMPLE)
    victim_slots = [(pp.uid, slot.sample_index)
                    for pp in plan_obj.prompts for slot in pp.slots
                    if slot.task_id == victim]
    poison_plan = FaultPlan(rules=(
        FaultRule(point="sched.worker.kill", action="kill", match=victim),
    ), seed=0)
    payloads: List[str] = []
    for _ in range(2):
        with injector(poison_plan):
            run = _eval(llm, bench, jobs=jobs)
        payloads.append(run.to_json())
    if payloads[0] != payloads[1]:
        return ChaosReport("guard-resilience", False,
                           "two runs under the same poison schedule "
                           "produced different EvalRuns")
    got = [(uid, i) for uid, rec in run.prompts.items()
           for i, s in enumerate(rec.samples) if s.status == "quarantined"]
    if sorted(got) != sorted(victim_slots) or not got:
        return ChaosReport(
            "guard-resilience", False,
            f"expected quarantined slots {sorted(victim_slots)}, "
            f"got {sorted(got)}")
    victim_uid = victim_slots[0][0]
    statuses = run.prompts[victim_uid].statuses()
    survivors = [s for s in statuses if s != "quarantined"]
    if survivors and prompt_pass_at_k(statuses, 1) \
            != prompt_pass_at_k(survivors, 1):
        return ChaosReport("guard-resilience", False,
                           "quarantined samples leaked into the pass@1 "
                           "denominator")

    # (b) whole-process SIGKILL at sampled event boundaries, then resume
    emit("  guard: crash-only recovery ...")
    sweep_dir = Path(workdir) / "supervised"
    probe = crash_resume_sweep(llm, bench, workdir=sweep_dir,
                               kill_points=[], num_samples=CHAOS_SAMPLES,
                               temperature=0.2, seed=CHAOS_SEED, jobs=jobs)
    events = int(probe["reference_events"])
    stride = max(1, events // 4)
    points = sorted(set(range(0, events, stride)) | {events - 1})
    sweep = crash_resume_sweep(llm, bench, workdir=sweep_dir,
                               kill_points=points, progress=log,
                               num_samples=CHAOS_SAMPLES, temperature=0.2,
                               seed=CHAOS_SEED, jobs=jobs)
    if sweep["mismatches"]:
        return ChaosReport("guard-resilience", False,
                           "crash-resume diverged after SIGKILLs at event "
                           f"boundaries {sweep['mismatches']}")
    if sweep["restarts"] < len(points):
        return ChaosReport("guard-resilience", False,
                           "the whole-process kill never fired "
                           f"({sweep['restarts']} restarts over "
                           f"{len(points)} armed boundaries); the "
                           "invariant is vacuous")
    return ChaosReport(
        "guard-resilience", True,
        "poison task quarantined exactly once "
        f"across {len(victim_slots)} slot(s) in both runs; "
        f"{sweep['checked']} whole-process SIGKILLs "
        f"({sweep['restarts']} restarts) all resumed to the reference "
        "digest")


def check_dispatch_resilience(workdir: Union[str, Path],
                              jobs: int = 2) -> ChaosReport:
    """Cost-predictive dispatch is throughput policy, never content
    policy — even warm, even mid-fault.

    Two sub-properties:

    * **policy transparency** — the scheduler under both dispatch
      policies (``lpt``, ``fifo``) reproduces the serial reference byte
      for byte: the ready-queue order and the duration predictions
      behind it cannot leak into the ``EvalRun``.
    * **warm-ledger survivability** — a ledger warmed by a prior run
      drives LPT pool dispatch inside the service while every task's
      first worker attempt is killed and the batch's pool loop dies once
      (``serve.batch.die``); the served run must still match the
      reference, with the ledger demonstrably consulted (non-vacuity:
      ``ledger_predictions >= 1`` and ``batch_restarts >= 1``).
    """
    from ..harness.runner import Runner
    from ..sched.scheduler import harness_pool, run_scheduled

    llm, bench = chaos_slice()
    reference = _eval(llm, bench)

    # (a) both policies are byte-transparent
    for policy in ("lpt", "fifo"):
        run = _eval(llm, bench, jobs=jobs, dispatch=policy)
        if run.to_json() != reference.to_json():
            return ChaosReport(
                "dispatch-resilience", False,
                f"dispatch policy {policy!r} perturbed the EvalRun")

    # (b) warm the service's ledger with a direct scheduled run, then
    # serve the same request under batch deaths + worker kills
    serve_dir = Path(workdir)
    serve_dir.mkdir(parents=True, exist_ok=True)
    with harness_pool(Runner(), jobs) as pool:
        warm_run, _ = run_scheduled(
            llm, bench, pool, num_samples=CHAOS_SAMPLES, temperature=0.2,
            seed=CHAOS_SEED, ledger_path=serve_dir / "durations.jsonl")
    if warm_run.to_json() != reference.to_json():
        return ChaosReport("dispatch-resilience", False,
                           "the ledger-warming run diverged from the "
                           "reference")
    served, snap = _serve_under_deaths(serve_dir, jobs)
    if served.to_json() != reference.to_json():
        return ChaosReport("dispatch-resilience", False,
                           "warm-ledger LPT serving under batch deaths + "
                           "worker kills diverged from direct evaluation")
    if snap["batch_restarts"] < 1:
        return ChaosReport("dispatch-resilience", False,
                           "the batch-death fault never fired "
                           "(batch_restarts == 0); the invariant is vacuous")
    if snap["ledger_predictions"] < 1:
        return ChaosReport("dispatch-resilience", False,
                           "the warmed ledger was never consulted "
                           "(ledger_predictions == 0); the invariant is "
                           "vacuous")
    return ChaosReport(
        "dispatch-resilience", True,
        "both dispatch policies byte-identical; warm-ledger LPT "
        f"serving survived {snap['batch_restarts']} batch death(s) with "
        f"{snap['ledger_predictions']} ledger-predicted tasks "
        f"(hit rate {snap['ledger_hit_rate']:.2f}, MAE "
        f"{snap['pred_mae_seconds']:.3f}s) and matches direct evaluation")


def run_chaos(seed: int = 11, jobs: int = 4,
              workdir: Optional[Union[str, Path]] = None,
              log: Optional[Callable[[str], None]] = None,
              only: Optional[str] = None) -> List[ChaosReport]:
    """Run the invariant suite; returns one report per check.

    ``only`` restricts the run to a single named invariant (e.g.
    ``"guard-resilience"``); an unknown name yields an empty report
    list, which callers should treat as a usage error.
    """
    emit = log or (lambda line: None)
    reports: List[ChaosReport] = []
    workdir_jobs = min(jobs, 2)
    scratch = (tempfile.TemporaryDirectory(prefix="repro-chaos-")
               if workdir is None else contextlib.nullcontext(workdir))
    with scratch as root:
        root = Path(root)
        steps = (
            ("injector-transparency", check_injector_transparency),
            ("event-determinism", lambda: check_event_determinism(seed)),
            ("profile-determinism",
             lambda: check_profile_determinism(seed)),
            ("vectorize-resilience",
             lambda: check_vectorize_resilience(seed)),
            ("sched-resilience", lambda: check_sched_resilience(jobs)),
            ("kill-resume",
             lambda: check_kill_resume(root, jobs=workdir_jobs, log=log)),
            ("serve-resilience",
             lambda: check_serve_resilience(root / "serve",
                                            jobs=workdir_jobs)),
            ("guard-resilience",
             lambda: check_guard_resilience(root / "guard",
                                            jobs=workdir_jobs, log=log)),
            ("dispatch-resilience",
             lambda: check_dispatch_resilience(root / "dispatch",
                                               jobs=workdir_jobs)),
        )
        for name, check in steps:
            if only is not None and name != only:
                continue
            emit(f"chaos: checking {name} ...")
            report = check()
            emit(report.line())
            reports.append(report)
    return reports
