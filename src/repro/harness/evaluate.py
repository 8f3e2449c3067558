"""The end-to-end evaluation pipeline (paper §7): generate N samples per
prompt from a (simulated) LLM, push every sample through the harness, and
record statuses and simulated times in a JSON-serialisable results store.

Full-benchmark runs are cached on disk keyed by their configuration, so
the per-figure benchmarks share one generation+evaluation pass the way the
paper's figures all read one set of measurement logs.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..bench.registry import PCGBench
from ..models.llm import SimulatedLLM
from .runner import Runner

if TYPE_CHECKING:
    from ..sched.pool import WorkerPool

#: environment knob: scale down sample counts for quick runs
ENV_SAMPLES = "REPRO_SAMPLES"

#: bump when the EvalRun JSON layout changes; cached files from other
#: versions (or with no version at all) are regenerated, never crashed on
#: (2: SampleRecord gained MiniParSan ``diagnostics``;
#:  3: SampleRecord gained the optional cost-decomposed ``profile``)
FORMAT_VERSION = 3


class ConfigurationError(ValueError):
    """A user-facing configuration problem (bad env var, bad flag)."""


class CacheFormatError(ValueError):
    """A cached EvalRun is from another format version or is malformed."""


@dataclass
class SampleRecord:
    #: terminal status (see the repro.harness.runner docstring matrix):
    #: correct / wrong_answer / runtime_error / timeout / not_parallel /
    #: static_fail / build_error, plus the three resilience lanes —
    #: system_error (infrastructure failed; excluded from every metric
    #: denominator, never journaled, resampled on --resume), quarantined
    #: (the sample killed multiple distinct workers and the guard pulled
    #: it permanently: journaled, replayed on resume, excluded from every
    #: denominator; detail starts with "guard:"), and degraded
    #: (correct but the timing sweep was fault-perturbed; counts for
    #: pass@k / build@k, excluded from speedup).  A timeout is the
    #: *sample* hanging (it exhausted the interpreter's fuel budget, see
    #: detail); an infra wall-clock kill by the scheduler is a
    #: system_error whose detail starts with "scheduler:".
    status: str
    intended: str = ""
    detail: str = ""
    #: simulated seconds keyed by processor count (timing runs only)
    times: Dict[int, float] = field(default_factory=dict)
    #: MiniParSan findings as plain dicts (see repro.lint.Diagnostic)
    diagnostics: List[Dict] = field(default_factory=list)
    #: cost-decomposed profile as a plain dict (repro.prof.Profile.to_dict;
    #: present only on profiled timing runs)
    profile: Optional[Dict] = None
    #: vectorized-tier telemetry (tier, bulk_loops, bulk_iters, fallbacks;
    #: see ``repro.runtime.vectorize.VecStats``).  In-memory observability
    #: only: ``to_json`` strips it so a run's digest is byte-identical
    #: whether the numpy tier was on or off — the tier changes how fast
    #: the interpreter runs, never what it computes.
    vec: Optional[Dict] = None


@dataclass
class PromptRecord:
    uid: str
    ptype: str
    exec_model: str
    samples: List[SampleRecord] = field(default_factory=list)
    baseline: Optional[float] = None

    def statuses(self) -> List[str]:
        return [s.status for s in self.samples]

    def times_at(self, n: int) -> List[Optional[float]]:
        return [s.times.get(n) for s in self.samples]

    def measured_ns(self) -> List[int]:
        ns = set()
        for s in self.samples:
            ns.update(s.times)
        return sorted(ns)


@dataclass
class EvalRun:
    """All results for one (LLM, configuration) pair."""

    llm: str
    temperature: float
    num_samples: int
    with_timing: bool
    seed: int
    prompts: Dict[str, PromptRecord] = field(default_factory=dict)
    format_version: int = FORMAT_VERSION

    # -- persistence --------------------------------------------------------

    def to_json(self) -> str:
        payload = asdict(self)
        # the vec telemetry is per-process observability, not part of the
        # run's identity: stripping it keeps digests byte-identical across
        # execution tiers (and across cache round-trips, which never saw it)
        for pr in payload["prompts"].values():
            for s in pr["samples"]:
                s.pop("vec", None)
        return json.dumps(payload)

    def digest(self) -> str:
        """SHA-256 of the serialised run — the identity the differential
        tests (and the service's ``X-Run-Digest`` header) compare, so
        "byte-identical" is checkable without shipping both payloads."""
        import hashlib

        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "EvalRun":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CacheFormatError(f"corrupt EvalRun JSON: {exc}") from exc
        if not isinstance(raw, dict) or "prompts" not in raw:
            raise CacheFormatError("EvalRun JSON missing 'prompts'")
        version = raw.get("format_version", 0)
        if version != FORMAT_VERSION:
            raise CacheFormatError(
                f"EvalRun format version {version} != {FORMAT_VERSION}")
        prompts = {}
        try:
            for uid, pr in raw.pop("prompts").items():
                samples = [
                    SampleRecord(
                        status=s["status"], intended=s.get("intended", ""),
                        detail=s.get("detail", ""),
                        times={int(k): v
                               for k, v in s.get("times", {}).items()},
                        diagnostics=list(s.get("diagnostics", [])),
                        profile=s.get("profile"),
                        vec=s.get("vec"),
                    )
                    for s in pr.pop("samples")
                ]
                prompts[uid] = PromptRecord(samples=samples, **pr)
            return cls(prompts=prompts, **raw)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CacheFormatError(f"malformed EvalRun JSON: {exc}") from exc

    # -- views ----------------------------------------------------------------

    def by_exec_model(self, exec_model: str) -> List[PromptRecord]:
        return [p for p in self.prompts.values() if p.exec_model == exec_model]

    def by_ptype(self, ptype: str) -> List[PromptRecord]:
        return [p for p in self.prompts.values() if p.ptype == ptype]

    def parallel_prompts(self) -> List[PromptRecord]:
        return [p for p in self.prompts.values() if p.exec_model != "serial"]


def effective_samples(requested: int) -> int:
    """Apply the REPRO_SAMPLES env cap (for fast benchmark runs)."""
    cap_raw = os.environ.get(ENV_SAMPLES)
    if not cap_raw:
        return requested
    try:
        cap = int(cap_raw)
    except ValueError:
        raise ConfigurationError(
            f"{ENV_SAMPLES} must be a positive integer, "
            f"got {cap_raw!r}") from None
    if cap <= 0:
        raise ConfigurationError(
            f"{ENV_SAMPLES} must be a positive integer, got {cap}")
    return max(2, min(requested, cap))


def evaluate_model(
    llm: SimulatedLLM,
    bench: PCGBench,
    num_samples: int = 8,
    temperature: float = 0.2,
    with_timing: bool = False,
    runner: Optional[Runner] = None,
    seed: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
    journal: Optional[str] = None,
    resume: bool = False,
    sample_cache: Optional[str] = None,
    events: Optional[Callable[[object], None]] = None,
    profile: bool = False,
    dispatch: Optional[str] = None,
) -> EvalRun:
    """Run the full §7 pipeline for one model over ``bench``.

    Both paths decompose the evaluation with
    :func:`repro.sched.plan.build_plan` into content-addressed tasks, so
    a sample whose source repeats within a prompt is judged once and its
    verdict fans out to every slot.  ``jobs=1`` (default) runs each
    distinct task in this process, in plan order, calling ``progress``
    after each prompt.  ``jobs>1`` — or any of
    ``journal``/``resume``/``sample_cache``/``events`` — routes through
    :func:`repro.sched.scheduler.run_scheduled`: the same tasks on a
    fault-isolated pool of ``jobs`` workers that lives for this call and
    forks at its first task that is not a cache hit, with JSONL
    checkpointing (``journal`` + ``resume=True``) and a content-addressed
    cross-run sample cache.  Both paths assemble byte-identical
    :class:`EvalRun` objects.

    ``profile=True`` (timing runs only) additionally records a
    cost-decomposed :mod:`repro.prof` profile on every timed sample.

    ``dispatch`` selects the scheduler's ready-queue policy (``"lpt"``
    or ``"fifo"`` — see :mod:`repro.sched.predict`); setting it routes
    through the scheduler even at ``jobs=1``.  ``None`` leaves
    the scheduler default (``"lpt"``) in effect.  Dispatch order is
    throughput policy only: the assembled run is byte-identical under
    either policy.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if resume and journal is None:
        raise ConfigurationError("resume=True requires a journal path")
    if (jobs > 1 or journal is not None or sample_cache is not None
            or events is not None or dispatch is not None):
        from ..sched.scheduler import harness_pool, run_scheduled

        with harness_pool(runner or Runner(), jobs) as pool:
            run, _ = run_scheduled(
                llm, bench, pool, num_samples=num_samples,
                temperature=temperature, with_timing=with_timing,
                seed=seed, journal_path=journal, resume=resume,
                sample_cache_dir=sample_cache, emit=events,
                progress=progress, profile=profile,
                dispatch=dispatch if dispatch is not None else "lpt")
        return run
    from ..sched.plan import assemble, build_plan
    from ..sched.worker import execute_task

    runner = runner or Runner()
    plan = build_plan(llm, bench, effective_samples(num_samples), temperature,
                      with_timing, runner, seed, profile=profile)
    ctx = (runner, {p.uid: p for p in bench.prompts},
           {p.name: p for p in bench.problems})
    results: Dict[str, Dict[str, object]] = {}
    for pp in plan.prompts:
        for tid in [pp.baseline_task] + [s.task_id for s in pp.slots]:
            if tid is not None and tid not in results:
                results[tid] = execute_task(ctx, plan.tasks[tid].payload())
        if progress is not None:
            progress(pp.uid)
    return assemble(plan, results)


class EvalCache:
    """Disk cache of EvalRuns keyed by configuration."""

    def __init__(self, cache_dir: Optional[str] = None):
        root = cache_dir or os.environ.get("REPRO_CACHE", ".repro_cache")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, llm_name: str, num_samples: int, temperature: float,
              with_timing: bool, seed: int, tag: str = "full",
              profile: bool = False) -> Path:
        mode = "timed" if with_timing else "plain"
        if profile:
            mode += "-prof"     # profiled runs never alias unprofiled ones
        fname = (
            f"{llm_name}_{tag}_s{num_samples}_t{temperature:g}"
            f"_{mode}_r{seed}.json"
        )
        return self.root / fname.replace("/", "-")

    def get_or_run(
        self,
        llm: SimulatedLLM,
        bench: PCGBench,
        num_samples: int,
        temperature: float,
        with_timing: bool = False,
        seed: int = 1,
        tag: str = "full",
        runner: Optional[Runner] = None,
        pool: Optional[WorkerPool] = None,
        resume: bool = False,
        events: Optional[Callable[[object], None]] = None,
        profile: bool = False,
    ) -> EvalRun:
        """Load a cached run, or compute (serially with ``runner``, or on
        the scheduler with ``pool``) and cache it.

        ``pool`` is a :func:`repro.sched.scheduler.harness_pool` its
        caller owns, so many calls share one set of workers; its runner
        judges the samples.  Version-mismatched or corrupt cache files
        are treated as misses and regenerated.  Scheduled runs journal
        under the cache root, so ``resume=True`` (which needs ``pool``)
        continues an interrupted pass; the journal is discarded once the
        full run is persisted.
        """
        if resume and pool is None:
            raise ConfigurationError("resume=True requires a pool")
        num_samples = effective_samples(num_samples)
        path = self._path(llm.name, num_samples, temperature, with_timing,
                          seed, tag, profile=profile)
        if path.exists():
            try:
                return EvalRun.from_json(path.read_text())
            except CacheFormatError:
                path.unlink(missing_ok=True)    # stale format: regenerate
        if pool is not None:
            from ..sched.journal import journal_path_for
            from ..sched.scheduler import run_scheduled

            journal = journal_path_for(self.root, llm.name, num_samples,
                                       temperature, with_timing, seed, tag)
            run, _ = run_scheduled(
                llm, bench, pool, num_samples, temperature, with_timing,
                seed, journal_path=journal, resume=resume,
                sample_cache_dir=self.root / "samples", emit=events,
                profile=profile)
            path.write_text(run.to_json())
            journal.unlink(missing_ok=True)     # checkpoint superseded
            return run
        run = evaluate_model(llm, bench, num_samples, temperature,
                             with_timing, runner, seed, profile=profile)
        path.write_text(run.to_json())
        return run
