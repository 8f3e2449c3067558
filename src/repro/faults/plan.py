"""Fault plans: seeded, declarative schedules of what to break and when.

A :class:`FaultPlan` is a tuple of :class:`FaultRule`\\ s.  Each rule names
one *injection point* — a place in the runtimes, the scheduler, or the
harness that consults the installed :class:`~repro.faults.inject.FaultInjector`
— and says which *occurrences* of which *sites* should fail, and how.

Determinism is the whole design: a rule never rolls dice at fire time.
Randomness only enters when a plan is *generated* (:meth:`FaultPlan.from_seed`
draws rules with ``random.Random(seed)``), so the same seed always yields
the same plan, and the same plan always produces the same fault schedule
for the same program — the property the chaos invariants assert.

The registry below is the single source of truth for injection-point
names; rules naming an unknown point or action are rejected at plan
construction, not discovered as silent no-ops mid-run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

#: injection-point registry: point name -> (layer, valid actions, description)
INJECTION_POINTS: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    "runtime.mpi.msg": (
        "runtime", ("drop", "dup", "reorder"),
        "perturb one point-to-point MPI message (lost, duplicated, or "
        "delivered ahead of earlier traffic on the same channel)"),
    "runtime.mpi.stall": (
        "runtime", ("stall",),
        "wedge one rank thread before it starts executing (param: seconds); "
        "exercises the host watchdog in run_mpi"),
    "runtime.omp.stall": (
        "runtime", ("stall",),
        "wedge one thread of an OpenMP team at the implicit barrier for "
        "param simulated seconds (deterministic timing perturbation)"),
    "runtime.gpu.abort": (
        "runtime", ("abort",),
        "abort a GPU kernel launch before any thread runs"),
    "runtime.mem.budget": (
        "runtime", ("oom",),
        "give one ExecCtx a tiny memory budget (param: bytes, default 64) "
        "so the next alloc_* builtin simulates a node OOM"),
    "harness.flake": (
        "harness", ("raise",),
        "raise a transient infrastructure fault at the start of one "
        "evaluate_sample attempt"),
    "harness.timing": (
        "harness", ("fault",),
        "fail the timing sweep of a correct sample (the graceful-"
        "degradation path: the sample becomes a 'degraded' record)"),
    "sched.worker.kill": (
        "sched", ("kill",),
        "hard-kill the worker process (os._exit) before it executes a "
        "task; keys look like '<task_id>#a<attempt>'"),
    "sched.result.corrupt": (
        "sched", ("corrupt",),
        "replace a worker's result payload with garbage on the parent "
        "side of the result channel"),
    "sched.journal.torn_write": (
        "sched", ("torn",),
        "write only a prefix of one journal line (param: fraction kept, "
        "default 0.5) and then crash the run"),
    "sched.cache.truncate": (
        "sched", ("truncate",),
        "truncate a sample-cache entry on write"),
    "sched.cache.bitflip": (
        "sched", ("bitflip",),
        "flip one byte of a sample-cache entry on write"),
    "serve.batch.die": (
        "serve", ("abort",),
        "abort a service batch's pool loop right after a task executes "
        "(the batch's result map already holds it); the batch must "
        "recover by re-running only its unsettled tasks on fresh "
        "workers; the key is 'batch'"),
    "guard.process.kill": (
        "guard", ("kill",),
        "SIGKILL the whole scheduler process at one event boundary (the "
        "occurrence index is the boundary index); the supervisor "
        "(repro.guard.supervisor) must resume the run to a byte-identical "
        "digest"),
    "guard.disk.enospc": (
        "guard", ("enospc",),
        "simulate ENOSPC on one sample-cache snapshot write; the cache "
        "must degrade to a future miss (recompute) instead of corrupting "
        "or crashing the run"),
}

#: layer name -> points, for layer-filtered plan generation
LAYERS: Dict[str, Tuple[str, ...]] = {}
for _name, (_layer, _, _) in INJECTION_POINTS.items():
    LAYERS.setdefault(_layer, ())
    LAYERS[_layer] = LAYERS[_layer] + (_name,)


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault: *where* (point + key match), *when*
    (occurrence indices), and *what* (action + parameter).

    ``match`` is a substring test against the site key (scope-qualified);
    the empty string matches every site.  ``occurrences`` lists which
    per-``(point, key)`` occurrence indices fire; ``None`` means every
    occurrence.  ``param`` is action-specific (seconds to stall, bytes of
    memory budget, fraction of a journal line to keep).
    """

    point: str
    action: str
    match: str = ""
    occurrences: Optional[Tuple[int, ...]] = (0,)
    param: float = 0.0

    def __post_init__(self):
        info = INJECTION_POINTS.get(self.point)
        if info is None:
            raise ValueError(f"unknown injection point {self.point!r}; "
                             f"known: {sorted(INJECTION_POINTS)}")
        if self.action not in info[1]:
            raise ValueError(
                f"invalid action {self.action!r} for {self.point!r}; "
                f"valid: {info[1]}")
        if self.occurrences is not None:
            object.__setattr__(self, "occurrences",
                               tuple(int(o) for o in self.occurrences))

    def to_dict(self) -> Dict[str, object]:
        return {"point": self.point, "action": self.action,
                "match": self.match,
                "occurrences": (list(self.occurrences)
                                if self.occurrences is not None else None),
                "param": self.param}

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "FaultRule":
        occ = raw.get("occurrences", (0,))
        return cls(point=str(raw["point"]), action=str(raw["action"]),
                   match=str(raw.get("match", "")),
                   occurrences=tuple(occ) if occ is not None else None,
                   param=float(raw.get("param", 0.0)))


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault rules, optionally tagged with the
    seed that generated it (0 for hand-written plans)."""

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))

    def by_point(self) -> Dict[str, Tuple[FaultRule, ...]]:
        out: Dict[str, Tuple[FaultRule, ...]] = {}
        for rule in self.rules:
            out[rule.point] = out.get(rule.point, ()) + (rule,)
        return out

    def restricted(self, layers: Iterable[str]) -> "FaultPlan":
        """The sub-plan touching only the given layers."""
        keep = {p for layer in layers for p in LAYERS.get(layer, ())}
        return FaultPlan(tuple(r for r in self.rules if r.point in keep),
                         seed=self.seed)

    # -- persistence ---------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"seed": self.seed,
                           "rules": [r.to_dict() for r in self.rules]},
                          indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        raw = json.loads(text)
        return cls(seed=int(raw.get("seed", 0)),
                   rules=tuple(FaultRule.from_dict(r)
                               for r in raw.get("rules", [])))

    # -- seeded generation ---------------------------------------------------

    @classmethod
    def from_seed(cls, seed: int, layers: Sequence[str] = ("runtime",
                                                           "harness",
                                                           "sched"),
                  rules_per_layer: int = 2) -> "FaultPlan":
        """Draw a deterministic plan: ``rules_per_layer`` rules from each
        requested layer, with occurrence indices biased to early hits so
        short runs still see faults."""
        rng = random.Random(seed)
        rules = []
        for layer in layers:
            points = LAYERS.get(layer)
            if not points:
                raise ValueError(f"unknown fault layer {layer!r}; "
                                 f"known: {sorted(LAYERS)}")
            for _ in range(rules_per_layer):
                point = rng.choice(points)
                actions = INJECTION_POINTS[point][1]
                action = rng.choice(actions)
                occurrence = rng.randrange(0, 3)
                rules.append(FaultRule(
                    point=point, action=action,
                    occurrences=(occurrence,),
                    param=_default_param(point, action)))
        return cls(tuple(rules), seed=seed)


def _default_param(point: str, action: str) -> float:
    if point == "runtime.mpi.stall":
        return 2.0
    if point == "runtime.mem.budget":
        return 64.0
    if point == "sched.journal.torn_write":
        return 0.5
    return 0.0


#: field kept for introspection/tests
__all__ = ["FaultPlan", "FaultRule", "INJECTION_POINTS", "LAYERS"]
