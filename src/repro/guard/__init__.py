"""repro.guard — self-healing supervision for scheduled evaluation.

Two mechanisms, threaded through :mod:`repro.sched`, both bound by the
same exactness discipline as the vectorized tier: *neither may change a
single byte of the assembled* :class:`~repro.harness.evaluate.EvalRun` *relative to an
unguarded run* — except the quarantine lane, which exists precisely to
report a task the infrastructure refuses to keep executing.

* :class:`HealthLedger` (``health``) — classifies worker deaths per
  task: a task that kills ``POISON_THRESHOLD`` *distinct* workers is
  poison, not unlucky, and is quarantined instead of burning the retry
  budget forever.
* :func:`run_supervised` (``supervisor``) — crash-only recovery: a
  child process running the scheduler can be SIGKILLed at any event
  boundary (``guard.process.kill``) and restarted until the journaled
  run converges to a byte-identical digest.

See ``docs/resilience.md`` for the semantics and the exactness
guarantee; the ``guard-resilience`` chaos invariant
(:func:`repro.faults.chaos.check_guard_resilience`) pins it in CI.
"""

from .health import (
    HealthLedger,
    POISON_THRESHOLD,
    VERDICT_POISON,
    VERDICT_TRANSIENT,
)
from .supervisor import SupervisedResult, crash_resume_sweep, run_supervised

__all__ = [
    "HealthLedger",
    "POISON_THRESHOLD",
    "SupervisedResult",
    "VERDICT_POISON",
    "VERDICT_TRANSIENT",
    "crash_resume_sweep",
    "run_supervised",
]
