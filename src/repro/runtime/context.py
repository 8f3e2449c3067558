"""Execution context shared by all MiniPar runtimes.

The context carries the simulated clock (``cost``, in abstract op units),
the fuel limit that models the harness' kill timer, the active runtime
(which implements the parallel constructs), and the race-detection state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..faults import inject
from ..lang.errors import FuelExhausted, MemoryExhausted
from .machine import Machine
from .tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from .runtimes import BaseRuntime


class ExecCtx:
    """Per-execution interpreter state.

    ``cost`` is the running *work* counter in op units.  Serial statements
    add to it directly; parallel regions additionally record, per candidate
    processor count, how much faster the region would have been than its
    serial work (``parallel_adjust``), so one execution prices the program
    at every thread count.

    ``work_scale`` models a problem ``S`` times larger than the arrays the
    interpreter actually touches: program work (and message sizes, atomic
    counts, GPU thread counts) scale by ``S`` while hardware overheads
    (fork/join, latency, kernel launch) stay fixed.  This is what lets a
    4k-element interpreted run stand in for the paper's multi-million
    element timing runs without multi-million interpreted iterations.
    """

    __slots__ = (
        "machine", "rt", "kernels", "cost", "fuel", "work_scale",
        "extra_units", "trace", "protection", "crit_units",
        "parallel_adjust", "in_parallel", "prof",
        "gpu_thread", "gpu_block", "gpu_block_dim", "gpu_grid_dim",
        "mem_budget", "mem_used", "vectorize", "vec_stats", "call_depth",
    )

    def __init__(
        self,
        machine: Machine,
        rt: "BaseRuntime",
        fuel: Optional[int] = None,
        work_scale: float = 1.0,
        vectorize: bool = True,
        vec_stats=None,
    ):
        self.machine = machine
        self.rt = rt
        self.kernels: Dict[str, object] = {}
        self.cost = 0.0
        self.fuel = float(fuel if fuel is not None else machine.fuel)
        self.work_scale = float(work_scale)
        self.extra_units = 0.0   # unscaled additions (comm waits, idling)
        self.trace: Optional[Tracer] = None
        self.protection = 0
        self.crit_units = 0.0
        self.parallel_adjust: Dict[int, float] = {}
        self.in_parallel = False
        # optional ProfBuilder (repro.prof); None keeps the zero-overhead
        # fast path — every instrumentation site guards on `ctx.prof is None`
        self.prof = None
        # SIMT identity (set by the GPU runtime per thread)
        self.gpu_thread = 0
        self.gpu_block = 0
        self.gpu_block_dim = 1
        self.gpu_grid_dim = 1
        # tier-2 vectorized execution (repro.runtime.vectorize): opt-out
        # switch plus optional shared idiom-hit counters (a VecStats)
        self.vectorize = bool(vectorize)
        self.vec_stats = vec_stats
        # memory budget in simulated bytes; allocations charge against it
        # (infinite unless a fault plan grants this context a tiny budget,
        # which makes the next allocation simulate a node OOM)
        self.mem_budget = float("inf")
        self.mem_used = 0.0
        # user-kernel calls in progress (compile.MAX_CALL_DEPTH bounds it)
        self.call_depth = 0
        if inject.ACTIVE is not None:
            rule = inject.ACTIVE.fire("runtime.mem.budget",
                                      type(rt).__name__)
            if rule is not None:
                self.mem_budget = rule.param if rule.param > 0 else 64.0

    def check_fuel(self) -> None:
        """Raise when the interpreter work budget is exhausted.

        Called from loop back-edges — the only places unbounded work can
        accumulate — so straight-line code never pays the check.
        """
        if self.cost > self.fuel:
            self.exhaust_fuel()

    def exhaust_fuel(self) -> None:
        """Raise the work-budget timeout unconditionally.

        The message depends only on ``fuel``, so a loop proven never to
        exit can raise it at entry instead of spinning the budget away.
        """
        raise FuelExhausted(
            f"execution exceeded the work budget ({int(self.fuel)} op units); "
            "treating as a harness timeout"
        )

    def charge_alloc(self, nbytes: float) -> None:
        """Charge an allocation against the memory budget.

        Budgets are infinite in normal operation; a fault plan can grant
        a context a small budget so the next ``alloc_*`` raises
        :class:`MemoryExhausted` — the simulated node-OOM fault.
        """
        self.mem_used += nbytes
        if self.mem_used > self.mem_budget:
            raise MemoryExhausted(
                f"allocation of {int(nbytes)} bytes exceeded the "
                f"{int(self.mem_budget)}-byte memory budget "
                "(simulated node OOM)"
            )

    def clock_units(self, threads: int = 1) -> float:
        """Current simulated clock in (scaled) op units."""
        return (
            self.cost * self.work_scale
            + self.extra_units
            + self.parallel_adjust.get(threads, 0.0)
        )

    def sim_seconds(self, threads: int = 1) -> float:
        """Simulated wall time at ``threads`` processors, in seconds."""
        return self.clock_units(threads) * self.machine.cpu.cycle
