"""MPI runtime: executes a MiniPar program on N simulated ranks.

Each rank runs the compiled kernel with a private :class:`ExecCtx` (its
local clock, in scaled op units).  Ranks interact only through
:class:`CommWorld`:

* point-to-point: buffered sends append to per-(src, dst, tag) FIFO
  queues stamped with an arrival time from the alpha-beta network model;
  receives block until a matching message exists, then advance the local
  clock to ``max(now, arrival)``;
* collectives: call-sequence-matched rendezvous — every rank's k-th
  collective must agree on (kind, root, op) or the run aborts with
  :class:`MPIUsageError` (the moral equivalent of MPI's undefined
  behaviour on mismatched collectives, surfaced deterministically);
* deadlock: the state where no rank can run ⇒ :class:`DeadlockError` on
  every rank.

Ranks are coroutines scheduled by baton passing.  Exactly one rank of a
job runs at a time; it yields only when it blocks (an unmatched receive,
an incomplete collective) or finishes.  Control then passes, through a
per-rank semaphore, to the next runnable rank scanning cyclically from
the one that yielded: a rank that has not started yet, or a blocked rank
whose wait condition now holds.  When the scan finds none, the job is
deadlocked — exactly, with no polling and no timeout.  Each rank runs on
a parked OS thread taken from a process-wide list that grows on demand
(:func:`_rank_threads`), so a timing sweep does not start and join a
thread per rank on every run.

Message values are copied on send (MPI has no shared memory), and all
message matching is (src, tag)-deterministic, so results do not depend on
the order ranks run in.  Simulated time = max over ranks of the final
clock.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..faults import inject
from ..lang.errors import DeadlockError, MiniParError, MPIUsageError, RuntimeFailure
from .compile import CompiledProgram, PForInfo
from .context import ExecCtx
from .machine import Machine
from .runtimes import BaseRuntime, OpenMPRuntime, fold, run_loop_serial
from .values import Array, deep_copy_value, nbytes

_SCALAR_COLLECTIVE_BYTES = 8

# rank states in CommWorld.state
_FRESH, _RUNNING, _BLOCKED, _DONE = range(4)


class _Abort(MiniParError):
    """Internal: another rank failed; unwind quietly."""


@dataclass
class _Collective:
    signature: Tuple
    values: Dict[int, object] = field(default_factory=dict)
    arrivals: Dict[int, float] = field(default_factory=dict)
    done: bool = False
    completion: float = 0.0
    results: Dict[int, object] = field(default_factory=dict)


class CommWorld:
    """Shared state and the baton scheduler of one MPI job's ranks.

    Only the rank holding the baton (``current``) touches this state, so
    it needs no lock; the one exception is :meth:`abort`, which the host
    watchdog may call from outside the job.
    """

    def __init__(self, nranks: int, machine: Machine, work_scale: float):
        self.nranks = nranks
        self.machine = machine
        self.scale = work_scale
        self.queues: Dict[Tuple[int, int, int], deque] = defaultdict(deque)
        self.alive = nranks
        self.failure: Optional[BaseException] = None
        self.collectives: Dict[int, _Collective] = {}
        #: per rank: the semaphore its thread parks on while not running
        self.batons: List[threading.Lock] = []
        self.state = [_FRESH] * nranks
        #: per blocked rank: the condition it waits for
        self.blocked_on: List[Optional[Callable[[], bool]]] = [None] * nranks
        self.current = 0
        #: set once every rank has finished
        self.finished = threading.Event()
        self._failure_lock = threading.Lock()

    def _units(self, seconds: float) -> float:
        return seconds / self.machine.cpu.cycle

    def abort(self, exc: BaseException) -> None:
        with self._failure_lock:
            if self.failure is None:
                self.failure = exc

    def check_abort(self) -> None:
        if self.failure is not None:
            raise _Abort()

    # -- baton passing ---------------------------------------------------------

    def _runnable_after(self, rank: int) -> Optional[int]:
        """The first runnable rank scanning cyclically after ``rank``.

        After a failure every unfinished rank is runnable: it runs only
        to unwind.
        """
        n = self.nranks
        state, blocked_on = self.state, self.blocked_on
        for i in range(rank + 1, rank + n):
            r = i - n if i >= n else i
            s = state[r]
            if s == _FRESH:
                return r
            if s == _BLOCKED and (self.failure is not None
                                  or blocked_on[r]()):
                return r
        return None

    def _hand_to(self, rank: int) -> Callable[[], None]:
        """Make ``rank`` the running rank; the caller then calls the
        returned release of its semaphore."""
        self.current = rank
        self.state[rank] = _RUNNING
        self.blocked_on[rank] = None
        return self.batons[rank].release

    def start(self) -> None:
        self._hand_to(0)()

    def wait_for(self, predicate: Callable[[], bool]) -> None:
        """Block the running rank until predicate() or the world aborts.

        The baton goes to the next runnable rank; with none, every live
        rank is blocked on a condition no rank can make true: deadlock.
        The detecting rank unwinds without releasing its own semaphore:
        that permit would outlive the job and start an empty one on the
        thread once it is parked.
        """
        if not predicate():
            self.check_abort()
            rank = self.current
            nxt = self._runnable_after(rank)
            if nxt is None:
                self.abort(DeadlockError(
                    f"deadlock: all {self.alive} live rank(s) blocked with "
                    "no deliverable messages"
                ))
                raise _Abort()
            self.state[rank] = _BLOCKED
            self.blocked_on[rank] = predicate
            baton = self.batons[rank]
            self._hand_to(nxt)()
            baton.acquire()
        self.check_abort()

    def finish_rank(self) -> Callable[[], None]:
        """Retire the running rank; returns the hand-off (wake the next
        rank, or signal the job finished) that its thread calls once it
        is back on the idle list."""
        rank = self.current
        self.state[rank] = _DONE
        self.alive -= 1
        nxt = self._runnable_after(rank)
        if nxt is None and self.alive:
            self.abort(DeadlockError(
                "deadlock: remaining rank(s) blocked after peers finished"
            ))
            nxt = self._runnable_after(rank)
        if nxt is None:
            return self.finished.set
        return self._hand_to(nxt)


class MPIRankRuntime(BaseRuntime):
    """The runtime a single rank's ExecCtx dispatches through."""

    model = "mpi"

    def __init__(self, rank: int, world: CommWorld):
        self.rank = rank
        self.world = world
        self.coll_seq = 0

    # -- clock helpers ---------------------------------------------------------

    @staticmethod
    def _clock(ctx: ExecCtx) -> float:
        return ctx.cost * ctx.work_scale + ctx.extra_units

    @staticmethod
    def _advance_to(ctx: ExecCtx, target: float, category: str = "idle") -> None:
        now = ctx.cost * ctx.work_scale + ctx.extra_units
        if target > now:
            ctx.extra_units += target - now
            if ctx.prof is not None:
                ctx.prof.add_extra(category, target - now)

    def _validate_rank(self, r, what: str) -> int:
        if not isinstance(r, int) or not 0 <= r < self.world.nranks:
            raise MPIUsageError(
                f"invalid {what} {r!r} for communicator of size {self.world.nranks}"
            )
        return r

    # -- point to point -----------------------------------------------------------

    def mpi_rank(self, ctx: ExecCtx) -> int:
        return self.rank

    def mpi_size(self, ctx: ExecCtx) -> int:
        return self.world.nranks

    def mpi_send(self, ctx: ExecCtx, value, dest, tag) -> None:
        w = self.world
        dest = self._validate_rank(dest, "destination rank")
        size = nbytes(value) * ctx.work_scale
        travel = w._units(w.machine.net.point_to_point(int(size), self.rank, dest))
        w.check_abort()
        now = self._clock(ctx)
        # sender pays an injection overhead; message lands after travel
        ctx.extra_units += 0.3 * travel
        if ctx.prof is not None:
            ctx.prof.add_extra("message", 0.3 * travel)
            ctx.prof.count("messages")
            ctx.prof.count("message_bytes", float(size))
        msg = (deep_copy_value(value), now + travel)
        q = w.queues[(self.rank, dest, tag)]
        if inject.ACTIVE is not None:
            rule = inject.ACTIVE.fire(
                "runtime.mpi.msg", f"{self.rank}->{dest}#t{tag}")
            if rule is not None:
                if rule.action == "drop":
                    # lost on the wire: the receiver blocks until the
                    # deadlock detector or host watchdog intervenes
                    return
                if rule.action == "dup":
                    q.append(msg)
                    q.append((deep_copy_value(value), now + travel))
                    return
                if rule.action == "reorder":
                    # delivered ahead of earlier traffic on this channel
                    q.appendleft(msg)
                    return
        q.append(msg)

    def _recv(self, ctx: ExecCtx, src, tag):
        w = self.world
        src = self._validate_rank(src, "source rank")
        key = (src, self.rank, tag)
        q = w.queues[key]
        w.wait_for(lambda: len(q) > 0)
        value, arrival = q.popleft()
        self._advance_to(ctx, arrival, "message")
        ctx.extra_units += w._units(w.machine.net.alpha) * 0.3
        if ctx.prof is not None:
            ctx.prof.add_extra("message", w._units(w.machine.net.alpha) * 0.3)
        return value

    def mpi_recv_float(self, ctx: ExecCtx, src, tag) -> float:
        v = self._recv(ctx, src, tag)
        if isinstance(v, Array) or isinstance(v, bool) or not isinstance(v, (int, float)):
            raise MPIUsageError("mpi_recv_float: message is not a scalar number")
        return float(v)

    def mpi_recv_int(self, ctx: ExecCtx, src, tag) -> int:
        v = self._recv(ctx, src, tag)
        if not isinstance(v, int) or isinstance(v, bool):
            raise MPIUsageError("mpi_recv_int: message is not an int")
        return v

    def mpi_recv_array_float(self, ctx: ExecCtx, src, tag) -> Array:
        v = self._recv(ctx, src, tag)
        if not isinstance(v, Array) or v.elem != "float":
            raise MPIUsageError("mpi_recv_array_float: message is not a float array")
        return v

    def mpi_recv_array_int(self, ctx: ExecCtx, src, tag) -> Array:
        v = self._recv(ctx, src, tag)
        if not isinstance(v, Array) or v.elem != "int":
            raise MPIUsageError("mpi_recv_array_int: message is not an int array")
        return v

    # -- collectives -----------------------------------------------------------------

    def _collective(self, ctx: ExecCtx, kind: str, signature: Tuple, value,
                    payload_bytes: float):
        """Rendezvous with every other rank's matching collective call."""
        w = self.world
        seq = self.coll_seq
        self.coll_seq += 1
        w.check_abort()
        c = w.collectives.get(seq)
        if c is None:
            c = w.collectives[seq] = _Collective(signature=signature)
        elif c.signature != signature:
            w.abort(MPIUsageError(
                f"mismatched collectives at call #{seq}: rank {self.rank} "
                f"called {signature}, another rank called {c.signature}"
            ))
            raise _Abort()
        c.values[self.rank] = value
        c.arrivals[self.rank] = self._clock(ctx)
        if len(c.values) == w.nranks:
            comm = w._units(w.machine.net.collective(
                kind, int(payload_bytes * ctx.work_scale), w.nranks
            ))
            c.completion = max(c.arrivals.values()) + comm
            c.results = self._combine(kind, signature, c.values)
            c.done = True
        else:
            w.wait_for(lambda: c.done)
        result = c.results.get(self.rank)
        self._advance_to(ctx, c.completion, "collective")
        if ctx.prof is not None:
            ctx.prof.count("collectives")
            ctx.prof.count(f"collective_bytes_{kind}",
                           payload_bytes * ctx.work_scale)
        return result

    def _combine(self, kind: str, signature: Tuple, values: Dict[int, object]):
        """Compute every rank's result for a completed collective."""
        n = self.world.nranks
        ordered = [values[r] for r in range(n)]
        tag = signature[0]
        if tag == "barrier":
            return {r: None for r in range(n)}
        if tag in ("bcast", "bcast_array", "scatter"):
            root = signature[1]
            v = ordered[root]
            return {r: (v if r == root else deep_copy_value(v)) for r in range(n)}
        if tag == "reduce":
            _, root, op = signature
            total = fold(op, ordered)
            zero = 0 if isinstance(total, int) else 0.0
            return {r: (total if r == root else zero) for r in range(n)}
        if tag == "allreduce":
            op = signature[1]
            total = fold(op, ordered)
            return {r: total for r in range(n)}
        if tag == "scan":
            op = signature[1]
            out: Dict[int, object] = {}
            acc = None
            for r in range(n):
                acc = ordered[r] if acc is None else fold(op, [acc, ordered[r]])
                out[r] = acc
            return out
        if tag in ("reduce_array", "allreduce_array"):
            op = signature[2] if tag == "reduce_array" else signature[1]
            arrays: List[Array] = ordered  # type: ignore[assignment]
            self._check_same_length(arrays, tag)
            length = len(arrays[0].data)
            proto = arrays[0]
            out_arr = Array([0] * length, proto.elem, proto.shape)
            is_int = out_arr.elem == "int"
            for j in range(length):
                out_arr.data[j] = fold(op, [a.data[j] for a in arrays],
                                       as_int=is_int)
            if tag == "reduce_array":
                root = signature[1]
                return {r: (out_arr if r == root else None) for r in range(n)}
            return {r: (out_arr if r == 0 else out_arr.copy()) for r in range(n)}
        if tag in ("gather", "allgather"):
            chunks: List[Array] = ordered  # type: ignore[assignment]
            self._check_same_length(chunks, tag)
            data: List = []
            for a in chunks:
                data.extend(a.data)
            full = Array(data, chunks[0].elem, (len(data),))
            if tag == "gather":
                root = signature[1]
                return {r: (full if r == root else None) for r in range(n)}
            return {r: full for r in range(n)}
        raise AssertionError(tag)  # pragma: no cover

    # -- public collective API ---------------------------------------------------

    def mpi_barrier(self, ctx: ExecCtx) -> None:
        self._collective(ctx, "barrier", ("barrier",), None, 0)

    def mpi_bcast_scalar(self, ctx: ExecCtx, value, root):
        root = self._validate_rank(root, "root rank")
        return self._collective(ctx, "bcast", ("bcast", root), value,
                                _SCALAR_COLLECTIVE_BYTES)

    def mpi_bcast_array(self, ctx: ExecCtx, arr: Array, root) -> None:
        root = self._validate_rank(root, "root rank")
        result = self._collective(ctx, "bcast", ("bcast_array", root), arr,
                                  nbytes(arr))
        assert isinstance(result, Array)
        if len(result.data) != len(arr.data):
            raise MPIUsageError(
                f"mpi_bcast_array: rank {self.rank} buffer has "
                f"{len(arr.data)} elements, root sent {len(result.data)}"
            )
        if self.rank != root:
            arr.data[:] = result.data
        ctx.cost += 0.5 * len(arr.data)

    def mpi_reduce_scalar(self, ctx: ExecCtx, value, op, root):
        root = self._validate_rank(root, "root rank")
        return self._collective(ctx, "reduce", ("reduce", root, op), value,
                                _SCALAR_COLLECTIVE_BYTES)

    def mpi_allreduce_scalar(self, ctx: ExecCtx, value, op):
        return self._collective(ctx, "allreduce", ("allreduce", op), value,
                                _SCALAR_COLLECTIVE_BYTES)

    def mpi_scan_scalar(self, ctx: ExecCtx, value, op):
        return self._collective(ctx, "scan", ("scan", op), value,
                                _SCALAR_COLLECTIVE_BYTES)

    def _check_same_length(self, arrays: List[Array], what: str) -> int:
        lengths = {len(a.data) for a in arrays}
        if len(lengths) != 1:
            raise MPIUsageError(
                f"{what}: ranks passed arrays of different lengths "
                f"{sorted(lengths)}"
            )
        return lengths.pop()

    def mpi_reduce_array(self, ctx: ExecCtx, arr: Array, op, root) -> None:
        root = self._validate_rank(root, "root rank")
        result = self._collective(
            ctx, "reduce", ("reduce_array", root, op, len(arr.data)),
            arr.copy(), nbytes(arr),
        )
        if self.rank == root:
            assert isinstance(result, Array)
            arr.data[:] = result.data
        ctx.cost += 1.0 * len(arr.data)

    def mpi_allreduce_array(self, ctx: ExecCtx, arr: Array, op) -> None:
        result = self._collective(
            ctx, "allreduce", ("allreduce_array", op, len(arr.data)),
            arr.copy(), nbytes(arr),
        )
        assert isinstance(result, Array)
        arr.data[:] = result.data
        ctx.cost += 1.0 * len(arr.data)

    def mpi_scatter_array(self, ctx: ExecCtx, arr: Array, root) -> Array:
        root = self._validate_rank(root, "root rank")
        n = self.world.nranks
        result = self._collective(
            ctx, "scatter", ("scatter", root, len(arr.data)), arr,
            nbytes(arr) / max(1, n),
        )
        assert isinstance(result, Array)
        if len(result.data) % n != 0:
            raise MPIUsageError(
                f"mpi_scatter_array: {len(result.data)} elements do not divide "
                f"evenly across {n} ranks (use padding or a gather-based scheme)"
            )
        k = len(result.data) // n
        chunk = Array(result.data[self.rank * k:(self.rank + 1) * k],
                      result.elem, (k,))
        ctx.cost += 0.5 * k
        return chunk

    def mpi_gather_array(self, ctx: ExecCtx, local: Array, root) -> Array:
        root = self._validate_rank(root, "root rank")
        result = self._collective(
            ctx, "gather", ("gather", root, len(local.data)), local.copy(),
            nbytes(local) * self.world.nranks,
        )
        if self.rank != root:
            return Array([], local.elem, (0,))
        assert isinstance(result, Array)
        ctx.cost += 0.5 * len(result.data)
        return result

    def mpi_allgather_array(self, ctx: ExecCtx, local: Array) -> Array:
        result = self._collective(
            ctx, "allgather", ("allgather", len(local.data)), local.copy(),
            nbytes(local) * self.world.nranks,
        )
        assert isinstance(result, Array)
        ctx.cost += 0.5 * len(result.data)
        return result.copy()


class HybridRankRuntime(MPIRankRuntime, OpenMPRuntime):
    """MPI+OpenMP: an MPI rank whose OpenMP pragmas run at a fixed thread
    count (the hybrid sweeps fix (ranks, threads) per run)."""

    model = "mpi+omp"

    def __init__(self, rank: int, world: CommWorld, threads: int):
        MPIRankRuntime.__init__(self, rank, world)
        self.threads = threads
        self.thread_counts = (threads,)

    def omp_parallel_for(self, env: dict, ctx: ExecCtx, pf: PForInfo) -> None:
        OpenMPRuntime.omp_parallel_for(self, env, ctx, pf)
        # fold the fixed-thread-count adjustment into the rank clock
        adj = ctx.parallel_adjust.pop(self.threads, 0.0)
        ctx.extra_units += adj
        prof = ctx.prof
        if prof is not None:
            # fold this region's named adjust shares the same way: they
            # become extra attributions, with the ideal-parallel remainder
            # (adj minus the named overheads, usually negative) credited
            # back to compute so conservation survives the fold
            named = prof.adjust.pop(self.threads, {})
            folded = 0.0
            for cat, units in named.items():
                prof.add_extra(cat, units)
                folded += units
            prof.add_extra("compute", adj - folded)

    def omp_critical(self, env: dict, ctx: ExecCtx, body) -> None:
        OpenMPRuntime.omp_critical(self, env, ctx, body)

    def omp_atomic(self, env: dict, ctx: ExecCtx, update, scalar_key) -> None:
        OpenMPRuntime.omp_atomic(self, env, ctx, update, scalar_key)


class _RankThread:
    """A parked OS thread that runs one rank of one job at a time.

    ``baton`` is the rank's semaphore: a lock held while the thread has
    no permit.  Releasing it starts the assigned ``job`` or resumes the
    rank blocked in :meth:`CommWorld.wait_for`.  A job returns the
    hand-off that passes the baton on, which the thread calls only once
    it is back on the idle list, so a finished job never waits on a
    thread that is still winding down.
    """

    __slots__ = ("baton", "job")

    def __init__(self) -> None:
        self.baton = threading.Lock()
        self.baton.acquire()
        self.job: Optional[Callable[[], Callable[[], None]]] = None
        threading.Thread(target=self._serve, name="mpi-rank",
                         daemon=True).start()

    def _serve(self) -> None:
        while True:
            self.baton.acquire()
            job, self.job = self.job, None
            handoff = job()
            # drop the finished job before parking: it holds the world,
            # every rank's ExecCtx and every rank's private inputs
            job = None
            with _idle_lock:
                _idle.append(self)
            handoff()


#: parked rank threads free for a new job; grows on demand, never shrinks
_idle: List[_RankThread] = []
_idle_lock = threading.Lock()


def _rank_threads(n: int) -> List[_RankThread]:
    """Take ``n`` idle rank threads, starting new ones for any shortfall."""
    with _idle_lock:
        k = min(n, len(_idle))
        taken = _idle[len(_idle) - k:]
        del _idle[len(_idle) - k:]
    taken.extend(_RankThread() for _ in range(n - k))
    return taken


def _forget_rank_threads() -> None:
    """In a forked child: the parent's rank threads do not exist here."""
    global _idle, _idle_lock
    _idle = []
    _idle_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_rank_threads)


@dataclass
class MPIRunResult:
    """Outcome of one MPI job."""

    ret: object                      # rank 0's kernel return value
    args: Sequence[object]           # rank 0's (mutated) arguments
    sim_seconds: float               # max over ranks of the final clock
    error: Optional[BaseException] = None
    profile: Optional["RunProfile"] = None  # job-level breakdown (opt-in)


def run_mpi(
    program: CompiledProgram,
    kernel: str,
    args: Sequence[object],
    nranks: int,
    machine: Machine,
    work_scale: float = 1.0,
    fuel: Optional[int] = None,
    threads_per_rank: int = 0,
    watchdog_timeout: float = 600.0,
    profile: bool = False,
    vectorize: bool = True,
    vec_stats=None,
) -> MPIRunResult:
    """Run ``kernel`` on ``nranks`` simulated ranks with replicated inputs.

    ``threads_per_rank > 0`` selects the hybrid MPI+OpenMP runtime.
    Every rank sees its own replica of each input (PCGBench MPI prompts
    state the data is replicated on every rank), and no rank's writes
    reach another rank or the caller.  An input the kernel provably
    never writes (:meth:`CompiledProgram.written_params`) is shared by
    all ranks instead of copied, which no rank can observe; every other
    input is deep-copied per rank.  Rank 0's arguments are returned for
    correctness checking.

    ``watchdog_timeout`` bounds the host-side wait for the whole job: a
    rank that is wedged (stalled outside the communication layer while
    holding the baton, so the deadlock detector cannot see it) aborts
    the job with a ``RuntimeFailure`` once the timeout elapses.  Its
    thread, and the threads of the ranks parked behind it, return to the
    idle list only once it unwinds.
    """
    world = CommWorld(nranks, machine, work_scale)
    # every rank reads the one caller array of a parameter the kernel
    # never writes; a parameter it may write gets a private copy per rank
    written = program.written_params(kernel)
    rank_args: List[List[object]] = [
        [deep_copy_value(a) if written is None or i in written else a
         for i, a in enumerate(args)]
        for _ in range(nranks)
    ]
    ctxs: List[ExecCtx] = []
    for r in range(nranks):
        if threads_per_rank > 0:
            rt: MPIRankRuntime = HybridRankRuntime(r, world, threads_per_rank)
        else:
            rt = MPIRankRuntime(r, world)
        ctx = ExecCtx(machine, rt, fuel=fuel, work_scale=work_scale,
                      vectorize=vectorize, vec_stats=vec_stats)
        if profile:
            from ..prof.record import ProfBuilder
            ctx.prof = ProfBuilder()
        ctxs.append(ctx)

    returns: List[object] = [None] * nranks

    def rank_main(r: int) -> Callable[[], None]:
        try:
            if inject.ACTIVE is not None:
                rule = inject.ACTIVE.fire("runtime.mpi.stall", f"rank{r}")
                if rule is not None:
                    # wedged outside the communication layer: invisible to
                    # the deadlock detector, only the watchdog can act
                    time.sleep(rule.param if rule.param > 0 else 2.0)
            # a rank first run after a failure only unwinds
            world.check_abort()
            returns[r] = program.run_kernel(kernel, ctxs[r], rank_args[r])
        except _Abort:
            pass
        except BaseException as exc:  # noqa: BLE001 - report any failure
            world.abort(exc)
        return world.finish_rank()

    if nranks == 1:
        rank_main(0)
    else:
        threads = _rank_threads(nranks)
        world.batons = [t.baton for t in threads]
        for r, t in enumerate(threads):
            t.job = partial(rank_main, r)
        world.start()
        if not world.finished.wait(watchdog_timeout):
            world.abort(RuntimeFailure("MPI job wedged (host watchdog)"))

    if world.failure is not None:
        return MPIRunResult(ret=None, args=rank_args[0], sim_seconds=0.0,
                            error=world.failure)
    sim = max(
        (c.cost * c.work_scale + c.extra_units) * machine.cpu.cycle for c in ctxs
    )
    job_profile = _job_profile(ctxs, sim) if profile else None
    return MPIRunResult(ret=returns[0], args=rank_args[0], sim_seconds=sim,
                        profile=job_profile)


def _job_profile(ctxs: Sequence[ExecCtx], sim_seconds: float) -> "RunProfile":
    """Fold per-rank breakdowns into one job profile.

    Categories are the per-rank *means*; the gap between the slowest
    rank's clock (which defines ``sim_seconds``) and the mean is idle
    time — ranks waiting at MPI_Finalize for the straggler.  Summing the
    mean from the category sums (not the rank clocks) keeps the
    conservation identity ``sum(categories) == sim_seconds`` exact.
    """
    from ..prof.record import RunProfile, merge_counters
    cats: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    for c in ctxs:
        for k, v in c.prof.categories_for(c, 1).items():
            cats[k] = cats.get(k, 0.0) + v
        merge_counters(counters, c.prof.counters)
    inv = 1.0 / len(ctxs)
    cats = {k: v * inv for k, v in cats.items()}
    mean = sum(cats.values())
    skew = sim_seconds - mean
    if skew > 0.0:
        cats["idle"] = cats.get("idle", 0.0) + skew
    elif skew:
        # negative skew is averaging float noise (~1 ulp); fold it into
        # compute so no category ever reports negative time
        cats["compute"] = cats.get("compute", 0.0) + skew
    counters["ranks"] = float(len(ctxs))
    return RunProfile(categories=cats, counters=counters)
