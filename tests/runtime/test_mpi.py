"""Tests for the MPI and hybrid runtimes."""

import multiprocessing as mp
import sys
import threading
import time

import numpy as np
import pytest

from repro.bench.problems import all_problems
from repro.faults import FaultPlan, FaultRule, injector
from repro.lang.errors import (DeadlockError, FuelExhausted, MPIUsageError,
                               RuntimeFailure)
from repro.models.solutions import variants_for
from repro.runtime import DEFAULT_MACHINE, Array, run_mpi
from repro.runtime import mpi as mpi_mod
from repro.runtime.compile import CompiledProgram

from .helpers import compiled, farr, iarr


def mpi_run(src, kernel, args, nranks, threads_per_rank=0, fuel=None,
            work_scale=1.0):
    cp = compiled(src)
    return run_mpi(cp, kernel, args, nranks, DEFAULT_MACHINE,
                   work_scale=work_scale, fuel=fuel,
                   threads_per_rank=threads_per_rank)


BLOCK_SUM = """
kernel f(x: array<float>) -> float {
    let rank = mpi_rank();
    let size = mpi_size();
    let n = len(x);
    let chunk = (n + size - 1) / size;
    let lo = rank * chunk;
    let hi = min(lo + chunk, n);
    let local = 0.0;
    for (i in lo..hi) {
        local += x[i];
    }
    return mpi_reduce_float(local, "sum", 0);
}
"""


class TestPointToPoint:
    def test_send_recv_scalar(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 0) {
                mpi_send(42.5, 1, 0);
                return 0.0;
            } else {
                return mpi_recv_float(0, 0);
            }
        }
        """
        # rank 1 receives; rank 0's return is checked, so invert roles
        src = src.replace("mpi_rank() == 0", "mpi_rank() == 1").replace(
            "mpi_send(42.5, 1, 0)", "mpi_send(42.5, 0, 0)"
        ).replace("mpi_recv_float(0, 0)", "mpi_recv_float(1, 0)")
        res = mpi_run(src, "f", [farr([0])], 2)
        assert res.error is None
        assert res.ret == 42.5

    def test_send_recv_array_copies(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 1) {
                mpi_send(x, 0, 3);
                x[0] = 99.0;
                return 0.0;
            }
            let got = mpi_recv_array_float(1, 3);
            return got[0];
        }
        """
        res = mpi_run(src, "f", [farr([7, 8])], 2)
        assert res.error is None
        assert res.ret == 7.0  # value at send time, not after mutation

    def test_fifo_per_channel(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 1) {
                mpi_send(1.0, 0, 0);
                mpi_send(2.0, 0, 0);
                return 0.0;
            }
            let a = mpi_recv_float(1, 0);
            let b = mpi_recv_float(1, 0);
            return a * 10.0 + b;
        }
        """
        res = mpi_run(src, "f", [farr([0])], 2)
        assert res.ret == 12.0

    def test_tag_matching(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 1) {
                mpi_send(1.0, 0, 5);
                mpi_send(2.0, 0, 9);
                return 0.0;
            }
            let b = mpi_recv_float(1, 9);
            let a = mpi_recv_float(1, 5);
            return a * 10.0 + b;
        }
        """
        res = mpi_run(src, "f", [farr([0])], 2)
        assert res.ret == 12.0

    def test_type_mismatch_detected(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 1) {
                mpi_send(x, 0, 0);
                return 0.0;
            }
            return mpi_recv_float(1, 0);
        }
        """
        res = mpi_run(src, "f", [farr([1])], 2)
        assert isinstance(res.error, MPIUsageError)

    def test_invalid_destination_rank(self):
        src = """
        kernel f(x: array<float>) -> float {
            mpi_send(1.0, 99, 0);
            return 0.0;
        }
        """
        res = mpi_run(src, "f", [farr([1])], 2)
        assert isinstance(res.error, MPIUsageError)

    def test_deadlock_cyclic_recv(self):
        src = """
        kernel f(x: array<float>) -> float {
            return mpi_recv_float((mpi_rank() + 1) % mpi_size(), 0);
        }
        """
        res = mpi_run(src, "f", [farr([1])], 4)
        assert isinstance(res.error, DeadlockError)

    def test_partial_recv_deadlock_after_finish(self):
        # rank 0 expects a message no one sends; rank 1 just exits
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 0) {
                return mpi_recv_float(1, 0);
            }
            return 0.0;
        }
        """
        res = mpi_run(src, "f", [farr([1])], 2)
        assert isinstance(res.error, DeadlockError)


class TestCollectives:
    def test_block_sum_many_rank_counts(self):
        x = farr(range(512))
        for p in (1, 2, 4, 16, 64):
            res = mpi_run(BLOCK_SUM, "f", [x], p)
            assert res.error is None, res.error
            assert res.ret == sum(range(512))

    def test_allreduce(self):
        src = """
        kernel f(x: array<float>) -> float {
            return mpi_allreduce_float(float(mpi_rank()), "max");
        }
        """
        res = mpi_run(src, "f", [farr([0])], 8)
        assert res.ret == 7.0

    def test_allreduce_int_kind(self):
        src = """
        kernel f(x: array<float>) -> int {
            return mpi_allreduce_int(1, "sum");
        }
        """
        res = mpi_run(src, "f", [farr([0])], 8)
        assert res.ret == 8
        assert isinstance(res.ret, int)

    def test_bcast_scalar(self):
        src = """
        kernel f(x: array<float>) -> float {
            let v = 0.0;
            if (mpi_rank() == 2) { v = 5.5; }
            return mpi_bcast_float(v, 2);
        }
        """
        res = mpi_run(src, "f", [farr([0])], 4)
        assert res.ret == 5.5

    def test_bcast_array_in_place(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() != 0) { fill(x, 0.0); }
            mpi_bcast_array(x, 0);
            if (mpi_rank() == 3) {
                mpi_send(x[1], 0, 0);
            }
            if (mpi_rank() == 0) {
                return mpi_recv_float(3, 0);
            }
            return 0.0;
        }
        """
        res = mpi_run(src, "f", [farr([4, 5, 6])], 4)
        assert res.ret == 5.0

    def test_scan(self):
        src = """
        kernel f(x: array<float>) -> float {
            let v = mpi_scan_float(1.0, "sum");
            return mpi_bcast_float(v, mpi_size() - 1);
        }
        """
        res = mpi_run(src, "f", [farr([0])], 6)
        assert res.ret == 6.0

    def test_scatter_gather_roundtrip(self):
        src = """
        kernel f(x: array<float>, out: array<float>) {
            let chunk = mpi_scatter_array(x, 0);
            for (i in 0..len(chunk)) {
                chunk[i] = chunk[i] + 100.0;
            }
            let full = mpi_gather_array(chunk, 0);
            if (mpi_rank() == 0) {
                for (i in 0..len(out)) {
                    out[i] = full[i];
                }
            }
        }
        """
        x = farr(range(16))
        out = farr([0] * 16)
        res = mpi_run(src, "f", [x, out], 4)
        assert res.error is None
        assert res.args[1].data == [float(i) + 100.0 for i in range(16)]

    def test_scatter_uneven_is_usage_error(self):
        src = """
        kernel f(x: array<float>) -> float {
            let chunk = mpi_scatter_array(x, 0);
            return 0.0;
        }
        """
        res = mpi_run(src, "f", [farr(range(10))], 4)
        assert isinstance(res.error, MPIUsageError)

    def test_allgather(self):
        src = """
        kernel f(x: array<float>) -> float {
            let local = alloc_float(1);
            local[0] = float(mpi_rank());
            let full = mpi_allgather_array(local);
            return full[len(full) - 1];
        }
        """
        res = mpi_run(src, "f", [farr([0])], 5)
        assert res.ret == 4.0

    def test_allreduce_array(self):
        src = """
        kernel f(x: array<float>) -> float {
            let local = alloc_float(3);
            fill(local, float(mpi_rank() + 1));
            mpi_allreduce_array(local, "sum");
            return local[0];
        }
        """
        res = mpi_run(src, "f", [farr([0])], 4)
        assert res.ret == 1 + 2 + 3 + 4

    def test_reduce_array_at_root(self):
        src = """
        kernel f(x: array<float>) -> float {
            let local = alloc_float(2);
            fill(local, 1.0);
            mpi_reduce_array(local, "sum", 0);
            return local[1];
        }
        """
        res = mpi_run(src, "f", [farr([0])], 8)
        assert res.ret == 8.0

    def test_mismatched_collectives(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 0) {
                return mpi_allreduce_float(1.0, "sum");
            }
            return mpi_bcast_float(1.0, 0);
        }
        """
        res = mpi_run(src, "f", [farr([0])], 4)
        assert isinstance(res.error, MPIUsageError)

    def test_mismatched_reduce_ops(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 0) {
                return mpi_allreduce_float(1.0, "sum");
            }
            return mpi_allreduce_float(1.0, "max");
        }
        """
        res = mpi_run(src, "f", [farr([0])], 2)
        assert isinstance(res.error, MPIUsageError)

    def test_barrier(self):
        src = """
        kernel f(x: array<float>) -> float {
            mpi_barrier();
            mpi_barrier();
            return 1.0;
        }
        """
        res = mpi_run(src, "f", [farr([0])], 8)
        assert res.ret == 1.0


class TestMPITimeAndFailures:
    def test_inputs_replicated_not_shared(self):
        src = """
        kernel f(x: array<float>) -> float {
            x[0] = float(mpi_rank());
            mpi_barrier();
            return x[0];
        }
        """
        res = mpi_run(src, "f", [farr([99])], 4)
        assert res.ret == 0.0  # rank 0 sees its own write only

    def test_scaling_efficiency_declines_at_high_rank_counts(self):
        x = farr(range(2048))
        times = {}
        for p in (1, 8, 64, 256):
            res = mpi_run(BLOCK_SUM, "f", [x], p, work_scale=256)
            assert res.error is None
            times[p] = res.sim_seconds
        eff_8 = times[1] / times[8] / 8
        eff_256 = times[1] / times[256] / 256
        assert eff_8 > eff_256  # communication eats efficiency at scale
        assert times[8] < times[1]

    def test_fuel_exhaustion_on_one_rank_aborts_all(self):
        src = """
        kernel f(x: array<float>) -> float {
            if (mpi_rank() == 0) {
                let s = 0.0;
                while (true) { s += 1.0; }
            }
            return mpi_allreduce_float(1.0, "sum");
        }
        """
        res = mpi_run(src, "f", [farr([0])], 4, fuel=30_000)
        assert isinstance(res.error, FuelExhausted)

    def test_hybrid_runs_openmp_inside_ranks(self):
        src = """
        kernel f(x: array<float>) -> float {
            let rank = mpi_rank();
            let size = mpi_size();
            let chunk = (len(x) + size - 1) / size;
            let lo = rank * chunk;
            let hi = min(lo + chunk, len(x));
            let local = 0.0;
            pragma omp parallel for reduction(+: local)
            for (i in lo..hi) {
                local += x[i];
            }
            return mpi_reduce_float(local, "sum", 0);
        }
        """
        x = farr(range(1024))
        r11 = mpi_run(src, "f", [x], 1, threads_per_rank=1, work_scale=256)
        r44 = mpi_run(src, "f", [x], 4, threads_per_rank=16, work_scale=256)
        assert r11.error is None and r44.error is None
        assert r11.ret == r44.ret == sum(range(1024))
        assert r44.sim_seconds < r11.sim_seconds

    def test_single_rank_runs_inline(self):
        res = mpi_run(BLOCK_SUM, "f", [farr(range(64))], 1)
        assert res.ret == sum(range(64))


#: helpers the write-path kernels call
WRITE_HELPERS = """
kernel poke(a: array<float>) { a[0] = 9.0; }
kernel poke_via(a: array<float>) { poke(a); }
kernel same(a: array<float>) -> array<float> { return a; }
"""

#: each path writes x by that path alone: on rank 1 only ("rank1"), on
#: every rank ("all"), or inside a Kokkos pattern, which the MPI runtime
#: refuses at run time ("kokkos") -- the analysis must still see it
WRITE_PATHS = [
    ("index store", "x[0] = 9.0;", "rank1"),
    ("compound store", "x[0] += 9.0;", "rank1"),
    ("sort", "sort(x);", "rank1"),
    ("fill", "fill(x, 9.0);", "rank1"),
    ("swap", "swap(x, 0, 1);", "rank1"),
    ("atomic_add", "atomic_add(x, 0, 9.0);", "rank1"),
    ("atomic_min", "atomic_min(x, 0, -9.0);", "rank1"),
    ("atomic_max", "atomic_max(x, 0, 9.0);", "rank1"),
    ("user kernel", "poke(x);", "rank1"),
    ("user kernel, transitively", "poke_via(x);", "rank1"),
    ("let alias", "let y = x; y[0] = 9.0;", "rank1"),
    ("assignment alias", "let y = alloc_float(3); y = x; y[0] = 9.0;",
     "rank1"),
    ("select alias",
     "let y = select(true, x, alloc_float(3)); y[0] = 9.0;", "rank1"),
    ("returned alias", "let y = same(x); y[0] = 9.0;", "rank1"),
    ("mpi_bcast_array", "mpi_bcast_array(x, 1);", "all"),
    ("mpi_reduce_array", 'mpi_reduce_array(x, "sum", 0);', "all"),
    ("mpi_allreduce_array", 'mpi_allreduce_array(x, "sum");', "all"),
    ("lambda capture", "parallel_for(1, (i) => { x[i] = 9.0; });",
     "kokkos"),
    ("kokkos scan output",
     'parallel_scan_inclusive(3, "sum", (i) => 1.0, x);', "kokkos"),
]


def _copy_every_input(monkeypatch):
    """Make run_mpi deep-copy every argument for every rank."""
    monkeypatch.setattr(CompiledProgram, "written_params",
                        lambda self, name: None)


def _outcome(res):
    args = [a.data if isinstance(a, Array) else a for a in res.args]
    err = None if res.error is None else \
        f"{type(res.error).__name__}: {res.error}"
    return res.ret, args, res.sim_seconds, err


class TestReplicatedInputs:
    """Inputs a kernel never writes are shared by all ranks; the rest are
    copied per rank, so no rank's write reaches a peer or the caller."""

    @pytest.mark.parametrize("path,write,where", WRITE_PATHS,
                             ids=[p[0] for p in WRITE_PATHS])
    def test_written_input_stays_private(self, path, write, where,
                                         monkeypatch):
        body = write if where == "all" else \
            f"if (mpi_rank() == 1) {{ {write} }}"
        src = WRITE_HELPERS + f"""
        kernel f(x: array<float>) -> float {{
            {body}
            mpi_barrier();
            return x[0];
        }}
        """
        cp = compiled(src)
        assert cp.written_params("f") == {0}
        x = farr([3, 1, 2])
        res = run_mpi(cp, "f", [x], 4, DEFAULT_MACHINE)
        assert (res.error is None) == (where != "kokkos")
        assert x.data == [3.0, 1.0, 2.0]     # nothing reached the caller
        if where == "rank1":
            # rank 0 reads its own replica after rank 1 wrote
            assert res.ret == 3.0
            assert res.args[0].data == [3.0, 1.0, 2.0]
        _copy_every_input(monkeypatch)
        copied = run_mpi(cp, "f", [farr([3, 1, 2])], 4, DEFAULT_MACHINE)
        assert _outcome(res) == _outcome(copied)

    def test_read_only_512_rank_job_makes_no_input_copies(self,
                                                          monkeypatch):
        src = """
        kernel f(x: array<float>, n: int) -> float {
            let mirror = copy(x);
            for (i in 0..len(x)) {
                mirror[i] = x[i];
            }
            let y = x;
            let local = 0.0;
            for (i in mpi_rank()..n) {
                local += y[i];
            }
            return mpi_allreduce_float(local, "sum");
        }
        """
        copies = []
        real = mpi_mod.deep_copy_value

        def counting(value):
            if isinstance(value, Array):
                copies.append(value)
            return real(value)

        monkeypatch.setattr(mpi_mod, "deep_copy_value", counting)
        cp = compiled(src)
        assert cp.written_params("f") == frozenset()
        x = farr(range(600))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # hand-offs race the rank threads
        try:
            res = run_mpi(cp, "f", [x, 512], 512, DEFAULT_MACHINE)
        finally:
            sys.setswitchinterval(interval)
        assert res.error is None
        assert res.ret == sum(sum(range(r, 512)) for r in range(512))
        assert res.args[0] is x
        assert x.data == [float(v) for v in range(600)]
        assert copies == []
        written = compiled(src.replace("let y = x;", "let y = x; y[0] = 1.0;"))
        run_mpi(written, "f", [x, 512], 512, DEFAULT_MACHINE)
        assert len(copies) == 512

    @pytest.mark.parametrize("model", ["mpi", "mpi+omp"])
    def test_bank_matches_forced_copies(self, model, monkeypatch):
        """Every handwritten MPI and hybrid variant: sharing read-only
        inputs changes no return, rank-0 argument, time or error."""
        rng = np.random.default_rng(29)
        jobs = []
        for problem in all_problems():
            inputs = problem.generate(rng, problem.correctness_size)
            for v in variants_for(problem, model):
                jobs.append((problem, compiled(v.source), inputs))
        tpr = 2 if model == "mpi+omp" else 0

        def run_all():
            out = []
            for problem, cp, inputs in jobs:
                for p in (1, 4, 16):
                    args = problem.to_minipar_args(inputs)
                    before = [a.data[:] if isinstance(a, Array) else a
                              for a in args]
                    res = run_mpi(cp, problem.entry, args, p,
                                  DEFAULT_MACHINE, threads_per_rank=tpr)
                    assert [a.data if isinstance(a, Array) else a
                            for a in args] == before
                    out.append(_outcome(res))
            return out

        shared = run_all()
        _copy_every_input(monkeypatch)
        assert run_all() == shared


CYCLIC_RECV = """
kernel f(x: array<float>) -> float {
    return mpi_recv_float((mpi_rank() + 1) % mpi_size(), 0);
}
"""

RECV_FROM_FINISHED = """
kernel f(x: array<float>) -> float {
    if (mpi_rank() == 0) {
        return mpi_recv_float(1, 0);
    }
    return 0.0;
}
"""


REDUCE2 = """
kernel f(x: array<float>) -> float {
    let local = x[mpi_rank()];
    return mpi_reduce_float(local, "sum", 0);
}
"""


def _rank_threads():
    return {t for t in threading.enumerate() if t.name == "mpi-rank"}


def _bounded(fn, timeout=60.0):
    """Run ``fn`` on a helper thread; fail instead of hanging the suite."""
    out = []
    t = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), f"MPI job still running after {timeout} s"
    return out[0]


class TestRankThreadReuse:
    """Ranks run on parked threads that later jobs reuse."""

    def test_repeated_512_rank_jobs_start_no_new_threads(self):
        x = farr(range(1024))
        first = mpi_run(BLOCK_SUM, "f", [x], 512)
        assert first.ret == sum(range(1024))
        threads = _rank_threads()
        assert len(threads) >= 512
        for _ in range(3):
            res = mpi_run(BLOCK_SUM, "f", [x], 512)
            assert res.error is None and res.ret == first.ret
            assert res.sim_seconds == first.sim_seconds
        assert _rank_threads() == threads

    def test_deadlocks_then_normal_jobs_do_not_hang(self):
        def jobs():
            out = [mpi_run(CYCLIC_RECV, "f", [farr([1])], 4),
                   mpi_run(RECV_FROM_FINISHED, "f", [farr([1])], 2)]
            out += [mpi_run(BLOCK_SUM, "f", [farr(range(64))], p)
                    for p in (4, 2, 8, 4)]
            return out

        cyclic, finished, *normal = _bounded(jobs)
        assert isinstance(cyclic.error, DeadlockError)
        assert str(cyclic.error) == (
            "deadlock: all 4 live rank(s) blocked with no deliverable "
            "messages")
        assert isinstance(finished.error, DeadlockError)
        assert str(finished.error) == (
            "deadlock: remaining rank(s) blocked after peers finished")
        assert all(r.error is None and r.ret == sum(range(64))
                   for r in normal)
        # every thread of the deadlocked jobs parked again: a second round
        # needs no new ones
        threads = _rank_threads()
        _bounded(jobs)
        assert _rank_threads() == threads

    def test_forked_child_runs_mpi_on_its_own_threads(self):
        ctx = mp.get_context("fork")
        x = farr(range(256))
        parent = mpi_run(BLOCK_SUM, "f", [x], 16)
        assert parent.ret == sum(range(256))
        assert mpi_mod._idle, "the parent should have parked rank threads"
        reader, writer = ctx.Pipe(duplex=False)

        def child():
            inherited = len(mpi_mod._idle)
            res = mpi_run(BLOCK_SUM, "f", [x], 16)
            writer.send((inherited, res.error is None, res.ret,
                         res.sim_seconds))

        proc = ctx.Process(target=child)
        proc.start()
        writer.close()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
            proc.join()
            pytest.fail("MPI in a forked child hung")
        assert proc.exitcode == 0
        assert reader.poll(5)
        inherited, ok, ret, sim = reader.recv()
        assert inherited == 0
        assert ok and ret == parent.ret and sim == parent.sim_seconds

    def test_wedged_rank_thread_is_not_reused(self):
        assert mpi_run(REDUCE2, "f", [farr([1, 2])], 2).ret == 3.0
        idle = set(mpi_mod._idle)
        rule = FaultRule(point="runtime.mpi.stall", action="stall",
                         match="rank1", param=1.0)
        with injector(FaultPlan(rules=(rule,))):
            wedged = run_mpi(compiled(REDUCE2), "f", [farr([1, 2])], 2,
                             DEFAULT_MACHINE, watchdog_timeout=0.1)
        assert isinstance(wedged.error, RuntimeFailure)
        held = idle - set(mpi_mod._idle)
        assert len(held) == 2   # rank 1 sleeps; rank 0 is parked behind it
        t0 = time.monotonic()
        res = _bounded(lambda: mpi_run(REDUCE2, "f", [farr([1, 2])], 2))
        assert res.error is None and res.ret == 3.0
        assert time.monotonic() - t0 < 0.9, "waited for the wedged rank"
        assert not held & set(mpi_mod._idle)
        # once the stall ends both ranks unwind and their threads park
        deadline = time.monotonic() + 30
        while held - set(mpi_mod._idle) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert held <= set(mpi_mod._idle)
