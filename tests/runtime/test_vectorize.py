"""Differential tests for the tier-2 vectorized executor.

The contract under test (see ``repro.runtime.vectorize``): with the tier
enabled, every observable — return value, array contents, ``ctx.cost``
(bitwise), ``parallel_adjust``, raised error type *and message*, tracer
verdicts, idiom-hit counters aside — is identical to the scalar closure
tier.  Loops the recognizer cannot prove safe must fall back wholesale.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.errors import DataRaceError, FuelExhausted, MiniParError, TrapError
from repro.runtime import (
    DEFAULT_MACHINE,
    Array,
    ExecCtx,
    KokkosRuntime,
    OpenMPRuntime,
    SerialRuntime,
    launch,
    run_mpi,
)
from repro.runtime.vectorize import (
    MIN_SERIAL_ITERS,
    MIN_WINDOWED_ITERS,
    VecStats,
)

from .helpers import compiled, farr, iarr

THREADS = (1, 2, 4, 8)


def _run_one(src, kernel, args, rt_factory, vectorize, fuel=None):
    cp = compiled(src)
    stats = VecStats()
    ctx = ExecCtx(DEFAULT_MACHINE, rt_factory(), fuel=fuel,
                  vectorize=vectorize, vec_stats=stats)
    ret, err = None, None
    try:
        ret = cp.run_kernel(kernel, ctx, args)
    except MiniParError as exc:
        err = f"{type(exc).__name__}: {exc}"
    return ret, err, ctx, stats


def assert_identical(src, kernel, make_args, rt_factory=SerialRuntime,
                     fuel=None):
    """Run both tiers on fresh arguments and compare every observable.
    Returns the vectorized tier's stats for hit/fallback assertions."""
    a_on = make_args()
    a_off = make_args()
    ret1, err1, ctx1, stats = _run_one(src, kernel, a_on, rt_factory,
                                       True, fuel)
    ret0, err0, ctx0, _ = _run_one(src, kernel, a_off, rt_factory,
                                   False, fuel)
    assert err1 == err0
    assert ret1 == ret0
    assert ctx1.cost == ctx0.cost          # bitwise, not approx
    assert ctx1.parallel_adjust == ctx0.parallel_adjust
    for x, y in zip(a_on, a_off):
        if isinstance(x, Array):
            assert x.data == y.data
    return stats


N = 4 * MIN_WINDOWED_ITERS


def _floats(n=N, seed=3):
    return lambda: [farr(np.random.default_rng(seed).standard_normal(n))]


def _two_floats(n=N, seed=5):
    def make():
        rng = np.random.default_rng(seed)
        return [farr(rng.standard_normal(n)), farr(rng.standard_normal(n))]
    return make


class TestSerialBulk:
    def test_axpy_hits_bulk(self):
        src = """
        kernel axpy(a: float, x: array<float>, y: array<float>) {
            for (i in 0..len(x)) {
                y[i] = a * x[i] + y[i];
            }
        }
        """
        def make():
            rng = np.random.default_rng(0)
            return [1.5, farr(rng.standard_normal(N)),
                    farr(rng.standard_normal(N))]
        stats = assert_identical(src, "axpy", make)
        assert stats.bulk_loops == 1
        assert stats.bulk_iters == N
        assert stats.fallbacks == 0

    def test_scalar_tier_reports_scalar(self):
        _, _, _, stats = _run_one(
            "kernel k(x: array<float>) { for (i in 0..len(x)) "
            "{ x[i] = x[i] + 1.0; } }",
            "k", [farr(np.arange(N))], SerialRuntime, False)
        assert stats.bulk_loops == 0
        assert stats.as_dict(False)["tier"] == "scalar"

    def test_strided_and_offset_affine(self):
        src = """
        kernel stride(x: array<float>, y: array<float>) {
            for (i in 0..200) {
                y[2 * i + 1] = x[2 * i] - 3.0 * x[2 * i + 1];
            }
        }
        """
        stats = assert_identical(src, "stride", _two_floats(400))
        assert stats.bulk_loops == 1

    def test_compound_store(self):
        src = """
        kernel acc(x: array<float>, y: array<float>) {
            for (i in 0..len(x)) {
                y[i] += x[i] * x[i];
            }
        }
        """
        stats = assert_identical(src, "acc", _two_floats())
        assert stats.bulk_loops == 1

    @pytest.mark.parametrize("op", ["+=", "-=", "*="])
    def test_float_reductions_replay_sequential_fold(self, op):
        src = f"""
        kernel red(x: array<float>) -> float {{
            let s = 1.0;
            for (i in 0..len(x)) {{
                s {op} x[i];
            }}
            return s;
        }}
        """
        # values near 1.0 keep *= products finite and order-sensitive
        def make():
            rng = np.random.default_rng(11)
            return [farr(1.0 + 0.01 * rng.standard_normal(N))]
        stats = assert_identical(src, "red", make)
        assert stats.bulk_loops == 1

    def test_int_sum_reduction(self):
        src = """
        kernel isum(x: array<int>) -> int {
            let s = 0;
            for (i in 0..len(x)) {
                s += x[i];
            }
            return s;
        }
        """
        def make():
            rng = np.random.default_rng(13)
            return [iarr(rng.integers(-1000, 1000, size=N))]
        stats = assert_identical(src, "isum", make)
        assert stats.bulk_loops == 1

    def test_int_elementwise_stays_int(self):
        src = """
        kernel scale(x: array<int>) {
            for (i in 0..len(x)) {
                x[i] = x[i] * 3 + 1;
            }
        }
        """
        def make():
            rng = np.random.default_rng(17)
            return [iarr(rng.integers(-50, 50, size=N))]
        stats = assert_identical(src, "scale", make)
        assert stats.bulk_loops == 1
        args = make()
        _run_one(src, "scale", args, SerialRuntime, True)
        assert all(type(v) is int for v in args[0].data)

    def test_small_loop_stays_scalar(self):
        n = MIN_SERIAL_ITERS - 1
        src = """
        kernel k(x: array<float>) {
            for (i in 0..len(x)) {
                x[i] = x[i] + 1.0;
            }
        }
        """
        stats = assert_identical(src, "k", _floats(n))
        assert stats.bulk_loops == 0


class TestFallbacks:
    """Bodies outside the grammar (or failing a precheck) must run on the
    scalar tier — and still be observably identical."""

    def test_division_not_vectorized(self):
        src = """
        kernel div(x: array<float>) {
            for (i in 0..len(x)) {
                x[i] = x[i] / 2.0;
            }
        }
        """
        def make():
            rng = np.random.default_rng(19)
            return [farr(1.0 + np.abs(np.random.default_rng(19)
                                      .standard_normal(N)))]
        stats = assert_identical(src, "div", make)
        assert stats.bulk_loops == 0

    def test_builtin_call_not_vectorized(self):
        src = """
        kernel relu(x: array<float>) {
            for (i in 0..len(x)) {
                x[i] = max(x[i], 0.0);
            }
        }
        """
        stats = assert_identical(src, "relu", _floats())
        assert stats.bulk_loops == 0

    def test_conditional_not_vectorized(self):
        src = """
        kernel clamp(x: array<float>) {
            for (i in 0..len(x)) {
                if (x[i] < 0.0) {
                    x[i] = 0.0;
                }
            }
        }
        """
        stats = assert_identical(src, "clamp", _floats())
        assert stats.bulk_loops == 0

    def test_aliased_arguments_fall_back_at_runtime(self):
        # the *plan* is eligible; the alias is only visible at run time,
        # when both parameters are bound to the same Array
        src = """
        kernel shift(x: array<float>, y: array<float>) {
            for (i in 1..len(x)) {
                y[i] = x[i - 1] * 2.0;
            }
        }
        """
        def make():
            a = farr(np.random.default_rng(23).standard_normal(N))
            return [a, a]

        stats = assert_identical(src, "shift", make)
        assert stats.bulk_loops == 0
        assert stats.fallbacks >= 1

    def test_distinct_arrays_do_vectorize_the_same_plan(self):
        src = """
        kernel shift(x: array<float>, y: array<float>) {
            for (i in 1..len(x)) {
                y[i] = x[i - 1] * 2.0;
            }
        }
        """
        stats = assert_identical(src, "shift", _two_floats())
        assert stats.bulk_loops == 1

    def test_out_of_bounds_trap_is_identical(self):
        src = """
        kernel oob(x: array<float>, y: array<float>) {
            for (i in 0..len(x)) {
                y[i + 8] = x[i];
            }
        }
        """
        def make():
            rng = np.random.default_rng(29)
            return [farr(rng.standard_normal(N)),
                    farr(rng.standard_normal(N))]  # y too short by 8

        ret1, err1, ctx1, stats = _run_one(src, "oob", make(),
                                           SerialRuntime, True)
        ret0, err0, ctx0, _ = _run_one(src, "oob", make(),
                                       SerialRuntime, False)
        assert err1 == err0 and err1 is not None
        assert "TrapError" in err1
        assert ctx1.cost == ctx0.cost
        assert stats.bulk_loops == 0     # bounds precheck declined

    def test_fuel_exhaustion_is_identical(self):
        src = """
        kernel burn(x: array<float>) {
            for (i in 0..len(x)) {
                x[i] = x[i] + 1.0;
            }
        }
        """
        fuel = 500   # exhausts mid-loop
        ret1, err1, ctx1, _ = _run_one(src, "burn", [farr(np.zeros(N))],
                                       SerialRuntime, True, fuel=fuel)
        ret0, err0, ctx0, _ = _run_one(src, "burn", [farr(np.zeros(N))],
                                       SerialRuntime, False, fuel=fuel)
        assert err1 == err0 and err1 is not None
        assert "FuelExhausted" in err1
        assert ctx1.cost == ctx0.cost

    def test_int_overflow_risk_falls_back(self):
        # products can exceed 2^62: the interval precheck must refuse,
        # because int64 numpy would wrap where Python promotes
        src = """
        kernel big(x: array<int>) -> int {
            let s = 0;
            for (i in 0..len(x)) {
                s += x[i] * x[i];
            }
            return s;
        }
        """
        big = 1 << 33

        def make():
            return [iarr([big] * N)]

        stats = assert_identical(src, "big", make)
        assert stats.bulk_loops == 0


class TestParallelRuntimes:
    def test_omp_windowed_identical(self):
        src = """
        kernel scale(x: array<float>, y: array<float>) {
            pragma omp parallel for
            for (i in 0..len(x)) {
                y[i] = 2.5 * x[i] - 1.0;
            }
        }
        """
        stats = assert_identical(src, "scale", _two_floats(),
                                 lambda: OpenMPRuntime(THREADS))
        assert stats.bulk_loops == 1
        # the two 48-iteration trace windows run on the scalar tier
        assert stats.bulk_iters == N - 96

    def test_omp_windowed_int_loads_identical(self):
        # the interval pass converts x once for the whole trip; each bulk
        # span between the trace windows reads its own slice of that
        src = """
        kernel scale(x: array<int>, y: array<int>) {
            pragma omp parallel for
            for (i in 0..len(x)) {
                y[i] = 3 * x[i] + y[i];
            }
        }
        """

        def make():
            rng = np.random.default_rng(7)
            return [iarr(rng.integers(-50, 50, N)),
                    iarr(rng.integers(-50, 50, N))]

        stats = assert_identical(src, "scale", make,
                                 lambda: OpenMPRuntime(THREADS))
        assert stats.bulk_loops == 1
        assert stats.bulk_iters == N - 96

    def test_omp_race_verdict_identical(self):
        # every iteration writes index 0: outside the vector grammar
        # (coefficient 0), so both tiers trace it — and both must race
        src = """
        kernel racy(x: array<float>, y: array<float>) {
            pragma omp parallel for
            for (i in 0..len(x)) {
                y[0] = x[i];
            }
        }
        """
        for vec in (True, False):
            _, err, _, _ = _run_one(src, "racy", _two_floats()(),
                                    lambda: OpenMPRuntime(THREADS), vec)
            assert err is not None and "DataRaceError" in err

    def test_kokkos_reduce_identical(self):
        src = """
        kernel ksum(x: array<float>) -> float {
            let s = parallel_reduce(len(x), "sum", (i) => x[i] * x[i]);
            return s;
        }
        """
        stats = assert_identical(src, "ksum", _floats(),
                                 lambda: KokkosRuntime(THREADS))
        assert stats.bulk_loops == 1

    def test_kokkos_for_identical(self):
        src = """
        kernel kfor(x: array<float>, y: array<float>) {
            parallel_for(len(x), (i) => {
                y[i] = x[i] * 3.0 + 0.5;
            });
        }
        """
        stats = assert_identical(src, "kfor", _two_floats(),
                                 lambda: KokkosRuntime(THREADS))
        assert stats.bulk_loops == 1

    def test_mpi_rank_loops_identical(self):
        src = """
        kernel msum(x: array<float>, y: array<float>) {
            let r = mpi_rank();
            let p = mpi_size();
            let chunk = len(x) / p;
            let lo = r * chunk;
            for (i in 0..chunk) {
                y[lo + i] = x[lo + i] * 2.0;
            }
            mpi_barrier();
        }
        """
        cp = compiled(src)
        rng = np.random.default_rng(31)
        base = rng.standard_normal(1024)
        out = {}
        for vec in (True, False):
            x, y = farr(base), farr(np.zeros(1024))
            stats = VecStats()
            res = run_mpi(cp, "msum", [x, y], 4, DEFAULT_MACHINE,
                          vectorize=vec, vec_stats=stats)
            assert res.error is None
            out[vec] = (res.sim_seconds, y.data, stats)
        assert out[True][0] == out[False][0]
        assert out[True][1] == out[False][1]
        assert out[True][2].bulk_loops > 0

    @pytest.mark.parametrize("dialect", ["cuda", "hip"])
    def test_gpu_thread_loops_identical(self, dialect):
        # a grid-stride-free kernel where thread 0 does a serial sweep:
        # the in-kernel for loop is a serial loop under an active tracer
        # window, so bulk segments interleave with traced iterations
        src = """
        kernel gk(x: array<float>, y: array<float>) {
            let t = thread_idx() + block_idx() * block_dim();
            if (t == 0) {
                for (i in 0..len(x)) {
                    y[i] = x[i] + 1.0;
                }
            }
        }
        """
        cp = compiled(src)
        rng = np.random.default_rng(37)
        base = rng.standard_normal(N)
        out = {}
        for vec in (True, False):
            x, y = farr(base), farr(np.zeros(N))
            res = launch(cp, "gk", [x, y], 64, DEFAULT_MACHINE,
                         dialect=dialect, vectorize=vec)
            assert res.error is None
            out[vec] = (res.sim_seconds, y.data)
        assert out[True] == out[False]


class TestTouchBlock:
    """Satellite: bulk tracer recording for whole-array builtins."""

    def _reference(self, tracer_ctor, iteration, n, write, prot):
        from repro.runtime.tracer import Tracer

        arr = farr(np.zeros(max(n, 1)))
        t = Tracer(200)
        t.begin_iteration(iteration)
        if write:
            for k in range(n):
                t.write(arr, k, prot)
        else:
            for k in range(n):
                t.read(arr, k, prot)
        t2 = Tracer(200)
        t2.begin_iteration(iteration)
        t2.touch_block(arr, n, write, prot)
        return t, t2

    @pytest.mark.parametrize("iteration", [0, 100])   # in / out of window
    @pytest.mark.parametrize("write", [True, False])
    @pytest.mark.parametrize("prot", [0, 1, 2])
    def test_touch_block_equals_element_loop(self, iteration, write, prot):
        t, t2 = self._reference(None, iteration, 64, write, prot)
        assert t.accesses == t2.accesses
        assert t.atomic_ops == t2.atomic_ops
        assert t.atomic_targets == t2.atomic_targets
        assert t.race == t2.race

    def test_fill_copy_charges_unchanged(self):
        # fill/copy/sort charge per-element cost units independent of the
        # tracer path; the bulk touch must not change any charge
        src = """
        kernel fc(x: array<float>) -> float {
            let y = copy(x);
            fill(y, 1.0);
            return y[0];
        }
        """
        stats = assert_identical(src, "fc", _floats())
        assert stats.fallbacks == 0


REENTERED = """
kernel k(r: array<int>, x: array<float>, reps: int) -> float {
    let w = copy(r);
    let y = copy(x);
    let acc = 0.0;
    let s = 0;
    for (rep in 0..reps) {
        for (i in 0..len(w)) {
            w[i] = r[i];
        }
        for (i in 0..len(y)) {
            y[i] = x[i] * 0.5 + y[i];
            acc += y[i];
        }
        for (i in 0..len(r)) {
            s += r[i] * 3;
        }
    }
    return acc + float(s + w[len(w) - 1]);
}
"""


class TestReenteredLoops:
    """One loop entered many times: the per-entry shortcuts (the shared
    int conversion, list-slice moves, the closed-form cost fold) must
    leave cost, values and fuel bit-identical to the scalar tier."""

    @staticmethod
    def _args(n=200):
        rng = np.random.default_rng(43)
        return [iarr(rng.integers(-1000, 1000, n)),
                farr(rng.standard_normal(n))]

    def test_many_entries_in_one_context(self):
        stats = assert_identical(REENTERED, "k",
                                 lambda: self._args() + [150])
        assert stats.bulk_loops == 3 * 150
        assert stats.fallbacks == 0

    def test_fuel_runs_out_between_entries_identically(self):
        _, err, ctx, _ = _run_one(REENTERED, "k", self._args() + [150],
                                  SerialRuntime, False)
        assert err is None
        fuel = int(ctx.cost * 0.6)
        _, err, _, stats = _run_one(REENTERED, "k", self._args() + [150],
                                    SerialRuntime, True, fuel=fuel)
        assert err is not None and "FuelExhausted" in err
        assert stats.bulk_loops > 0
        assert_identical(REENTERED, "k", lambda: self._args() + [150],
                         fuel=fuel)

    # a rank's three passes cost about 19.7k units: 12k runs out mid-way
    @pytest.mark.parametrize("fuel", [None, 12_000])
    def test_many_entries_in_a_512_rank_job(self, fuel):
        out = {}
        for vec in (True, False):
            args = self._args() + [3]
            stats = VecStats()
            res = run_mpi(compiled(REENTERED), "k", args, 512,
                          DEFAULT_MACHINE, fuel=fuel, vectorize=vec,
                          vec_stats=stats)
            err = None if res.error is None else \
                f"{type(res.error).__name__}: {res.error}"
            out[vec] = (res.ret, res.sim_seconds, err,
                        [a.data for a in res.args[:2]], stats.bulk_loops)
        assert out[True][:4] == out[False][:4]
        if fuel is None:
            assert out[True][2] is None
            assert out[True][4] == 512 * 3 * 3
        else:
            assert "FuelExhausted" in out[True][2]

    @pytest.mark.parametrize("c0", [0.0, 3.25, 1e6 + 0.5, 0.1, 2.0 ** 40])
    @pytest.mark.parametrize("weights", [(1.5, 6.0), (1.5, 0.25 + 2.0 ** -16),
                                         (1.5, 0.3, 2.25)])
    def test_cost_fold_matches_sequential_adds(self, c0, weights):
        from repro.runtime.vectorize import _cost_bounds, _final_cost, _Sites
        sites = _Sites(weights[0], list(weights[1:]))
        n = 700
        want = [c0]
        c = c0
        for _ in range(n):
            for w in weights:
                c += w
            want.append(c)
        assert _final_cost(c0, sites, n) == want[-1]
        assert _cost_bounds(c0, sites, n).tolist() == want


class TestArrayRoundTrip:
    def test_to_from_numpy_bulk_round_trip(self):
        rng = np.random.default_rng(41)
        data = rng.standard_normal(10_000)
        a = Array.from_numpy(data)
        assert a.elem == "float"
        back = a.to_numpy()
        assert back.dtype == np.float64
        assert np.array_equal(back, data)
        assert all(type(v) is float for v in a.data[:10])

    def test_int_round_trip(self):
        vals = np.arange(-500, 500, dtype=np.int64)
        a = Array.from_numpy(vals)
        assert a.elem == "int"
        assert all(type(v) is int for v in a.data[:10])
        assert np.array_equal(a.to_numpy(), vals)


# -- property-based differential -------------------------------------------

_COEFFS = st.sampled_from([1, 2, 3, -1])
_OFFS = st.integers(-2, 2)
_OPS = st.sampled_from(["=", "+=", "-=", "*="])


@st.composite
def affine_bodies(draw):
    """A random (often vectorizable, sometimes not) loop body over
    x (read) and y (written), plus an invariant scalar a."""
    coeff = draw(_COEFFS)
    off = draw(_OFFS)
    op = draw(_OPS)
    terms = draw(st.integers(1, 3))
    parts = []
    for _ in range(terms):
        kind = draw(st.sampled_from(["load", "lit", "scalar", "ivar"]))
        if kind == "load":
            c2, o2 = draw(_COEFFS), draw(_OFFS)
            parts.append(f"x[{c2} * i + {o2}]")
        elif kind == "lit":
            parts.append(f"{draw(st.floats(-4, 4, allow_nan=False)):.3f}")
        elif kind == "scalar":
            parts.append("a")
        else:
            parts.append("(i * 0.5)")
    expr = draw(st.sampled_from([" + ", " - ", " * "])).join(parts)
    return f"y[{coeff} * i + {off}] {op} {expr};"


@settings(max_examples=60, deadline=None)
@given(body=affine_bodies(),
       lo=st.integers(0, 4),
       n=st.sampled_from([8, 64, 200]),
       seed=st.integers(0, 2**16))
def test_random_affine_loops_are_tier_invariant(body, lo, n, seed):
    src = f"""
    kernel k(a: float, x: array<float>, y: array<float>) {{
        for (i in {lo}..{lo + n}) {{
            {body}
        }}
    }}
    """
    rng = np.random.default_rng(seed)
    size = lo + n * 3 + 8
    base_x = rng.standard_normal(size)
    base_y = rng.standard_normal(size)
    a = float(rng.standard_normal())

    def make():
        return [a, farr(base_x), farr(base_y)]

    # traps (out-of-bounds from negative lane positions) must also be
    # identical, which assert-style comparison of err covers
    ret1, err1, ctx1, _ = _run_one(src, "k", make(), SerialRuntime, True)
    ret0, err0, ctx0, _ = _run_one(src, "k", make(), SerialRuntime, False)
    assert err1 == err0
    assert ret1 == ret0
    assert ctx1.cost == ctx0.cost
    a1 = make()
    a0 = make()
    _run_one(src, "k", a1, SerialRuntime, True)
    _run_one(src, "k", a0, SerialRuntime, False)
    assert a1[1].data == a0[1].data
    assert a1[2].data == a0[2].data
