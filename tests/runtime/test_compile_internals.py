"""White-box tests for closure-compiler internals."""

import pytest

from repro.lang import parse
from repro.lang.errors import TrapError
from repro.lang.loops import scope_of
from repro.runtime.compile import _idiv, _imod


class TestCDivision:
    @pytest.mark.parametrize("a,b,q", [
        (7, 2, 3), (-7, 2, -3), (7, -2, -3), (-7, -2, 3),
        (6, 3, 2), (0, 5, 0), (1, 1, 1),
    ])
    def test_idiv_truncates_toward_zero(self, a, b, q):
        assert _idiv(a, b) == q

    @pytest.mark.parametrize("a,b,r", [
        (7, 2, 1), (-7, 2, -1), (7, -2, 1), (-7, -2, -1), (6, 3, 0),
    ])
    def test_imod_sign_of_dividend(self, a, b, r):
        assert _imod(a, b) == r

    def test_division_identity(self):
        # a == idiv(a,b)*b + imod(a,b) for all combinations
        for a in range(-20, 21):
            for b in list(range(-5, 0)) + list(range(1, 6)):
                assert _idiv(a, b) * b + _imod(a, b) == a

    def test_zero_divisor_traps(self):
        with pytest.raises(TrapError):
            _idiv(1, 0)
        with pytest.raises(TrapError):
            _imod(1, 0)


def _pfor_of(src: str):
    """Extract the first parallel-for statement of a kernel body."""
    prog = parse(src)
    for stmt in prog.kernels[0].body.stmts:
        if type(stmt).__name__ == "OmpParallelFor":
            return stmt
    raise AssertionError("no parallel for found")


_OUTER_WRITE_CASES = {
    "shared_scalar_detected": ("""
        kernel f(x: array<float>) {
            let t = 0.0;
            pragma omp parallel for
            for (i in 0..len(x)) {
                t = x[i];
            }
        }
        """, {"t"}),
    "loop_local_let_is_private": ("""
        kernel f(x: array<float>) {
            pragma omp parallel for
            for (i in 0..len(x)) {
                let t = x[i];
                t = t * 2.0;
                x[i] = t;
            }
        }
        """, set()),
    "nested_loop_var_private": ("""
        kernel f(m: array2d<float>) {
            pragma omp parallel for
            for (i in 0..rows(m)) {
                for (j in 0..cols(m)) {
                    m[i, j] = 0.0;
                }
            }
        }
        """, set()),
    "critical_protected_write_excluded": ("""
        kernel f(x: array<float>) {
            let total = 0.0;
            pragma omp parallel for
            for (i in 0..len(x)) {
                pragma omp critical
                {
                    total += x[i];
                }
            }
        }
        """, set()),
    "atomic_protected_write_excluded": ("""
        kernel f(x: array<float>) {
            let total = 0.0;
            pragma omp parallel for
            for (i in 0..len(x)) {
                pragma omp atomic
                total += x[i];
            }
        }
        """, set()),
    "lambda_params_private": ("""
        kernel f(x: array<float>) {
            pragma omp parallel for
            for (i in 0..len(x)) {
                parallel_for(4, (q) => {
                    x[q] = 0.0;
                });
            }
        }
        """, set()),
    "multiple_shared_writes": ("""
        kernel f(x: array<float>) {
            let a = 0.0;
            let b = 0.0;
            pragma omp parallel for
            for (i in 0..len(x)) {
                a = x[i];
                b = a + 1.0;
            }
        }
        """, {"a", "b"}),
    "reduction_variable_excluded": ("""
        kernel f(x: array<float>) {
            let total = 0.0;
            let last = 0.0;
            pragma omp parallel for reduction(+: total)
            for (i in 0..len(x)) {
                total += x[i];
                last = x[i];
            }
        }
        """, {"last"}),
    "reassigned_loop_variable_is_private": ("""
        kernel f(x: array<float>) {
            pragma omp parallel for
            for (i in 0..len(x)) {
                i = 0;
                x[i] = 1.0;
            }
        }
        """, set()),
}


class TestOuterWriteAnalysis:
    """The compiler's ``outer_writes``: the shared write set of
    :func:`repro.lang.loops.scope_of` minus reduction variables."""

    @pytest.mark.parametrize("case", sorted(_OUTER_WRITE_CASES))
    def test_outer_writes(self, case):
        src, expected = _OUTER_WRITE_CASES[case]
        pf = _pfor_of(src)
        reductions = [c.var for c in pf.clauses if c.kind == "reduction"]
        shared = scope_of(pf.loop.body, pf.loop.var).shared_writes(reductions)
        assert {name for name, _, _ in shared} == expected
