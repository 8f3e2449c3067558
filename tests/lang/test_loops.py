"""The shared loop analysis: scopes, affine forms, trip counts, literals."""

import pytest

from repro.lang import ast as A
from repro.lang import compile_source
from repro.lang.loops import affine, fold_literal, scope_of, trip_count
from repro.runtime import vectorize
from repro.runtime.compile import Compiler


def _loop(body: str, params: str = "x: array<int>, y: array<int>, n: int"):
    """The checked program and the first ``for`` of a one-kernel source."""
    checked = compile_source(f"kernel f({params}) {{\n{body}\n}}")
    loop = next(node for node in A.walk(checked.program.kernels[0].body)
                if isinstance(node, A.For))
    return checked, loop


def _store_index(body: str):
    """Affine form, in the first loop's variable, of the one store to
    ``x`` in its body."""
    _, loop = _loop(body)
    store, = (node for node in A.walk(loop.body)
              if isinstance(node, A.Assign) and isinstance(node.target, A.Index)
              and node.target.base.ident == "x")
    return affine(store.target.indices[0], scope_of(loop.body, loop.var))


class TestAffine:
    @pytest.mark.parametrize("index,form", [
        ("i", (1, 0)),
        ("2 * i + 1", (2, 1)),
        ("i * 3 - n", (3, ("neg", ("sym", "n")))),
        ("-(i + 2)", (-1, -2)),
        ("(i + n) * 2", (2, ("*", 2, ("sym", "n")))),
        ("i - i", (0, 0)),
        ("n * n", (0, ("*sym", ("sym", "n"), ("sym", "n")))),
    ])
    def test_affine_shapes(self, index, form):
        body = f"for (i in 0..n) {{ x[{index}] = 0; }}"
        assert _store_index(body) == form

    @pytest.mark.parametrize("index", [
        "x[i]",          # reads memory
        "i * n",         # non-literal coefficient
        "i * i",
        "i + j",         # nested loop variable
        "t",             # mutated local
    ])
    def test_dependent_indices(self, index):
        body = f"""for (i in 0..n) {{
            let t = i;
            t = t + 1;
            for (j in 0..n) {{ x[{index}] = 0; }}
        }}"""
        assert _store_index(body) is None

    def test_let_initializer_is_followed(self):
        body = "for (i in 0..n) { let k = 2 * i + 1; x[k] = 0; }"
        assert _store_index(body) == (2, 1)

    def test_reassigned_loop_variable_is_dependent(self):
        body = "for (i in 0..n) { i = 0; x[i] = 0; }"
        assert _store_index(body) is None


class TestScope:
    def test_one_walk_collects_bindings(self):
        _, loop = _loop("""let s = 0; let flag = true;
            for (i in 0..n) {
                let t = i;
                let tmp = alloc_int(4);
                for (j in 0..n) { tmp[0] = j; }
                parallel_for(4, (q) => { x[q] = 0; });
                s = t;
                if (flag) { s = 1; }
                if (true) { s = 2; }
            }""")
        scope = scope_of(loop.body, loop.var)
        assert scope.locals == {"i", "t", "tmp", "j", "q"}
        assert scope.dep_vars == {"j", "q"}
        assert scope.mutated == {"s"}
        assert scope.private_arrays == {"tmp"}
        assert set(scope.let_inits) == {"t", "tmp"}
        assert [(name, guarded) for name, _, guarded in scope.writes] == [
            ("s", False), ("s", True), ("s", False)]

    def test_a_name_bound_twice_has_no_initializer(self):
        _, loop = _loop("""for (i in 0..n) {
                if (i > 0) { let k = i; x[k] = 0; } else { let k = 0; }
            }""")
        scope = scope_of(loop.body, loop.var)
        assert "k" in scope.locals and "k" not in scope.let_inits

    def test_protection_reaches_into_lambdas(self):
        # a functor launched inside a critical section runs inside it
        _, loop = _loop("""let s = 0;
            for (i in 0..n) {
                pragma omp critical
                {
                    parallel_for(4, (q) => { s += q; });
                }
            }""")
        scope = scope_of(loop.body, loop.var)
        assert scope.mutated == {"s"} and scope.shared_writes() == []


#: index shapes the race lint resolves but the numpy tier cannot evaluate
#: in bulk: ``len(x)`` is a call, outside the bulk offset grammar
LEN_SHAPES = [
    ("len(x) - 1 - i", "n - 1 - i", -1),
    ("len(x) - 1 - (b * 4 + i)", "n - 1 - (b * 4 + i)", -1),
    ("len(x) - i", "n - i", -1),
    ("(i + len(x)) * 2", "(i + n) * 2", 2),
]


class TestBulkGrammar:
    @staticmethod
    def _plan(index: str):
        """Lint form and bulk plan of ``y[index] = x[i]``."""
        checked, loop = _loop(
            f"let b = 1; for (i in 0..n) {{ y[{index}] = x[i]; }}",
            params="x: array<float>, y: array<float>, n: int")
        form = affine(loop.body.stmts[0].target.indices[0],
                      scope_of(loop.body, loop.var))
        plan = vectorize.build_stmt_plan(Compiler(checked), loop.var,
                                         loop.body.stmts)
        return form, plan

    @pytest.mark.parametrize("with_len,with_name,coeff", LEN_SHAPES)
    def test_len_offsets_are_lint_only(self, with_len, with_name, coeff):
        form, plan = self._plan(with_len)
        assert form is not None and form[0] == coeff
        assert plan is None
        form, plan = self._plan(with_name)
        assert form[0] == coeff
        assert [(s.ident, s.coeff) for s in plan.stores] == [("y", coeff)]


class TestGpuIdiom:
    @staticmethod
    def _kernel_index(index: str, gpu: bool):
        checked = compile_source(
            f"kernel k(x: array<int>) {{ x[{index}] = 0; }}")
        body = checked.program.kernels[0].body
        store = body.stmts[0]
        return affine(store.target.indices[0], scope_of(body, gpu=gpu))

    @pytest.mark.parametrize("index", [
        "block_idx() * block_dim() + thread_idx()",
        "thread_idx() + block_dim() * block_idx()",
    ])
    def test_global_thread_index_is_the_variable(self, index):
        assert self._kernel_index(index, gpu=True) == (1, 0)
        assert self._kernel_index(index, gpu=False) is None

    def test_launch_dimensions_are_invariant(self):
        assert self._kernel_index("grid_dim() * block_dim()", gpu=True) == (
            0, ("*sym", ("call", "grid_dim", ()),
                ("call", "block_dim", ())))


def _lit(v):
    return A.IntLit(value=v)


class TestTripCount:
    @pytest.mark.parametrize("lo,hi,step,count", [
        (0, 0, None, 0),
        (5, 2, None, 0),
        (0, 1, None, 1),
        (3, 5, 2, 1),
        (0, 10, 3, 4),
        (0, 2, None, 2),
    ])
    def test_literal_ranges(self, lo, hi, step, count):
        step = None if step is None else _lit(step)
        assert trip_count(_lit(lo), _lit(hi), step) == count

    def test_kokkos_range_counts_from_zero(self):
        assert trip_count(None, _lit(1)) == 1
        assert trip_count(None, _lit(0)) == 0

    @pytest.mark.parametrize("lo,hi,step", [
        (A.Name(ident="n"), _lit(4), None),
        (_lit(0), A.Name(ident="n"), None),
        (_lit(0), _lit(4), _lit(0)),
        (_lit(0), _lit(4), A.Name(ident="s")),
    ])
    def test_non_static_ranges(self, lo, hi, step):
        assert trip_count(lo, hi, step) is None


class TestFoldLiteral:
    @staticmethod
    def _value(expr: str):
        checked = compile_source(
            f"kernel f(n: int) {{ let v = {expr}; }}")
        return fold_literal(checked.program.kernels[0].body.stmts[0].init)

    @pytest.mark.parametrize("expr,value", [
        ("7", 7),
        ("-(2 + 3) * 4", -20),
        ("1 - 2 - 3", -4),
        ("2.5", 2.5),
        ("-1.5", -1.5),
    ])
    def test_folds(self, expr, value):
        got = self._value(expr)
        assert got == value and type(got) is type(value)

    @pytest.mark.parametrize("expr", ["n", "n + 1", "-(-1.5)", "1 + 0.5",
                                      "7 / 2", "true"])
    def test_does_not_fold(self, expr):
        assert self._value(expr) is None
