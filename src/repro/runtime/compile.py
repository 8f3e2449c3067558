"""Closure compiler: lower a type-checked MiniPar AST to Python closures.

A tree-walking interpreter re-dispatches on node types every execution; we
instead compile each node once into a closure (``fn(env, ctx) -> value``),
the standard fast-interpreter technique.  Each *statement* closure also
adds a statically pre-computed op-unit weight to the context's cost
counter, so simulated time falls out of execution with one float add per
statement rather than per-node instrumentation.

Statement closures return a control signal:

* ``None``      — fall through
* ``_BREAK``    — break innermost loop
* ``_CONT``     — continue innermost loop
* ``(value,)``  — return from the kernel (1-tuple so ``None`` returns work)

Parallel constructs (OpenMP pragmas, Kokkos patterns, MPI/GPU builtins)
dispatch through ``ctx.rt`` so the same compiled program runs under every
execution model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

from ..lang import ast, effects, loops
from ..lang import builtins as bi
from ..lang import types as T
from ..lang.errors import RuntimeFailure, TrapError
from ..lang.typecheck import CheckedProgram
from .context import ExecCtx
from .tracer import ATOMIC
from .values import Array
from . import vectorize as _vec

_BREAK = object()
_CONT = object()

ExprFn = Callable[[dict, ExecCtx], object]
StmtFn = Callable[[dict, ExecCtx], object]

# Static op-unit weights (see machine.py for the unit scale).
W_NAME = 0.5
W_LIT = 0.25
W_BIN = 1.0
W_UN = 0.5
W_LOAD = 2.0
W_STORE = 2.0
W_LOAD2D = 2.5
W_CALL = 5.0
W_MATH = 4.0
W_LOOP_ITER = 1.5

#: user-kernel calls that may be in progress at once.  Each MiniPar call
#: level costs several Python frames (four for plain recursion), so past
#: this a call is a MiniPar runtime failure, before Python's recursion
#: limit, which fires at a depth that depends on how deep the host stack
#: already is (pytest, a pool worker, an MPI rank thread).
MAX_CALL_DEPTH = 64


@dataclass
class LamClosure:
    """A compiled lambda (Kokkos functor)."""

    params: Tuple[str, ...]
    body: Callable          # expr fn or block fn
    is_expr: bool
    weight: float           # static per-call weight
    vec_plan: Optional["_vec.VecPlan"] = None   # bulk tier, when eligible

    def call1(self, env: dict, ctx: ExecCtx, i: int):
        """Invoke with a single int argument (the pattern index)."""
        env[self.params[0]] = i
        if self.is_expr:
            return self.body(env, ctx)
        sig = self.body(env, ctx)
        if sig is not None and type(sig) is not tuple and sig is not _CONT:
            raise RuntimeFailure("illegal control flow escaping a lambda")
        return None


@dataclass
class PForInfo:
    """Everything a runtime needs to execute one OpenMP parallel for."""

    var: str
    lo: ExprFn
    hi: ExprFn
    step: Optional[ExprFn]
    body: StmtFn
    reductions: Tuple[Tuple[str, str], ...]   # (op, var)
    schedule: str
    num_threads: Optional[ExprFn]
    outer_writes: Tuple[str, ...]             # unprotected shared-scalar writes
    iter_weight: float
    where: str
    vec_plan: Optional["_vec.VecPlan"] = None  # bulk tier, when eligible


@dataclass
class CompiledKernel:
    name: str
    param_names: Tuple[str, ...]
    fn: Callable[[ExecCtx, Sequence[object]], object]


class CompiledProgram:
    """A fully compiled MiniPar program, executable under any runtime."""

    def __init__(self, checked: CheckedProgram):
        self.checked = checked
        self.kernels: Dict[str, CompiledKernel] = {}
        self._written: Optional[Dict[str, FrozenSet[int]]] = None

    def run_kernel(self, name: str, ctx: ExecCtx, args: Sequence[object]):
        return self.kernels[name].fn(ctx, args)

    def written_params(self, name: str) -> Optional[FrozenSet[int]]:
        """Positions of the parameters kernel ``name`` may write
        (:func:`repro.lang.effects.written_params`, computed once), or
        None when the program has no such kernel."""
        if self._written is None:
            self._written = effects.written_params(self.checked.program)
        return self._written.get(name)


# --------------------------------------------------------------------------
# helpers shared by generated closures
# --------------------------------------------------------------------------


def _idiv(a: int, b: int) -> int:
    """C-style truncating integer division."""
    if b == 0:
        raise TrapError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _imod(a: int, b: int) -> int:
    """C-style remainder (sign of dividend)."""
    if b == 0:
        raise TrapError("integer modulo by zero")
    return a - _idiv(a, b) * b


def _fdiv(a: float, b: float) -> float:
    if b == 0:
        raise TrapError("float division by zero")
    return a / b


def _bounds1(arr: Array, i: int) -> int:
    if type(i) is not int:
        i = int(i)
    if 0 <= i < arr.shape[0]:
        return i
    raise TrapError(f"index {i} out of bounds for array of length {arr.shape[0]}")


def _flat2(arr: Array, i: int, j: int) -> int:
    r, c = arr.shape
    if 0 <= i < r and 0 <= j < c:
        return i * c + j
    raise TrapError(f"index ({i}, {j}) out of bounds for array2d{arr.shape}")


def _touch_whole_array(ctx: ExecCtx, arr: Array, write: bool) -> None:
    """Record a bulk array operation with the tracer (first 64 elements)."""
    t = ctx.trace
    if t is None:
        return
    t.touch_block(arr, min(64, len(arr.data)), write, ctx.protection)


# --------------------------------------------------------------------------
# the compiler
# --------------------------------------------------------------------------


class Compiler:
    def __init__(self, checked: CheckedProgram):
        self.checked = checked
        self.program = CompiledProgram(checked)
        # closures look kernels up through this dict so definition order
        # and mutual recursion don't matter
        self._kernel_fns: Dict[str, Callable] = {}

    def compile(self) -> CompiledProgram:
        for k in self.checked.program.kernels:
            ck = self._compile_kernel(k)
            self.program.kernels[k.name] = ck
            self._kernel_fns[k.name] = ck.fn
        return self.program

    # -- kernels ------------------------------------------------------------

    def _compile_kernel(self, k: ast.Kernel) -> CompiledKernel:
        body = self._compile_block(k.body)
        names = tuple(p.name for p in k.params)
        nparams = len(names)

        def fn(ctx: ExecCtx, args: Sequence[object]):
            if len(args) != nparams:
                raise RuntimeFailure(
                    f"kernel {k.name!r} called with {len(args)} args, "
                    f"expected {nparams}"
                )
            env = dict(zip(names, args))
            ctx.cost += W_CALL
            sig = body(env, ctx)
            if type(sig) is tuple:
                return sig[0]
            return None

        return CompiledKernel(name=k.name, param_names=names, fn=fn)

    # -- statements -----------------------------------------------------------

    def _compile_block(self, b: ast.Block) -> StmtFn:
        fns = [self._compile_stmt(s) for s in b.stmts]
        if len(fns) == 1:
            return fns[0]

        def run(env: dict, ctx: ExecCtx):
            for f in fns:
                sig = f(env, ctx)
                if sig is not None:
                    return sig
            return None

        return run

    def _compile_stmt(self, s: ast.Stmt) -> StmtFn:
        if isinstance(s, ast.Block):
            return self._compile_block(s)
        if isinstance(s, ast.Let):
            return self._compile_let(s)
        if isinstance(s, ast.Assign):
            return self._compile_assign(s)
        if isinstance(s, ast.If):
            return self._compile_if(s)
        if isinstance(s, ast.For):
            return self._compile_for(s)
        if isinstance(s, ast.While):
            return self._compile_while(s)
        if isinstance(s, ast.Return):
            return self._compile_return(s)
        if isinstance(s, ast.Break):
            return lambda env, ctx: _BREAK
        if isinstance(s, ast.Continue):
            return lambda env, ctx: _CONT
        if isinstance(s, ast.ExprStmt):
            f, w = self._compile_expr(s.expr)
            weight = w

            def run_expr(env: dict, ctx: ExecCtx):
                ctx.cost += weight
                f(env, ctx)
                return None

            return run_expr
        if isinstance(s, ast.OmpParallelFor):
            return self._compile_omp_parallel_for(s)
        if isinstance(s, ast.OmpCritical):
            body = self._compile_block(s.body)
            return lambda env, ctx: ctx.rt.omp_critical(env, ctx, body)
        if isinstance(s, ast.OmpAtomic):
            return self._compile_omp_atomic(s)
        raise AssertionError(f"unknown statement {type(s).__name__}")

    def _compile_let(self, s: ast.Let) -> StmtFn:
        init, w = self._compile_expr(s.init)
        name = s.name
        weight = w + W_NAME
        # materialise the declared numeric kind (let x: float = 1 stores 1.0)
        to_float = s.declared is T.FLOAT and self.checked.type_of(s.init) is T.INT

        if to_float:
            def run(env: dict, ctx: ExecCtx):
                ctx.cost += weight
                env[name] = float(init(env, ctx))
                return None
        else:
            def run(env: dict, ctx: ExecCtx):
                ctx.cost += weight
                env[name] = init(env, ctx)
                return None

        return run

    def _compile_assign(self, s: ast.Assign) -> StmtFn:
        value, wv = self._compile_expr(s.value)
        op = s.op
        if isinstance(s.target, ast.Name):
            name = s.target.ident
            target_t = self.checked.expr_types.get(id(s.target))
            to_float = target_t is T.FLOAT and self.checked.type_of(s.value) is T.INT
            weight = wv + W_NAME

            if op == "=":
                if to_float:
                    def run(env: dict, ctx: ExecCtx):
                        ctx.cost += weight
                        env[name] = float(value(env, ctx))
                        return None
                else:
                    def run(env: dict, ctx: ExecCtx):
                        ctx.cost += weight
                        env[name] = value(env, ctx)
                        return None
                return run

            apply = _COMPOUND[op]
            is_int_target = target_t is T.INT

            def run(env: dict, ctx: ExecCtx):
                ctx.cost += weight + W_BIN
                result = apply(env[name], value(env, ctx))
                env[name] = int(result) if is_int_target else result
                return None

            return run

        # indexed store
        assert isinstance(s.target, ast.Index)
        base, wb = self._compile_expr(s.target.base)
        elem_t = self.checked.type_of(s.target)
        to_float = elem_t is T.FLOAT and self.checked.type_of(s.value) is T.INT
        is_int_elem = elem_t is T.INT

        if len(s.target.indices) == 1:
            idx, wi = self._compile_expr(s.target.indices[0])
            weight = wv + wb + wi + W_STORE

            if op == "=":
                def run(env: dict, ctx: ExecCtx):
                    ctx.cost += weight
                    a = base(env, ctx)
                    i = _bounds1(a, idx(env, ctx))
                    v = value(env, ctx)
                    t = ctx.trace
                    if t is not None:
                        t.write(a, i, ctx.protection)
                    a.data[i] = float(v) if to_float else v
                    return None
                return run

            apply = _COMPOUND[op]

            def run(env: dict, ctx: ExecCtx):
                ctx.cost += weight + W_BIN + W_LOAD
                a = base(env, ctx)
                i = _bounds1(a, idx(env, ctx))
                t = ctx.trace
                if t is not None:
                    prot = ctx.protection
                    t.read(a, i, prot)
                    t.write(a, i, prot)
                result = apply(a.data[i], value(env, ctx))
                a.data[i] = int(result) if is_int_elem else result
                return None

            return run

        # 2-D store
        i0, w0 = self._compile_expr(s.target.indices[0])
        i1, w1 = self._compile_expr(s.target.indices[1])
        weight = wv + wb + w0 + w1 + W_LOAD2D

        if op == "=":
            def run(env: dict, ctx: ExecCtx):
                ctx.cost += weight
                a = base(env, ctx)
                flat = _flat2(a, i0(env, ctx), i1(env, ctx))
                v = value(env, ctx)
                t = ctx.trace
                if t is not None:
                    t.write(a, flat, ctx.protection)
                a.data[flat] = float(v) if to_float else v
                return None
            return run

        apply = _COMPOUND[op]

        def run(env: dict, ctx: ExecCtx):
            ctx.cost += weight + W_BIN + W_LOAD2D
            a = base(env, ctx)
            flat = _flat2(a, i0(env, ctx), i1(env, ctx))
            t = ctx.trace
            if t is not None:
                prot = ctx.protection
                t.read(a, flat, prot)
                t.write(a, flat, prot)
            result = apply(a.data[flat], value(env, ctx))
            a.data[flat] = int(result) if is_int_elem else result
            return None

        return run

    def _compile_if(self, s: ast.If) -> StmtFn:
        cond, wc = self._compile_expr(s.cond)
        then = self._compile_block(s.then)
        orelse = self._compile_stmt(s.orelse) if s.orelse is not None else None
        weight = wc + W_UN

        if orelse is None:
            def run(env: dict, ctx: ExecCtx):
                ctx.cost += weight
                if cond(env, ctx):
                    return then(env, ctx)
                return None
            return run

        def run(env: dict, ctx: ExecCtx):
            ctx.cost += weight
            if cond(env, ctx):
                return then(env, ctx)
            return orelse(env, ctx)

        return run

    def _compile_for(self, s: ast.For) -> StmtFn:
        lo, wl = self._compile_expr(s.lo)
        hi, wh = self._compile_expr(s.hi)
        step = self._compile_expr(s.step)[0] if s.step is not None else None
        body = self._compile_block(s.body)
        var = s.var
        header = wl + wh + W_LOOP_ITER
        vec_plan = _vec.build_stmt_plan(self, var, s.body.stmts)

        def run(env: dict, ctx: ExecCtx):
            ctx.cost += header
            start = lo(env, ctx)
            stop = hi(env, ctx)
            inc = step(env, ctx) if step is not None else 1
            if inc <= 0:
                raise TrapError(f"for-loop step must be positive, got {inc}")
            if vec_plan is not None and _vec.run_serial(
                vec_plan, env, ctx, start, stop, inc, W_LOOP_ITER
            ):
                return None
            i = start
            fuel = ctx.fuel
            while i < stop:
                ctx.cost += W_LOOP_ITER
                if ctx.cost > fuel:
                    ctx.check_fuel()
                env[var] = i
                sig = body(env, ctx)
                if sig is not None:
                    if sig is _BREAK:
                        return None
                    if sig is not _CONT:
                        return sig  # a return tuple
                i += inc
            return None

        return run

    def _compile_while(self, s: ast.While) -> StmtFn:
        cond, wc = self._compile_expr(s.cond)
        body = self._compile_block(s.body)
        per_iter = wc + W_LOOP_ITER
        runaway = self._runaway_guard(s, cond)

        def run(env: dict, ctx: ExecCtx):
            if runaway is not None and runaway(env, ctx):
                ctx.exhaust_fuel()
            fuel = ctx.fuel
            while True:
                ctx.cost += per_iter
                if ctx.cost > fuel:
                    ctx.check_fuel()
                if not cond(env, ctx):
                    return None
                sig = body(env, ctx)
                if sig is not None:
                    if sig is _BREAK:
                        return None
                    if sig is not _CONT:
                        return sig

        return run

    def _runaway_guard(self, s: ast.While, cond: ExprFn
                       ) -> Optional[Callable[[dict, ExecCtx], bool]]:
        """Recognize a ``while`` loop that provably never exits.

        The body must be only ``name += L`` / ``name -= L`` on int or
        float scalars (L a literal :func:`repro.lang.loops.fold_literal`
        folds), the condition ``x OP b`` (OP in ``< <= > >=``) on a
        stepped ``x`` and a literal or unassigned name ``b``, and no step
        may move ``x`` toward the exit.  Steps on
        unbounded Python ints and IEEE floats are monotone and the tracer
        sees no scalars, so such a loop can only spin until the fuel
        check raises (docs/harness.md §Timeouts).  Returns the run-time
        half of the test (finite fuel, exact scalar types, condition true
        at entry), or None.
        """

        def kind_of(e: ast.Name) -> Optional[type]:
            t = self.checked.expr_types.get(id(e))
            return {T.INT: int, T.FLOAT: float}.get(t)

        kinds: Dict[str, type] = {}
        steps: List[Tuple[str, float]] = []
        for st in s.body.stmts:
            if not (isinstance(st, ast.Assign) and st.op in ("+=", "-=")
                    and isinstance(st.target, ast.Name)):
                return None
            kind, step = kind_of(st.target), loops.fold_literal(st.value)
            # finite and float-convertible; int targets take int steps only
            if (kind is None or step is None or not abs(step) < 2 ** 63
                    or (kind is int and type(step) is not int)):
                return None
            kinds[st.target.ident] = kind
            steps.append((st.target.ident, step if st.op == "+=" else -step))
        c = s.cond
        if not (isinstance(c, ast.Binary) and c.op in _FLIP):
            return None
        x, bound, op = c.left, c.right, c.op
        if not (isinstance(x, ast.Name) and x.ident in kinds):
            x, bound, op = bound, x, _FLIP[op]
        if not (isinstance(x, ast.Name) and x.ident in kinds):
            return None
        types = dict(kinds)
        if isinstance(bound, ast.Name):
            if bound.ident in kinds or kind_of(bound) is None:
                return None
            types[bound.ident] = kind_of(bound)
        elif loops.fold_literal(bound) is None:
            return None
        # x > b and x >= b exit once x falls; x < b and x <= b once it rises
        away = 1 if op in (">", ">=") else -1
        if any(name == x.ident and step * away <= 0 for name, step in steps):
            return None

        def runaway(env: dict, ctx: ExecCtx) -> bool:
            return (math.isfinite(ctx.fuel)
                    and all(type(env.get(n)) is k for n, k in types.items())
                    and bool(cond(env, ctx)))

        return runaway

    def _compile_return(self, s: ast.Return) -> StmtFn:
        if s.value is None:
            return lambda env, ctx: (None,)
        value, wv = self._compile_expr(s.value)
        weight = wv

        def run(env: dict, ctx: ExecCtx):
            ctx.cost += weight
            return (value(env, ctx),)

        return run

    # -- OpenMP constructs -------------------------------------------------------

    def _compile_omp_parallel_for(self, s: ast.OmpParallelFor) -> StmtFn:
        loop = s.loop
        lo, _ = self._compile_expr(loop.lo)
        hi, _ = self._compile_expr(loop.hi)
        step = self._compile_expr(loop.step)[0] if loop.step is not None else None
        body = self._compile_block(loop.body)

        reductions: List[Tuple[str, str]] = []
        schedule = "static"
        num_threads: Optional[ExprFn] = None
        for c in s.clauses:
            if c.kind == "reduction":
                reductions.append((c.op, c.var))
            elif c.kind == "schedule":
                schedule = c.schedule
            elif c.kind == "num_threads" and c.value is not None:
                num_threads = self._compile_expr(c.value)[0]

        shared = loops.scope_of(loop.body, loop.var).shared_writes(
            v for _, v in reductions)
        outer_writes = tuple(sorted({name for name, _, _ in shared}))

        info = PForInfo(
            var=loop.var, lo=lo, hi=hi, step=step, body=body,
            reductions=tuple(reductions), schedule=schedule,
            num_threads=num_threads, outer_writes=outer_writes,
            iter_weight=W_LOOP_ITER,
            where=f"omp parallel for at line {s.line}",
            vec_plan=_vec.build_stmt_plan(self, loop.var, loop.body.stmts),
        )

        def run(env: dict, ctx: ExecCtx):
            ctx.rt.omp_parallel_for(env, ctx, info)
            return None

        return run

    def _compile_omp_atomic(self, s: ast.OmpAtomic) -> StmtFn:
        update = self._compile_assign(s.update)
        scalar_key = None
        if isinstance(s.update.target, ast.Name):
            scalar_key = ("scalar", s.update.target.ident)

        def run(env: dict, ctx: ExecCtx):
            ctx.rt.omp_atomic(env, ctx, update, scalar_key)
            return None

        return run

    # -- expressions --------------------------------------------------------------

    def _compile_expr(self, e: ast.Expr) -> Tuple[ExprFn, float]:
        if isinstance(e, ast.IntLit):
            v = e.value
            return (lambda env, ctx: v), W_LIT
        if isinstance(e, ast.FloatLit):
            v = e.value
            return (lambda env, ctx: v), W_LIT
        if isinstance(e, ast.BoolLit):
            v = e.value
            return (lambda env, ctx: v), W_LIT
        if isinstance(e, ast.StrLit):
            v = e.value
            return (lambda env, ctx: v), 0.0
        if isinstance(e, ast.Name):
            ident = e.ident
            return (lambda env, ctx: env[ident]), W_NAME
        if isinstance(e, ast.Unary):
            f, w = self._compile_expr(e.operand)
            if e.op == "-":
                return (lambda env, ctx: -f(env, ctx)), w + W_UN
            return (lambda env, ctx: not f(env, ctx)), w + W_UN
        if isinstance(e, ast.Binary):
            return self._compile_binary(e)
        if isinstance(e, ast.Index):
            return self._compile_index_load(e)
        if isinstance(e, ast.Call):
            return self._compile_call(e)
        raise AssertionError(f"unexpected expression {type(e).__name__}")

    def _compile_binary(self, e: ast.Binary) -> Tuple[ExprFn, float]:
        lf, wl = self._compile_expr(e.left)
        rf, wr = self._compile_expr(e.right)
        w = wl + wr + W_BIN
        op = e.op
        if op == "&&":
            return (lambda env, ctx: lf(env, ctx) and rf(env, ctx)), w
        if op == "||":
            return (lambda env, ctx: lf(env, ctx) or rf(env, ctx)), w
        if op == "/":
            both_int = (
                self.checked.type_of(e.left) is T.INT
                and self.checked.type_of(e.right) is T.INT
            )
            if both_int:
                return (lambda env, ctx: _idiv(lf(env, ctx), rf(env, ctx))), w + 3
            return (lambda env, ctx: _fdiv(lf(env, ctx), rf(env, ctx))), w + 3
        if op == "%":
            return (lambda env, ctx: _imod(lf(env, ctx), rf(env, ctx))), w + 3
        fn = _BINOPS[op]
        return (lambda env, ctx: fn(lf(env, ctx), rf(env, ctx))), w

    def _compile_index_load(self, e: ast.Index) -> Tuple[ExprFn, float]:
        base, wb = self._compile_expr(e.base)
        if len(e.indices) == 1:
            idx, wi = self._compile_expr(e.indices[0])

            def load(env: dict, ctx: ExecCtx):
                a = base(env, ctx)
                i = _bounds1(a, idx(env, ctx))
                t = ctx.trace
                if t is not None:
                    t.read(a, i, ctx.protection)
                return a.data[i]

            return load, wb + wi + W_LOAD

        i0, w0 = self._compile_expr(e.indices[0])
        i1, w1 = self._compile_expr(e.indices[1])

        def load2(env: dict, ctx: ExecCtx):
            a = base(env, ctx)
            flat = _flat2(a, i0(env, ctx), i1(env, ctx))
            t = ctx.trace
            if t is not None:
                t.read(a, flat, ctx.protection)
            return a.data[flat]

        return load2, wb + w0 + w1 + W_LOAD2D

    # -- calls -------------------------------------------------------------------

    def _compile_call(self, e: ast.Call) -> Tuple[ExprFn, float]:
        sig = bi.get(e.func)
        if sig is None:
            return self._compile_user_call(e)
        factory = _BUILTIN_COMPILERS.get(e.func)
        if factory is None:  # pragma: no cover - catalog/compiler mismatch
            raise AssertionError(f"builtin {e.func!r} has no compiler")
        return factory(self, e)

    def _compile_user_call(self, e: ast.Call) -> Tuple[ExprFn, float]:
        arg_fns: List[ExprFn] = []
        w = W_CALL
        for a in e.args:
            f, wa = self._compile_expr(a)
            arg_fns.append(f)
            w += wa
        table = self._kernel_fns
        name = e.func

        def call(env: dict, ctx: ExecCtx):
            args = [f(env, ctx) for f in arg_fns]
            if ctx.call_depth >= MAX_CALL_DEPTH:
                raise RuntimeFailure(
                    f"call to {name!r} exceeds the call depth limit "
                    f"({MAX_CALL_DEPTH} nested calls)")
            ctx.call_depth += 1
            try:
                return table[name](ctx, args)
            finally:
                ctx.call_depth -= 1

        return call, w

    def _compile_args(self, e: ast.Call) -> Tuple[List[ExprFn], float]:
        fns: List[ExprFn] = []
        w = 0.0
        for a in e.args:
            if isinstance(a, ast.Lambda):
                fns.append(self._compile_lambda(a))  # type: ignore[arg-type]
                continue
            f, wa = self._compile_expr(a)
            fns.append(f)
            w += wa
        return fns, w

    def _compile_lambda(self, lam: ast.Lambda) -> LamClosure:
        plan = None
        if lam.body_expr is not None:
            f, w = self._compile_expr(lam.body_expr)
            if len(lam.params) == 1:
                plan = _vec.build_expr_plan(self, lam.params[0], lam.body_expr)
            return LamClosure(params=lam.params, body=f, is_expr=True,
                              weight=w, vec_plan=plan)
        assert lam.body_block is not None
        f = self._compile_block(lam.body_block)
        if len(lam.params) == 1:
            plan = _vec.build_stmt_plan(self, lam.params[0],
                                        lam.body_block.stmts)
        return LamClosure(params=lam.params, body=f, is_expr=False,
                          weight=0.0, vec_plan=plan)


_BINOPS: Dict[str, Callable] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

#: a comparison with its operands swapped
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

_COMPOUND: Dict[str, Callable] = {
    "+=": lambda a, b: a + b,
    "-=": lambda a, b: a - b,
    "*=": lambda a, b: a * b,
    "/=": lambda a, b: _fdiv(a, b) if isinstance(a, float) or isinstance(b, float)
    else _idiv(a, b),
}


# --------------------------------------------------------------------------
# builtin compilers
# --------------------------------------------------------------------------

BuiltinCompiler = Callable[[Compiler, ast.Call], Tuple[ExprFn, float]]
_BUILTIN_COMPILERS: Dict[str, BuiltinCompiler] = {}


def _builtin(name: str):
    def deco(fn: BuiltinCompiler) -> BuiltinCompiler:
        _BUILTIN_COMPILERS[name] = fn
        return fn
    return deco


def _simple(name: str, weight: float, impl: Callable):
    """Register a builtin whose implementation is a pure function of its
    evaluated arguments."""

    def factory(c: Compiler, e: ast.Call) -> Tuple[ExprFn, float]:
        fns, w = c._compile_args(e)
        if len(fns) == 0:
            return (lambda env, ctx: impl()), weight
        if len(fns) == 1:
            f0 = fns[0]
            return (lambda env, ctx: impl(f0(env, ctx))), w + weight
        if len(fns) == 2:
            f0, f1 = fns
            return (lambda env, ctx: impl(f0(env, ctx), f1(env, ctx))), w + weight
        f0, f1, f2 = fns
        return (
            lambda env, ctx: impl(f0(env, ctx), f1(env, ctx), f2(env, ctx))
        ), w + weight

    _BUILTIN_COMPILERS[name] = factory


def _safe_sqrt(x):
    if x < 0:
        raise TrapError(f"sqrt of negative value {x}")
    return math.sqrt(x)


def _safe_log(x):
    if x <= 0:
        raise TrapError(f"log of non-positive value {x}")
    return math.log(x)


def _safe_pow(x, y):
    try:
        r = math.pow(x, y)
    except (ValueError, OverflowError) as exc:
        raise TrapError(f"pow({x}, {y}) failed: {exc}") from exc
    return r


def _safe_exp(x):
    if x > 700.0:
        raise TrapError(f"exp overflow ({x})")
    return math.exp(x)


_simple("len", 1.0, lambda a: a.shape[0])
_simple("rows", 1.0, lambda a: a.shape[0])
_simple("cols", 1.0, lambda a: a.shape[1])
_simple("min", 1.0, lambda a, b: a if a < b else b)
_simple("max", 1.0, lambda a, b: a if a > b else b)
_simple("abs", 1.0, lambda a: -a if a < 0 else a)
_simple("sqrt", W_MATH, _safe_sqrt)
_simple("sin", W_MATH, math.sin)
_simple("cos", W_MATH, math.cos)
_simple("exp", W_MATH, _safe_exp)
_simple("log", W_MATH, _safe_log)
_simple("floor", 2.0, lambda x: float(math.floor(x)))
_simple("ceil", 2.0, lambda x: float(math.ceil(x)))
_simple("pow", W_MATH * 2, _safe_pow)
_simple("int", 1.0, lambda x: int(x))
_simple("float", 1.0, lambda x: float(x))


@_builtin("select")
def _c_select(c: Compiler, e: ast.Call) -> Tuple[ExprFn, float]:
    cond, wc = c._compile_expr(e.args[0])
    a, wa = c._compile_expr(e.args[1])
    b, wb = c._compile_expr(e.args[2])
    w = wc + max(wa, wb) + W_BIN
    return (lambda env, ctx: a(env, ctx) if cond(env, ctx) else b(env, ctx)), w


def _alloc_guard(n: int) -> int:
    if n < 0:
        raise TrapError(f"allocation of negative size {n}")
    if n > 50_000_000:
        raise TrapError(f"allocation too large ({n} elements)")
    return n


@_builtin("alloc_float")
def _c_alloc_f(c: Compiler, e: ast.Call):
    f, w = c._compile_expr(e.args[0])

    def run(env, ctx):
        n = _alloc_guard(f(env, ctx))
        ctx.charge_alloc(8.0 * n)
        ctx.cost += 0.5 * n
        return Array.zeros(n, "float")

    return run, w + 2.0


@_builtin("alloc_int")
def _c_alloc_i(c: Compiler, e: ast.Call):
    f, w = c._compile_expr(e.args[0])

    def run(env, ctx):
        n = _alloc_guard(f(env, ctx))
        ctx.charge_alloc(8.0 * n)
        ctx.cost += 0.5 * n
        return Array.zeros(n, "int")

    return run, w + 2.0


@_builtin("alloc2d_float")
def _c_alloc2f(c: Compiler, e: ast.Call):
    f0, w0 = c._compile_expr(e.args[0])
    f1, w1 = c._compile_expr(e.args[1])

    def run(env, ctx):
        r = _alloc_guard(f0(env, ctx))
        cc = _alloc_guard(f1(env, ctx))
        _alloc_guard(r * cc)
        ctx.charge_alloc(8.0 * r * cc)
        ctx.cost += 0.5 * r * cc
        return Array.zeros2d(r, cc, "float")

    return run, w0 + w1 + 2.0


@_builtin("alloc2d_int")
def _c_alloc2i(c: Compiler, e: ast.Call):
    f0, w0 = c._compile_expr(e.args[0])
    f1, w1 = c._compile_expr(e.args[1])

    def run(env, ctx):
        r = _alloc_guard(f0(env, ctx))
        cc = _alloc_guard(f1(env, ctx))
        _alloc_guard(r * cc)
        ctx.charge_alloc(8.0 * r * cc)
        ctx.cost += 0.5 * r * cc
        return Array.zeros2d(r, cc, "int")

    return run, w0 + w1 + 2.0


@_builtin("copy")
def _c_copy(c: Compiler, e: ast.Call):
    f, w = c._compile_expr(e.args[0])

    def run(env, ctx):
        a = f(env, ctx)
        ctx.charge_alloc(8.0 * len(a.data))
        ctx.cost += 1.0 * len(a.data)
        _touch_whole_array(ctx, a, write=False)
        return a.copy()

    return run, w + 2.0


@_builtin("fill")
def _c_fill(c: Compiler, e: ast.Call):
    f, w = c._compile_expr(e.args[0])
    fv, wv = c._compile_expr(e.args[1])
    to_float = (
        c.checked.type_of(e.args[0]).elem is T.FLOAT  # type: ignore[union-attr]
        and c.checked.type_of(e.args[1]) is T.INT
    )

    def run(env, ctx):
        a = f(env, ctx)
        v = fv(env, ctx)
        if to_float:
            v = float(v)
        ctx.cost += 1.0 * len(a.data)
        _touch_whole_array(ctx, a, write=True)
        a.data[:] = [v] * len(a.data)
        return None

    return run, w + wv + 2.0


@_builtin("sort")
def _c_sort(c: Compiler, e: ast.Call):
    f, w = c._compile_expr(e.args[0])

    def run(env, ctx):
        a = f(env, ctx)
        n = len(a.data)
        ctx.cost += 6.0 * n * max(1.0, math.log2(max(2, n)))
        _touch_whole_array(ctx, a, write=True)
        a.data.sort()
        return None

    return run, w + 2.0


@_builtin("swap")
def _c_swap(c: Compiler, e: ast.Call):
    f, w = c._compile_expr(e.args[0])
    fi, wi = c._compile_expr(e.args[1])
    fj, wj = c._compile_expr(e.args[2])

    def run(env, ctx):
        a = f(env, ctx)
        i = _bounds1(a, fi(env, ctx))
        j = _bounds1(a, fj(env, ctx))
        t = ctx.trace
        if t is not None:
            prot = ctx.protection
            t.read(a, i, prot)
            t.read(a, j, prot)
            t.write(a, i, prot)
            t.write(a, j, prot)
        d = a.data
        d[i], d[j] = d[j], d[i]
        return None

    return run, w + wi + wj + 4 * W_LOAD


# -- kokkos patterns ---------------------------------------------------------


@_builtin("parallel_for")
def _c_kk_for(c: Compiler, e: ast.Call):
    n_f, wn = c._compile_expr(e.args[0])
    lam = c._compile_lambda(e.args[1])  # type: ignore[arg-type]
    where = f"parallel_for at line {e.line}"

    def run(env, ctx):
        ctx.rt.kokkos_for(env, ctx, n_f(env, ctx), lam, where)
        return None

    return run, wn + W_CALL


@_builtin("parallel_reduce")
def _c_kk_reduce(c: Compiler, e: ast.Call):
    n_f, wn = c._compile_expr(e.args[0])
    op = e.args[1].value  # type: ignore[union-attr]
    lam = c._compile_lambda(e.args[2])  # type: ignore[arg-type]
    where = f"parallel_reduce at line {e.line}"

    def run(env, ctx):
        return ctx.rt.kokkos_reduce(env, ctx, n_f(env, ctx), op, lam, where)

    return run, wn + W_CALL


def _kk_scan(c: Compiler, e: ast.Call, inclusive: bool):
    n_f, wn = c._compile_expr(e.args[0])
    op = e.args[1].value  # type: ignore[union-attr]
    lam = c._compile_lambda(e.args[2])  # type: ignore[arg-type]
    out_f, wo = c._compile_expr(e.args[3])
    where = f"parallel_scan at line {e.line}"

    def run(env, ctx):
        ctx.rt.kokkos_scan(
            env, ctx, n_f(env, ctx), op, lam, out_f(env, ctx), inclusive, where
        )
        return None

    return run, wn + wo + W_CALL


@_builtin("parallel_scan_inclusive")
def _c_kk_scan_inc(c: Compiler, e: ast.Call):
    return _kk_scan(c, e, inclusive=True)


@_builtin("parallel_scan_exclusive")
def _c_kk_scan_exc(c: Compiler, e: ast.Call):
    return _kk_scan(c, e, inclusive=False)


# -- MPI ----------------------------------------------------------------------


def _mpi_dispatch(method: str, str_arg_indices: Tuple[int, ...] = ()):
    """Builtin compiler that forwards evaluated args to ctx.rt.<method>."""

    def factory(c: Compiler, e: ast.Call) -> Tuple[ExprFn, float]:
        fns: List[ExprFn] = []
        w = W_CALL
        for idx, a in enumerate(e.args):
            if idx in str_arg_indices:
                val = a.value  # type: ignore[union-attr]
                fns.append(lambda env, ctx, _v=val: _v)
                continue
            f, wa = c._compile_expr(a)
            fns.append(f)
            w += wa

        if len(fns) == 0:
            def run(env, ctx):
                return getattr(ctx.rt, method)(ctx)
        elif len(fns) == 1:
            f0 = fns[0]

            def run(env, ctx):
                return getattr(ctx.rt, method)(ctx, f0(env, ctx))
        elif len(fns) == 2:
            f0, f1 = fns

            def run(env, ctx):
                return getattr(ctx.rt, method)(ctx, f0(env, ctx), f1(env, ctx))
        else:
            f0, f1, f2 = fns

            def run(env, ctx):
                return getattr(ctx.rt, method)(
                    ctx, f0(env, ctx), f1(env, ctx), f2(env, ctx)
                )

        return run, w

    return factory


for _mpi_name, _method, _str_idx in [
    ("mpi_rank", "mpi_rank", ()),
    ("mpi_size", "mpi_size", ()),
    ("mpi_send", "mpi_send", ()),
    ("mpi_recv_float", "mpi_recv_float", ()),
    ("mpi_recv_int", "mpi_recv_int", ()),
    ("mpi_recv_array_float", "mpi_recv_array_float", ()),
    ("mpi_recv_array_int", "mpi_recv_array_int", ()),
    ("mpi_bcast_float", "mpi_bcast_scalar", ()),
    ("mpi_bcast_int", "mpi_bcast_scalar", ()),
    ("mpi_bcast_array", "mpi_bcast_array", ()),
    ("mpi_reduce_float", "mpi_reduce_scalar", (1,)),
    ("mpi_reduce_int", "mpi_reduce_scalar", (1,)),
    ("mpi_allreduce_float", "mpi_allreduce_scalar", (1,)),
    ("mpi_allreduce_int", "mpi_allreduce_scalar", (1,)),
    ("mpi_reduce_array", "mpi_reduce_array", (1,)),
    ("mpi_allreduce_array", "mpi_allreduce_array", (1,)),
    ("mpi_scatter_array", "mpi_scatter_array", ()),
    ("mpi_gather_array", "mpi_gather_array", ()),
    ("mpi_allgather_array", "mpi_allgather_array", ()),
    ("mpi_scan_float", "mpi_scan_scalar", (1,)),
    ("mpi_scan_int", "mpi_scan_scalar", (1,)),
    ("mpi_barrier", "mpi_barrier", ()),
]:
    _BUILTIN_COMPILERS[_mpi_name] = _mpi_dispatch(_method, _str_idx)


# -- GPU ------------------------------------------------------------------------


@_builtin("thread_idx")
def _c_tid(c: Compiler, e: ast.Call):
    return (lambda env, ctx: ctx.gpu_thread), W_NAME


@_builtin("block_idx")
def _c_bid(c: Compiler, e: ast.Call):
    return (lambda env, ctx: ctx.gpu_block), W_NAME


@_builtin("block_dim")
def _c_bdim(c: Compiler, e: ast.Call):
    return (lambda env, ctx: ctx.gpu_block_dim), W_NAME


@_builtin("grid_dim")
def _c_gdim(c: Compiler, e: ast.Call):
    return (lambda env, ctx: ctx.gpu_grid_dim), W_NAME


@_builtin("sync_threads")
def _c_sync(c: Compiler, e: ast.Call):
    def run(env, ctx):
        ctx.rt.gpu_sync_threads(ctx)
        return None

    return run, 1.0


def _atomic_builtin(name: str, combine: Callable):
    def factory(c: Compiler, e: ast.Call) -> Tuple[ExprFn, float]:
        fa, wa = c._compile_expr(e.args[0])
        fi, wi = c._compile_expr(e.args[1])
        fv, wv = c._compile_expr(e.args[2])
        is_int = c.checked.type_of(e.args[0]).elem is T.INT  # type: ignore[union-attr]

        def run(env, ctx):
            a = fa(env, ctx)
            i = _bounds1(a, fi(env, ctx))
            v = fv(env, ctx)
            t = ctx.trace
            if t is not None:
                t.read(a, i, ATOMIC)
                t.write(a, i, ATOMIC)
            result = combine(a.data[i], v)
            a.data[i] = int(result) if is_int else result
            ctx.cost += ctx.machine.cpu.atomic_op
            return None

        return run, wa + wi + wv + W_LOAD + W_STORE

    _BUILTIN_COMPILERS[name] = factory


_atomic_builtin("atomic_add", lambda a, b: a + b)
_atomic_builtin("atomic_min", lambda a, b: a if a < b else b)
_atomic_builtin("atomic_max", lambda a, b: a if a > b else b)


def compile_program(checked: CheckedProgram) -> CompiledProgram:
    """Compile a checked program into executable closures."""
    missing = [
        n for n in checked.builtins_used if n not in _BUILTIN_COMPILERS
    ]
    if missing:  # pragma: no cover - catalog/compiler mismatch
        raise AssertionError(f"builtins without compilers: {missing}")
    return Compiler(checked).compile()
