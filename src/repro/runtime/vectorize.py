"""Tier-2 vectorized execution: affine loop idioms lowered to numpy.

The closure compiler (:mod:`repro.runtime.compile`) executes one Python
closure per statement per iteration.  For the affine, element-wise loop
bodies that dominate the PCGBench corpus (``y[i] = a * x[i] + y[i]``,
``acc += x[i]``, …) that per-iteration dispatch is pure overhead: the
loop's effect on memory, on the simulated clock, and on the tracer is
statically predictable.  This module recognizes such bodies at compile
time and executes them in bulk with numpy, while the scalar closure tier
remains the semantic oracle.

The contract is **observational identity**, not approximation:

* **Cost.**  The scalar tier folds one float add per statement per
  iteration into ``ctx.cost``.  Floating-point addition is not
  associative, so the bulk tier replays the identical add sequence with
  ``np.add.accumulate`` (strictly sequential, bitwise equal to the Python
  fold) and assigns the resulting boundary values.  It uses the closed
  form ``c0 + k * step`` only where no add of the fold can round (every
  term a multiple of 2**-16, every partial sum below 2**37), so the two
  are the same number.  Per-iteration cost profiles are differences of
  those boundaries — again bitwise equal.
* **Values.**  Element-wise float64/int64 ``+ - *`` and int→float
  conversion are bitwise identical between numpy and CPython.  Reductions
  replay the scalar left fold with ``ufunc.accumulate`` (sequential), so
  float reduction *ordering* is preserved exactly.  Int64 overflow (where
  numpy wraps but Python promotes to bignum) is excluded up front by
  interval analysis over the loop body.  A body of plain copies
  (``a[..] = b[..]`` or ``= invariant``) runs as list slice copies: the
  very objects the scalar tier would store, with no conversion at all.
* **Traps and fuel.**  The recognized grammar contains no trapping
  operations (no division, no calls, no float→int stores), so the only
  runtime hazards — out-of-bounds indices, aliased write forms, int64
  overflow, fuel exhaustion — are all decidable *before* mutating
  anything.  Any hazard triggers a clean fall back to the scalar tier,
  which then raises (or runs) exactly as it always did.
* **Tracer.**  Race-detection windows (a prefix and a middle block of
  iterations) fall back to the scalar tier for exactly the sampled
  iterations, so the tracer observes byte-identical access sequences.
  Bulk-eligible loops write through a single injective affine form per
  array, so the interleaved segments commute with iteration order.

See ``docs/vectorize.md`` for the full grammar and the exactness
argument.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..lang import ast, loops
from ..lang import types as T
from .tracer import ATOMIC, Tracer
from .values import Array

__all__ = [
    "VecStats", "VecPlan", "build_stmt_plan", "build_expr_plan",
    "run_serial", "run_windowed",
]

# Magnitude bounds: all int64 intermediates are kept well below 2**63 so
# numpy arithmetic can never wrap where Python would promote to bignum.
_INT_LIMIT = 2 ** 62
_BOUND_LIMIT = 2 ** 60

#: Minimum trip counts before bulk execution pays for its prechecks.
MIN_SERIAL_ITERS = 48
MIN_WINDOWED_ITERS = 160

# Statement-site weights replicated from the closure compiler.  Imported
# lazily (function level) to avoid a module cycle: compile.py imports this
# module from inside its hook methods only.


class VecStats:
    """Process/run-level idiom-hit counters (thread-safe).

    One instance is shared by every ``ExecCtx`` of a sample evaluation
    (including the per-rank contexts of the MPI models) and surfaces in
    ``SampleRecord.vec`` / Telemetry / the serve ``/metrics`` endpoint.
    """

    __slots__ = ("_lock", "bulk_loops", "bulk_iters", "fallbacks")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.bulk_loops = 0
        self.bulk_iters = 0
        self.fallbacks = 0

    def hit(self, iters: int) -> None:
        with self._lock:
            self.bulk_loops += 1
            self.bulk_iters += iters

    def miss(self) -> None:
        with self._lock:
            self.fallbacks += 1

    def as_dict(self, vectorize: bool = True) -> Dict[str, object]:
        with self._lock:
            return {
                "tier": "numpy" if (vectorize and self.bulk_loops) else "scalar",
                "vectorize": vectorize,
                "bulk_loops": self.bulk_loops,
                "bulk_iters": self.bulk_iters,
                "fallbacks": self.fallbacks,
            }


# --------------------------------------------------------------------------
# IR: expressions of the vectorizable grammar
# --------------------------------------------------------------------------


class VNode:
    """One expression node: literal, loop var, invariant name, affine 1-D
    load, binary ``+ - *``, or unary minus."""

    __slots__ = ("kind", "a", "b", "op", "ident", "value",
                 "coeff", "off", "is_int", "has_ivar")

    def __init__(self, kind: str, *, a=None, b=None, op=None, ident=None,
                 value=None, coeff=0, off=None, is_int=False,
                 has_ivar=False):
        self.kind = kind      # "lit" | "ivar" | "name" | "load" | "bin" | "neg"
        self.a = a
        self.b = b
        self.op = op
        self.ident = ident
        self.value = value
        self.coeff = coeff    # loads: static index coefficient on the loop var
        self.off = off        # loads: invariant VNode for the index offset
        self.is_int = is_int
        self.has_ivar = has_ivar


class VStore:
    """``base[c*i + off] <op> value`` with op in ``= += -= *=``."""

    __slots__ = ("ident", "coeff", "off", "value", "op", "to_float",
                 "is_int_elem")

    def __init__(self, ident, coeff, off, value, op, to_float, is_int_elem):
        self.ident = ident
        self.coeff = coeff
        self.off = off
        self.value = value
        self.op = op
        self.to_float = to_float
        self.is_int_elem = is_int_elem


class VReduce:
    """``name <op>= value`` where ``name`` is loop-invariant and appears
    nowhere else in the body (a scalar reduction)."""

    __slots__ = ("name", "op", "value", "is_int_target")

    def __init__(self, name, op, value, is_int_target):
        self.name = name
        self.op = op
        self.value = value
        self.is_int_target = is_int_target


class VecPlan:
    """A compiled bulk-execution plan for one loop body (or Kokkos
    lambda).  ``sites`` replays the scalar tier's per-statement cost adds;
    the per-iteration loop-header weight is supplied by the executing
    runtime (1.5 for ``for``/pfor, ``kokkos_per_element`` for patterns).
    """

    __slots__ = ("var", "stmts", "sites", "value", "names", "loads",
                 "stores", "reds", "moves_only", "iter_sites")

    def __init__(self, var: str, stmts: List[object], sites: List[float],
                 value: Optional[VNode] = None):
        self.var = var
        self.stmts = stmts              # ordered VStore / VReduce
        self.sites = sites              # one float per statement
        self.value = value              # expr-lambda plans only
        # flattened metadata, filled by _index_plan()
        self.names: Tuple[str, ...] = ()
        self.loads: Tuple[VNode, ...] = ()
        self.stores: Tuple[VStore, ...] = ()
        self.reds: Tuple[VReduce, ...] = ()
        #: every statement a plain ``=`` copy of a load or an invariant
        self.moves_only = False
        #: loop-header weight -> per-iteration cost adds, built on first use
        self.iter_sites: Dict[float, "_Sites"] = {}


# --------------------------------------------------------------------------
# plan construction (compile time)
# --------------------------------------------------------------------------

_ALLOWED_BIN = ("+", "-", "*")
_ALLOWED_COMPOUND = ("+=", "-=", "*=")


def _offset(key) -> Optional[VNode]:
    """An affine offset from :func:`repro.lang.loops.affine` as an
    invariant VNode, if it stays inside the bulk grammar: int literals,
    names, ``+ - *`` and negation.  Offsets the race lint still accepts,
    such as ``len(x) - 1``, have no bulk evaluation and reject the loop."""
    if isinstance(key, int):
        return VNode("lit", value=key, is_int=True)
    tag = key[0]
    if tag == "sym":
        return VNode("name", ident=key[1], is_int=True)
    if tag == "neg":
        a = _offset(key[1])
        return None if a is None else VNode("neg", a=a, is_int=True)
    if tag in ("+", "*", "*sym"):
        a, b = _offset(key[1]), _offset(key[2])
        if a is None or b is None:
            return None
        return VNode("bin", op="+" if tag == "+" else "*", a=a, b=b,
                     is_int=True)
    return None


class _Builder:
    """Walks a loop body, building the VNode IR or bailing out."""

    def __init__(self, compiler, var: str, body):
        self.c = compiler
        self.var = var
        self.body = body
        self.scope: Optional[loops.Scope] = None   # walked on first index

    def type_of(self, e: ast.Expr):
        return self.c.checked.type_of(e)

    def expr(self, e: ast.Expr) -> Optional[VNode]:
        if isinstance(e, ast.IntLit):
            return VNode("lit", value=e.value, is_int=True)
        if isinstance(e, ast.FloatLit):
            return VNode("lit", value=e.value, is_int=False)
        if isinstance(e, ast.Name):
            t = self.type_of(e)
            if e.ident == self.var:
                if t is not T.INT:
                    return None
                return VNode("ivar", is_int=True, has_ivar=True)
            if t is T.INT or t is T.FLOAT:
                return VNode("name", ident=e.ident, is_int=t is T.INT)
            return None
        if isinstance(e, ast.Unary):
            if e.op != "-":
                return None
            a = self.expr(e.operand)
            if a is None:
                return None
            return VNode("neg", a=a, is_int=a.is_int, has_ivar=a.has_ivar)
        if isinstance(e, ast.Binary):
            if e.op not in _ALLOWED_BIN:
                return None
            a = self.expr(e.left)
            b = self.expr(e.right)
            if a is None or b is None:
                return None
            return VNode("bin", op=e.op, a=a, b=b,
                         is_int=a.is_int and b.is_int,
                         has_ivar=a.has_ivar or b.has_ivar)
        if isinstance(e, ast.Index):
            return self.load(e)
        return None

    def load(self, e: ast.Index) -> Optional[VNode]:
        if len(e.indices) != 1 or not isinstance(e.base, ast.Name):
            return None
        if e.base.ident == self.var:
            return None
        affine = self.affine(e.indices[0])
        if affine is None:
            return None
        coeff, off = affine
        elem = self.type_of(e)
        if elem is not T.INT and elem is not T.FLOAT:
            return None
        return VNode("load", ident=e.base.ident, coeff=coeff, off=off,
                     is_int=elem is T.INT, has_ivar=True)

    def affine(self, e: ast.Expr) -> Optional[Tuple[int, VNode]]:
        """``coeff * var + offset`` of an index expression, with the
        offset inside the bulk grammar."""
        if self.scope is None:
            self.scope = loops.scope_of(self.body, self.var)
        form = loops.affine(e, self.scope)
        if form is None:
            return None
        off = _offset(form[1])
        return None if off is None else (form[0], off)


def _walk(node: VNode, fn: Callable[[VNode], None]) -> None:
    fn(node)
    for child in (node.a, node.b, node.off):
        if isinstance(child, VNode):
            _walk(child, fn)


def _index_plan(plan: VecPlan) -> Optional[VecPlan]:
    """Flatten node metadata and enforce the reduction isolation rule."""
    names: List[str] = []
    loads: List[VNode] = []

    roots: List[VNode] = []
    if plan.value is not None:
        roots.append(plan.value)
    for s in plan.stmts:
        roots.append(s.value)
        if isinstance(s, VStore):
            roots.append(s.off)

    def visit(n: VNode) -> None:
        if n.kind == "name":
            names.append(n.ident)
        elif n.kind == "load":
            loads.append(n)

    for r in roots:
        _walk(r, visit)

    stores = tuple(s for s in plan.stmts if isinstance(s, VStore))
    reds = tuple(s for s in plan.stmts if isinstance(s, VReduce))

    # a reduction variable may appear exactly once in the body: as its own
    # compound target (otherwise iteration-order dataflow reappears)
    red_names = [r.name for r in reds]
    if len(set(red_names)) != len(red_names):
        return None
    read_names = set(names)
    store_idents = {s.ident for s in stores} | {ld.ident for ld in loads}
    for r in reds:
        if r.name in read_names or r.name in store_idents:
            return None

    plan.names = tuple(sorted(read_names))
    plan.loads = tuple(loads)
    plan.stores = stores
    plan.reds = reds
    plan.moves_only = bool(stores) and not reds and plan.value is None \
        and all(_is_move(s) for s in stores)
    return plan


def _is_move(s: VStore) -> bool:
    """``base[c*i + off] = x[...]`` or ``= invariant`` (loads always
    carry ``has_ivar``): no arithmetic on lanes and no conversion, so
    list slices execute it exactly."""
    return (s.op == "=" and not s.to_float
            and (s.value.kind == "load" or not s.value.has_ivar))


def build_stmt_plan(compiler, var: str, stmts) -> Optional[VecPlan]:
    """Try to build a bulk plan for a loop body (``for``/pfor/Kokkos
    block lambda).  Returns None when any statement falls outside the
    affine element-wise grammar."""
    from .compile import W_BIN, W_LOAD, W_NAME, W_STORE

    b = _Builder(compiler, var, stmts)
    plan_stmts: List[object] = []
    sites: List[float] = []
    checked = compiler.checked

    for s in stmts:
        if not isinstance(s, ast.Assign):
            return None
        value = b.expr(s.value)
        if value is None:
            return None
        _, wv = compiler._compile_expr(s.value)

        if isinstance(s.target, ast.Name):
            if s.op not in _ALLOWED_COMPOUND:
                return None
            name = s.target.ident
            if name == var:
                return None
            target_t = checked.expr_types.get(id(s.target))
            if target_t is not T.INT and target_t is not T.FLOAT:
                return None
            is_int_target = target_t is T.INT
            if is_int_target and not value.is_int:
                return None           # float→int truncation can trap
            if is_int_target and s.op == "*=":
                return None           # unbounded int products overflow
            plan_stmts.append(VReduce(name, s.op, value, is_int_target))
            sites.append((wv + W_NAME) + W_BIN)
            continue

        if not isinstance(s.target, ast.Index):
            return None
        if len(s.target.indices) != 1 or not isinstance(s.target.base, ast.Name):
            return None
        if s.op not in ("=",) + _ALLOWED_COMPOUND:
            return None
        affine = b.affine(s.target.indices[0])
        if affine is None:
            return None
        coeff, off = affine
        if coeff == 0:
            return None               # loop-invariant write target
        elem_t = checked.type_of(s.target)
        if elem_t is not T.INT and elem_t is not T.FLOAT:
            return None
        is_int_elem = elem_t is T.INT
        value_t = checked.type_of(s.value)
        to_float = elem_t is T.FLOAT and value_t is T.INT
        if is_int_elem and not value.is_int:
            return None               # float→int truncation can trap
        _, wb = compiler._compile_expr(s.target.base)
        _, wi = compiler._compile_expr(s.target.indices[0])
        weight = wv + wb + wi + W_STORE
        plan_stmts.append(VStore(s.target.base.ident, coeff, off, value,
                                 s.op, to_float, is_int_elem))
        sites.append(weight if s.op == "=" else weight + W_BIN + W_LOAD)

    if not plan_stmts:
        return None
    return _index_plan(VecPlan(var, plan_stmts, sites))


def build_expr_plan(compiler, var: str, body_expr: ast.Expr) -> Optional[VecPlan]:
    """Plan for a side-effect-free expression lambda (Kokkos reduce/scan
    contributions): all lane values are computed in bulk; the pattern
    runtime folds or scans them."""
    b = _Builder(compiler, var, body_expr)
    value = b.expr(body_expr)
    if value is None:
        return None
    return _index_plan(VecPlan(var, [], [], value=value))


# --------------------------------------------------------------------------
# runtime prechecks + bulk execution
# --------------------------------------------------------------------------

_DTYPES = {True: np.int64, False: np.float64}


class _Prep:
    """Everything the executor needs, established before any mutation."""

    __slots__ = ("arrays", "offsets", "forms", "scal", "lanes", "n",
                 "start", "step")

    def __init__(self):
        self.arrays: Dict[str, Array] = {}
        self.offsets: Dict[int, int] = {}     # id(off VNode) -> value
        self.forms: Dict[str, Tuple[int, int]] = {}   # ident -> (p0, dp)
        self.scal: Dict[str, object] = {}     # invariant name -> value
        #: (uid, p0, dp) -> int64 lanes 0..n-1 of an int load, converted
        #: once by the interval pass and reused by the segment loads
        self.lanes: Dict[Tuple[int, int, int], np.ndarray] = {}


def _eval_inv(node: VNode, env: dict):
    """Evaluate a loop-invariant (load-free) subtree with plain Python
    arithmetic — bitwise identical to the scalar tier."""
    k = node.kind
    if k == "lit":
        return node.value
    if k == "name":
        return env[node.ident]
    if k == "neg":
        return -_eval_inv(node.a, env)
    a = _eval_inv(node.a, env)
    b = _eval_inv(node.b, env)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    return a * b


def _slice_for(p0: int, dp: int, a: int, cnt: int) -> slice:
    """List slice covering lane positions ``p0 + (a+k)*dp`` for k<cnt."""
    first = p0 + a * dp
    stop = first + cnt * dp
    if dp < 0 and stop < 0:
        stop = None
    return slice(first, stop, dp)


class _IntervalState:
    """Abstract int-range interpretation of one loop body pass.

    Written arrays use a single injective affine form, so no value flows
    between iterations through memory; a single in-order pass over the
    statements therefore bounds every int64 intermediate the bulk tier
    will compute.
    """

    def __init__(self, prep: _Prep, i_lo: int, i_hi: int):
        self.prep = prep
        self.i_range = (min(i_lo, i_hi), max(i_lo, i_hi))
        # (uid, p0, dp) -> interval; written arrays have a single form, so
        # a form key tracks store updates while keeping distinct read-only
        # forms of the same array apart
        self.mem: Dict[Tuple[int, int, int], Tuple[int, int]] = {}

    def _form_key(self, ident: str, coeff: int, off: VNode):
        arr = self.prep.arrays[ident]
        offv = self.prep.offsets[id(off)]
        p0 = coeff * self.prep.start + offv
        return arr, (arr.uid, p0, coeff * self.prep.step)

    def form_interval(self, ident: str, coeff: int, off: VNode,
                      n: int) -> Tuple[int, int]:
        arr, key = self._form_key(ident, coeff, off)
        cur = self.mem.get(key)
        if cur is not None:
            return cur
        _, p0, dp = key
        seg = arr.data[_slice_for(p0, dp, 0, n)] if dp else [arr.data[p0]]
        lanes = np.array(seg, dtype=np.int64)   # OverflowError -> fallback
        if dp:
            self.prep.lanes[key] = lanes
        iv = (int(lanes.min()), int(lanes.max()))
        self.mem[key] = iv
        return iv

    def interval(self, node: VNode, n: int) -> Optional[Tuple[int, int]]:
        """Interval of an int node; None for float nodes.  Raises
        _Ineligible when a bound escapes the int64 safety margin."""
        if not node.is_int:
            # still bound any int subtrees feeding this float node
            for child in (node.a, node.b):
                if isinstance(child, VNode):
                    self.interval(child, n)
            return None
        k = node.kind
        if k == "lit":
            iv = (node.value, node.value)
        elif k == "ivar":
            iv = self.i_range
        elif k == "name":
            v = self.prep.scal[node.ident]
            iv = (v, v)
        elif k == "load":
            iv = self.form_interval(node.ident, node.coeff, node.off, n)
        elif k == "neg":
            a = self.interval(node.a, n)
            iv = (-a[1], -a[0])
        else:
            a = self.interval(node.a, n)
            b = self.interval(node.b, n)
            if node.op == "+":
                iv = (a[0] + b[0], a[1] + b[1])
            elif node.op == "-":
                iv = (a[0] - b[1], a[1] - b[0])
            else:
                corners = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
                iv = (min(corners), max(corners))
        if abs(iv[0]) >= _INT_LIMIT or abs(iv[1]) >= _INT_LIMIT:
            raise _Ineligible
        return iv

    def store(self, st: VStore, n: int) -> None:
        val = self.interval(st.value, n)
        if not st.is_int_elem:
            return
        _, key = self._form_key(st.ident, st.coeff, st.off)
        if st.op == "=":
            self.mem[key] = val
            return
        cur = self.form_interval(st.ident, st.coeff, st.off, n)
        if st.op == "+=":
            iv = (cur[0] + val[0], cur[1] + val[1])
        elif st.op == "-=":
            iv = (cur[0] - val[1], cur[1] - val[0])
        else:
            corners = (cur[0] * val[0], cur[0] * val[1],
                       cur[1] * val[0], cur[1] * val[1])
            iv = (min(corners), max(corners))
        if abs(iv[0]) >= _INT_LIMIT or abs(iv[1]) >= _INT_LIMIT:
            raise _Ineligible
        self.mem[key] = iv

    def reduce_guard(self, red: VReduce, acc0, n: int) -> None:
        val = self.interval(red.value, n)
        if not red.is_int_target:
            return
        bound = abs(acc0) + n * max(abs(val[0]), abs(val[1]))
        if bound >= _INT_LIMIT:
            raise _Ineligible


class _Ineligible(Exception):
    """Raised during prechecks: fall back to the scalar tier."""


def _prepare(plan: VecPlan, env: dict, ctx, start: int, stop: int,
             step: int, n: int) -> Optional[_Prep]:
    """Run every precheck; on success the bulk executor cannot trap,
    wrap, run out of fuel mid-loop, or disagree with the scalar tier."""
    try:
        if not (abs(start) < _BOUND_LIMIT and abs(stop) < _BOUND_LIMIT
                and abs(step) < _BOUND_LIMIT):
            raise _Ineligible
        prep = _Prep()
        prep.n = n
        prep.start = start
        prep.step = step

        for ident in plan.names:
            v = env[ident]
            tv = type(v)
            if tv is not int and tv is not float:
                raise _Ineligible
            if tv is int and abs(v) >= _INT_LIMIT:
                raise _Ineligible
            prep.scal[ident] = v

        accesses: List[Tuple[str, int, VNode]] = []
        for ld in plan.loads:
            accesses.append((ld.ident, ld.coeff, ld.off))
        for st in plan.stores:
            accesses.append((st.ident, st.coeff, st.off))

        for ident, _, _ in accesses:
            if ident in prep.arrays:
                continue
            a = env.get(ident)
            if not isinstance(a, Array) or len(a.shape) != 1:
                raise _Ineligible
            prep.arrays[ident] = a

        # resolve offsets and bounds-check every access form
        forms_by_uid: Dict[int, set] = {}
        for ident, coeff, off in accesses:
            if id(off) not in prep.offsets:
                v = _eval_inv(off, env)
                if type(v) is not int or abs(v) >= _BOUND_LIMIT:
                    raise _Ineligible
                prep.offsets[id(off)] = v
            offv = prep.offsets[id(off)]
            arr = prep.arrays[ident]
            p0 = coeff * start + offv
            dp = coeff * step
            length = arr.shape[0]
            last = p0 + (n - 1) * dp
            if not (0 <= p0 < length and 0 <= last < length):
                raise _Ineligible
            forms_by_uid.setdefault(arr.uid, set()).add((p0, dp))

        # aliasing: every access to a written array must share one
        # injective form (uid-level, so aliased names are caught too)
        for s in plan.stores:
            arr = prep.arrays[s.ident]
            offv = prep.offsets[id(s.off)]
            p0 = s.coeff * start + offv
            dp = s.coeff * step
            prep.forms[s.ident] = (p0, dp)
            if dp == 0:
                raise _Ineligible
            if forms_by_uid[arr.uid] != {(p0, dp)}:
                raise _Ineligible

        if plan.moves_only:
            return prep         # list slices compute no int64 intermediate
        # int64 interval analysis over one in-order body pass
        state = _IntervalState(prep, start, start + (n - 1) * step)
        if plan.value is not None:
            state.interval(plan.value, n)
        for s in plan.stmts:
            if isinstance(s, VStore):
                state.store(s, n)
            else:
                acc0 = prep.scal.get(s.name, env.get(s.name))
                tv = type(acc0)
                if tv is not int and tv is not float:
                    raise _Ineligible
                if tv is int and abs(acc0) >= _INT_LIMIT:
                    raise _Ineligible
                state.reduce_guard(s, acc0, n)
        return prep
    except (_Ineligible, OverflowError, KeyError, TypeError):
        if ctx.vec_stats is not None:
            ctx.vec_stats.miss()
        return None


# -- cost replication --------------------------------------------------------

_COST_CHUNK = 1 << 16
#: A fold whose terms are all multiples of 2**-16 and whose partial sums
#: stay below 2**37 in magnitude never rounds: every partial sum is an
#: integer multiple of 2**-16 under 2**53 of them, exactly representable.
#: The fold then equals its closed form bit for bit.
_COST_SCALE = float(1 << 16)
_COST_EXACT = float(1 << 37)


class _Sites:
    """The cost adds of one iteration (the header, then each statement)
    and, when they are all multiples of 2**-16, their exact sum."""

    __slots__ = ("seq", "step", "mag")

    def __init__(self, iter_weight: float, sites: List[float]):
        terms = [iter_weight] + sites
        self.seq = np.asarray(terms, dtype=np.float64)
        self.mag = sum(abs(t) for t in terms)
        exact = all((t * _COST_SCALE).is_integer() for t in terms)
        self.step = sum(terms) if exact and self.mag < _COST_EXACT else None

    def closed(self, c0: float, n: int) -> bool:
        """True when the fold of n iterations from c0 never rounds."""
        return (self.step is not None
                and (c0 * _COST_SCALE).is_integer()
                and abs(c0) + n * self.mag < _COST_EXACT)


def _iter_sites(plan: VecPlan, iter_weight: float) -> _Sites:
    sites = plan.iter_sites.get(iter_weight)
    if sites is None:
        sites = plan.iter_sites[iter_weight] = _Sites(iter_weight, plan.sites)
    return sites


def _fold_chunks(c0: float, site_seq: np.ndarray, n: int):
    """The scalar tier's sequential cost adds, replayed in bounded-memory
    chunks: yields ``(done, cnt, arr)`` where ``arr[j*m]`` is the cost
    after ``done + j`` complete iterations (m sites per iteration)."""
    m = len(site_seq)
    c = c0
    done = 0
    while done < n:
        cnt = min(_COST_CHUNK, n - done)
        arr = np.empty(cnt * m + 1, dtype=np.float64)
        arr[0] = c
        arr[1:].reshape(cnt, m)[...] = site_seq
        np.add.accumulate(arr, out=arr)
        yield done, cnt, arr
        c = float(arr[-1])
        done += cnt


def _final_cost(c0: float, sites: _Sites, n: int) -> float:
    """Final ``ctx.cost`` after n iterations, bitwise equal to the scalar
    tier's sequential adds."""
    if sites.closed(c0, n):
        return c0 + n * sites.step
    c = c0
    for _, _, arr in _fold_chunks(c0, sites.seq, n):
        c = float(arr[-1])
    return c


def _cost_bounds(c0: float, sites: _Sites, n: int) -> np.ndarray:
    """``bounds[k]`` = ctx.cost after k complete iterations (bitwise equal
    to the scalar tier's sequential adds); length n+1."""
    if sites.closed(c0, n):
        return c0 + sites.step * np.arange(n + 1, dtype=np.float64)
    m = len(sites.seq)
    bounds = np.empty(n + 1, dtype=np.float64)
    bounds[0] = c0
    for done, cnt, arr in _fold_chunks(c0, sites.seq, n):
        bounds[done + 1:done + cnt + 1] = arr[m::m]
    return bounds


# -- bulk segment execution --------------------------------------------------


class _SegState:
    __slots__ = ("prep", "env", "a", "b", "cache", "dirty", "i_lanes")

    def __init__(self, prep: _Prep, env: dict, a: int, b: int):
        self.prep = prep
        self.env = env
        self.a = a
        self.b = b
        self.cache: Dict[Tuple[int, int, int], object] = {}
        self.dirty: Dict[Tuple[int, int, int], Tuple[Array, slice, int]] = {}
        self.i_lanes = None

    def lanes_i(self):
        if self.i_lanes is None:
            self.i_lanes = (self.prep.start
                            + self.prep.step * np.arange(self.a, self.b,
                                                         dtype=np.int64))
        return self.i_lanes


def _eval_seg(node: VNode, st: _SegState):
    k = node.kind
    if k == "lit":
        return node.value
    if k == "name":
        return st.prep.scal[node.ident]
    if k == "ivar":
        return st.lanes_i()
    if k == "neg":
        return -_eval_seg(node.a, st)
    if k == "load":
        return _load_seg(node.ident, node.coeff, node.off, node.is_int, st)
    a = _eval_seg(node.a, st)
    b = _eval_seg(node.b, st)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    return a * b


def _load_seg(ident: str, coeff: int, off: VNode, is_int: bool,
              st: _SegState):
    prep = st.prep
    arr = prep.arrays[ident]
    offv = prep.offsets[id(off)]
    p0 = coeff * prep.start + offv
    dp = coeff * prep.step
    if dp == 0:
        return arr.data[p0]
    key = (arr.uid, p0, dp)
    lanes = st.cache.get(key)
    if lanes is None:
        lanes = prep.lanes.get(key)
        if lanes is not None:
            # unmutated until this segment: the written forms are
            # injective, so no earlier segment touched lanes a..b-1
            lanes = lanes[st.a:st.b]
        else:
            sl = _slice_for(p0, dp, st.a, st.b - st.a)
            lanes = np.array(arr.data[sl], dtype=_DTYPES[is_int])
        st.cache[key] = lanes
    return lanes


_RED_IDENT = {"+=": "add", "-=": "add", "*=": "multiply"}


def _exec_moves(plan: VecPlan, prep: _Prep, env: dict, a: int,
                b: int) -> None:
    """Lanes [a, b) of a moves-only plan as list slice copies, statement
    by statement.  Writing each statement back at once is exact for the
    same reason forwarding is: a written array has one injective form,
    so lane k of a statement reads either data no lane writes or what
    lane k of an earlier statement wrote."""
    cnt = b - a
    for s in plan.stmts:
        v = s.value
        if v.kind != "load":
            lanes = [_eval_inv(v, env)] * cnt
        else:
            src = prep.arrays[v.ident].data
            q0 = v.coeff * prep.start + prep.offsets[id(v.off)]
            dq = v.coeff * prep.step
            lanes = src[_slice_for(q0, dq, a, cnt)] if dq else [src[q0]] * cnt
        p0, dp = prep.forms[s.ident]
        prep.arrays[s.ident].data[_slice_for(p0, dp, a, cnt)] = lanes


def _exec_segment(plan: VecPlan, prep: _Prep, env: dict, a: int, b: int,
                  collect: Optional[list] = None) -> None:
    """Execute lanes [a, b) of the loop in bulk: statements in order,
    store-to-load forwarding per array form, write-back at the end."""
    if plan.moves_only:
        _exec_moves(plan, prep, env, a, b)
        return
    st = _SegState(prep, env, a, b)
    cnt = b - a
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        if plan.value is not None and collect is not None:
            val = _eval_seg(plan.value, st)
            if isinstance(val, np.ndarray):
                collect.extend(val.tolist())
            else:
                collect.extend([val] * cnt)
        for s in plan.stmts:
            if isinstance(s, VStore):
                _exec_store(s, st, cnt)
            else:
                _exec_reduce(s, st, env, cnt)
    for key, (arr, sl, seg_cnt) in st.dirty.items():
        lanes = st.cache[key]
        if isinstance(lanes, np.ndarray):
            arr.data[sl] = lanes.tolist()
        else:
            arr.data[sl] = [lanes] * seg_cnt


def _exec_store(s: VStore, st: _SegState, cnt: int) -> None:
    prep = st.prep
    arr = prep.arrays[s.ident]
    p0, dp = prep.forms[s.ident]
    key = (arr.uid, p0, dp)
    val = _eval_seg(s.value, st)
    if s.op == "=":
        if s.to_float:
            val = (val.astype(np.float64)
                   if isinstance(val, np.ndarray) else float(val))
        new = val
    else:
        old = _load_seg(s.ident, s.coeff, s.off, s.is_int_elem, st)
        if s.op == "+=":
            new = old + val
        elif s.op == "-=":
            new = old - val
        else:
            new = old * val
    st.cache[key] = new
    st.dirty[key] = (arr, _slice_for(p0, dp, st.a, cnt), cnt)


def _exec_reduce(s: VReduce, st: _SegState, env: dict, cnt: int) -> None:
    val = _eval_seg(s.value, st)
    acc0 = env[s.name]
    dtype = _DTYPES[s.is_int_target]
    arr = np.empty(cnt + 1, dtype=dtype)
    arr[0] = acc0
    arr[1:] = val
    ufunc = np.add if s.op in ("+=", "-=") else np.multiply
    if s.op == "-=":
        np.negative(arr[1:], out=arr[1:])
    ufunc.accumulate(arr, out=arr)
    result = arr[-1].item()
    env[s.name] = int(result) if s.is_int_target else result


# --------------------------------------------------------------------------
# executors
# --------------------------------------------------------------------------


def _bulk_ok(ctx) -> bool:
    """Bulk execution is transparent only when the tracer cannot observe
    the skipped per-element accesses."""
    if not ctx.vectorize:
        return False
    if ctx.protection == ATOMIC:
        return False
    t = ctx.trace
    return t is None or not t.active


def run_serial(plan: VecPlan, env: dict, ctx, start: int, stop: int,
               step: int, iter_weight: float) -> bool:
    """Bulk path for a serial ``for`` loop (or a pfor executed serially).
    Returns False when the loop must run on the scalar tier."""
    if not _bulk_ok(ctx):
        return False
    n = len(range(start, stop, step))
    if n < MIN_SERIAL_ITERS:
        return False
    prep = _prepare(plan, env, ctx, start, stop, step, n)
    if prep is None:
        return False
    final = _final_cost(ctx.cost, _iter_sites(plan, iter_weight), n)
    if final > ctx.fuel:
        # the scalar tier raises FuelExhausted at the exact back-edge
        if ctx.vec_stats is not None:
            ctx.vec_stats.miss()
        return False
    _exec_segment(plan, prep, env, 0, n)
    ctx.cost = final
    env[plan.var] = start + (n - 1) * step
    if ctx.vec_stats is not None:
        ctx.vec_stats.hit(n)
    return True


def _segments(n: int, windows) -> Optional[List[Tuple[int, int, bool]]]:
    """Ordered (lo, hi, scalar?) segments interleaving trace windows with
    bulk spans; None when the windows are not disjoint and ordered."""
    spans = [(lo, hi) for lo, hi in windows if lo < hi]
    prev = 0
    out: List[Tuple[int, int, bool]] = []
    for lo, hi in spans:
        if lo < prev:
            return None
        if lo > prev:
            out.append((prev, lo, False))
        out.append((lo, hi, True))
        prev = hi
    if prev < n:
        out.append((prev, n, False))
    return out


def run_windowed(plan: VecPlan, env: dict, ctx, start: int, stop: int,
                 step: int, iter_weight: float, where: str,
                 scalar_iter: Callable[[int], None],
                 collect: Optional[list] = None):
    """Bulk path for a profiled parallel loop (OpenMP pfor, Kokkos
    pattern).  Trace-window iterations run on the scalar tier with the
    tracer active; the spans between them run in bulk.  Returns
    ``(costs, crits, tracer)`` exactly as ``_profiled_loop`` would, or
    None to fall back."""
    if not ctx.vectorize or ctx.protection == ATOMIC:
        return None
    n = len(range(start, stop, step))
    if n < MIN_WINDOWED_ITERS:
        return None
    prep = _prepare(plan, env, ctx, start, stop, step, n)
    if prep is None:
        return None
    bounds = _cost_bounds(ctx.cost, _iter_sites(plan, iter_weight), n)
    if bounds[-1] > ctx.fuel:
        if ctx.vec_stats is not None:
            ctx.vec_stats.miss()
        return None
    tracer = Tracer(n)
    segs = _segments(n, tracer.windows)
    if segs is None:
        return None
    prev_trace = ctx.trace
    ctx.trace = tracer
    bulk_iters = 0
    try:
        for lo_k, hi_k, scalar in segs:
            if scalar:
                for k in range(lo_k, hi_k):
                    tracer.begin_iteration(k)
                    ctx.crit_units = 0.0
                    ctx.cost += iter_weight
                    r = scalar_iter(start + k * step)
                    if collect is not None:
                        collect.append(r)
            else:
                _exec_segment(plan, prep, env, lo_k, hi_k, collect=collect)
                ctx.cost = float(bounds[hi_k])
                bulk_iters += hi_k - lo_k
    finally:
        ctx.trace = prev_trace
    ctx.crit_units = 0.0
    # leave the loop variable and tracer cursor exactly as the scalar
    # tier's final iteration would
    env[plan.var] = start + (n - 1) * step
    tracer.begin_iteration(n - 1)
    tracer.check(where)
    costs = bounds[1:] - bounds[:-1]
    crits = np.zeros(n, dtype=np.float64)
    if ctx.vec_stats is not None:
        ctx.vec_stats.hit(bulk_iters)
    return costs, crits, tracer
