"""Loop facts shared by the race lint, the numpy tier and the compiler.

A parallel region (an ``omp parallel for`` body, a Kokkos functor, a GPU
kernel) and a loop the numpy tier may run in bulk are judged on the same
facts, computed here once over type-checked AST nodes:
:func:`scope_of` (what the body binds, mutates and allocates, its
unprotected scalar writes and its array effects), :func:`affine`
(index forms ``coeff*var + off``), :func:`trip_count` and
:func:`fold_literal`.

An offset is a folded, hashable tree: an ``int``, ``("sym", name)`` for
an invariant outer name, ``("+", a, b)``, ``("neg", a)``, ``("*", k, a)``
with an int ``k``, ``("*sym", a, b)``, ``("call", func, args)`` for
``len``/``rows``/``cols`` and the GPU launch dimensions, ``("lit",
repr)`` for other literals, or ``(op, a, b)`` for any other operator.
Callers needing less filter on their side (the numpy tier keeps only
int literals, names, ``+ - *`` and negation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from . import ast as A

#: builtins whose results are loop-invariant when their arguments are
_PURE_INVARIANT = frozenset({"len", "rows", "cols"})
#: GPU intrinsics whose value is the same on every thread
_GPU_INVARIANT = frozenset({"block_dim", "grid_dim"})
#: let-chains and operator nesting deeper than this are not analyzed
_MAX_DEPTH = 8

#: ``(coeff, offset)``; coeff 0 means loop-invariant
Form = Tuple[int, object]


@dataclass
class Scope:
    """What a loop body binds and writes, relative to its variable.

    ``var`` is the loop (or functor) variable; ``""`` when there is none
    (a GPU kernel, whose variable is the global-thread-index idiom, or a
    whole kernel body).  ``gpu`` makes that idiom count as the variable.
    """

    var: str = ""
    gpu: bool = False
    #: names bound inside, the variable included: private to an iteration
    locals: Set[str] = field(default_factory=set)
    #: scalars assigned anywhere inside, protected or not
    mutated: Set[str] = field(default_factory=set)
    #: nested loop and lambda variables: never affine in ``var``
    dep_vars: Set[str] = field(default_factory=set)
    #: arrays allocated inside (``let a = alloc...``)
    private_arrays: Set[str] = field(default_factory=set)
    #: lets bound exactly once inside, by initializer
    let_inits: Dict[str, A.Expr] = field(default_factory=dict)
    #: unprotected scalar writes ``(name, node, guarded)`` in source
    #: order; ``guarded`` when under a branch whose condition is not the
    #: literal ``true``
    writes: List[Tuple[str, A.Assign, bool]] = field(default_factory=list)
    #: array effects ``(node, protected, guarded)`` in source order: an
    #: ``Assign`` to an element of a named array, an ``Index`` read of
    #: one, or a ``Call`` (after its arguments)
    effects: List[Tuple[A.Node, bool, bool]] = field(default_factory=list)

    def shared_writes(self, reductions: Iterable[str] = ()
                      ) -> List[Tuple[str, A.Assign, bool]]:
        """Unprotected writes to scalars declared outside the body,
        minus reduction variables: shared by default, so a data race."""
        skip = self.locals.union(reductions)
        return [w for w in self.writes if w[0] not in skip]


def scope_of(body: Union[A.Node, Iterable[A.Node]], var: str = "",
             dep: Iterable[str] = (), gpu: bool = False) -> Scope:
    """Walk ``body`` (a node or a sequence of statements) once.

    ``dep`` names further per-iteration variables, such as a Kokkos
    functor's trailing parameters: private, and never affine in ``var``.
    """
    scope = Scope(var=var, gpu=gpu)
    dep = tuple(dep)
    scope.dep_vars.update(dep)
    scope.locals.update(dep)
    if var:
        scope.locals.add(var)
    let_bound: Set[str] = set()

    def visit(node: A.Node, protected: bool, guarded: bool) -> None:
        children = None                        # None: every child node
        if isinstance(node, A.Let):
            scope.locals.add(node.name)
            # a name bound in more than one scope is ambiguous: uses in
            # one scope must not resolve through another's initializer
            if node.name in let_bound:
                scope.let_inits.pop(node.name, None)
            else:
                let_bound.add(node.name)
                scope.let_inits[node.name] = node.init
            if isinstance(node.init, A.Call) and \
                    node.init.func.startswith("alloc"):
                scope.private_arrays.add(node.name)
        elif isinstance(node, A.Assign):
            target = node.target
            if isinstance(target, A.Name):
                scope.mutated.add(target.ident)
                if not protected:
                    scope.writes.append((target.ident, node, guarded))
            elif isinstance(target, A.Index) and \
                    isinstance(target.base, A.Name):
                scope.effects.append((node, protected, guarded))
                children = target.indices + (node.value,)
        elif isinstance(node, A.Index) and isinstance(node.base, A.Name):
            scope.effects.append((node, protected, guarded))
            children = node.indices
        elif isinstance(node, A.Call):
            for arg in node.args:
                visit(arg, protected, guarded)
            scope.effects.append((node, protected, guarded))
            return
        elif isinstance(node, A.For):
            scope.dep_vars.add(node.var)
            scope.locals.add(node.var)
        elif isinstance(node, A.Lambda):
            scope.dep_vars.update(node.params)
            scope.locals.update(node.params)
        elif isinstance(node, (A.OmpCritical, A.OmpAtomic)):
            protected = True
        elif isinstance(node, A.If):
            visit(node.cond, protected, guarded)
            # the branch may serialize or skip what it holds
            guarded = guarded or not (isinstance(node.cond, A.BoolLit)
                                       and node.cond.value is True)
            visit(node.then, protected, guarded)
            if node.orelse is not None:
                visit(node.orelse, protected, guarded)
            return
        if children is None:
            children = []
            for slot in node.__dataclass_fields__:
                v = getattr(node, slot)
                if isinstance(v, A.Node):
                    children.append(v)
                elif isinstance(v, tuple):
                    children.extend(x for x in v if isinstance(x, A.Node))
        for child in children:
            visit(child, protected, guarded)

    for node in ((body,) if isinstance(body, A.Node) else body):
        visit(node, False, False)
    return scope


# -- affine forms ---------------------------------------------------------------


def _add(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a + b
    if a == 0:
        return b
    if b == 0:
        return a
    return ("+", a, b)


def _neg(a):
    if isinstance(a, int):
        return -a
    return ("neg", a)


def _scale(k: int, a):
    if isinstance(a, int):
        return k * a
    if k == 1:
        return a
    return ("*", k, a)


def is_global_tid(expr: A.Expr) -> bool:
    """Match ``block_idx() * block_dim() + thread_idx()``, the global
    thread index, in any commutative arrangement."""
    def is_call(e, name):
        return isinstance(e, A.Call) and e.func == name

    def operands(e, op):
        if isinstance(e, A.Binary) and e.op == op:
            return ((e.left, e.right), (e.right, e.left))
        return ()

    return any(is_call(tid, "thread_idx")
               and any(is_call(a, "block_idx") and is_call(b, "block_dim")
                       for a, b in operands(block, "*"))
               for tid, block in operands(expr, "+"))


def affine(expr: A.Expr, scope: Scope, depth: int = 0) -> Optional[Form]:
    """``(coeff, offset)`` of ``expr`` in ``scope.var``, or None."""
    if depth > _MAX_DEPTH:
        return None
    if scope.gpu and is_global_tid(expr):
        return (1, 0)
    if isinstance(expr, A.IntLit):
        return (0, expr.value)
    if isinstance(expr, (A.FloatLit, A.BoolLit, A.StrLit)):
        return (0, ("lit", repr(expr.value)))
    if isinstance(expr, A.Name):
        name = expr.ident
        if name == scope.var:
            # a reassigned loop variable no longer counts iterations
            return None if name in scope.mutated else (1, 0)
        if name in scope.dep_vars or name in scope.mutated:
            return None
        if name in scope.let_inits:
            return affine(scope.let_inits[name], scope, depth + 1)
        if name in scope.locals:
            return None
        return (0, ("sym", name))              # invariant outer name
    if isinstance(expr, A.Unary):
        if expr.op == "-":
            inner = affine(expr.operand, scope, depth + 1)
            if inner is None:
                return None
            return (-inner[0], _neg(inner[1]))
        return None
    if isinstance(expr, A.Binary):
        left = affine(expr.left, scope, depth + 1)
        right = affine(expr.right, scope, depth + 1)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return (left[0] + right[0], _add(left[1], right[1]))
        if expr.op == "-":
            return (left[0] - right[0], _add(left[1], _neg(right[1])))
        if expr.op == "*":
            if left[0] == 0 and isinstance(left[1], int):
                return (left[1] * right[0], _scale(left[1], right[1]))
            if right[0] == 0 and isinstance(right[1], int):
                return (right[1] * left[0], _scale(right[1], left[1]))
            if left[0] == 0 and right[0] == 0:
                return (0, ("*sym", left[1], right[1]))
            return None
        if left[0] == 0 and right[0] == 0:
            return (0, (expr.op, left[1], right[1]))
        return None
    if isinstance(expr, A.Call) and expr.func in _GPU_INVARIANT:
        return (0, ("call", expr.func, ()))
    if isinstance(expr, A.Call) and expr.func in _PURE_INVARIANT:
        keys = []
        for arg in expr.args:
            form = affine(arg, scope, depth + 1)
            if form is None or form[0] != 0:
                return None
            keys.append(form[1])
        return (0, ("call", expr.func, tuple(keys)))
    return None                                # memory reads, other calls


# -- literals and trip counts ---------------------------------------------------


def fold_literal(expr: A.Expr) -> Optional[Union[int, float]]:
    """Value of an int tree of literals, unary minus and ``+ - *``, or of
    a float literal, possibly negated once; None otherwise."""
    if isinstance(expr, A.FloatLit):
        return expr.value
    if isinstance(expr, A.Unary) and expr.op == "-" and \
            isinstance(expr.operand, A.FloatLit):
        return -expr.operand.value
    return _fold_int(expr)


def _fold_int(expr: A.Expr) -> Optional[int]:
    if isinstance(expr, A.IntLit):
        return expr.value
    if isinstance(expr, A.Unary) and expr.op == "-":
        v = _fold_int(expr.operand)
        return None if v is None else -v
    if isinstance(expr, A.Binary) and expr.op in ("+", "-", "*"):
        a = _fold_int(expr.left)
        b = _fold_int(expr.right) if a is not None else None
        if b is None:
            return None
        if expr.op == "+":
            return a + b
        return a - b if expr.op == "-" else a * b
    return None


def trip_count(lo: Optional[A.Expr], hi: Optional[A.Expr],
               step: Optional[A.Expr] = None) -> Optional[int]:
    """Iterations of ``lo..hi step s`` when every bound present is an int
    literal (``lo`` None counts from 0, as a Kokkos range ``n`` does);
    None when the count is not static."""
    if lo is None:
        start = 0
    elif isinstance(lo, A.IntLit):
        start = lo.value
    else:
        return None
    if not isinstance(hi, A.IntLit):
        return None
    stride = 1
    if step is not None:
        if not isinstance(step, A.IntLit) or step.value <= 0:
            return None
        stride = step.value
    return max(0, -(-(hi.value - start) // stride))
