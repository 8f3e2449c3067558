"""Shared-memory race detection for ``omp parallel for`` bodies and
Kokkos functors.

The analyzer walks each parallel region and classifies every array index
expression relative to the region's parallel induction variable; the
scope and the affine forms come from :mod:`repro.lang.loops`:

``INV``
    Loop-invariant — every iteration addresses the same cell.  An
    unprotected write here races on every execution.
``INJ``
    Injective affine form ``c*var + off`` with a nonzero literal
    coefficient ``c`` and a loop-invariant offset — distinct iterations
    address distinct cells, so a single such write is private to its
    iteration.
``DEP``
    Anything else (reads memory, uses mutated locals or nested loop
    variables, non-literal coefficients) — collisions cannot be ruled
    out.

Diagnostics then follow from pairing accesses to the same *shared*
array (kernel parameters or pre-region locals; arrays allocated inside
the region are iteration-private):

* unprotected INV write → **definite** ``loop-invariant-write``
* unprotected write to a shared scalar → **definite**
  ``shared-scalar-write``
* INJ write plus a read of the same array at a *different* offset under
  the *same* coefficients → **definite** ``inplace-stencil`` (iteration
  ``i`` reads a cell another iteration writes)
* whole-array builtin mutation (``sort``/``fill``/``swap``) of a shared
  array → **definite** ``whole-array-write``
* DEP writes, differing INJ write pairs, and INJ-write/DEP-read pairs →
  **possible** (cannot be proven disjoint)

Protection that silences a finding: ``pragma omp atomic`` /
``pragma omp critical``, ``reduction`` clause variables, and the
``atomic_add``/``atomic_min``/``atomic_max`` builtins.

Regions with a provable trip count of 0 or 1 are skipped (a single
iteration cannot race with itself), and accesses under any branch whose
condition is not the literal ``true`` are demoted from definite to
possible: the branch may serialize them (``if (i == 0)``) or skip them
entirely (``if (flag)``), so the write is not provably executed on
every run — which is what ``definite`` promises.

A one-level interprocedural summary handles the corpus idiom of
delegating the loop body to a helper: a callee that only writes an
array parameter at the value of one of its scalar parameters is
``PARAM_IDX`` — at a call site passing the parallel variable there, the
write is injective; any other callee write is DEP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..lang import ast as A
from ..lang import builtins, loops
from ..lang.typecheck import CheckedProgram
from .diagnostics import (ANALYZER_RACE, DEFINITE, POSSIBLE, Diagnostic)


def _first_arg_writers(category: str) -> frozenset:
    """Builtins of ``category`` that write their first (array) argument."""
    return frozenset(name for name in builtins.names_in_category(category)
                     if 0 in builtins.get(name).mutates)


#: builtins that mutate their first (array) argument wholesale
_WHOLE_ARRAY_WRITERS = _first_arg_writers("core")
#: builtins that atomically update array cells — protected by definition
_ATOMIC_WRITERS = _first_arg_writers("atomic")
#: kokkos entry points carrying a functor: name -> lambda argument slot
_KOKKOS_FUNCTORS = {
    "parallel_for": 1,
    "parallel_reduce": 2,
    "parallel_scan_inclusive": 2,
    "parallel_scan_exclusive": 2,
}
#: GPU intrinsics; a kernel calling any of these runs once per thread
_GPU_INTRINSICS = {"thread_idx", "block_idx", "block_dim", "grid_dim",
                   "sync_threads"}


@dataclass
class _Region:
    """One parallel region being analyzed."""

    kernel: str
    scope: loops.Scope
    reduction_vars: Set[str] = field(default_factory=set)
    #: (array, form, node, protected, guarded)
    writes: List[tuple] = field(default_factory=list)
    #: (array, form, node)
    reads: List[tuple] = field(default_factory=list)


class _RaceAnalyzer:
    def __init__(self, checked: CheckedProgram):
        self.checked = checked
        self.program = checked.program
        self.kernels = {k.name: k for k in self.program.kernels}
        self._summaries: Dict[str, Dict[str, Set[object]]] = {}
        self._in_progress: Set[str] = set()
        self.diagnostics: List[Diagnostic] = []

    # -- entry points ------------------------------------------------------

    def run(self, model: str) -> List[Diagnostic]:
        analyze_omp = model in ("openmp", "mpi+omp")
        analyze_kokkos = model == "kokkos"
        analyze_gpu = model in ("cuda", "hip")
        if not (analyze_omp or analyze_kokkos or analyze_gpu):
            return []
        for kernel in self.program.kernels:
            if analyze_gpu and self._kernel_uses_gpu(kernel):
                self._analyze_gpu_region(kernel)
            for node in A.walk(kernel.body):
                if analyze_omp and isinstance(node, A.OmpParallelFor):
                    self._analyze_omp_region(kernel, node)
                elif analyze_kokkos and isinstance(node, A.Call):
                    slot = _KOKKOS_FUNCTORS.get(node.func)
                    if slot is not None and slot < len(node.args):
                        fn = node.args[slot]
                        if isinstance(fn, A.Lambda):
                            self._analyze_kokkos_region(kernel, node, fn)
        return self.diagnostics

    @staticmethod
    def _kernel_uses_gpu(kernel: A.Kernel) -> bool:
        return any(isinstance(n, A.Call) and n.func in _GPU_INTRINSICS
                   for n in A.walk(kernel.body))

    # -- region setup ------------------------------------------------------

    def _analyze_omp_region(self, kernel: A.Kernel, pf: A.OmpParallelFor):
        loop = pf.loop
        trips = loops.trip_count(loop.lo, loop.hi, loop.step)
        if trips is not None and trips <= 1:
            return
        reductions = {c.var for c in pf.clauses
                      if c.kind == "reduction" and c.var}
        self._analyze(kernel, loops.scope_of(loop.body, loop.var),
                      reductions)

    def _analyze_kokkos_region(self, kernel: A.Kernel, call: A.Call,
                               fn: A.Lambda):
        trips = loops.trip_count(None, call.args[0] if call.args else None)
        if (trips is not None and trips <= 1) or not fn.params:
            return
        body = fn.body_block if fn.body_block is not None else fn.body_expr
        self._analyze(kernel, loops.scope_of(body, fn.params[0],
                                             dep=fn.params[1:]))

    def _analyze_gpu_region(self, kernel: A.Kernel):
        """The whole kernel body runs once per GPU thread; the induction
        variable is the global-thread-index idiom rather than a name."""
        self._analyze(kernel, loops.scope_of(kernel.body, gpu=True))

    def _analyze(self, kernel: A.Kernel, scope: loops.Scope,
                 reductions: Set[str] = frozenset()):
        region = _Region(kernel.name, scope, set(reductions))
        self._scan(region)
        self._report(region)

    # -- index classification ---------------------------------------------

    def _index_form(self, indices, region: _Region):
        """Tuple of per-dimension linear forms; None where DEP."""
        return tuple(loops.affine(ix, region.scope) for ix in indices)

    @staticmethod
    def _is_injective(form) -> bool:
        """At least one dimension varies injectively with the iteration."""
        return any(d is not None and d[0] != 0 for d in form)

    @staticmethod
    def _is_invariant(form) -> bool:
        return all(d is not None and d[0] == 0 for d in form)

    @staticmethod
    def _is_affine(form) -> bool:
        return all(d is not None for d in form)

    # -- effect scan -------------------------------------------------------

    def _is_shared_array(self, name: str, region: _Region) -> bool:
        scope = region.scope
        return name not in scope.private_arrays and name not in scope.locals

    def _scan(self, region: _Region):
        """Classify the region's array effects, in source order."""
        for node, protected, guarded in region.scope.effects:
            if isinstance(node, A.Call):
                self._scan_call(node, region, guarded)
                continue
            index = node.target if isinstance(node, A.Assign) else node
            array = index.base.ident
            if not self._is_shared_array(array, region):
                continue
            form = self._index_form(index.indices, region)
            if index is node:
                region.reads.append((array, form, node))
                continue
            region.writes.append((array, form, node, protected, guarded))
            if node.op != "=":
                # compound update also reads the cell, same index
                region.reads.append((array, form, node))

    def _scan_call(self, call: A.Call, region: _Region, guarded: bool):
        first = call.args[0] if call.args else None
        first_name = first.ident if isinstance(first, A.Name) else None
        shared_first = (first_name is not None and
                        self._is_shared_array(first_name, region))
        if call.func in _ATOMIC_WRITERS:
            if shared_first and len(call.args) >= 2:
                form = self._index_form((call.args[1],), region)
                region.writes.append((first_name, form, call, True, guarded))
            return
        if call.func in _WHOLE_ARRAY_WRITERS:
            if shared_first:
                self._emit(
                    "whole-array-write",
                    POSSIBLE if guarded else DEFINITE,
                    f"{call.func}() mutates shared array "
                    f"'{first_name}' wholesale inside a parallel region",
                    call, region)
            return
        if call.func in self.kernels:
            self._apply_summary(call, region, guarded)

    # -- interprocedural summaries ----------------------------------------

    def _summary(self, name: str):
        """Per-kernel effect summary: ``(writes, reads)``.

        ``writes`` maps a written array-param name to a set of forms —
        ``("pidx", j)`` when every write indexes it with the (never
        reassigned) value of scalar parameter ``j``, else ``"other"``.
        ``reads`` is the set of array-param names the kernel reads
        elements of (index form not tracked).
        """
        if name in self._summaries:
            return self._summaries[name]
        if name in self._in_progress:            # recursion: assume worst
            kernel = self.kernels[name]
            return ({p.name: {"other"} for p in kernel.params},
                    {p.name for p in kernel.params})
        self._in_progress.add(name)
        kernel = self.kernels[name]
        param_pos = {p.name: i for i, p in enumerate(kernel.params)}
        scope = loops.scope_of(kernel.body)
        reassigned, local = scope.mutated, scope.locals
        writes: Dict[str, Set[object]] = {}
        reads: Set[str] = set()

        def is_param(array: str) -> bool:
            return array in param_pos and array not in local

        def note(array: str, form: object):
            if is_param(array):
                writes.setdefault(array, set()).add(form)

        def note_read(array: str):
            if is_param(array):
                reads.add(array)

        def classify_index(indices) -> object:
            if len(indices) == 1 and isinstance(indices[0], A.Name):
                ix = indices[0].ident
                if ix in param_pos and ix not in reassigned:
                    return ("pidx", param_pos[ix])
            if len(indices) == 1 and isinstance(indices[0], A.IntLit):
                return ("const", indices[0].value)
            return "other"

        for node in A.walk(kernel.body):
            if isinstance(node, A.Index) and isinstance(node.base, A.Name):
                note_read(node.base.ident)
            if isinstance(node, A.Assign) and \
                    isinstance(node.target, A.Index) and \
                    isinstance(node.target.base, A.Name):
                note(node.target.base.ident,
                     classify_index(node.target.indices))
            elif isinstance(node, A.Call):
                if node.func in _ATOMIC_WRITERS or \
                        node.func in _WHOLE_ARRAY_WRITERS:
                    arr = node.args[0] if node.args else None
                    if isinstance(arr, A.Name):
                        note(arr.ident, "other")
                        if node.func != "fill":
                            note_read(arr.ident)
                elif node.func == "copy":
                    arr = node.args[0] if node.args else None
                    if isinstance(arr, A.Name):
                        note_read(arr.ident)
                elif node.func in self.kernels and node.func != name:
                    cwrites, creads = self._summary(node.func)
                    callee_params = self.kernels[node.func].params
                    cpos = {p.name: i for i, p in enumerate(callee_params)}
                    for pname in creads:
                        pos = cpos.get(pname)
                        if pos is not None and pos < len(node.args) and \
                                isinstance(node.args[pos], A.Name):
                            note_read(node.args[pos].ident)
                    for pname, forms in cwrites.items():
                        pos = cpos.get(pname)
                        if pos is None or pos >= len(node.args):
                            continue
                        arg = node.args[pos]
                        if isinstance(arg, A.Name):
                            for form in forms:
                                if isinstance(form, tuple) and \
                                        form[0] == "pidx" and \
                                        form[1] < len(node.args) and \
                                        isinstance(node.args[form[1]],
                                                   A.Name):
                                    ident = node.args[form[1]].ident
                                    if ident in param_pos and \
                                            ident not in reassigned:
                                        note(arg.ident,
                                             ("pidx", param_pos[ident]))
                                        continue
                                    note(arg.ident, "other")
                                elif isinstance(form, tuple) and \
                                        form[0] == "const":
                                    note(arg.ident, form)
                                else:
                                    note(arg.ident, "other")
        self._in_progress.discard(name)
        self._summaries[name] = (writes, reads)
        return self._summaries[name]

    def _apply_summary(self, call: A.Call, region: _Region, guarded: bool):
        kernel = self.kernels[call.func]
        writes, reads = self._summary(call.func)
        param_pos = {p.name: i for i, p in enumerate(kernel.params)}
        for pname in reads:
            pos = param_pos[pname]
            if pos < len(call.args) and isinstance(call.args[pos], A.Name):
                array = call.args[pos].ident
                if self._is_shared_array(array, region):
                    region.reads.append((array, (None,), call))
        for pname, forms in writes.items():
            pos = param_pos[pname]
            if pos >= len(call.args):
                continue
            arg = call.args[pos]
            if not isinstance(arg, A.Name):
                continue
            array = arg.ident
            if not self._is_shared_array(array, region):
                continue
            for form in forms:
                if isinstance(form, tuple) and form[0] == "pidx" and \
                        form[1] < len(call.args):
                    index_form = self._index_form((call.args[form[1]],),
                                                  region)
                elif isinstance(form, tuple) and form[0] == "const":
                    index_form = ((0, form[1]),)
                else:
                    index_form = (None,)
                region.writes.append((array, index_form, call, False,
                                      guarded))

    # -- reporting ---------------------------------------------------------

    def _emit(self, kind: str, certainty: str, message: str, node,
              region: _Region):
        self.diagnostics.append(Diagnostic(
            analyzer=ANALYZER_RACE, kind=kind, certainty=certainty,
            message=message, line=getattr(node, "line", 0),
            col=getattr(node, "col", 0), kernel=region.kernel))

    def _report(self, region: _Region):
        for name, node, guarded in region.scope.shared_writes(
                region.reduction_vars):
            self._emit(
                "shared-scalar-write",
                POSSIBLE if guarded else DEFINITE,
                f"every iteration writes shared scalar '{name}' without "
                "atomic/critical/reduction protection", node, region)

        by_array: Dict[str, List[tuple]] = {}
        for entry in region.writes:
            by_array.setdefault(entry[0], []).append(entry)
        reads_by_array: Dict[str, List[tuple]] = {}
        for entry in region.reads:
            reads_by_array.setdefault(entry[0], []).append(entry)

        for array, writes in sorted(by_array.items()):
            unprotected = [w for w in writes if not w[3]]
            if not unprotected:
                continue
            reported_possible = False
            for _, form, node, _, guarded in unprotected:
                if self._is_invariant(form):
                    self._emit(
                        "loop-invariant-write",
                        POSSIBLE if guarded else DEFINITE,
                        f"every iteration writes the same cell of shared "
                        f"array '{array}'", node, region)
                elif not self._is_injective(form):
                    if not reported_possible:
                        self._emit(
                            "unprovable-write-index", POSSIBLE,
                            f"write index into shared array '{array}' is "
                            "iteration-dependent but not provably "
                            "collision-free", node, region)
                        reported_possible = True

            # distinct injective write forms may still overlap
            inj_forms = {}
            for _, form, node, _, guarded in unprotected:
                if self._is_affine(form) and self._is_injective(form):
                    inj_forms.setdefault(form, (node, guarded))
            if len(inj_forms) > 1:
                node = next(iter(inj_forms.values()))[0]
                self._emit(
                    "overlapping-write-forms", POSSIBLE,
                    f"shared array '{array}' is written at more than one "
                    "affine index form; iterations may collide", node,
                    region)

            # in-place stencil: injective write + shifted read, same coeffs
            for _, wform, wnode, _, wguarded in unprotected:
                if not (self._is_affine(wform)
                        and self._is_injective(wform)):
                    continue
                for _, rform, rnode in reads_by_array.get(array, ()):
                    if not self._is_affine(rform) or len(rform) != \
                            len(wform):
                        if not self._is_affine(rform):
                            self._emit(
                                "write-read-overlap", POSSIBLE,
                                f"shared array '{array}' is written "
                                "injectively but also read at an "
                                "unprovable index", rnode, region)
                        continue
                    same_coeffs = all(w[0] == r[0]
                                      for w, r in zip(wform, rform))
                    if same_coeffs and wform != rform:
                        self._emit(
                            "inplace-stencil",
                            POSSIBLE if wguarded else DEFINITE,
                            f"iterations write shared array '{array}' "
                            "in place while reading neighbouring cells "
                            "written by other iterations", wnode, region)
                    elif not same_coeffs:
                        self._emit(
                            "write-read-overlap", POSSIBLE,
                            f"shared array '{array}' write and read "
                            "index forms differ; iterations may "
                            "overlap", wnode, region)


def dedupe(diags: List[Diagnostic]) -> List[Diagnostic]:
    seen: Set[tuple] = set()
    out: List[Diagnostic] = []
    for d in diags:
        key = (d.analyzer, d.kind, d.certainty, d.line, d.col, d.kernel,
               d.message)
        if key not in seen:
            seen.add(key)
            out.append(d)
    return out


def check_races(checked: CheckedProgram, model: str) -> List[Diagnostic]:
    """Run the shared-memory race analyzer for one execution model.

    Only models whose runtime actually executes the construct in
    parallel are analyzed: ``omp parallel for`` under ``openmp`` and
    ``mpi+omp``, Kokkos functors under ``kokkos``.  Serial and GPU
    models run these constructs sequentially (or not at all), so a
    pragma in a serial sample is a usage problem, not a race.
    """
    return dedupe(_RaceAnalyzer(checked).run(model))
