"""Which kernel parameters a program may write.

:func:`written_params` is a sound, flow-insensitive over-approximation:
a parameter it leaves out is never written by any execution of the
kernel, so a caller may hand every rank of an MPI job the same array for
it instead of a private copy.  Anything the analysis cannot follow counts
as a write.

Names are merged into alias classes, ignoring scope and control flow:

* ``let x = e`` and ``x = e`` join ``x`` with every array ``e`` may
  evaluate to (:func:`_refs`): a name, either arm of ``select``, or any
  argument of a user-kernel call (which may return one of them).  Other
  builtins return scalars or fresh arrays, and indexing yields scalars.

A class is written when any of its names is:

* the base of an index store (``a[i] = v``, compound, atomic pragma);
* an argument a builtin declares in ``BuiltinSig.mutates`` (``sort``,
  ``fill``, ``swap``, ``atomic_*``, the in-place MPI collectives, the
  Kokkos scan output);
* an argument in a written position of a user kernel, transitively
  (a fixed point over the call graph, so recursion is covered).

Lambda bodies are walked as part of their enclosing kernel: a lambda
captures by reference, so its stores write the enclosing names.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set

from . import ast as A
from . import builtins


class _Aliases:
    """Union-find over identifiers."""

    def __init__(self) -> None:
        self.parent: Dict[str, str] = {}

    def find(self, name: str) -> str:
        parent = self.parent
        root = name
        while parent.get(root, root) != root:
            root = parent[root]
        while name != root:
            parent[name], name = root, parent.get(name, name)
        return root

    def join(self, name: str, others: Iterable[str]) -> None:
        for other in others:
            a, b = self.find(name), self.find(other)
            if a != b:
                self.parent[a] = b


def _refs(e: A.Node, kernels) -> Set[str]:
    """Names of the arrays ``e`` may evaluate to (an over-approximation)."""
    if isinstance(e, A.Name):
        return {e.ident}
    if isinstance(e, A.Call):
        if e.func == "select":
            return set().union(*(_refs(a, kernels) for a in e.args[1:]))
        if e.func in kernels or builtins.get(e.func) is None:
            return set().union(*(_refs(a, kernels) for a in e.args))
        return set()
    return set()


def _kernel_writes(kernel: A.Kernel, kernels,
                   summaries: Dict[str, FrozenSet[int]]) -> FrozenSet[int]:
    aliases = _Aliases()
    written: Set[str] = set()
    for node in A.walk(kernel.body):
        if isinstance(node, A.Let):
            aliases.join(node.name, _refs(node.init, kernels))
        elif isinstance(node, A.Assign):
            if isinstance(node.target, A.Name):
                aliases.join(node.target.ident, _refs(node.value, kernels))
            elif isinstance(node.target, A.Index):
                written |= _refs(node.target.base, kernels)
            else:
                written |= _refs(node.target, kernels)
        elif isinstance(node, A.Call):
            sig = builtins.get(node.func)
            if node.func in kernels:
                positions: Iterable[int] = summaries[node.func]
            elif sig is not None:
                positions = sig.mutates
            else:                          # unknown callee: assume the worst
                positions = range(len(node.args))
            for pos in positions:
                if pos < len(node.args):
                    written |= _refs(node.args[pos], kernels)
    roots = {aliases.find(name) for name in written}
    return frozenset(i for i, p in enumerate(kernel.params)
                     if aliases.find(p.name) in roots)


def written_params(program: A.Program) -> Dict[str, FrozenSet[int]]:
    """Per kernel, the positions of the parameters it may write."""
    kernels = {k.name: k for k in program.kernels}
    summaries: Dict[str, FrozenSet[int]] = {k: frozenset() for k in kernels}
    changed = True
    while changed:
        changed = False
        for name, kernel in kernels.items():
            now = _kernel_writes(kernel, kernels, summaries)
            if now != summaries[name]:
                summaries[name] = now
                changed = True
    return summaries
