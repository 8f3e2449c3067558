"""Builtin function catalog for MiniPar.

Each builtin has a *category* that ties it to an execution model:

* ``core``   — available everywhere (math, allocation, sort, ...)
* ``kokkos`` — Kokkos-style parallel patterns
* ``mpi``    — message passing primitives
* ``gpu``    — SIMT thread indexing / atomics / barriers

The type checker resolves calls through this catalog; the runtimes supply
the implementations.  The harness' "did the model actually use the parallel
programming model" check (paper §7.2) string-matches on these names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import types as T

#: Operator names accepted by reduction/scan builtins.
REDUCE_OPS = ("sum", "prod", "min", "max")


@dataclass(frozen=True)
class BuiltinSig:
    """A builtin's signature.

    ``resolve(arg_types) -> result type`` returns None when the argument
    types are invalid; the type checker turns that into a compile error.
    ``lambda_params`` gives, per argument index, the parameter types a
    lambda argument must accept (or None for a non-lambda argument).
    ``mutates`` lists the argument indices whose array the builtin writes
    in place; every other argument is only read (or copied).
    """

    name: str
    category: str
    resolve: Callable[[Sequence[T.Type]], Optional[T.Type]]
    arity: Tuple[int, ...]  # accepted argument counts
    lambda_params: Tuple[Optional[Tuple[T.Type, ...]], ...] = ()
    str_args: Tuple[int, ...] = ()  # indices that must be operator strings
    doc: str = ""
    mutates: Tuple[int, ...] = ()  # indices of arrays written in place


def _fixed(params: Sequence[T.Type], result: T.Type) -> Callable:
    """Resolver for a fixed signature with int→float promotion."""

    def resolve(args: Sequence[T.Type]) -> Optional[T.Type]:
        if len(args) != len(params):
            return None
        for got, want in zip(args, params):
            if got is want:
                continue
            if want is T.FLOAT and got is T.INT:
                continue
            return None
        return result

    return resolve


def _numeric_binop(args: Sequence[T.Type]) -> Optional[T.Type]:
    if len(args) != 2:
        return None
    return T.unify_numeric(args[0], args[1])


def _numeric_unop(args: Sequence[T.Type]) -> Optional[T.Type]:
    if len(args) != 1 or not T.is_numeric(args[0]):
        return None
    return args[0]


def _float_unop(args: Sequence[T.Type]) -> Optional[T.Type]:
    if len(args) != 1 or not T.is_numeric(args[0]):
        return None
    return T.FLOAT


def _is_num_array(t: T.Type, ndim: int = 1) -> bool:
    return isinstance(t, T.ArrayType) and t.ndim == ndim and t.elem in (T.INT, T.FLOAT)


_REGISTRY: Dict[str, BuiltinSig] = {}


def _register(sig: BuiltinSig) -> None:
    _REGISTRY[sig.name] = sig


def get(name: str) -> Optional[BuiltinSig]:
    """Look up a builtin by name (None if not a builtin)."""
    return _REGISTRY.get(name)


def names_in_category(category: str) -> List[str]:
    return sorted(n for n, s in _REGISTRY.items() if s.category == category)


# --------------------------------------------------------------------------
# core
# --------------------------------------------------------------------------

def _len_resolve(args):
    if len(args) == 1 and isinstance(args[0], T.ArrayType) and args[0].ndim == 1:
        return T.INT
    return None


def _dim_resolve(args):
    if len(args) == 1 and isinstance(args[0], T.ArrayType) and args[0].ndim == 2:
        return T.INT
    return None


def _copy_resolve(args):
    if len(args) == 1 and isinstance(args[0], T.ArrayType):
        return args[0]
    return None


def _fill_resolve(args):
    if len(args) == 2 and _is_num_array(args[0]):
        if args[0].elem is T.FLOAT and T.is_numeric(args[1]):
            return T.UNIT
        if args[0].elem is T.INT and args[1] is T.INT:
            return T.UNIT
    return None


def _sort_resolve(args):
    if len(args) == 1 and _is_num_array(args[0]):
        return T.UNIT
    return None


def _swap_resolve(args):
    if len(args) == 3 and _is_num_array(args[0]) and args[1] is T.INT and args[2] is T.INT:
        return T.UNIT
    return None


def _select_resolve(args):
    if len(args) == 3 and args[0] is T.BOOL:
        if args[1] is args[2]:
            return args[1]
        return T.unify_numeric(args[1], args[2])
    return None


def _cast_int(args):
    if len(args) == 1 and (T.is_numeric(args[0]) or args[0] is T.BOOL):
        return T.INT
    return None


def _cast_float(args):
    if len(args) == 1 and (T.is_numeric(args[0]) or args[0] is T.BOOL):
        return T.FLOAT
    return None


#: core builtins that write their array argument in place
_CORE_IN_PLACE = ("fill", "sort", "swap")

for _name, _resolve, _arity, _doc in [
    ("len", _len_resolve, (1,), "Number of elements in a 1-D array."),
    ("rows", _dim_resolve, (1,), "Number of rows of a 2-D array."),
    ("cols", _dim_resolve, (1,), "Number of columns of a 2-D array."),
    ("min", _numeric_binop, (2,), "Minimum of two numbers."),
    ("max", _numeric_binop, (2,), "Maximum of two numbers."),
    ("abs", _numeric_unop, (1,), "Absolute value."),
    ("sqrt", _float_unop, (1,), "Square root."),
    ("sin", _float_unop, (1,), "Sine."),
    ("cos", _float_unop, (1,), "Cosine."),
    ("exp", _float_unop, (1,), "Natural exponential."),
    ("log", _float_unop, (1,), "Natural logarithm."),
    ("floor", _float_unop, (1,), "Floor, as a float."),
    ("ceil", _float_unop, (1,), "Ceiling, as a float."),
    ("pow", _fixed((T.FLOAT, T.FLOAT), T.FLOAT), (2,), "x raised to y."),
    ("int", _cast_int, (1,), "Cast to int (truncates floats toward zero)."),
    ("float", _cast_float, (1,), "Cast to float."),
    ("alloc_float", _fixed((T.INT,), T.ARRAY_FLOAT), (1,), "Zeroed float array."),
    ("alloc_int", _fixed((T.INT,), T.ARRAY_INT), (1,), "Zeroed int array."),
    ("alloc2d_float", _fixed((T.INT, T.INT), T.ARRAY2D_FLOAT), (2,),
     "Zeroed 2-D float array."),
    ("alloc2d_int", _fixed((T.INT, T.INT), T.ARRAY2D_INT), (2,),
     "Zeroed 2-D int array."),
    ("copy", _copy_resolve, (1,), "Deep copy of an array."),
    ("fill", _fill_resolve, (2,), "Set every element of an array to a value."),
    ("sort", _sort_resolve, (1,), "In-place ascending sort (like std::sort)."),
    ("swap", _swap_resolve, (3,), "Swap two elements of an array."),
    ("select", _select_resolve, (3,), "Ternary: select(cond, a, b)."),
]:
    _register(BuiltinSig(_name, "core", _resolve, _arity, doc=_doc,
                         mutates=(0,) if _name in _CORE_IN_PLACE else ()))


# --------------------------------------------------------------------------
# kokkos
# --------------------------------------------------------------------------

def _pfor_resolve(args):
    if len(args) == 2 and args[0] is T.INT and isinstance(args[1], T.FuncType):
        return T.UNIT
    return None


def _preduce_resolve(args):
    if (
        len(args) == 3
        and args[0] is T.INT
        and args[1] is T.STR
        and isinstance(args[2], T.FuncType)
        and T.is_numeric(args[2].result)
    ):
        return args[2].result
    return None


def _pscan_resolve(args):
    if (
        len(args) == 4
        and args[0] is T.INT
        and args[1] is T.STR
        and isinstance(args[2], T.FuncType)
        and T.is_numeric(args[2].result)
        and _is_num_array(args[3])
    ):
        return T.UNIT
    return None


_register(BuiltinSig(
    "parallel_for", "kokkos", _pfor_resolve, (2,),
    lambda_params=(None, (T.INT,)),
    doc="Kokkos::parallel_for over [0, n): parallel_for(n, (i) => { ... }).",
))
_register(BuiltinSig(
    "parallel_reduce", "kokkos", _preduce_resolve, (3,),
    lambda_params=(None, None, (T.INT,)),
    str_args=(1,),
    doc='Kokkos::parallel_reduce: parallel_reduce(n, "sum", (i) => contrib).',
))
_register(BuiltinSig(
    "parallel_scan_inclusive", "kokkos", _pscan_resolve, (4,),
    lambda_params=(None, None, (T.INT,), None),
    str_args=(1,),
    mutates=(3,),
    doc='Inclusive parallel scan of per-index contributions into out.',
))
_register(BuiltinSig(
    "parallel_scan_exclusive", "kokkos", _pscan_resolve, (4,),
    lambda_params=(None, None, (T.INT,), None),
    str_args=(1,),
    mutates=(3,),
    doc='Exclusive parallel scan of per-index contributions into out.',
))


# --------------------------------------------------------------------------
# mpi
# --------------------------------------------------------------------------

def _send_resolve(args):
    if len(args) == 3 and args[1] is T.INT and args[2] is T.INT:
        if T.is_numeric(args[0]) or _is_num_array(args[0]):
            return T.UNIT
    return None


def _recv_arr_resolve_float(args):
    if len(args) == 2 and args[0] is T.INT and args[1] is T.INT:
        return T.ARRAY_FLOAT
    return None


def _recv_arr_resolve_int(args):
    if len(args) == 2 and args[0] is T.INT and args[1] is T.INT:
        return T.ARRAY_INT
    return None


def _is_num_array_any(t: T.Type) -> bool:
    return isinstance(t, T.ArrayType) and t.elem in (T.INT, T.FLOAT)


def _bcast_arr_resolve(args):
    if len(args) == 2 and _is_num_array_any(args[0]) and args[1] is T.INT:
        return T.UNIT
    return None


def _reduce_scalar_float(args):
    if len(args) == 3 and T.is_numeric(args[0]) and args[1] is T.STR and args[2] is T.INT:
        return T.FLOAT
    return None


def _reduce_scalar_int(args):
    if len(args) == 3 and args[0] is T.INT and args[1] is T.STR and args[2] is T.INT:
        return T.INT
    return None


def _allreduce_float(args):
    if len(args) == 2 and T.is_numeric(args[0]) and args[1] is T.STR:
        return T.FLOAT
    return None


def _allreduce_int(args):
    if len(args) == 2 and args[0] is T.INT and args[1] is T.STR:
        return T.INT
    return None


def _reduce_array_resolve(args):
    if len(args) == 3 and _is_num_array_any(args[0]) and args[1] is T.STR and args[2] is T.INT:
        return T.UNIT
    return None


def _allreduce_array_resolve(args):
    if len(args) == 2 and _is_num_array_any(args[0]) and args[1] is T.STR:
        return T.UNIT
    return None


def _scatter_resolve(args):
    if len(args) == 2 and _is_num_array(args[0]) and args[1] is T.INT:
        return args[0]
    return None


def _gather_resolve(args):
    if len(args) == 2 and _is_num_array(args[0]) and args[1] is T.INT:
        return args[0]
    return None


def _allgather_resolve(args):
    if len(args) == 1 and _is_num_array(args[0]):
        return args[0]
    return None


def _scan_float(args):
    if len(args) == 2 and T.is_numeric(args[0]) and args[1] is T.STR:
        return T.FLOAT
    return None


def _scan_int(args):
    if len(args) == 2 and args[0] is T.INT and args[1] is T.STR:
        return T.INT
    return None


#: collectives that write their array argument in place
_MPI_IN_PLACE = ("mpi_bcast_array", "mpi_reduce_array", "mpi_allreduce_array")

for _name, _resolve, _arity, _strargs, _doc in [
    ("mpi_rank", _fixed((), T.INT), (0,), (), "This process' rank."),
    ("mpi_size", _fixed((), T.INT), (0,), (), "Number of ranks."),
    ("mpi_send", _send_resolve, (3,), (),
     "Buffered send: mpi_send(value, dest, tag)."),
    ("mpi_recv_float", _fixed((T.INT, T.INT), T.FLOAT), (2,), (),
     "Blocking receive of a float: mpi_recv_float(src, tag)."),
    ("mpi_recv_int", _fixed((T.INT, T.INT), T.INT), (2,), (),
     "Blocking receive of an int."),
    ("mpi_recv_array_float", _recv_arr_resolve_float, (2,), (),
     "Blocking receive of a float array."),
    ("mpi_recv_array_int", _recv_arr_resolve_int, (2,), (),
     "Blocking receive of an int array."),
    ("mpi_bcast_float", _fixed((T.FLOAT, T.INT), T.FLOAT), (2,), (),
     "Broadcast a float from root; returns the root's value on every rank."),
    ("mpi_bcast_int", _fixed((T.INT, T.INT), T.INT), (2,), (),
     "Broadcast an int from root."),
    ("mpi_bcast_array", _bcast_arr_resolve, (2,), (),
     "Broadcast an array from root, in place."),
    ("mpi_reduce_float", _reduce_scalar_float, (3,), (1,),
     'Reduce to root: mpi_reduce_float(v, "sum", root); non-roots get 0.'),
    ("mpi_reduce_int", _reduce_scalar_int, (3,), (1,),
     "Reduce an int to root."),
    ("mpi_allreduce_float", _allreduce_float, (2,), (1,),
     "All-reduce a float."),
    ("mpi_allreduce_int", _allreduce_int, (2,), (1,),
     "All-reduce an int."),
    ("mpi_reduce_array", _reduce_array_resolve, (3,), (1,),
     "Elementwise reduce an array into root's copy, in place."),
    ("mpi_allreduce_array", _allreduce_array_resolve, (2,), (1,),
     "Elementwise all-reduce an array, in place on every rank."),
    ("mpi_scatter_array", _scatter_resolve, (2,), (),
     "Even scatter from root; returns this rank's chunk."),
    ("mpi_gather_array", _gather_resolve, (2,), (),
     "Gather chunks to root; returns full array at root, empty elsewhere."),
    ("mpi_allgather_array", _allgather_resolve, (1,), (),
     "Gather chunks to every rank."),
    ("mpi_scan_float", _scan_float, (2,), (1,),
     "Inclusive prefix reduction across ranks."),
    ("mpi_scan_int", _scan_int, (2,), (1,),
     "Inclusive prefix reduction across ranks (int)."),
    ("mpi_barrier", _fixed((), T.UNIT), (0,), (), "Synchronize all ranks."),
]:
    _register(BuiltinSig(_name, "mpi", _resolve, _arity, str_args=_strargs,
                         doc=_doc, mutates=(0,) if _name in _MPI_IN_PLACE
                         else ()))


# --------------------------------------------------------------------------
# gpu
# --------------------------------------------------------------------------

def _atomic_resolve(args):
    if len(args) == 3 and _is_num_array(args[0]) and args[1] is T.INT:
        if args[0].elem is T.FLOAT and T.is_numeric(args[2]):
            return T.UNIT
        if args[0].elem is T.INT and args[2] is T.INT:
            return T.UNIT
    return None


for _name, _resolve, _arity, _doc in [
    ("thread_idx", _fixed((), T.INT), (0,), "Thread index within the block."),
    ("block_idx", _fixed((), T.INT), (0,), "Block index within the grid."),
    ("block_dim", _fixed((), T.INT), (0,), "Threads per block."),
    ("grid_dim", _fixed((), T.INT), (0,), "Blocks in the grid."),
    ("sync_threads", _fixed((), T.UNIT), (0,), "Block-wide barrier."),
]:
    _register(BuiltinSig(_name, "gpu", _resolve, _arity, doc=_doc))

# Atomic updates exist in every ecosystem the paper tests (std::atomic,
# #pragma omp atomic, Kokkos::atomic_add, CUDA/HIP atomicAdd), so they get
# their own category, linkable under every execution model.
for _name, _doc in [
    ("atomic_add", "Atomically a[i] += v."),
    ("atomic_min", "Atomically a[i] = min(a[i], v)."),
    ("atomic_max", "Atomically a[i] = max(a[i], v)."),
]:
    _register(BuiltinSig(_name, "atomic", _atomic_resolve, (3,), doc=_doc,
                         mutates=(0,)))
