"""Bug injection: turn a correct solution into the kinds of wrong code
LLMs actually emit.

Every mutator is a *real* source-to-source transformation — the resulting
text still goes through the full compile → link → usage-check → run →
validate pipeline, and whether the bug manifests as a build error, a data
race, a deadlock, a wrong answer or a timeout is decided by the harness,
not by the injector.  A mutator returns None when its pattern does not
occur in the given source, and the sampler falls back to another one.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

MutateFn = Callable[[str, np.random.Generator], Optional[str]]

_MUTATORS: Dict[str, MutateFn] = {}


def _mutator(name: str):
    def deco(fn: MutateFn) -> MutateFn:
        _MUTATORS[name] = fn
        return fn
    return deco


def _pick(matches: List, rng: np.random.Generator):
    return matches[int(rng.integers(0, len(matches)))]


# -- build-breaking bugs --------------------------------------------------------


@_mutator("syntax_drop_semicolon")
def _drop_semicolon(src: str, rng) -> Optional[str]:
    spots = [m.start() for m in re.finditer(r";", src)]
    if not spots:
        return None
    at = _pick(spots, rng)
    return src[:at] + src[at + 1:]


@_mutator("syntax_drop_brace")
def _drop_brace(src: str, rng) -> Optional[str]:
    spots = [m.start() for m in re.finditer(r"\}", src)]
    if not spots:
        return None
    at = _pick(spots, rng)
    return src[:at] + src[at + 1:]


@_mutator("type_confusion")
def _type_confusion(src: str, rng) -> Optional[str]:
    at = src.find("{")
    if at < 0:
        return None
    return src[:at + 1] + "\n    let mistake: int = 0.5;" + src[at + 1:]


@_mutator("unknown_api")
def _unknown_api(src: str, rng) -> Optional[str]:
    # hallucinated calls, a classic LLM failure on niche APIs
    calls = ["device_synchronize();", "omp_set_dynamic_teams(4);",
             "mpi_wait_all_requests();", "kokkos_fence_all();"]
    at = src.find("{")
    if at < 0:
        return None
    call = calls[int(rng.integers(0, len(calls)))]
    return src[:at + 1] + f"\n    {call}" + src[at + 1:]


@_mutator("undeclared_name")
def _undeclared_name(src: str, rng) -> Optional[str]:
    m = re.search(r"return (.+);", src)
    if m is None:
        at = src.rfind("}")
        return src[:at] + "    undefined_helper(0);\n" + src[at:]
    return src[:m.start(1)] + "answer_value" + src[m.end(1):]


# -- usage bugs -------------------------------------------------------------------


def make_sequential_fallback(serial_source: str) -> str:
    """The model ignored the parallel instruction and wrote serial code.

    The caller passes the serial variant's source re-rendered with the
    *target* model's signature; the sample builds and runs correctly but
    fails the parallel-usage check (paper §7.2), as GCC-compiled serial
    code would.
    """
    return serial_source


# -- synchronisation bugs -------------------------------------------------------------


@_mutator("drop_reduction_clause")
def _drop_reduction(src: str, rng) -> Optional[str]:
    out, n = re.subn(r" reduction\((?:\+|\*|min|max): \w+\)", "", src, count=1)
    return out if n else None


@_mutator("drop_atomic_pragma")
def _drop_atomic_pragma(src: str, rng) -> Optional[str]:
    out, n = re.subn(r"[ \t]*pragma omp atomic\n", "", src, count=1)
    return out if n else None


@_mutator("drop_critical")
def _drop_critical(src: str, rng) -> Optional[str]:
    out, n = re.subn(r"[ \t]*pragma omp critical\n", "", src, count=1)
    return out if n else None


@_mutator("atomic_to_plain")
def _atomic_to_plain(src: str, rng) -> Optional[str]:
    pat = re.compile(r"atomic_(add|min|max)\((\w+), ([^,]+), (.+?)\);")

    def repl(m: re.Match) -> str:
        op, arr, idx, val = m.groups()
        if op == "add":
            return f"{arr}[{idx}] += {val};"
        return f"{arr}[{idx}] = {op}({arr}[{idx}], {val});"

    out, n = pat.subn(repl, src)
    return out if n else None


@_mutator("inplace_stencil")
def _inplace_update(src: str, rng) -> Optional[str]:
    # write results back into the input array — the in-place-update race
    pairs = [("y[i] =", "x[i] ="), ("unew[i] =", "u[i] ="),
             ("out[i] =", "x[i] ="), ("ndist[v] =", "dist[v] =")]
    for old, new in pairs:
        if old in src:
            return src.replace(old, new)
    return None


# -- indexing / logic bugs ----------------------------------------------------------------


@_mutator("off_by_one_start")
def _off_by_one_start(src: str, rng) -> Optional[str]:
    out, n = re.subn(r"in 0\.\.", "in 1..", src, count=1)
    return out if n else None


@_mutator("off_by_one_end")
def _off_by_one_end(src: str, rng) -> Optional[str]:
    out, n = re.subn(r"\.\.len\((\w+)\)\)", r"..len(\1) - 1)", src, count=1)
    return out if n else None


@_mutator("flip_operator")
def _flip_operator(src: str, rng) -> Optional[str]:
    swaps = [(" + ", " - "), (" < ", " <= "), (" * ", " + "),
             ("min(", "max(")]
    candidates = [(a, b) for a, b in swaps if a in src]
    if not candidates:
        return None
    a, b = _pick(candidates, rng)
    spots = [m.start() for m in re.finditer(re.escape(a), src)]
    at = _pick(spots, rng)
    return src[:at] + b + src[at + len(a):]


@_mutator("drop_gpu_guard")
def _drop_gpu_guard(src: str, rng) -> Optional[str]:
    pat = re.compile(
        r"if \(i < [^\n{]+\) \{\n(.*?)\n(    )\}", re.DOTALL
    )
    m = pat.search(src)
    if m is None:
        return None
    inner = "\n".join(
        ln[4:] if ln.startswith("    ") else ln
        for ln in m.group(1).split("\n")
    )
    return src[:m.start()] + inner + src[m.end():]


@_mutator("wrong_identity")
def _wrong_identity(src: str, rng) -> Optional[str]:
    for lit in ("1e30", "-1e30", "0.0 - 1e30"):
        if f"= {lit};" in src:
            return src.replace(f"= {lit};", "= 0.0;", 1)
    return None


# -- MPI bugs ----------------------------------------------------------------------------------


@_mutator("mpi_rank_skew")
def _mpi_rank_skew(src: str, rng) -> Optional[str]:
    out, n = re.subn(r"let lo_r = rank \* chunk;",
                     "let lo_r = rank * chunk + 1;", src, count=1)
    return out if n else None


@_mutator("mpi_wrong_root")
def _mpi_wrong_root(src: str, rng) -> Optional[str]:
    pat = re.compile(r"(mpi_(?:reduce_float|reduce_int|reduce_array|"
                     r"gather_array|bcast_float|bcast_int|bcast_array|"
                     r"scatter_array)\([^;]*?), 0\)")
    out, n = pat.subn(r"\1, 1)", src, count=1)
    return out if n else None


@_mutator("mpi_collective_skew")
def _mpi_collective_skew(src: str, rng) -> Optional[str]:
    if "mpi_" not in src:
        return None
    at = src.find("{")
    return (src[:at + 1]
            + "\n    if (mpi_rank() == 0) {\n        mpi_barrier();\n    }"
            + src[at + 1:])


@_mutator("mpi_recv_deadlock")
def _mpi_recv_deadlock(src: str, rng) -> Optional[str]:
    if "mpi_" not in src:
        return None
    at = src.find("{")
    return (src[:at + 1]
            + "\n    let handshake = mpi_recv_float((mpi_rank() + 1) % mpi_size(), 99);"
            + src[at + 1:])


# -- pathological performance ---------------------------------------------------------------------


@_mutator("runaway_loop")
def _runaway_loop(src: str, rng) -> Optional[str]:
    at = src.find("{")
    return (src[:at + 1]
            + "\n    let spin = 0;\n    while (spin >= 0) {\n"
            "        spin += 1;\n    }"
            + src[at + 1:])


#: which mutators make sense for which execution model (beyond the
#: universal build/logic bugs)
_UNIVERSAL = [
    "syntax_drop_semicolon", "syntax_drop_brace", "type_confusion",
    "unknown_api", "undeclared_name", "off_by_one_start", "off_by_one_end",
    "flip_operator", "wrong_identity", "runaway_loop", "inplace_stencil",
]

_PER_MODEL = {
    "serial": [],
    "openmp": ["drop_reduction_clause", "drop_atomic_pragma", "drop_critical",
               "atomic_to_plain"],
    "kokkos": ["atomic_to_plain"],
    "mpi": ["mpi_rank_skew", "mpi_wrong_root", "mpi_collective_skew",
            "mpi_recv_deadlock"],
    "mpi+omp": ["mpi_rank_skew", "mpi_wrong_root", "mpi_collective_skew",
                "mpi_recv_deadlock", "drop_reduction_clause",
                "drop_atomic_pragma"],
    "cuda": ["drop_gpu_guard", "atomic_to_plain"],
    "hip": ["drop_gpu_guard", "atomic_to_plain"],
}

#: rare bugs get lower weight (timeouts are expensive to simulate, and
#: runaway generations are a small minority of real failures)
_WEIGHTS = {
    "runaway_loop": 0.15,
    "syntax_drop_brace": 0.5,
    "type_confusion": 0.7,
}


def mutator_names(exec_model: str) -> List[str]:
    return _UNIVERSAL + _PER_MODEL[exec_model]


def draw_without_replacement(p: np.ndarray,
                             rng: np.random.Generator) -> List[int]:
    """A random order of ``range(len(p))``, drawn without replacement with
    probabilities ``p`` (positive, summing to 1).

    Repeats ``rng.choice(len(p), size=len(p), replace=False, p=p)`` round
    for round, so the order and ``rng``'s final state are identical: each
    round draws one ``random()`` per index still missing, zeroes the
    entries already found, takes the normalised cumulative sum, and keeps
    the first occurrence of each new ``searchsorted(side="right")`` hit.
    """
    n = len(p)
    p = p.copy()
    found: List[int] = []
    while len(found) < n:
        x = rng.random(n - len(found))
        if found:
            p[found] = 0
        cdf = p.cumsum()
        cdf /= cdf[-1]
        hits = cdf.searchsorted(x, side="right").tolist()
        found.extend(dict.fromkeys(hits))   # first occurrences, in order
    return found


@functools.lru_cache(maxsize=None)
def _bug_weights(exec_model: str) -> Tuple[Tuple[str, ...], np.ndarray]:
    """The mutator names for ``exec_model`` and their normalised weights,
    both read-only: every call shares them.

    Normalised with numpy's pairwise ``sum``, as the draws always were; a
    Python ``sum`` rounds differently and would move every bug.
    """
    names = tuple(mutator_names(exec_model))
    weights = np.array([_WEIGHTS.get(n, 1.0) for n in names])
    p = weights / weights.sum()
    p.flags.writeable = False
    return names, p


def apply_bug(source: str, exec_model: str,
              rng: np.random.Generator) -> Optional[str]:
    """Apply one randomly chosen applicable bug; None if nothing applies.

    Mutators are tried in a weighted random order (``_WEIGHTS``) drawn
    without replacement from ``rng``, the first that changes the source
    wins, and each mutator draws its own choices from the same ``rng``.
    """
    names, p = _bug_weights(exec_model)
    for k in draw_without_replacement(p, rng):
        mutated = _MUTATORS[names[k]](source, rng)
        if mutated is not None and mutated != source:
            return mutated
    return None


# ---------------------------------------------------------------------------
# pessimisation: correct-but-slow code (paper §8 RQ3)
# ---------------------------------------------------------------------------

def pessimize(source: str, problem, repeats: int = 1) -> Optional[str]:
    """Insert a redundant serial pass over the first array parameter at the
    top of the entry kernel.

    The result is still *correct* — it recomputes nothing and clobbers
    nothing — but adds O(n) sequential work before the parallel region,
    which Amdahl's law turns into a large efficiency loss.  This is the
    "correct yet inefficient" code shape behind the paper's finding that
    pass@1 leaders are not speedup leaders.  Not applied to GPU kernels
    (each thread would repeat the pass; the banks' thread0-serial variants
    already play that role there).
    """
    arr = next((q for q in problem.params if q.type.startswith("array")), None)
    if arr is None:
        return None
    marker = f"kernel {problem.name}("
    at = source.find(marker)
    if at < 0:
        return None
    brace = source.find("{", at)
    if brace < 0:
        return None
    if arr.type.startswith("array2d"):
        prelude = (
            f"\n    let warmup_pass = copy({arr.name});\n"
            f"    for (wr in 0..{repeats}) {{\n"
            f"        for (wi in 0..rows(warmup_pass)) {{\n"
            f"            for (wj in 0..cols(warmup_pass)) {{\n"
            f"                warmup_pass[wi, wj] = {arr.name}[wi, wj];\n"
            f"            }}\n"
            f"        }}\n"
            f"    }}"
        )
    else:
        prelude = (
            f"\n    let warmup_pass = copy({arr.name});\n"
            f"    for (wr in 0..{repeats}) {{\n"
            f"        for (wi in 0..len(warmup_pass)) {{\n"
            f"            warmup_pass[wi] = {arr.name}[wi];\n"
            f"        }}\n"
            f"    }}"
        )
    return source[:brace + 1] + prelude + source[brace + 1:]
