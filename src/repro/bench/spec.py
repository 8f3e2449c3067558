"""Problem and prompt specifications for PCGBench.

Terminology follows the paper (§4):

* **task/prompt** — one text prompt for one (problem, execution model)
  pair; compiled, run and scored individually;
* **problem** — the computational job, with a prompt per execution model;
* **problem type** — a group of five related problems (``sort``,
  ``scan``, ...);
* **benchmark** — all 420 prompts together.

Every :class:`Problem` carries everything the harness needs: the natural
language description, the MiniPar signature, an input generator, a numpy
reference implementation, sizes for correctness/timing runs, the work
scale for the simulated-time model, and a tolerance-aware checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime.values import Array

#: The seven execution models, in the paper's canonical order.
EXECUTION_MODELS = (
    "serial", "openmp", "kokkos", "mpi", "mpi+omp", "cuda", "hip",
)

#: The twelve problem types (Table 1).
PROBLEM_TYPES = (
    "sort", "scan", "dense_la", "sparse_la", "search", "reduce",
    "histogram", "stencil", "graph", "geometry", "fft", "transform",
)

PROBLEM_TYPE_DESCRIPTIONS = {
    "sort": "Sort an array or sub-array of values; in-place and out-of-place.",
    "scan": "Scan operations, such as prefix sum, over an array of values.",
    "dense_la": "Dense matrix algebra functions from all 3 levels of BLAS.",
    "sparse_la": "Sparse matrix algebra functions from all 3 levels of BLAS.",
    "search": "Search for an element or property in an array of values.",
    "reduce": "Reduction operation over an array dimension, such as computing a sum.",
    "histogram": "Binning values based on a property of the data.",
    "stencil": "1 iteration of 1D and 2D stencil problems, such as Jacobi stencil.",
    "graph": "Graph algorithms, such as component counting.",
    "geometry": "Compute geometric properties, such as convex hull.",
    "fft": "Compute standard and inverse Fourier transforms.",
    "transform": "Map a constant function to each element of an array.",
}


@dataclass(frozen=True)
class ParamSpec:
    """One kernel parameter: MiniPar type string plus a data-flow role.

    Roles: ``in`` (read-only), ``out`` (filled by the kernel; the driver
    checks it), ``inout`` (mutated in place; the driver checks it).
    """

    name: str
    type: str
    role: str = "in"

    def __post_init__(self):
        assert self.role in ("in", "out", "inout"), self.role


# generate(rng, size) -> {param name: numpy array | scalar}
GenerateFn = Callable[[np.random.Generator, int], Dict[str, object]]
# reference(inputs) -> {checked param name: expected} (+ "return" if any)
ReferenceFn = Callable[[Dict[str, object]], Dict[str, object]]


@dataclass
class Problem:
    """One PCGBench problem (one prompt per execution model)."""

    name: str
    ptype: str
    description: str
    params: Tuple[ParamSpec, ...]
    ret: Optional[str]                 # MiniPar return type or None
    generate: GenerateFn
    reference: ReferenceFn
    examples: Tuple[Tuple[str, str], ...] = ()   # (input line, output line)
    correctness_size: int = 256
    timing_size: int = 2048
    work_scale: float = 1024.0
    tol: float = 1e-6
    #: kernel threads for CUDA/HIP launches (defaults to the primary size)
    gpu_threads: Optional[Callable[[Dict[str, object]], int]] = None
    #: GPU kernels cannot return scalars, so for CUDA/HIP the driver appends
    #: a one-element ``result`` buffer (as the paper's CUDA drivers pass an
    #: output pointer).  ``gpu_result_init`` seeds it (value, or a function
    #: of the inputs, e.g. +inf for min-reductions); ``gpu_expected``
    #: overrides the expected result[0] when the buffer convention differs
    #: from the host return value (e.g. "len(x) means not found").
    gpu_result_init: object = 0
    gpu_expected: Optional[Callable[[Dict[str, object]], object]] = None
    notes: str = ""

    @property
    def entry(self) -> str:
        """The kernel name the LLM must implement."""
        return self.name

    def checked_params(self) -> List[ParamSpec]:
        return [p for p in self.params if p.role in ("out", "inout")]

    def default_gpu_threads(self, inputs: Dict[str, object]) -> int:
        if self.gpu_threads is not None:
            return self.gpu_threads(inputs)
        for p in self.params:
            v = inputs[p.name]
            if isinstance(v, np.ndarray):
                return int(v.shape[0] * (v.shape[1] if v.ndim == 2 else 1))
        return 1

    def to_minipar_args(self, inputs: Dict[str, object]) -> List[object]:
        """Convert generated numpy inputs to runtime values, in order."""
        args: List[object] = []
        for p in self.params:
            v = inputs[p.name]
            if isinstance(v, np.ndarray):
                elem = "int" if p.type in ("array<int>", "array2d<int>") else "float"
                args.append(Array.from_numpy(v, elem))
            elif p.type == "int":
                args.append(int(v))
            elif p.type == "float":
                args.append(float(v))
            else:
                args.append(v)
        return args

    def _check_arrays(self, expected: Dict[str, object],
                      out_args: Sequence[object]) -> bool:
        by_name = dict(zip((p.name for p in self.params), out_args))
        for p in self.checked_params():
            got = by_name[p.name]
            want = np.asarray(expected[p.name])
            if not isinstance(got, Array):
                return False
            got_np = got.to_numpy()
            if got_np.shape != want.shape:
                return False
            if p.type.endswith("<int>"):
                if not np.array_equal(got_np, want.astype(np.int64)):
                    return False
            else:
                if not np.allclose(got_np, want, rtol=self.tol,
                                   atol=self.tol * 10):
                    return False
        return True

    def _check_return(self, want_ret: object, ret: object) -> bool:
        if ret is None:
            return False
        if self.ret == "int":
            return isinstance(ret, int) and ret == int(want_ret)
        return bool(np.isclose(float(ret), float(want_ret), rtol=self.tol,
                               atol=self.tol * 10))

    def check(self, inputs: Dict[str, object], out_args: Sequence[object],
              ret: object) -> bool:
        """Compare a run's outputs against the numpy reference."""
        expected = self.reference(inputs)
        if not self._check_arrays(expected, out_args):
            return False
        if self.ret is not None:
            return self._check_return(expected["return"], ret)
        return True

    # -- the GPU result-buffer convention ---------------------------------

    def gpu_params(self) -> Tuple[ParamSpec, ...]:
        """Parameter list for CUDA/HIP prompts (adds ``result`` if the host
        signature returns a scalar)."""
        if self.ret is None:
            return self.params
        elem = "array<int>" if self.ret == "int" else "array<float>"
        return self.params + (ParamSpec("result", elem, "out"),)

    def gpu_result_seed(self, inputs: Dict[str, object]) -> object:
        init = self.gpu_result_init
        return init(inputs) if callable(init) else init

    def gpu_expected_result(self, inputs: Dict[str, object]) -> object:
        if self.gpu_expected is not None:
            return self.gpu_expected(inputs)
        return self.reference(inputs)["return"]

    def gpu_check(self, inputs: Dict[str, object],
                  out_args: Sequence[object]) -> bool:
        """Check a CUDA/HIP run: arrays as usual, result[0] for the scalar."""
        expected = self.reference(inputs)
        if self.ret is None:
            return self._check_arrays(expected, out_args)
        if not self._check_arrays(expected, out_args[:-1]):
            return False
        result = out_args[-1]
        if not isinstance(result, Array) or len(result.data) != 1:
            return False
        want = self.gpu_expected_result(inputs)
        got = result.data[0]
        if self.ret == "int":
            return isinstance(got, int) and got == int(want)
        return bool(np.isclose(float(got), float(want), rtol=self.tol,
                               atol=self.tol * 10))

    def signature(self, model: str = "serial") -> str:
        """The MiniPar kernel signature line shown in every prompt."""
        params = self.gpu_params() if model in ("cuda", "hip") else self.params
        ret = self.ret if model not in ("cuda", "hip") else None
        ps = ", ".join(f"{p.name}: {p.type}" for p in params)
        rs = f" -> {ret}" if ret else ""
        return f"kernel {self.name}({ps}){rs} {{"


@dataclass(frozen=True)
class Prompt:
    """One benchmark task: a problem rendered for one execution model."""

    problem: Problem = field(hash=False, compare=False)
    model: str = "serial"
    text: str = ""

    @property
    def uid(self) -> str:
        return f"{self.problem.ptype}/{self.problem.name}/{self.model}"
