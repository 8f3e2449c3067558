"""Shared input-generator helpers for the PCGBench problem modules."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


def floats(rng: np.random.Generator, n: int, lo: float = -10.0,
           hi: float = 10.0) -> np.ndarray:
    """Uniform floats rounded to 3 decimals (keeps prompts and tolerance
    comparisons well-behaved)."""
    return np.round(rng.uniform(lo, hi, n), 3)


def ints(rng: np.random.Generator, n: int, lo: int = 0, hi: int = 100) -> np.ndarray:
    return rng.integers(lo, hi, n, dtype=np.int64)


def grid(rng: np.random.Generator, n: int, lo: float = -5.0,
         hi: float = 5.0) -> np.ndarray:
    """A square float grid whose side is derived from the 1-D size."""
    side = side_for(n)
    return np.round(rng.uniform(lo, hi, (side, side)), 3)


def side_for(n: int) -> int:
    """Square-grid side for a nominal 1-D problem size."""
    return max(4, int(round(n ** 0.5)))


def csr_matrix(rng: np.random.Generator, n: int, density: float = 0.05
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A random square CSR matrix (rowptr, colidx, vals) with ~density nnz
    per row; every row gets at least one entry so row ops are exercised."""
    rowptr = [0]
    colidx: list = []
    vals: list = []
    per_row = max(1, int(density * n))
    for _ in range(n):
        k = int(rng.integers(1, 2 * per_row + 1))
        cols = np.sort(rng.choice(n, size=min(k, n), replace=False))
        colidx.extend(int(c) for c in cols)
        vals.extend(float(v) for v in np.round(rng.uniform(-2, 2, len(cols)), 3))
        rowptr.append(len(colidx))
    return (
        np.asarray(rowptr, dtype=np.int64),
        np.asarray(colidx, dtype=np.int64),
        np.asarray(vals, dtype=np.float64),
    )


def csr_graph(rng: np.random.Generator, n: int, avg_degree: int = 6,
              n_components: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """An undirected graph in CSR form (rowptr, colidx), optionally split
    into ``n_components`` disjoint vertex blocks."""
    adj = [set() for _ in range(n)]
    bounds = np.linspace(0, n, n_components + 1).astype(int)
    for c in range(n_components):
        lo, hi = int(bounds[c]), int(bounds[c + 1])
        size = hi - lo
        if size <= 1:
            continue
        # spanning path keeps each block connected
        for v in range(lo + 1, hi):
            u = int(rng.integers(lo, v))
            adj[u].add(v)
            adj[v].add(u)
        extra = max(0, size * avg_degree // 2 - (size - 1))
        for _ in range(extra):
            u = int(rng.integers(lo, hi))
            v = int(rng.integers(lo, hi))
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
    rowptr = [0]
    colidx: list = []
    for v in range(n):
        colidx.extend(sorted(adj[v]))
        rowptr.append(len(colidx))
    return np.asarray(rowptr, dtype=np.int64), np.asarray(colidx, dtype=np.int64)
