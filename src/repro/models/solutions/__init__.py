"""The solution bank: correct MiniPar solutions for every PCGBench task.

``bank()`` lazily builds and caches the full table of
(problem, execution model) -> [Variant...].  Every variant is a complete
MiniPar program implementing the prompt; variants differ in performance
tier (``quality``), mirroring the spread of code shapes real LLMs emit.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, List, Tuple

from ...bench.baselines import baseline_source
from ...bench.problems import all_problems
from ...bench.spec import EXECUTION_MODELS, Problem
from .builders import Variant, build_variants

__all__ = ["Variant", "bank", "corpus", "variants_for", "build_variants"]


@lru_cache(maxsize=1)
def bank() -> Dict[Tuple[str, str], List[Variant]]:
    """The full bank: one entry per (problem name, execution model)."""
    table: Dict[Tuple[str, str], List[Variant]] = {}
    for problem in all_problems():
        for model in EXECUTION_MODELS:
            table[(problem.name, model)] = build_variants(problem, model)
    return table


def variants_for(problem: Problem, model: str) -> List[Variant]:
    return bank()[(problem.name, model)]


def corpus() -> Iterator[Tuple[str, str, str]]:
    """``(label, model, source)`` for the handwritten corpus: each
    problem's baseline (under ``serial``), then its solution variants."""
    for problem in all_problems():
        yield f"baseline/{problem.name}", "serial", \
            baseline_source(problem.name)
        for model in EXECUTION_MODELS:
            for i, v in enumerate(variants_for(problem, model)):
                yield f"{problem.name}/{model}[{i}]", model, v.source
