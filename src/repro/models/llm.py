"""Simulated LLMs: deterministic, calibrated code generators.

For a given prompt, a model holds a finite latent pool of candidate
outputs (the way a real LLM at fixed weights has a small set of high-mass
completions).  Sampling draws candidates through a temperature-scaled
softmax over per-candidate logits — Equation (3) of the paper — whose
spread is the model's ``confidence``: at temperature 0.2 a confident model
emits its top candidate almost every time (which is exactly why the paper
sees CodeLlama-34B/GPT-4 repeat one output for most of 20 samples, hurting
pass@1 whenever that output is wrong), while temperature 0.8 spreads mass
across the pool, which is why pass@k grows with k and then plateaus
(Fig. 4): the pool is finite.

Every candidate materialises as *source text*: a solution-bank variant,
either intact (correct candidate), rewritten as a sequential fallback, or
passed through a real bug injector.  Nothing here decides correctness —
the harness does, by compiling and running the sample.

Every weighted pick is ``cdf.searchsorted(random(), side="right")`` over
a normalised cumulative sum, on a seeded PCG64 generator
(:func:`draw_indices`; bug orders,
:func:`repro.models.mutate.draw_without_replacement`).  That is what
``Generator.choice`` computes, bit for bit, without its per-call
validation, so samples depend on PCG64 and float64 arithmetic, not on
``Generator.choice`` internals (``tests/models/test_generation_golden.py``
pins them).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..bench.spec import Prompt
from .mutate import apply_bug, pessimize
from .profiles import ModelProfile, profile
from .solutions import Variant, variants_for

#: latent candidates per (model, prompt)
POOL = 12

#: pass@k plateau factor: real LLM completions are highly correlated, so
#: many attempts only modestly beat one attempt — the paper's Fig. 4 shows
#: Phind-V2 going from 32% pass@1 to 46% pass@20 (~1.45x).  A prompt is
#: "solvable" for a model with probability min(1, PLATEAU * p); within a
#: solvable prompt candidates are correct with probability p / solvable,
#: which preserves pass@1 = p exactly while capping pass@inf near the
#: plateau.
PLATEAU = 1.45

#: share of incorrect candidates that are sequential fallbacks (the
#: "ignored the parallel instruction" failure), vs injected bugs
P_SEQUENTIAL_FALLBACK = 0.22


@dataclass(frozen=True)
class Sample:
    """One generated completion."""

    source: str
    candidate: int           # latent pool index (diagnostics)
    intended: str            # "correct" | "fallback" | "bug"


def draw_indices(cdf: np.ndarray, rng: np.random.Generator,
                 size: Optional[int] = None):
    """Indices drawn with replacement from the normalised ``cdf``: an int
    for ``size=None``, else an int64 array of ``size`` indices.

    This is exactly what ``rng.choice(len(p), size, p=p)`` returns for
    ``cdf = p.cumsum(); cdf /= cdf[-1]``, leaving ``rng`` in the same state
    (one ``random()`` per index, ``searchsorted(side="right")``), without
    the per-call validation of ``p`` that dominates ``Generator.choice``
    on small pools.
    """
    picks = cdf.searchsorted(rng.random(size), side="right")
    return picks if size is not None else int(picks)


def _prompt_seed(model_name: str, prompt_uid: str) -> int:
    digest = hashlib.sha256(f"{model_name}\x00{prompt_uid}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class SimulatedLLM:
    """A deterministic stand-in for one of the paper's seven models."""

    def __init__(self, name: str, profile_: Optional[ModelProfile] = None):
        self.name = name
        self.profile = profile_ if profile_ is not None else profile(name)

    # -- latent pool ---------------------------------------------------------------

    def _pool(self, prompt: Prompt) -> Tuple[List[Sample], np.ndarray]:
        """The candidate outputs this model 'knows' for this prompt, with
        their logits.  Both are a pure function of (model, prompt) — a
        model at fixed weights has one output distribution; the sampling
        seed only chooses within it.  The variant cdf is built once per
        pool and every candidate draws from it."""
        rng = np.random.default_rng(_prompt_seed(self.name, prompt.uid))
        p = self.profile.p_correct(prompt.model, prompt.problem.ptype)
        variants = variants_for(prompt.problem, prompt.model)
        qualities = np.array([v.quality for v in variants])
        weights = qualities ** self.profile.variant_bias(prompt.model)
        # normalised before the cumsum, as Generator.choice received it,
        # so the cdf rounds exactly as the draws always did
        weights = weights / weights.sum()
        cdf = weights.cumsum()
        cdf /= cdf[-1]

        solvable_p = min(0.98, PLATEAU * p)
        solvable = rng.random() < solvable_p
        p_within = (p / solvable_p) if solvable else 0.0

        pool: List[Sample] = []
        for c in range(POOL):
            variant: Variant = variants[draw_indices(cdf, rng)]
            if rng.random() < p_within:
                pool.append(Sample(variant.source, c, "correct"))
                continue
            if prompt.model != "serial" and rng.random() < P_SEQUENTIAL_FALLBACK:
                serial = variants_for(prompt.problem, "serial")[0]
                # re-render the serial body under this prompt's signature
                fallback = self._serial_fallback(prompt, serial)
                pool.append(Sample(fallback, c, "fallback"))
                continue
            mutated = apply_bug(variant.source, prompt.model, rng)
            if mutated is None:  # pragma: no cover - mutators cover all banks
                mutated = variant.source + "\nkernel __trailing_garbage("
            pool.append(Sample(mutated, c, "bug"))
        # correct-but-inefficient completions: low-discipline models pad
        # their (otherwise correct) code with redundant serial passes.
        # Drawn from an independent stream so earlier pools (and any cached
        # correctness results) are unaffected by this post-pass.
        if prompt.model not in ("cuda", "hip"):
            slop_rng = np.random.default_rng(
                _prompt_seed(self.name, prompt.uid) ^ 0x5105105105105105
            )
            bias = self.profile.variant_bias(prompt.model)
            p_slop = min(0.75, max(0.0, 0.55 - 0.17 * bias))
            for idx, sample in enumerate(pool):
                if sample.intended != "correct":
                    continue
                if slop_rng.random() < p_slop:
                    repeats = int(slop_rng.integers(1, 4))
                    slow = pessimize(sample.source, prompt.problem, repeats)
                    if slow is not None:
                        pool[idx] = Sample(slow, sample.candidate, "correct")
        logits = rng.normal(0.0, self.profile.confidence, size=len(pool))
        return pool, logits

    @staticmethod
    def _serial_fallback(prompt: Prompt, serial: Variant) -> str:
        """The serial solution re-signed for the prompt's execution model
        (GPU signatures carry the extra result buffer)."""
        src = serial.source
        old_sig = prompt.problem.signature("serial")
        new_sig = prompt.problem.signature(prompt.model)
        if old_sig in src and old_sig != new_sig:
            if prompt.model in ("cuda", "hip") and prompt.problem.ret is not None:
                # returns become writes into result[0] via a helper kernel
                name = prompt.problem.name
                params = ", ".join(f"{p.name}: {p.type}"
                                   for p in prompt.problem.params)
                args = ", ".join(p.name for p in prompt.problem.params)
                helper = src.replace(old_sig,
                                     f"kernel {name}_seq({params}) -> "
                                     f"{prompt.problem.ret} {{")
                return (helper + "\n" + new_sig
                        + f"\n    result[0] = {name}_seq({args});\n}}\n")
            return src.replace(old_sig, new_sig)
        return src

    # -- sampling -------------------------------------------------------------------

    def generate(self, prompt: Prompt, num_samples: int,
                 temperature: float = 0.2, seed: int = 0) -> List[Sample]:
        """Draw ``num_samples`` completions at the given temperature.

        Matches the paper's §7.1 configuration style: nucleus-style
        sampling is modelled by the finite pool (mass below the top-p
        cut-off never materialises); temperature rescales the candidate
        logits exactly as Equation (3) rescales token logits.  The picks
        are ``num_samples`` draws from the softmax's cdf, seeded by
        (model, prompt, ``seed``).
        """
        pool, logits = self._pool(prompt)
        rng = np.random.default_rng(
            (_prompt_seed(self.name, prompt.uid) ^ (seed * 0x9E3779B97F4A7C15))
            & 0xFFFFFFFFFFFFFFFF
        )
        scaled = logits / max(temperature, 1e-6)
        scaled -= scaled.max()
        probs = np.exp(scaled)
        probs /= probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        picks = draw_indices(cdf, rng, num_samples)
        return [pool[k] for k in picks.tolist()]


def load_model(name: str) -> SimulatedLLM:
    """Instantiate one of the paper's models by name (Table 2)."""
    return SimulatedLLM(name)


def all_models() -> Sequence[SimulatedLLM]:
    from .profiles import MODEL_ORDER

    return [SimulatedLLM(n) for n in MODEL_ORDER]
