"""Golden pin over simulated-LLM generation, and a replica check of the
draws it makes.

One sha256 covers, for every (LLM, prompt) of the full bench:

* the latent pool: each candidate's index, ``intended`` label and source
  text, and the pool's logits as float64 bytes;
* the ``generate`` draws at (T=0.2, seed 11) and (T=0.8, seed 17).

A pool is a pure function of (model, prompt) and every draw reads one
PCG64 ``random()`` stream through a cdf, so this digest moves only when
the pools, the sampling arithmetic or the numpy bit generator change.
Update the pin only for an intended change, and say in the change log
what moved and why.
"""

import hashlib

import numpy as np
import pytest

from repro.bench import EXECUTION_MODELS, PCGBench
from repro.models import all_models
from repro.models.llm import draw_indices
from repro.models.mutate import _bug_weights, draw_without_replacement

GOLDEN = "081811920d06fa0d17486c7a4f17dd562902d4c1cfda06b441d36a3c22f4caee"

#: (temperature, seed, samples) of the pinned ``generate`` calls
DRAWS = ((0.2, 11, 20), (0.8, 17, 20))


def _generation_digest():
    h = hashlib.sha256()
    prompts = PCGBench().prompts
    for llm in all_models():
        pools = {}
        for prompt in prompts:
            pool, logits = llm._pool(prompt)
            pools[prompt.uid] = (pool, logits)
            h.update(f"pool {llm.name} {prompt.uid}\n".encode())
            for sample in pool:
                h.update(f"{sample.candidate} {sample.intended}\n".encode())
                h.update(sample.source.encode() + b"\0")
            h.update(np.asarray(logits, dtype=np.float64).tobytes())
        # generate() rebuilds the pool; serve it from the one just hashed
        llm._pool = lambda prompt, pools=pools: pools[prompt.uid]
        for temperature, seed, n in DRAWS:
            for prompt in prompts:
                picks = llm.generate(prompt, n, temperature=temperature,
                                     seed=seed)
                h.update(f"draw {llm.name} {prompt.uid} {temperature} "
                         f"{seed} ".encode())
                h.update(" ".join(str(s.candidate) for s in picks).encode())
                h.update(hashlib.sha256(
                    b"\0".join(s.source.encode() for s in picks)).digest())
    return h.hexdigest()


def test_generation_golden_digest():
    assert _generation_digest() == GOLDEN


def _weights(rng, size):
    w = rng.random(size) ** rng.uniform(0.5, 4.0)
    w[w == 0.0] = 1e-12
    return w / w.sum()


@pytest.mark.parametrize("case", range(40))
def test_draw_indices_matches_generator_choice(case):
    meta = np.random.default_rng(1000 + case)
    size = int(meta.integers(2, 21))
    p = _weights(meta, size)
    n = int(meta.integers(1, 30))
    seed = int(meta.integers(0, 2**63))
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    got = draw_indices(cdf, ours, n)
    want = ref.choice(size, size=n, p=p)
    assert got.tolist() == want.tolist()
    # a scalar draw, as the pool's variant pick makes
    assert draw_indices(cdf, ours) == int(ref.choice(size, p=p))
    assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("case", range(40))
def test_draw_without_replacement_matches_generator_choice(case):
    meta = np.random.default_rng(2000 + case)
    size = int(meta.integers(2, 21))
    p = _weights(meta, size)
    if case % 4 == 0:
        # a few dominant entries force many rounds
        p[: size // 2] *= 1e6
        p /= p.sum()
    seed = int(meta.integers(0, 2**63))
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = draw_without_replacement(p, ours)
    want = ref.choice(size, size=size, replace=False, p=p)
    assert got == [int(k) for k in want]
    assert sorted(got) == list(range(size))
    assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("exec_model", EXECUTION_MODELS)
def test_bug_orders_match_generator_choice(exec_model):
    """The real mutator weights: mostly ties, a few rare bugs."""
    _, p = _bug_weights(exec_model)
    for seed in range(25):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        want = ref.choice(len(p), size=len(p), replace=False, p=p)
        assert draw_without_replacement(p, ours) == [int(k) for k in want]
        assert ours.bit_generator.state == ref.bit_generator.state
