"""Differential suite: block-paged KV decode against contiguous decode.

The paged cache partitions each sequence into fixed-size blocks, but the
per-(token, head) quantization granularity and the fp16 conversion are
unchanged, so reassembling the blocks must reproduce the contiguous
prefix *bitwise*.  These tests pin that down end to end: same sampled
tokens, same per-step :class:`StepCost`, for both storage dtypes,
several batch sizes, and block sizes that do and do not divide the
prompt length.
"""

import numpy as np
import pytest

from repro.llm import ContinuousBatchingScheduler, InferenceEngine, Sampler
from repro.llm.block_pool import PagedKVCache
from repro.llm.kv_cache import KVCache

PROMPT = [3, 1, 4, 1, 5, 9, 2, 6]


def _generate(model, backend, batch, dtype, block_size=16, seed=7,
              max_new_tokens=12, eos_id=None):
    engine = InferenceEngine(model, batch=batch, max_context=64,
                             kv_backend=backend, kv_dtype=dtype,
                             kv_block_size=block_size)
    return engine.generate(PROMPT, max_new_tokens=max_new_tokens,
                           sampler=Sampler(temperature=0.8, seed=seed),
                           eos_id=eos_id)


@pytest.mark.parametrize("dtype", ["fp16", "q8"])
@pytest.mark.parametrize("batch", [1, 4, 8])
def test_paged_decode_token_identical(tiny_model, dtype, batch):
    """Same RNG stream, same tokens: the backend swap is invisible."""
    contiguous = _generate(tiny_model, "contiguous", batch, dtype)
    paged = _generate(tiny_model, "paged", batch, dtype)
    assert paged.sequences == contiguous.sequences
    assert paged.n_generated_tokens == contiguous.n_generated_tokens


@pytest.mark.parametrize("dtype", ["fp16", "q8"])
@pytest.mark.parametrize("batch", [1, 4, 8])
def test_paged_decode_cost_identical(tiny_model, dtype, batch):
    """Per-step costs match exactly while the batch stays full."""
    contiguous = _generate(tiny_model, "contiguous", batch, dtype)
    paged = _generate(tiny_model, "paged", batch, dtype)
    assert paged.prefill_cost == contiguous.prefill_cost
    assert len(paged.decode_costs) == len(contiguous.decode_costs)
    for step, (a, b) in enumerate(zip(contiguous.decode_costs,
                                      paged.decode_costs)):
        assert a == b, f"StepCost diverged at decode step {step}"


@pytest.mark.parametrize("block_size", [1, 3, 5, 16, 64])
def test_block_size_never_changes_tokens(tiny_model, block_size):
    """Any block partition reassembles the identical KV prefix."""
    reference = _generate(tiny_model, "contiguous", 4, "fp16")
    paged = _generate(tiny_model, "paged", 4, "fp16",
                      block_size=block_size)
    assert paged.sequences == reference.sequences


def _assert_layouts_equal(contiguous, paged, n_kv_heads):
    """Every sequence's view, and one gather of all of them, agree
    bitwise on each sequence's valid rows."""
    order = [2, 0, 3, 1]
    for layer in range(len(contiguous)):
        for seq in order:
            ck, cv = contiguous[layer].view(seq)
            pk, pv = paged[layer].view(seq)
            np.testing.assert_array_equal(ck, pk)
            np.testing.assert_array_equal(cv, pv)
        ck, cv, lengths = contiguous[layer].gather(order)
        pk, pv, paged_lengths = paged[layer].gather(order)
        assert paged_lengths == lengths
        assert ck.dtype == pk.dtype == np.float16
        assert ck.shape[0] == pk.shape[0] == len(order) * n_kv_heads
        # rows past a sequence's length are left for attention to ignore
        for i, n in enumerate(lengths):
            heads = slice(i * n_kv_heads, (i + 1) * n_kv_heads)
            np.testing.assert_array_equal(ck[heads, :n], pk[heads, :n])
            np.testing.assert_array_equal(cv[heads, :n], pv[heads, :n])


@pytest.mark.parametrize("dtype", ["fp16", "q8"])
def test_paged_view_bitwise_equal_after_fork(tiny_model, dtype):
    """Raw cache views and gathers agree bitwise, including CoW-forked
    prefixes and a fork rolled back into its shared blocks and
    appended to again."""
    cfg = tiny_model.config
    rng = np.random.default_rng(5)
    contiguous = KVCache(cfg.n_layers, 4, 32, cfg.n_kv_heads, cfg.head_dim,
                         dtype=dtype)
    paged = PagedKVCache(cfg.n_layers, 4, 32, cfg.n_kv_heads, cfg.head_dim,
                         dtype=dtype, block_size=3)
    shape = (7, cfg.n_kv_heads, cfg.head_dim)
    for layer in range(cfg.n_layers):
        block = rng.normal(0, 1, shape).astype(np.float16)
        contiguous[layer].append(0, block, block * 0.5)
        paged[layer].append(0, block, block * 0.5)
    contiguous.fork(0, [1, 2, 3])
    paged.fork(0, [1, 2, 3])
    # diverge one fork so its tail blocks are privately rewritten
    tail = rng.normal(0, 1, (2,) + shape[1:]).astype(np.float16)
    for layer in range(cfg.n_layers):
        contiguous[layer].append(2, tail, tail)
        paged[layer].append(2, tail, tail)
    _assert_layouts_equal(contiguous, paged, cfg.n_kv_heads)

    # roll a fork back into the middle of a shared block, then append
    # past it: the shared block is copied before its rows are rewritten
    contiguous.truncate(1, 4)
    paged.truncate(1, 4)
    tail = rng.normal(0, 1, (5,) + shape[1:]).astype(np.float16)
    for layer in range(cfg.n_layers):
        contiguous[layer].append(1, tail * 2, tail)
        paged[layer].append(1, tail * 2, tail)
    _assert_layouts_equal(contiguous, paged, cfg.n_kv_heads)


@pytest.mark.parametrize("eos_id", [None, 5])
def test_scheduler_matches_lockstep_when_batch_holds_all(tiny_model, eos_id):
    """N == batch and shared budgets: scheduler output == lock-step.

    The scheduler admits candidates one sample() at a time from the
    prompt logits, which consumes the RNG identically to the lock-step
    ``sample_batch`` over tiled logits; with no EOS both then decode
    the same full batch every step, so tokens and costs must agree.
    With an EOS id the disciplines legitimately diverge after the first
    retirement (lock-step keeps decoding masked slots, the scheduler
    frees them), so only the admission-time tokens are compared.
    """
    batch = 4
    lockstep = _generate(tiny_model, "paged", batch, "fp16", seed=11,
                         eos_id=eos_id)
    engine = InferenceEngine(tiny_model, batch=batch, max_context=64,
                             kv_backend="paged")
    scheduler = ContinuousBatchingScheduler(engine)
    scheduled = scheduler.generate(PROMPT, n_candidates=batch,
                                   max_new_tokens=12,
                                   sampler=Sampler(temperature=0.8, seed=11),
                                   eos_id=eos_id)
    if eos_id is None:
        assert scheduled.sequences == lockstep.sequences
        assert scheduled.decode_costs == lockstep.decode_costs
    else:
        # with EOS the scheduler legitimately shrinks the live batch, so
        # only the prefix up to the first retirement is comparable; the
        # first sampled token per candidate always is.
        for a, b in zip(scheduled.sequences, lockstep.sequences):
            assert a[0] == b[0]


def test_paged_quantization_error_equals_contiguous(tiny_model):
    """q8 rounding is a property of the codec, not the block layout."""
    q8_contiguous = _generate(tiny_model, "contiguous", 4, "q8")
    q8_paged = _generate(tiny_model, "paged", 4, "q8", block_size=5)
    assert q8_paged.sequences == q8_contiguous.sequences
    assert q8_paged.decode_costs == q8_contiguous.decode_costs
