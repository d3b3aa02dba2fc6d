"""A forward's charges are the sum of its calls' reference charges.

The kernels charge each call from per-shape tables.
:class:`~repro.kernels.gemm.MixedPrecisionGemm` keeps one summed charge
per (activation shape, weight shape), each part charged by
:func:`~repro.npu.timing.gemm_cost`, and
:class:`~repro.kernels.flash_attention.FlashAttention` one per (n_q,
padded head dim, KV rows, group), filled from each query item's
``_item_cost``.  Over seeded random decode and chunk shapes, a forward's
:class:`~repro.llm.model.StepCost` must equal the sum of each part's
``gemm_cost`` and each query item's ``_item_cost`` on a new attention
kernel, and a record a caller mutates must not reach the next forward of
the same shape.
"""

import functools

import numpy as np
import pytest

from repro.kernels.flash_attention import FlashAttention
from repro.llm import NPUTransformer, TransformerWeights, tiny_config
from repro.npu.hmx import TILE_DIM
from repro.npu.memory import TCM
from repro.npu.timing import KernelCost, gemm_cost

CASES = 24
CAPACITY = 112  # KV lengths 0-100 plus up to 4 new tokens


def _padded(n: int) -> int:
    return -(-n // TILE_DIM) * TILE_DIM


@functools.lru_cache(maxsize=None)
def _model(group: int, down_bits: int) -> NPUTransformer:
    config = tiny_config(hidden_dim=48, n_heads=2 * group, n_kv_heads=2,
                         intermediate_dim=96, vocab_size=128)
    return NPUTransformer(TransformerWeights.generate(config, seed=group),
                          down_bits=down_bits)


def _shapes():
    """(group, down_bits, backend, n_new, KV lengths), seeded."""
    rng = np.random.default_rng(2027)
    for _ in range(CASES):
        batch = int(rng.integers(1, 9))
        yield (int(rng.integers(1, 5)), int(rng.choice([4, 8])),
               ("contiguous", "paged")[int(rng.integers(2))],
               int(rng.integers(1, 5)),
               [int(n) for n in rng.integers(0, 101, batch)])


def _cache(model: NPUTransformer, backend: str, lengths):
    """A cache whose sequence ``i`` holds ``lengths[i]`` random keys and
    values in every layer (charges never read them)."""
    cfg = model.config
    cache = (model.new_paged_cache(len(lengths), CAPACITY)
             if backend == "paged" else model.new_cache(len(lengths), CAPACITY))
    rng = np.random.default_rng(sum(lengths))
    for layer in range(cfg.n_layers):
        for seq, n in enumerate(lengths):
            if n:
                k, v = rng.normal(0, 1, (2, n, cfg.n_kv_heads, cfg.head_dim))
                cache[layer].append(seq, k.astype(np.float16),
                                    v.astype(np.float16))
    return cache


def _reference(model: NPUTransformer, down_bits: int, n_new: int,
               lengths) -> KernelCost:
    """Every call's charges: each projection part's ``gemm_cost`` and
    each query item's charges on a new attention kernel."""
    cfg = model.config
    m = len(lengths) * n_new
    attention = FlashAttention(model.attention_method, tcm=TCM(),
                               qfloat_mode=model.qfloat_mode)
    total = KernelCost()
    for prepared in model._prepared:
        for name, bits in (("qkv", 4), ("wo", 4), ("gate_up", 4),
                           ("w_down", down_bits)):
            for part in prepared[name].parts:
                k, n = part.quantized.original_shape
                total.merge(gemm_cost(m, k, n, model.strategy, bits=bits,
                                      qfloat=model.qfloat_mode == "qfloat"))
        for n in lengths:  # each sequence's query heads
            item = attention._item_cost(n_new, _padded(n + n_new),
                                        _padded(cfg.head_dim))
            for _ in range(cfg.n_heads):
                total.merge(item.total())
    return total


@pytest.mark.parametrize("group,down_bits,backend,n_new,lengths",
                         list(_shapes()))
def test_a_forward_is_charged_its_calls_reference_sum(
        group, down_bits, backend, n_new, lengths):
    model = _model(group, down_bits)
    cfg = model.config
    tokens = np.arange(len(lengths) * n_new).reshape(len(lengths), n_new)
    expected = _reference(model, down_bits, n_new, lengths)
    _, first = model.forward(tokens % cfg.vocab_size,
                             _cache(model, backend, lengths))
    assert first.npu == expected
    assert first.cpu_gemms == [(len(lengths) * n_new, cfg.hidden_dim,
                                cfg.vocab_size)]
    # a caller mutating the record reaches no table: the next forward of
    # the same shape is charged the reference again
    first.npu.merge(first.npu)
    first.cpu_gemms.append((1, 1, 1))
    _, second = model.forward(tokens % cfg.vocab_size,
                              _cache(model, backend, lengths))
    assert second.npu == expected and second.npu is not first.npu
    assert second.cpu_gemms == [(len(lengths) * n_new, cfg.hidden_dim,
                                 cfg.vocab_size)]
