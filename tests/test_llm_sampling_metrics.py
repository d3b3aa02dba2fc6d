"""Unit tests for samplers, the tokenizer and quality metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EngineError, ModelConfigError
from repro.llm.perplexity import mean_kl_divergence, perplexity, top1_agreement
from repro.llm.sampler import Sampler, softmax_logits
from repro.llm.tokenizer import ByteTokenizer


class TestSampler:
    def test_greedy_picks_argmax(self):
        sampler = Sampler(temperature=0.0)
        logits = np.array([0.1, 5.0, -1.0])
        assert sampler.sample(logits) == 1

    def test_temperature_sampling_reproducible(self):
        a = Sampler(temperature=1.0, seed=5)
        b = Sampler(temperature=1.0, seed=5)
        logits = np.random.default_rng(0).normal(size=50)
        assert [a.sample(logits) for _ in range(10)] == \
            [b.sample(logits) for _ in range(10)]

    def test_top_k_restricts_support(self):
        sampler = Sampler(temperature=1.0, top_k=2, seed=0)
        logits = np.array([10.0, 9.0, -50.0, -50.0])
        draws = {sampler.sample(logits) for _ in range(50)}
        assert draws <= {0, 1}

    def test_top_p_restricts_support(self):
        sampler = Sampler(temperature=1.0, top_p=0.5, seed=0)
        logits = np.array([10.0, 0.0, 0.0, 0.0])
        draws = {sampler.sample(logits) for _ in range(30)}
        assert draws == {0}

    def test_high_temperature_spreads(self):
        sampler = Sampler(temperature=100.0, seed=0)
        logits = np.array([1.0, 0.0, 0.0, 0.0])
        draws = [sampler.sample(logits) for _ in range(200)]
        assert len(set(draws)) >= 3

    def test_sample_batch(self):
        sampler = Sampler(temperature=0.0)
        logits = np.array([[1.0, 2.0], [3.0, 0.0]])
        assert sampler.sample_batch(logits).tolist() == [1, 0]

    def test_parameter_validation(self):
        with pytest.raises(EngineError):
            Sampler(temperature=-1)
        with pytest.raises(EngineError):
            Sampler(top_k=0)
        with pytest.raises(EngineError):
            Sampler(top_p=1.5)

    def test_empty_logits(self):
        with pytest.raises(EngineError):
            Sampler().sample(np.array([]))

    @given(st.integers(0, 1000))
    @settings(max_examples=30)
    def test_sample_always_in_range(self, seed):
        sampler = Sampler(temperature=1.2, top_k=5, top_p=0.9, seed=seed)
        logits = np.random.default_rng(seed).normal(size=64)
        assert 0 <= sampler.sample(logits) < 64


def _per_row_sample(sampler, rng, logits):
    """The one-row sampler that ``sample_batch`` replaced, drawing from
    ``rng``: the reference the batched sampler must equal."""
    row = np.asarray(logits, dtype=np.float64).ravel()
    if sampler.temperature == 0.0:
        return int(row.argmax())
    probs = softmax_logits(row / sampler.temperature)
    if sampler.top_k is not None and sampler.top_k < probs.size:
        cutoff = np.partition(probs, -sampler.top_k)[-sampler.top_k]
        probs = np.where(probs >= cutoff, probs, 0.0)
    if sampler.top_p is not None:
        order = np.argsort(probs)[::-1]
        cumulative = np.cumsum(probs[order])
        keep = cumulative - probs[order] < sampler.top_p
        mask = np.zeros_like(probs, dtype=bool)
        mask[order[keep]] = True
        probs = np.where(mask, probs, 0.0)
    total = probs.sum()
    if total <= 0:
        return int(row.argmax())
    return int(rng.choice(probs.size, p=probs / total))


class TestBatchSampling:
    """``sample_batch`` draws what one ``choice`` per row drew."""

    @pytest.mark.parametrize("temperature", [0.0, 0.8, 1.5])
    @pytest.mark.parametrize("top_k", [None, 1, 5])
    @pytest.mark.parametrize("top_p", [None, 0.3, 0.9])
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_per_row_choice(self, temperature, top_k, top_p, ties):
        seed = 17
        sampler = Sampler(temperature=temperature, top_k=top_k, top_p=top_p,
                          seed=seed)
        reference = np.random.default_rng(seed)
        data = np.random.default_rng([seed, top_k or 0, ties])
        for rows in range(1, 17):
            vocab = (8, 64, 512)[rows % 3]
            logits = data.normal(0, 3, (rows, vocab)).astype(np.float32)
            if ties:  # few distinct values, so ranks tie
                logits = np.round(logits / 2)
            expected = [_per_row_sample(sampler, reference, row)
                        for row in logits]
            tokens = sampler.sample_batch(logits)
            assert tokens.dtype == np.int64
            assert tokens.tolist() == expected
            assert sampler._rng.bit_generator.state == \
                reference.bit_generator.state

    def test_sample_draws_one_choice(self):
        sampler = Sampler(temperature=0.8, top_p=0.9, seed=3)
        reference = np.random.default_rng(3)
        logits = np.random.default_rng(4).normal(size=(6, 40))
        assert [sampler.sample(row) for row in logits] == \
            [_per_row_sample(sampler, reference, row) for row in logits]
        assert sampler._rng.bit_generator.state == \
            reference.bit_generator.state


class TestNonFiniteLogits:
    """A row holding NaN or an infinity raises, naming row and value."""

    @pytest.mark.parametrize("temperature", [0.0, 0.8])
    @pytest.mark.parametrize("row,value", [
        ([np.nan, 1.0, 2.0], "nan"),
        ([-np.inf, -np.inf], "-inf"),
        ([np.inf, 1.0], "inf"),
    ], ids=["nan", "all-neg-inf", "pos-inf"])
    def test_raises_engine_error(self, temperature, row, value):
        sampler = Sampler(temperature=temperature, seed=0)
        with pytest.raises(EngineError, match=rf"row 0 holds {value} "):
            sampler.sample(np.array(row))

    def test_names_the_offending_row_of_a_batch(self):
        logits = np.zeros((4, 3))
        logits[2, 1] = np.nan
        sampler = Sampler(temperature=0.8, seed=0)
        state = sampler._rng.bit_generator.state
        with pytest.raises(EngineError, match=r"row 2 holds nan at token 1"):
            sampler.sample_batch(logits)
        assert sampler._rng.bit_generator.state == state


class TestSoftmaxLogits:
    def test_rows_sum_to_one(self, rng):
        probs = softmax_logits(rng.normal(size=(4, 32)))
        assert np.allclose(probs.sum(axis=-1), 1.0)

    def test_handles_extremes(self):
        probs = softmax_logits(np.array([1e30, -1e30, 0.0]))
        assert np.isfinite(probs).all()
        assert probs[0] == pytest.approx(1.0)


class TestByteTokenizer:
    def test_roundtrip_ascii(self):
        tok = ByteTokenizer()
        text = "Hello, NPU world!"
        assert tok.decode(tok.encode(text)) == text

    def test_roundtrip_utf8(self):
        tok = ByteTokenizer()
        text = "数学推理 🚀"
        assert tok.decode(tok.encode(text)) == text

    def test_bos_prepended(self):
        tok = ByteTokenizer()
        assert tok.encode("a")[0] == tok.bos_id
        assert tok.encode("a", add_bos=False)[0] == ord("a")

    def test_vocab_size_check(self):
        with pytest.raises(ModelConfigError):
            ByteTokenizer(vocab_size=100)


class TestMetrics:
    def test_perplexity_of_perfect_prediction(self):
        vocab = 16
        targets = np.array([3, 7, 11])
        logits = np.full((3, vocab), -30.0)
        logits[np.arange(3), targets] = 30.0
        assert perplexity(logits, targets) == pytest.approx(1.0)

    def test_perplexity_of_uniform(self):
        vocab = 64
        logits = np.zeros((5, vocab))
        targets = np.arange(5)
        assert perplexity(logits, targets) == pytest.approx(vocab)

    def test_perplexity_alignment_check(self):
        with pytest.raises(ModelConfigError):
            perplexity(np.zeros((3, 8)), np.zeros(4, dtype=int))

    def test_kl_zero_for_identical(self, rng):
        logits = rng.normal(size=(4, 32))
        assert mean_kl_divergence(logits, logits) == pytest.approx(0.0, abs=1e-12)

    def test_kl_positive_for_different(self, rng):
        p = rng.normal(size=(4, 32))
        q = p + rng.normal(0, 0.5, size=(4, 32))
        assert mean_kl_divergence(p, q) > 0

    def test_kl_grows_with_perturbation(self, rng):
        p = rng.normal(size=(8, 64))
        noise = rng.normal(size=(8, 64))
        small = mean_kl_divergence(p, p + 0.1 * noise)
        large = mean_kl_divergence(p, p + 1.0 * noise)
        assert large > small

    def test_kl_shape_check(self):
        with pytest.raises(ModelConfigError):
            mean_kl_divergence(np.zeros((2, 4)), np.zeros((2, 5)))

    def test_top1_agreement(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert top1_agreement(a, b) == 0.5
