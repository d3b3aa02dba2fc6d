"""Unit tests for RMSNorm / RoPE / SwiGLU / residual add."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.kernels.ops import (
    residual_add,
    rms_norm,
    rope_frequencies,
    rope_rotate,
    silu,
    swiglu,
)


class TestRMSNorm:
    def test_unit_rms_output(self, rng):
        x = rng.normal(0, 3, (4, 64)).astype(np.float16)
        out = rms_norm(x, np.ones(64, dtype=np.float16))
        rms = np.sqrt(np.mean(out.astype(np.float64) ** 2, axis=1))
        assert np.allclose(rms, 1.0, atol=0.02)

    def test_weight_scales_channels(self, rng):
        x = rng.normal(0, 1, (2, 32)).astype(np.float16)
        w = np.full(32, 2.0, dtype=np.float16)
        doubled = rms_norm(x, w)
        unit = rms_norm(x, np.ones(32, dtype=np.float16))
        assert np.allclose(doubled.astype(np.float32),
                           2 * unit.astype(np.float32), atol=1e-2)

    def test_scale_invariance(self, rng):
        x = rng.normal(0, 1, (2, 32)).astype(np.float16)
        w = np.ones(32, dtype=np.float16)
        a = rms_norm(x, w).astype(np.float32)
        b = rms_norm((x.astype(np.float32) * 100).astype(np.float16),
                     w).astype(np.float32)
        assert np.allclose(a, b, atol=2e-3)

    def test_width_mismatch(self, rng):
        with pytest.raises(KernelError):
            rms_norm(rng.normal(size=(2, 32)), np.ones(16))


class TestRoPE:
    def test_frequencies_shape(self):
        cos, sin = rope_frequencies(64, 128)
        assert cos.shape == (128, 32) and sin.shape == (128, 32)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(KernelError):
            rope_frequencies(63, 10)

    def test_position_zero_is_identity(self, rng):
        cos, sin = rope_frequencies(32, 16)
        x = rng.normal(size=(1, 32)).astype(np.float16)
        out = rope_rotate(x, np.array([0]), cos, sin)
        assert np.allclose(out.astype(np.float32),
                           x.astype(np.float32), atol=1e-3)

    def test_rotation_preserves_norm(self, rng):
        cos, sin = rope_frequencies(64, 128)
        x = rng.normal(size=(8, 64)).astype(np.float16)
        out = rope_rotate(x, np.arange(8) * 10, cos, sin)
        norms_in = np.linalg.norm(x.astype(np.float64), axis=1)
        norms_out = np.linalg.norm(out.astype(np.float64), axis=1)
        assert np.allclose(norms_in, norms_out, rtol=5e-3)

    def test_relative_position_property(self, rng):
        """q.k after RoPE depends only on the position difference."""
        cos, sin = rope_frequencies(32, 256)
        q = rng.normal(size=(1, 32)).astype(np.float32)
        k = rng.normal(size=(1, 32)).astype(np.float32)

        def dot_at(pq, pk):
            qr = rope_rotate(q, np.array([pq]), cos, sin).astype(np.float64)
            kr = rope_rotate(k, np.array([pk]), cos, sin).astype(np.float64)
            return float((qr @ kr.T)[0, 0])

        assert dot_at(10, 7) == pytest.approx(dot_at(110, 107), rel=2e-2,
                                              abs=2e-2)

    def test_position_bounds(self, rng):
        cos, sin = rope_frequencies(32, 16)
        with pytest.raises(KernelError):
            rope_rotate(rng.normal(size=(1, 32)), np.array([16]), cos, sin)

    def test_token_count_mismatch(self, rng):
        cos, sin = rope_frequencies(32, 16)
        with pytest.raises(KernelError):
            rope_rotate(rng.normal(size=(2, 32)), np.array([0]), cos, sin)


class TestActivations:
    def test_silu_known_values(self):
        out = silu(np.array([0.0], dtype=np.float16))
        assert out[0] == 0.0
        out = silu(np.array([20.0], dtype=np.float16))
        assert out[0] == pytest.approx(20.0, rel=1e-3)

    def test_silu_negative_saturates_to_zero(self):
        out = silu(np.array([-30.0], dtype=np.float16))
        assert abs(float(out[0])) < 1e-3

    def test_swiglu_combines(self, rng):
        gate = rng.normal(size=(2, 16)).astype(np.float16)
        up = rng.normal(size=(2, 16)).astype(np.float16)
        out = swiglu(gate, up).astype(np.float64)
        expected = (silu(gate).astype(np.float64)
                    * up.astype(np.float64))
        assert np.allclose(out, expected, atol=2e-3)

    def test_swiglu_shape_mismatch(self, rng):
        with pytest.raises(KernelError):
            swiglu(rng.normal(size=(2, 16)), rng.normal(size=(2, 8)))

    @given(st.floats(-10, 10))
    @settings(max_examples=40)
    def test_silu_bounded_below(self, x):
        out = float(silu(np.array([x], dtype=np.float16))[0])
        assert out >= -0.3  # silu minimum is about -0.278


class TestResidualAdd:
    def test_adds(self, rng):
        a = rng.normal(size=(2, 16)).astype(np.float16)
        b = rng.normal(size=(2, 16)).astype(np.float16)
        out = residual_add(a, b).astype(np.float32)
        assert np.allclose(out, a.astype(np.float32) + b.astype(np.float32),
                           atol=2e-3)

    def test_shape_mismatch(self, rng):
        with pytest.raises(KernelError):
            residual_add(rng.normal(size=(2, 16)), rng.normal(size=(2, 8)))
