"""Unit tests for nibble packing and super-group coalescing (§5.1.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.npu.hvx import VECTOR_BYTES
from repro.quant.coalesce import (
    SUPER_GROUP_FACTOR,
    pack_aos_q4,
    pack_nibbles,
    pack_supergroups_q4,
    register_utilization,
    unpack_aos_q4,
    unpack_nibbles,
    unpack_supergroups_q4,
)
from repro.quant.schemes import QuantizedGroups, quantize_q4_0, quantize_q8_0


class TestNibblePacking:
    def test_roundtrip(self):
        codes = np.array([0, 15, 7, 8, 1, 14], dtype=np.uint8)
        assert np.array_equal(unpack_nibbles(pack_nibbles(codes)), codes)

    def test_low_nibble_first(self):
        packed = pack_nibbles(np.array([0x3, 0xA], dtype=np.uint8))
        assert packed[0] == 0xA3

    def test_halves_size(self):
        assert pack_nibbles(np.zeros(64, dtype=np.uint8)).size == 32

    def test_odd_count_rejected(self):
        with pytest.raises(QuantizationError):
            pack_nibbles(np.zeros(3, dtype=np.uint8))

    def test_out_of_range_rejected(self):
        with pytest.raises(QuantizationError):
            pack_nibbles(np.array([16, 0], dtype=np.uint8))

    @given(st.lists(st.integers(0, 15), min_size=2, max_size=512).filter(
        lambda l: len(l) % 2 == 0))
    @settings(max_examples=40)
    def test_roundtrip_property(self, codes):
        arr = np.array(codes, dtype=np.uint8)
        assert np.array_equal(unpack_nibbles(pack_nibbles(arr)), arr)


class TestAoSLayout:
    def test_roundtrip(self, rng):
        groups = quantize_q4_0(rng.normal(size=256))
        packed = pack_aos_q4(groups)
        back = unpack_aos_q4(packed)
        assert np.array_equal(back.codes, groups.codes)
        assert np.array_equal(back.scales, groups.scales)

    def test_record_layout(self, rng):
        """Each group record is 16 code bytes + 2 scale bytes."""
        groups = quantize_q4_0(rng.normal(size=64))
        packed = pack_aos_q4(groups)
        assert packed.data.size == 2 * 18

    def test_requires_q4(self, rng):
        with pytest.raises(QuantizationError):
            pack_aos_q4(quantize_q8_0(rng.normal(size=64)))

    def test_unpack_layout_check(self, rng):
        packed = pack_supergroups_q4(quantize_q4_0(rng.normal(size=256)))
        with pytest.raises(QuantizationError):
            unpack_aos_q4(packed)


class TestSuperGroups:
    def test_roundtrip(self, rng):
        groups = quantize_q4_0(rng.normal(size=2048))
        packed = pack_supergroups_q4(groups)
        back = unpack_supergroups_q4(packed)
        assert np.array_equal(back.codes, groups.codes)
        assert np.array_equal(back.scales, groups.scales)

    def test_codes_fill_one_register(self, rng):
        """Fig. 7: 8 groups' codes occupy exactly one 128-byte register."""
        groups = quantize_q4_0(rng.normal(size=256))
        packed = pack_supergroups_q4(groups)
        code_bytes = SUPER_GROUP_FACTOR * 32 // 2
        assert code_bytes == VECTOR_BYTES
        # one super-group record: 128 code bytes + 16 scale bytes
        assert packed.data.size == VECTOR_BYTES + 16

    def test_codes_contiguous(self, rng):
        """All 256 elements' codes precede all scales within a record."""
        groups = quantize_q4_0(rng.normal(size=256))
        packed = pack_supergroups_q4(groups)
        codes = unpack_nibbles(packed.data[:VECTOR_BYTES])
        assert np.array_equal(codes.reshape(8, 32), groups.codes)

    def test_divisibility_check(self, rng):
        groups = quantize_q4_0(rng.normal(size=96))  # 3 groups
        with pytest.raises(QuantizationError):
            pack_supergroups_q4(groups, coalesce=8)

    def test_custom_coalesce_factor(self, rng):
        groups = quantize_q4_0(rng.normal(size=256))
        packed = pack_supergroups_q4(groups, coalesce=4)
        back = unpack_supergroups_q4(packed)
        assert np.array_equal(back.codes, groups.codes)

    def test_invalid_factor(self, rng):
        with pytest.raises(QuantizationError):
            pack_supergroups_q4(quantize_q4_0(rng.normal(size=64)), coalesce=0)

    def test_unpack_layout_check(self, rng):
        packed = pack_aos_q4(quantize_q4_0(rng.normal(size=64)))
        with pytest.raises(QuantizationError):
            unpack_supergroups_q4(packed)

    @given(st.integers(1, 8), st.integers(0, 500))
    @settings(max_examples=30)
    def test_roundtrip_property(self, n_super, seed):
        rng = np.random.default_rng(seed)
        groups = quantize_q4_0(rng.normal(size=n_super * 256))
        back = unpack_supergroups_q4(pack_supergroups_q4(groups))
        assert np.array_equal(back.codes, groups.codes)
        assert np.array_equal(back.scales, groups.scales)


class TestRegisterUtilization:
    def test_aos_underfills(self, rng):
        packed = pack_aos_q4(quantize_q4_0(rng.normal(size=256)))
        assert register_utilization(packed) == pytest.approx(16 / 128)

    def test_supergroup_fills(self, rng):
        packed = pack_supergroups_q4(quantize_q4_0(rng.normal(size=256)))
        assert register_utilization(packed) == 1.0

    def test_partial_coalesce(self, rng):
        packed = pack_supergroups_q4(quantize_q4_0(rng.normal(size=256)),
                                     coalesce=4)
        assert register_utilization(packed) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# references: the per-group loops the vectorized packers replaced
# ----------------------------------------------------------------------
def reference_pack(groups, coalesce):
    code_bytes = coalesce * groups.group_size // 2
    record = code_bytes + 2 * coalesce
    n_records = groups.n_groups // coalesce
    out = np.empty(n_records * record, dtype=np.uint8)
    scale_bytes = groups.scales.astype(np.float16).view(np.uint8).reshape(-1, 2)
    for s in range(n_records):
        base = s * record
        block = groups.codes[s * coalesce:(s + 1) * coalesce].ravel()
        out[base:base + code_bytes] = pack_nibbles(block)
        out[base + code_bytes:base + record] = \
            scale_bytes[s * coalesce:(s + 1) * coalesce].ravel()
    return out


def reference_unpack(packed, coalesce):
    code_bytes = coalesce * packed.group_size // 2
    record = code_bytes + 2 * coalesce
    n_records = packed.n_groups // coalesce
    data = packed.data.reshape(n_records, record)
    codes = np.empty((packed.n_groups, packed.group_size), dtype=np.uint8)
    scales = np.empty(packed.n_groups, dtype=np.float16)
    for s in range(n_records):
        codes[s * coalesce:(s + 1) * coalesce] = unpack_nibbles(
            data[s, :code_bytes]).reshape(coalesce, packed.group_size)
        scales[s * coalesce:(s + 1) * coalesce] = np.ascontiguousarray(
            data[s, code_bytes:]).view(np.float16)
    return QuantizedGroups(codes=codes, scales=scales, bits=4,
                           group_size=packed.group_size)


@pytest.mark.parametrize("n_groups", [8, 24, 64])
@pytest.mark.parametrize("layout,coalesce", [("aos", 1), ("supergroup", 1),
                                             ("supergroup", 4),
                                             ("supergroup", 8)])
def test_packers_match_the_group_loops(n_groups, layout, coalesce):
    rng = np.random.default_rng([n_groups, coalesce])
    groups = quantize_q4_0(rng.normal(size=n_groups * 32))
    if layout == "aos":
        packed, back = pack_aos_q4(groups), unpack_aos_q4
    else:
        packed = pack_supergroups_q4(groups, coalesce)
        back = unpack_supergroups_q4
    assert packed.data.tobytes() == reference_pack(groups, coalesce).tobytes()
    got, expected = back(packed), reference_unpack(packed, coalesce)
    assert got.codes.tobytes() == expected.codes.tobytes()
    assert got.scales.tobytes() == expected.scales.tobytes()
    assert not np.shares_memory(got.scales, packed.data)
