"""GPU-FOR: format layout (Figures 3-4), round trips, tiles, resources."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.gpufor import (
    BLOCK,
    BLOCK_HEADER_WORDS,
    GpuFor,
    bit_length,
    pack_blocks,
    unpack_blocks,
)


class TestBitLength:
    def test_matches_python_bit_length(self, rng):
        values = rng.integers(0, 2**32, 1000, dtype=np.uint64)
        expected = np.array([int(v).bit_length() for v in values])
        assert np.array_equal(bit_length(values), expected)

    def test_powers_of_two_exact(self):
        # The classic float-log pitfall: 2**k must need exactly k+1 bits.
        powers = 2 ** np.arange(32, dtype=np.uint64)
        assert np.array_equal(bit_length(powers), np.arange(32) + 1)

    def test_63_bit_boundary_exact(self):
        # Top of the supported range: 2**62 and 2**63 - 1 need 63 bits.
        vals = np.array([2**62 - 1, 2**62, 2**63 - 1], dtype=np.uint64)
        assert np.array_equal(bit_length(vals), [62, 63, 63])

    def test_values_beyond_63_bits_rejected(self):
        # Regression: 2**63 used to silently report 63 bits (the bound
        # table stops at 2**62) and mis-pack downstream.
        with pytest.raises(ValueError, match=r"2\*\*63"):
            bit_length(np.array([2**63], dtype=np.uint64))
        with pytest.raises(ValueError, match=r"2\*\*63"):
            bit_length(np.array([2**64 - 1], dtype=np.uint64))

    def test_negative_wraparound_rejected(self):
        # Negative inputs wrap to >= 2**63 under the uint64 view; they
        # must raise instead of reporting 63-bit widths.
        with pytest.raises(ValueError, match=r"2\*\*63"):
            bit_length(np.array([-1], dtype=np.int64))


class TestPackBlocks:
    def test_reference_is_block_minimum(self):
        values = np.arange(100, 100 + BLOCK, dtype=np.int64)
        data, starts, bits = pack_blocks(values)
        assert data[starts[0]].view(np.int32) == 100

    def test_bitwidth_word_layout(self):
        # Four miniblocks with known widths 1, 2, 3, 4.
        values = np.concatenate(
            [np.tile([0, 2**b - 1], 16) for b in (1, 2, 3, 4)]
        ).astype(np.int64)
        data, starts, bits = pack_blocks(values)
        assert list(bits[0]) == [1, 2, 3, 4]
        bw_word = int(data[starts[0] + 1])
        assert [(bw_word >> (8 * j)) & 0xFF for j in range(4)] == [1, 2, 3, 4]

    def test_block_words_match_bitwidths(self):
        values = np.arange(2 * BLOCK, dtype=np.int64)
        data, starts, bits = pack_blocks(values)
        for blk in range(2):
            expected = BLOCK_HEADER_WORDS + int(bits[blk].sum())
            assert starts[blk + 1] - starts[blk] == expected

    def test_all_equal_block_needs_header_only(self):
        values = np.full(BLOCK, 42, dtype=np.int64)
        data, starts, bits = pack_blocks(values)
        assert starts[1] - starts[0] == BLOCK_HEADER_WORDS
        assert np.all(bits == 0)

    def test_negative_values_via_reference(self):
        values = np.full(BLOCK, -5, dtype=np.int64)
        values[0] = -100
        data, starts, _ = pack_blocks(values)
        out = unpack_blocks(data, starts, 0, 1)
        assert np.array_equal(out, values)

    def test_range_over_32_bits_rejected(self):
        values = np.zeros(BLOCK, dtype=np.int64)
        values[0] = -1
        values[1] = 2**32
        with pytest.raises(ValueError, match="range exceeds"):
            pack_blocks(values)

    def test_non_multiple_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            pack_blocks(np.zeros(100, dtype=np.int64))

    def test_empty(self):
        data, starts, bits = pack_blocks(np.zeros(0, dtype=np.int64))
        assert data.size == 0 and starts.size == 1 and bits.size == 0

    def test_unpack_without_reference_gives_raw_diffs(self):
        values = np.arange(100, 100 + BLOCK, dtype=np.int64)
        data, starts, _ = pack_blocks(values)
        diffs = unpack_blocks(data, starts, 0, 1, add_reference=False)
        assert np.array_equal(diffs, np.arange(BLOCK))

    def test_partial_block_range_decode(self):
        values = np.arange(5 * BLOCK, dtype=np.int64) * 3
        data, starts, _ = pack_blocks(values)
        out = unpack_blocks(data, starts, 2, 4)
        assert np.array_equal(out, values[2 * BLOCK : 4 * BLOCK])


class TestGpuForCodec:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda rng: rng.integers(0, 2**16, 10_000),
            lambda rng: rng.integers(-(2**20), 2**20, 5_000),
            lambda rng: np.sort(rng.integers(0, 2**30, 7_777)),
            lambda rng: np.zeros(BLOCK * 3 + 1, dtype=np.int64),
            lambda rng: np.array([2**31 - 1]),
            lambda rng: np.array([-(2**31)]),
        ],
    )
    def test_roundtrip(self, rng, maker):
        values = np.asarray(maker(rng), dtype=np.int64)
        codec = GpuFor()
        out = codec.decode(codec.encode(values))
        assert np.array_equal(out, values)

    def test_empty_column(self):
        codec = GpuFor()
        enc = codec.encode(np.array([], dtype=np.int64))
        assert enc.count == 0
        assert codec.decode(enc).size == 0

    def test_overhead_is_0_75_bits(self, rng):
        # 1 block-start + 1 reference + 1 bitwidth word per 128 values.
        values = rng.integers(0, 2**16, 1_000_000)
        enc = GpuFor().encode(values)
        overhead = enc.bits_per_int - 16
        assert 0.70 <= overhead <= 0.85

    def test_compression_linear_in_bitwidth(self, rng):
        sizes = [
            GpuFor().encode(rng.integers(0, 2**b, 50_000)).bits_per_int
            for b in (4, 8, 16)
        ]
        assert sizes[0] < sizes[1] < sizes[2]
        assert abs((sizes[1] - sizes[0]) - 4) < 0.6
        assert abs((sizes[2] - sizes[1]) - 8) < 0.6

    def test_tiles_concatenate_to_column(self, rng):
        values = rng.integers(0, 1000, 10 * BLOCK + 17)
        codec = GpuFor(d_blocks=4)
        enc = codec.encode(values)
        for t in range(codec.num_tiles(enc)):
            tile = values[t * 4 * BLOCK : (t + 1) * 4 * BLOCK]
            assert np.array_equal(codec.decode_tile(enc, t), tile), t

    def test_tile_out_of_range(self, rng):
        codec = GpuFor()
        enc = codec.encode(rng.integers(0, 10, 100))
        with pytest.raises(IndexError):
            codec.decode_tile(enc, 99)

    def test_tile_segments_cover_data_array(self, rng):
        values = rng.integers(0, 2**12, 20 * BLOCK)
        codec = GpuFor(d_blocks=4)
        enc = codec.encode(values)
        starts, lengths = codec.tile_segments(enc)
        n_tiles = codec.num_tiles(enc)
        data_segs = slice(0, n_tiles)
        covered = int(lengths[data_segs].sum())
        assert covered == enc.arrays["data"].nbytes

    def test_d_blocks_validation(self):
        with pytest.raises(ValueError):
            GpuFor(d_blocks=0)

    def test_kernel_resources_scale_with_d(self):
        small = GpuFor(d_blocks=1)
        big = GpuFor(d_blocks=32)
        enc_s = small.encode(np.arange(BLOCK))
        enc_b = big.encode(np.arange(BLOCK))
        rs, rb = small.kernel_resources(enc_s), big.kernel_resources(enc_b)
        assert rb.registers_per_thread > rs.registers_per_thread
        assert rb.shared_mem_per_block > rs.shared_mem_per_block

    def test_cascade_passes_structure(self, rng):
        enc = GpuFor().encode(rng.integers(0, 100, 1000))
        passes = GpuFor().cascade_passes(enc)
        assert [p.name for p in passes] == ["unpack-bits", "add-reference"]
        assert passes[0].write_bytes == enc.count * 4

    def test_check_roundtrip_helper(self, rng):
        GpuFor().check_roundtrip(rng.integers(0, 50, 300))

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError, match="1-D"):
            GpuFor().encode(np.zeros((2, 2), dtype=np.int64))

    @given(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=0, max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.int64)
        codec = GpuFor()
        try:
            enc = codec.encode(arr)
        except ValueError:
            # Legal only when a block's range exceeds 32 bits.
            assert arr.size > 0
            return
        assert np.array_equal(codec.decode(enc), arr)
