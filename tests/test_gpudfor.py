"""GPU-DFOR: per-tile delta chains, first values, compression behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.gpudfor import GpuDFor
from repro.formats.gpufor import BLOCK, GpuFor


class TestFormat:
    def test_first_value_per_tile(self, rng):
        codec = GpuDFor(d_blocks=4)
        tile = 4 * BLOCK
        values = rng.integers(0, 10**6, 3 * tile)
        enc = codec.encode(values)
        assert np.array_equal(
            enc.arrays["first_values"].astype(np.int64), values[::tile]
        )

    def test_tiles_decode_independently(self, rng):
        codec = GpuDFor(d_blocks=4)
        tile = 4 * BLOCK
        values = np.sort(rng.integers(0, 2**28, 5 * tile))
        enc = codec.encode(values)
        # Decode the middle tile alone — no dependence on earlier tiles.
        out = codec.decode_tile(enc, 2)
        assert np.array_equal(out, values[2 * tile : 3 * tile])

    def test_overhead_is_0_81_bits(self, rng):
        # GPU-FOR's 0.75 + one first-value word per D=4 blocks.
        values = rng.integers(0, 2**16, 1_000_000)
        enc = GpuDFor().encode(values)
        raw_bits = 17  # unsorted deltas need one extra bit (Section 9.2)
        assert abs(enc.bits_per_int - (raw_bits + 0.81)) < 0.6

    def test_sorted_keys_compress_hard(self):
        # Section 5.1: 1..n sorted costs ~1.8 bits/int vs ~7.8 for GPU-FOR.
        n = 500_000
        keys = np.arange(1, n + 1, dtype=np.int64)
        dfor = GpuDFor().encode(keys).bits_per_int
        ffor = GpuFor().encode(keys).bits_per_int
        assert dfor < 2.0
        assert 6.5 < ffor < 8.5
        assert ffor / dfor > 3

    def test_unsorted_worse_than_gpufor(self, rng):
        # Deltas of uniform data span a wider range than the data itself.
        values = rng.integers(0, 32, 100_000)
        assert (
            GpuDFor().encode(values).bits_per_int
            > GpuFor().encode(values).bits_per_int
        )

    def test_first_value_overflow_rejected(self):
        with pytest.raises(ValueError, match="int32"):
            GpuDFor().encode(np.array([2**40]))


class TestRoundtrip:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda rng: np.sort(rng.integers(-(2**30), 2**30, 10_000)),
            lambda rng: rng.integers(0, 100, 3 * 512 + 1),
            lambda rng: np.arange(512, dtype=np.int64)[::-1],  # descending
            lambda rng: np.array([7]),
            lambda rng: np.array([], dtype=np.int64),
            lambda rng: np.full(512 * 2, -(2**20), dtype=np.int64),
        ],
    )
    def test_roundtrip(self, rng, maker):
        values = np.asarray(maker(rng), dtype=np.int64)
        codec = GpuDFor()
        assert np.array_equal(codec.decode(codec.encode(values)), values)

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_roundtrip_any_d(self, rng, d):
        values = np.sort(rng.integers(0, 2**24, 4_000))
        codec = GpuDFor(d_blocks=d)
        enc = codec.encode(values)
        assert np.array_equal(codec.decode(enc), values)
        for t in range(codec.num_tiles(enc)):
            tile = values[t * d * BLOCK : (t + 1) * d * BLOCK]
            assert np.array_equal(codec.decode_tile(enc, t), tile), t

    def test_cascade_is_three_passes(self, rng):
        enc = GpuDFor().encode(np.sort(rng.integers(0, 1000, 2000)))
        names = [p.name for p in GpuDFor().cascade_passes(enc)]
        assert names == ["unpack-bits", "add-reference", "prefix-sum"]

    @given(st.lists(st.integers(-(2**26), 2**26), min_size=1, max_size=600))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.int64)
        codec = GpuDFor()
        assert np.array_equal(codec.decode(codec.encode(arr)), arr)

    def test_segments_include_first_values(self, rng):
        codec = GpuDFor()
        enc = codec.encode(np.sort(rng.integers(0, 10**6, 3000)))
        starts, lengths = codec.tile_segments(enc)
        # 3 segment groups per tile: data, block starts, first value.
        assert starts.size == 3 * codec.num_tiles(enc)
