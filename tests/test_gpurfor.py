"""GPU-RFOR: per-block RLE, the two packed streams, expansion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.predicates import Range
from repro.formats.gpufor import GpuFor
from repro.formats.gpurfor import _EXPAND_BLOCKS, RFOR_BLOCK, GpuRFor, run_length_encode
from repro.formats.validate import CorruptTileError


class TestRunLengthEncode:
    def test_runs_never_cross_block_boundary(self):
        values = np.full(2 * RFOR_BLOCK, 9, dtype=np.int64)
        run_values, run_lengths, per_block = run_length_encode(values)
        assert list(run_lengths) == [RFOR_BLOCK, RFOR_BLOCK]
        assert list(per_block) == [1, 1]

    def test_alternating_values(self):
        values = np.tile([1, 2], RFOR_BLOCK // 2).astype(np.int64)
        run_values, run_lengths, per_block = run_length_encode(values)
        assert run_values.size == RFOR_BLOCK
        assert np.all(run_lengths == 1)

    def test_lengths_cover_input(self, rng):
        values = np.repeat(rng.integers(0, 50, 300), rng.integers(1, 30, 300))
        values = values[: (values.size // RFOR_BLOCK) * RFOR_BLOCK]
        _, run_lengths, per_block = run_length_encode(values)
        assert int(run_lengths.sum()) == values.size
        assert int(per_block.sum()) == run_lengths.size

    def test_non_multiple_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            run_length_encode(np.zeros(100, dtype=np.int64))

    def test_empty(self):
        rv, rl, pb = run_length_encode(np.zeros(0, dtype=np.int64))
        assert rv.size == rl.size == pb.size == 0


class TestGpuRForCodec:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda rng: np.repeat(rng.integers(0, 100, 500), rng.integers(1, 40, 500)),
            lambda rng: rng.integers(0, 5, 5000),
            lambda rng: rng.integers(-(2**20), 2**20, 2000),  # run-free
            lambda rng: np.full(RFOR_BLOCK * 3, -7, dtype=np.int64),
            lambda rng: np.array([1]),
            lambda rng: np.array([], dtype=np.int64),
            lambda rng: np.arange(RFOR_BLOCK + 1, dtype=np.int64),
        ],
    )
    def test_roundtrip(self, rng, maker):
        values = np.asarray(maker(rng), dtype=np.int64)
        codec = GpuRFor()
        assert np.array_equal(codec.decode(codec.encode(values)), values)

    def test_tiles_concatenate(self, rng):
        values = np.repeat(rng.integers(0, 30, 400), rng.integers(1, 10, 400))
        codec = GpuRFor()
        enc = codec.encode(values)
        for t in range(codec.num_tiles(enc)):
            tile = values[t * RFOR_BLOCK : (t + 1) * RFOR_BLOCK]
            assert np.array_equal(codec.decode_tile(enc, t), tile), t

    def test_batches_wider_than_one_expansion_slab(self, rng):
        """Runs expand a slab of blocks at a time: a whole column and a
        shuffled subset spanning several slabs, plain and fused."""
        values = np.repeat(rng.integers(0, 500, 60_000), rng.integers(1, 9, 60_000))
        values = values[: 3 * _EXPAND_BLOCKS * RFOR_BLOCK + 77]
        codec = GpuRFor()
        enc = codec.encode(values)
        assert np.array_equal(codec.decode(enc), values)
        tiles = rng.permutation(codec.num_tiles(enc))[: 2 * _EXPAND_BLOCKS + 5]
        expected = np.concatenate(
            [values[t * RFOR_BLOCK : (t + 1) * RFOR_BLOCK] for t in tiles]
        )
        assert np.array_equal(codec.decode_tiles(enc, tiles), expected)
        out = np.empty(tiles.size * RFOR_BLOCK, dtype=np.int64)
        mask = np.empty(tiles.size * RFOR_BLOCK, dtype=bool)
        written = codec.decode_filter_tiles_into(enc, tiles, Range("c", 100, 200), out, mask)
        assert np.array_equal(out[:written], expected)
        assert np.array_equal(mask[:written], (expected >= 100) & (expected <= 200))

    def test_run_sum_is_checked_per_block(self):
        """Lengths that total two blocks but split 513/511 are corrupt."""
        codec = GpuRFor()
        enc = codec.encode(np.zeros(2 * RFOR_BLOCK, dtype=np.int64))
        lengths = np.array([256, 257, 255, 256])
        with pytest.raises(CorruptTileError, match="per block"):
            codec._check_run_sum(enc, lengths, np.array([2, 4]), 0)
        codec._check_run_sum(enc, np.array([256, 256, 255, 257]), np.array([2, 4]), 0)

    def test_high_run_length_beats_gpufor(self, rng):
        values = np.repeat(rng.integers(0, 1000, 2000), 64)
        rfor_bits = GpuRFor().encode(values).bits_per_int
        ffor_bits = GpuFor().encode(values).bits_per_int
        assert rfor_bits < ffor_bits / 3

    def test_avg_run_length_metadata(self, rng):
        values = np.repeat(np.arange(100), 50)
        enc = GpuRFor().encode(values)
        assert enc.meta["avg_run_length"] > 25

    def test_run_free_data_still_linear_in_bitwidth(self, rng):
        # Figure 7b: GPU-RFOR stays linear because bit-packing applies to
        # the run streams too.
        small = GpuRFor().encode(rng.integers(0, 2**4, 50_000)).bits_per_int
        large = GpuRFor().encode(rng.integers(0, 2**20, 50_000)).bits_per_int
        assert 14 < large - small < 18

    def test_cascade_is_eight_passes(self, rng):
        enc = GpuRFor().encode(rng.integers(0, 10, 2048))
        assert len(GpuRFor().cascade_passes(enc)) == 8

    def test_two_streams_present(self, rng):
        enc = GpuRFor().encode(rng.integers(0, 10, 2048))
        for key in ("values_data", "lengths_data", "values_starts",
                    "lengths_starts", "run_counts"):
            assert key in enc.arrays

    def test_resources_double_dfor(self, rng):
        from repro.formats.gpudfor import GpuDFor

        rfor = GpuRFor()
        dfor = GpuDFor()
        enc_r = rfor.encode(np.arange(RFOR_BLOCK))
        enc_d = dfor.encode(np.arange(512))
        assert (
            rfor.kernel_resources(enc_r).shared_mem_per_block
            > 1.5 * dfor.kernel_resources(enc_d).shared_mem_per_block
        )

    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=40),
        st.lists(st.integers(1, 60), min_size=40, max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, values, lengths):
        arr = np.repeat(
            np.array(values, dtype=np.int64),
            np.array(lengths[: len(values)], dtype=np.int64),
        )
        codec = GpuRFor()
        assert np.array_equal(codec.decode(codec.encode(arr)), arr)
