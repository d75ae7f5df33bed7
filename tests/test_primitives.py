"""Crystal-style block primitives: Blelloch scan, max-scan, RLE expand."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.primitives import (
    block_max_scan,
    block_prefix_sum,
    block_rle_expand,
)
from repro.formats.gpudfor import GpuDFor
from repro.formats.gpufor import BLOCK, unpack_block_indices
from repro.formats.gpurfor import RFOR_BLOCK, GpuRFor
from repro.formats.ragged import RaggedPacked, unpack_ragged_blocks


class TestBlellochScan:
    def test_inclusive_matches_cumsum(self, rng):
        values = rng.integers(-100, 100, 512)
        out, _ = block_prefix_sum(values, inclusive=True)
        assert np.array_equal(out, np.cumsum(values))

    def test_exclusive_matches_shifted_cumsum(self, rng):
        values = rng.integers(0, 100, 512)
        out, _ = block_prefix_sum(values, inclusive=False)
        expected = np.concatenate([[0], np.cumsum(values)[:-1]])
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 511, 512, 513])
    def test_non_power_of_two_sizes(self, rng, n):
        values = rng.integers(-50, 50, n)
        out, _ = block_prefix_sum(values)
        assert np.array_equal(out, np.cumsum(values))

    def test_empty(self):
        out, stats = block_prefix_sum(np.zeros(0, dtype=np.int64))
        assert out.size == 0 and stats.steps == 0

    def test_work_efficiency(self):
        # Blelloch: 2*log2(n) steps, < 2n additions (Theta(n) work).
        n = 512
        _, stats = block_prefix_sum(np.ones(n, dtype=np.int64))
        assert stats.steps == 2 * 9
        assert stats.adds < 2 * n

    def test_log_steps_for_tile(self):
        # The paper quotes Theta(log n) steps for an n-element scan [13].
        for n, expected_levels in ((128, 7), (512, 9)):
            _, stats = block_prefix_sum(np.ones(n, dtype=np.int64))
            assert stats.steps == 2 * expected_levels

    @given(st.lists(st.integers(-(2**30), 2**30), min_size=0, max_size=700))
    @settings(max_examples=60, deadline=None)
    def test_scan_property(self, values):
        arr = np.array(values, dtype=np.int64)
        out, _ = block_prefix_sum(arr)
        assert np.array_equal(out, np.cumsum(arr))


class TestMaxScan:
    def test_matches_accumulate(self, rng):
        values = rng.integers(0, 1000, 300)
        assert np.array_equal(block_max_scan(values), np.maximum.accumulate(values))

    def test_single_and_empty(self):
        assert block_max_scan(np.array([5]))[0] == 5
        assert block_max_scan(np.zeros(0, dtype=np.int64)).size == 0

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_max_scan_property(self, values):
        arr = np.array(values, dtype=np.int64)
        assert np.array_equal(block_max_scan(arr), np.maximum.accumulate(arr))


class TestRleExpand:
    def test_matches_repeat(self, rng):
        run_values = rng.integers(0, 100, 50)
        run_lengths = rng.integers(1, 20, 50)
        out = block_rle_expand(run_values, run_lengths)
        assert np.array_equal(out, np.repeat(run_values, run_lengths))

    def test_single_run(self):
        out = block_rle_expand(np.array([7]), np.array([512]))
        assert np.array_equal(out, np.full(512, 7))

    def test_adjacent_equal_values(self):
        # Equal values in different runs must still expand correctly.
        out = block_rle_expand(np.array([3, 3, 5]), np.array([2, 2, 1]))
        assert list(out) == [3, 3, 3, 3, 5]

    def test_empty(self):
        out = block_rle_expand(np.zeros(0, np.int64), np.zeros(0, np.int64))
        assert out.size == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="align"):
            block_rle_expand(np.array([1]), np.array([1, 2]))
        with pytest.raises(ValueError, match="positive"):
            block_rle_expand(np.array([1]), np.array([0]))
        with pytest.raises(ValueError, match="expected"):
            block_rle_expand(np.array([1]), np.array([3]), tile_size=5)

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=40),
        st.integers(0, 2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_expand_property(self, values, seed):
        rng = np.random.default_rng(seed)
        run_values = np.array(values, dtype=np.int64)
        run_lengths = rng.integers(1, 12, run_values.size)
        out = block_rle_expand(run_values, run_lengths)
        assert np.array_equal(out, np.repeat(run_values, run_lengths))


class TestDeviceFunctionsOnRealTiles:
    """The block primitives reproduce the codecs' per-tile decode (the
    paper's device functions) on tiles the encoders actually wrote."""

    @pytest.mark.parametrize("tile", [0, 2, 4])
    def test_dfor_tile_is_prefix_sum_of_deltas(self, rng, tile):
        codec = GpuDFor(d_blocks=4)
        values = np.sort(rng.integers(0, 2**24, 4 * 4 * BLOCK + 77))
        enc = codec.encode(values)
        blocks = np.arange(tile * 4, tile * 4 + 4)
        deltas = unpack_block_indices(
            enc.arrays["data"], enc.arrays["block_starts"], blocks
        )
        sums, _ = block_prefix_sum(deltas, inclusive=True)
        expanded = sums + int(enc.arrays["first_values"][tile])
        decoded = codec.decode_tiles(enc, [tile])
        assert np.array_equal(expanded[: decoded.size], decoded)

    @pytest.mark.parametrize("tile", [0, 3, 5])
    def test_rfor_tile_is_rle_expand_of_runs(self, rng, tile):
        codec = GpuRFor()
        values = np.repeat(rng.integers(0, 1000, 400), rng.integers(1, 20, 400))
        values = values[: 5 * RFOR_BLOCK + 123]
        enc = codec.encode(values)
        runs = [
            unpack_ragged_blocks(
                RaggedPacked(
                    enc.arrays[f"{s}_data"], enc.arrays[f"{s}_starts"],
                    enc.arrays["run_counts"],
                ),
                np.array([tile]),
            )[0]
            for s in ("values", "lengths")
        ]
        expanded = block_rle_expand(*runs, tile_size=RFOR_BLOCK)
        decoded = codec.decode_tiles(enc, [tile])
        assert np.array_equal(expanded[: decoded.size], decoded)
