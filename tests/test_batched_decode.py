"""Batched tile decode: ``decode_tiles`` / ``decode_range``.

The batched API must be bit-identical to a per-tile ``decode_tile`` loop
for every tile codec, honour the empty-column contract, and reject
out-of-range tiles the same way the per-tile path does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.random_access import coalesce_tile_runs
from repro.formats.base import (
    compact_tile_chunks_inplace,
    ragged_arange,
    trim_tile_chunks,
)
from repro.formats.registry import get_codec, is_tile_codec

TILE_CODECS = ("gpu-for", "gpu-dfor", "gpu-rfor", "gpu-bp", "gpu-simdbp128")


def _workload(codec_name: str, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if codec_name == "gpu-rfor":
        # Run-heavy data so RLE has real runs to compress.
        return np.repeat(
            rng.integers(0, 100, max(1, n // 8)), 8
        )[:n].astype(np.int64)
    lo = 0 if codec_name == "gpu-bp" else -500
    return rng.integers(lo, 5000, n).astype(np.int64)


@pytest.mark.parametrize("codec_name", TILE_CODECS)
@pytest.mark.parametrize("n", [1, 100, 512, 4096, 10_000, 20_001])
class TestBatchedMatchesPerTile:
    def test_full_column_bit_identical(self, codec_name, n):
        codec = get_codec(codec_name)
        values = _workload(codec_name, n)
        enc = codec.encode(values)
        n_tiles = codec.num_tiles(enc)
        loop = np.concatenate(
            [codec.decode_tile(enc, t) for t in range(n_tiles)]
        )
        batched = codec.decode_tiles(enc, np.arange(n_tiles))
        ranged = codec.decode_range(enc, 0, n_tiles)
        assert batched.dtype == loop.dtype
        assert np.array_equal(loop, batched)
        assert np.array_equal(loop, ranged)
        assert np.array_equal(batched.astype(np.int64), values)

    def test_arbitrary_subset_order_and_duplicates(self, codec_name, n):
        codec = get_codec(codec_name)
        values = _workload(codec_name, n)
        enc = codec.encode(values)
        n_tiles = codec.num_tiles(enc)
        rng = np.random.default_rng(7)
        subset = rng.integers(0, n_tiles, size=min(2 * n_tiles, 16))
        expected = np.concatenate(
            [codec.decode_tile(enc, int(t)) for t in subset]
        )
        assert np.array_equal(expected, codec.decode_tiles(enc, subset))


@pytest.mark.parametrize("codec_name", TILE_CODECS)
class TestTileContract:
    def test_empty_column_round_trip(self, codec_name):
        """Empty columns encode to zero tiles and round-trip cleanly."""
        codec = get_codec(codec_name)
        empty = np.zeros(0, dtype=np.int32)
        enc = codec.encode(empty)
        assert enc.count == 0
        assert codec.num_tiles(enc) == 0
        decoded = codec.decode(enc)
        assert decoded.shape == (0,) and decoded.dtype == empty.dtype
        # Tile iteration covers the (empty) grid without error.
        tiles = [codec.decode_tile(enc, t) for t in range(codec.num_tiles(enc))]
        assert tiles == []
        assert codec.decode_tiles(enc, []).shape == (0,)
        assert codec.decode_range(enc, 0, 0).shape == (0,)
        starts, lengths = codec.tile_segments(enc)
        assert starts.size == lengths.size == 0

    def test_empty_column_rejects_every_tile(self, codec_name):
        codec = get_codec(codec_name)
        enc = codec.encode(np.zeros(0, dtype=np.int32))
        for bad in (0, 1, -1):
            with pytest.raises(IndexError):
                codec.decode_tile(enc, bad)
            with pytest.raises(IndexError):
                codec.decode_tiles(enc, [bad])
        with pytest.raises(IndexError):
            codec.decode_range(enc, 0, 1)

    def test_out_of_range_tiles_raise(self, codec_name):
        codec = get_codec(codec_name)
        enc = codec.encode(_workload(codec_name, 5000))
        n_tiles = codec.num_tiles(enc)
        for bad in (-1, n_tiles, n_tiles + 5):
            with pytest.raises(IndexError):
                codec.decode_tile(enc, bad)
            with pytest.raises(IndexError):
                codec.decode_tiles(enc, [0, bad])
        with pytest.raises(IndexError):
            codec.decode_range(enc, 0, n_tiles + 1)
        with pytest.raises(IndexError):
            codec.decode_range(enc, -1, n_tiles)

    def test_decode_range_partial(self, codec_name):
        codec = get_codec(codec_name)
        values = _workload(codec_name, 30_000)
        enc = codec.encode(values)
        n_tiles = codec.num_tiles(enc)
        first, last = 1, max(2, n_tiles - 1)
        expected = np.concatenate(
            [codec.decode_tile(enc, t) for t in range(first, last)]
        )
        assert np.array_equal(expected, codec.decode_range(enc, first, last))


def test_default_fallback_loops_per_tile():
    """Codecs without an override still get a correct batched decode."""
    from repro.formats.base import TileCodec
    from repro.formats.gpufor import GpuFor

    class NoOverride(GpuFor):
        name = "gpu-for-no-override"
        decode_tiles = TileCodec.decode_tiles
        decode_range = TileCodec.decode_range

    codec = NoOverride()
    values = np.arange(5000, dtype=np.int64)
    enc = codec.encode(values)
    n_tiles = codec.num_tiles(enc)
    out = codec.decode_tiles(enc, np.arange(n_tiles))
    assert np.array_equal(out.astype(np.int64), values)
    assert codec.decode_tiles(enc, []).shape == (0,)


def test_registry_tile_codecs_covered():
    """Every registered tile codec is in the equivalence matrix above."""
    from repro.formats.registry import codec_names

    registered = {n for n in codec_names() if is_tile_codec(n)}
    assert registered == set(TILE_CODECS)


class TestHelpers:
    def test_ragged_arange(self):
        assert np.array_equal(
            ragged_arange(np.array([3, 1, 2])), [0, 1, 2, 0, 0, 1]
        )
        assert ragged_arange(np.zeros(0, dtype=np.int64)).size == 0

    def test_trim_tile_chunks(self):
        vals = np.arange(10)
        out = trim_tile_chunks(vals, np.array([4, 6]), np.array([2, 5]))
        assert np.array_equal(out, [0, 1, 4, 5, 6, 7, 8])
        with pytest.raises(ValueError):
            trim_tile_chunks(vals, np.array([4]), np.array([2]))

    @staticmethod
    def _general_trim(values, chunk_lens, keep_lens):
        within = ragged_arange(chunk_lens)
        return values[within < np.repeat(keep_lens, chunk_lens)]

    @pytest.mark.parametrize(
        "chunk_lens, keep_lens",
        [
            ([512, 512, 512], [512, 512, 100]),  # only the last chunk short
            ([512, 512, 512], [512, 512, 512]),  # nothing short
            ([512, 512, 512], [512, 100, 512]),  # a middle chunk short
            ([256, 256, 256], [256, 40, 40]),  # the short tile repeats
            ([256, 256, 256, 256], [40, 256, 256, 256]),  # out of order
            ([256], [1]),
        ],
    )
    def test_trim_tile_chunks_prefix_path(self, rng, chunk_lens, keep_lens):
        chunk_lens = np.array(chunk_lens)
        keep_lens = np.array(keep_lens)
        vals = rng.integers(-1000, 1000, int(chunk_lens.sum()))
        expect = self._general_trim(vals, chunk_lens, keep_lens)
        assert np.array_equal(trim_tile_chunks(vals, chunk_lens, keep_lens), expect)
        out = vals.copy()
        kept = compact_tile_chunks_inplace(out, chunk_lens, keep_lens)
        assert np.array_equal(out[:kept], expect)

    def test_coalesce_tile_runs(self):
        assert coalesce_tile_runs(np.array([0, 1, 2, 5, 6, 9])) == [
            (0, 3),
            (5, 7),
            (9, 10),
        ]
        assert coalesce_tile_runs(np.zeros(0, dtype=np.int64)) == []
        assert coalesce_tile_runs(np.array([4])) == [(4, 5)]
