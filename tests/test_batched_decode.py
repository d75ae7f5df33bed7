"""Tile decode entry points: ``decode`` / ``decode_tile`` / ``decode_tiles``
/ ``decode_range`` / ``decode_range_into`` / ``gather_rows``.

Every entry point derives from the codec's one ``decode_tiles_into``, so
each is checked against the encoder's input values (not against another
entry point), must honour the empty-column contract, reject out-of-range
tiles, verify tile checksums and return the column's dtype.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats.base import (
    compact_tile_chunks_inplace,
    ragged_arange,
    set_checksums,
)
from repro.formats.registry import get_codec, is_tile_codec
from repro.formats.validate import CorruptTileError

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


def _tile_values(codec, enc, values: np.ndarray, tile: int) -> np.ndarray:
    """The encoder's input values that tile ``tile`` covers."""
    elems = codec.tile_elements(enc)
    return values[tile * elems : (tile + 1) * elems]


@pytest.mark.parametrize("codec_name", TILE_CODECS)
@pytest.mark.parametrize("n", [1, 100, 512, 4096, 10_000, 20_001])
class TestBatchedMatchesPerTile:
    def test_full_column_bit_identical(self, codec_name, n):
        codec = get_codec(codec_name)
        values = _workload(codec_name, n)
        enc = codec.encode(values)
        n_tiles = codec.num_tiles(enc)
        for t in range(n_tiles):
            tile = codec.decode_tile(enc, t)
            assert tile.dtype == values.dtype
            assert np.array_equal(tile, _tile_values(codec, enc, values, t))
        for decoded in (
            codec.decode(enc),
            codec.decode_tiles(enc, np.arange(n_tiles)),
            codec.decode_range(enc, 0, n_tiles),
        ):
            assert decoded.dtype == values.dtype
            assert np.array_equal(decoded, values)

    def test_arbitrary_subset_order_and_duplicates(self, codec_name, n):
        codec = get_codec(codec_name)
        values = _workload(codec_name, n)
        enc = codec.encode(values)
        n_tiles = codec.num_tiles(enc)
        rng = np.random.default_rng(7)
        subset = rng.integers(0, n_tiles, size=min(2 * n_tiles, 16))
        expected = np.concatenate(
            [_tile_values(codec, enc, values, int(t)) for t in subset]
        )
        assert np.array_equal(expected, codec.decode_tiles(enc, subset))


#: Entry point -> call decoding (at least) tile ``t`` of ``enc``, and the
#: dtype it returns for a column of dtype ``dtype``.
ENTRY_POINTS = {
    "decode": (lambda c, e, t: c.decode(e), None),
    "decode_tile": (lambda c, e, t: c.decode_tile(e, t), None),
    "decode_tiles": (lambda c, e, t: c.decode_tiles(e, [t]), None),
    "decode_range": (lambda c, e, t: c.decode_range(e, t, t + 1), None),
    "decode_range_into": (
        lambda c, e, t: _range_into(c, e, t), np.dtype(np.int64)
    ),
    "gather_rows": (
        lambda c, e, t: c.gather_rows(e, _tile_rows(c, e, t)), np.dtype(np.int64)
    ),
}


def _range_into(codec, enc, tile: int) -> np.ndarray:
    out = np.empty(codec.tile_elements(enc), dtype=np.int64)
    return out[: codec.decode_range_into(enc, tile, tile + 1, out)]


def _tile_rows(codec, enc, tile: int) -> np.ndarray:
    elems = codec.tile_elements(enc)
    return np.arange(tile * elems, min((tile + 1) * elems, enc.count))


def _expected(name, codec, enc, values, tile):
    return values if name == "decode" else _tile_values(codec, enc, values, tile)


@pytest.mark.parametrize("codec_name", TILE_CODECS)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
class TestEntryPointMatrix:
    """Every entry point verifies CRCs and keeps the column's dtype."""

    def _column(self, codec_name):
        # At least two tiles of every codec (the widest tile is 4096).
        return get_codec(codec_name), _workload(codec_name, 3 * 4096 + 17)

    def test_flipped_payload_word_raises(self, codec_name, entry):
        codec, values = self._column(codec_name)
        previous = set_checksums(True)
        try:
            enc = codec.encode(values)
        finally:
            set_checksums(previous)
        assert "tile_crcs" in enc.meta
        # Invert the last payload word of tile 1: every bit of it belongs
        # to some value of that tile, so its CRC no longer matches.
        starts, lengths = codec.tile_segments(enc)
        stream = "values_data" if codec_name == "gpu-rfor" else "data"
        word = int(starts[1] + lengths[1]) // 4 - 1
        enc.arrays[stream] = enc.arrays[stream].copy()
        enc.arrays[stream][word] ^= np.uint32(0xFFFFFFFF)
        call, _ = ENTRY_POINTS[entry]
        with pytest.raises(CorruptTileError):
            call(codec, enc, 1)

    def test_int32_round_trips_as_int32(self, codec_name, entry):
        codec, values = self._column(codec_name)
        values = values.astype(np.int32)
        enc = codec.encode(values)
        call, dtype = ENTRY_POINTS[entry]
        decoded = call(codec, enc, 1)
        assert decoded.dtype == (dtype or np.dtype(np.int32))
        assert np.array_equal(decoded, _expected(entry, codec, enc, values, 1))


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


def test_entry_points_derive_from_decode_tiles_into():
    """Each tile codec implements only ``decode_tiles_into``; every other
    decode entry point comes from :class:`TileCodec`."""
    from repro.formats.base import TileCodec

    assert "decode_tiles_into" in TileCodec.__abstractmethods__
    for name in TILE_CODECS:
        own = vars(type(get_codec(name)))
        assert "decode_tiles_into" in own, name
        for attr in (
            "decode", "decode_tile", "decode_tiles", "decode_range", "decode_range_into"
        ):
            assert attr not in own, (name, attr)


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
        out = np.arange(10)
        kept = compact_tile_chunks_inplace(out, np.array([4, 6]), np.array([2, 5]))
        assert np.array_equal(out[:kept], [0, 1, 4, 5, 6, 7, 8])

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
        out = vals.copy()
        kept = compact_tile_chunks_inplace(out, chunk_lens, keep_lens)
        assert np.array_equal(out[:kept], expect)
