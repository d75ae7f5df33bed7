"""GPU-RFOR: per-block RLE, the two packed streams, expansion, and the
loads that skip expansion (runs as stored, row gathers)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.predicates import Range
from repro.formats.base import TileCodec, set_checksums, set_verify_mode
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
            codec._check_run_sum(enc, lengths, np.array([2, 4]), np.array([0, 1]))
        codec._check_run_sum(
            enc, np.array([256, 256, 255, 257]), np.array([2, 4]), np.array([0, 1])
        )

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


# -- loads without expansion ---------------------------------------------------


def _runs_of(rng, kind: str, n: int) -> np.ndarray:
    """``n`` values whose runs are all 1 row, all a whole block, or mixed
    (1 to 600 rows, so some cross blocks and some fill one)."""
    if kind == "ones":
        return rng.permutation(n).astype(np.int64) - n // 2
    if kind == "blocks":
        return np.repeat(rng.integers(-(2**20), 2**20, n // RFOR_BLOCK + 1), RFOR_BLOCK)[:n]
    lengths = np.where(rng.random(n) < 0.3, 1, rng.integers(1, 600, n))
    return np.repeat(rng.integers(0, 2**16, n), lengths)[:n]


def _expand_runs(runs) -> tuple[np.ndarray, np.ndarray]:
    """The rows the runs cover and the value at each, in run order."""
    values, lengths, starts = runs
    rows = np.concatenate(
        [np.arange(s, s + n) for s, n in zip(starts.tolist(), lengths.tolist())]
        or [np.zeros(0, dtype=np.int64)]
    )
    return rows, np.repeat(values, lengths)


KINDS = ("ones", "blocks", "mixed")
#: A short last tile (not a multiple of the block) and an exact fit.
SIZES = (3 * RFOR_BLOCK + 77, 4 * RFOR_BLOCK)


class TestRunLoad:
    @pytest.mark.parametrize("d_blocks", (1, 3))
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_runs_match_decode_range(self, rng, kind, size, d_blocks):
        codec = GpuRFor(d_blocks=d_blocks)
        values = _runs_of(rng, kind, size)
        enc = codec.encode(values)
        n_tiles = codec.num_tiles(enc)
        truth = codec.decode_range(enc, 0, n_tiles).astype(np.int64)
        elems = codec.tile_elements(enc)
        batches = [np.arange(n_tiles), np.array([n_tiles - 1]), rng.permutation(n_tiles)]
        for tiles in batches:
            out = np.empty(tiles.size * elems, dtype=np.int64)
            runs = codec.decode_runs_into(enc, tiles, out)
            if runs is None:
                # Runs of one row are no more compact than the rows (a
                # short tile's padding can still hold them).
                assert kind == "ones"
                continue
            for a in runs:
                assert a.dtype == np.int64 and np.shares_memory(a, out)
            values_, lengths, starts = runs
            assert bool((lengths >= 1).all())
            rows, expanded = _expand_runs(runs)
            expected_rows = np.concatenate(
                [np.arange(t * elems, min((t + 1) * elems, enc.count)) for t in tiles]
            )
            assert np.array_equal(rows, expected_rows)
            assert np.array_equal(expanded, truth[rows])

    def test_single_row_runs_decline(self, rng):
        codec = GpuRFor()
        enc = codec.encode(_runs_of(rng, "ones", 4 * RFOR_BLOCK))
        out = np.full(4 * RFOR_BLOCK, -1, dtype=np.int64)
        assert codec.decode_runs_into(enc, np.arange(4), out) is None
        assert bool((out == -1).all())

    def test_runs_span_whole_blocks(self, rng):
        codec = GpuRFor()
        values = _runs_of(rng, "blocks", 4 * RFOR_BLOCK)
        enc = codec.encode(values)
        out = np.empty(4 * RFOR_BLOCK, dtype=np.int64)
        _, lengths, starts = codec.decode_runs_into(enc, np.arange(4), out)
        assert lengths.tolist() == [RFOR_BLOCK] * 4
        assert starts.tolist() == [0, 512, 1024, 1536]

    def test_empty_batch_and_bad_tiles(self, rng):
        codec = GpuRFor()
        enc = codec.encode(_runs_of(rng, "mixed", 1000))
        out = np.empty(2 * RFOR_BLOCK, dtype=np.int64)
        assert all(a.size == 0 for a in codec.decode_runs_into(enc, np.zeros(0, int), out))
        with pytest.raises(IndexError):
            codec.decode_runs_into(enc, np.array([2]), out)
        with pytest.raises(ValueError):
            codec.decode_runs_into(enc, np.array([0, 1]), out[:RFOR_BLOCK])

    def test_codecs_without_runs_decline(self, rng):
        enc = GpuFor().encode(rng.integers(0, 9, 1000))
        out = np.empty(1024, dtype=np.int64)
        assert GpuFor().decode_runs_into(enc, np.arange(2), out) is None


def _gather_sets(rng, n):
    """Sorted sparse and dense sets reaching the short last tile, an
    unsorted set with repeats, and every row."""
    sets = [np.array([0]), np.array([n - 1])]
    for frac in (0.01, 0.3):
        rows = np.flatnonzero(rng.random(n) < frac)
        sets.append(np.union1d(rows, [n - 1]))
    sets.append(rng.integers(0, n, 400))
    sets.append(np.arange(n))
    return sets


class TestGatherRows:
    @pytest.mark.parametrize("d_blocks", (1, 3))
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_decode_range(self, rng, kind, size, d_blocks):
        codec = GpuRFor(d_blocks=d_blocks)
        enc = codec.encode(_runs_of(rng, kind, size))
        truth = codec.decode_range(enc, 0, codec.num_tiles(enc)).astype(np.int64)
        for rows in _gather_sets(rng, enc.count):
            got = codec.gather_rows(enc, rows)
            assert got.dtype == np.int64
            assert np.array_equal(got, truth[rows])
        assert codec.gather_rows(enc, np.zeros(0, dtype=np.int64)).size == 0

    def test_every_run_value_width(self, rng):
        """Run values at every bitwidth 0..32 below a negative reference."""
        values = np.concatenate(
            [
                np.repeat(-(2**31) + rng.integers(0, 2**w, 40, dtype=np.int64), 3)[:RFOR_BLOCK]
                if w else np.full(RFOR_BLOCK, -5, dtype=np.int64)
                for w in range(33)
            ]
        )
        codec = GpuRFor()
        enc = codec.encode(values)
        rows = rng.permutation(values.size)[:2000]
        assert np.array_equal(codec.gather_rows(enc, rows), values[rows])

    def test_rows_out_of_range_refused(self, rng):
        codec = GpuRFor()
        enc = codec.encode(_runs_of(rng, "mixed", 700))
        for bad in ([700], [-1], [0, 10_000]):
            with pytest.raises(IndexError):
                codec.gather_rows(enc, np.array(bad))

    def test_checksummed_column_takes_verified_tile_route(self, rng, monkeypatch):
        previous = set_checksums(True)
        try:
            codec = GpuRFor()
            values = _runs_of(rng, "mixed", 3 * RFOR_BLOCK + 5)
            enc = codec.encode(values)
        finally:
            set_checksums(previous)
        base = []
        monkeypatch.setattr(
            TileCodec, "gather_rows",
            lambda self, enc, rows, _inner=TileCodec.gather_rows: base.append(1)
            or _inner(self, enc, rows),
        )
        rows = np.array([3, RFOR_BLOCK + 7, 2 * RFOR_BLOCK + 100])
        assert np.array_equal(codec.gather_rows(enc, rows), values[rows])
        assert base == [1]
        # A flipped run value fails the tile's CRC on that route.
        enc.meta.pop("_crc_seen", None)
        enc.arrays["values_data"][int(enc.arrays["values_starts"][1])] += 1
        with pytest.raises(CorruptTileError, match="checksum"):
            codec.gather_rows(enc, rows)
        mode = set_verify_mode("off")
        try:  # unverified, the rows are read from the runs
            assert codec.gather_rows(enc, rows[:1])[0] == values[rows[0]]
            assert base == [1, 1]
        finally:
            set_verify_mode(mode)


def _corrupt_lengths(enc, block: int) -> None:
    """Raise every run length of ``block`` by one (its lengths stream's
    reference word): the block's lengths then overshoot RFOR_BLOCK."""
    enc.arrays["lengths_data"][int(enc.arrays["lengths_starts"][block])] += 1


class TestCorruptLengths:
    """A bad block in the middle of a batch is named by its own tile and
    sum on every route, before any output is written."""

    @pytest.fixture
    def corrupt(self, rng):
        codec = GpuRFor()
        values = np.repeat(rng.integers(0, 500, 2000), 4)[: 8 * RFOR_BLOCK]
        enc = codec.encode(values)
        bad_runs = int(enc.arrays["run_counts"][5])
        _corrupt_lengths(enc, 5)
        return codec, enc, f"sum to {RFOR_BLOCK + bad_runs}"

    def test_decode_route(self, corrupt):
        codec, enc, message = corrupt
        out = np.full(8 * RFOR_BLOCK, -1, dtype=np.int64)
        with pytest.raises(CorruptTileError, match=message) as exc:
            codec.decode_tiles_into(enc, np.arange(2, 8), out)
        assert exc.value.tile_id == 5
        assert bool((out == -1).all())

    def test_run_route(self, corrupt):
        codec, enc, message = corrupt
        out = np.full(8 * RFOR_BLOCK, -1, dtype=np.int64)
        with pytest.raises(CorruptTileError, match=message) as exc:
            codec.decode_runs_into(enc, np.arange(2, 8), out)
        assert exc.value.tile_id == 5
        assert bool((out == -1).all())

    def test_gather_route(self, corrupt):
        codec, enc, message = corrupt
        rows = np.array([2 * RFOR_BLOCK, 5 * RFOR_BLOCK + 9, 7 * RFOR_BLOCK + 1])
        with pytest.raises(CorruptTileError, match=message) as exc:
            codec.gather_rows(enc, rows)
        assert exc.value.tile_id == 5
        # Rows outside the bad block still read cleanly.
        assert codec.gather_rows(enc, rows[[0, 2]]).size == 2

    def test_tile_of_a_multi_block_tile(self, rng):
        codec = GpuRFor(d_blocks=3)
        enc = codec.encode(np.repeat(rng.integers(0, 500, 2000), 4)[: 9 * RFOR_BLOCK])
        _corrupt_lengths(enc, 7)  # block 7 lies in tile 2
        with pytest.raises(CorruptTileError) as exc:
            codec.decode(enc)
        assert exc.value.tile_id == 2

