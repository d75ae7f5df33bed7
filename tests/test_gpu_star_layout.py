"""GPU-* sizes every candidate from its layout and packs only the winner.

The oracle below is the chooser's definition: encode with all three
schemes and keep the smallest, ties going to the earlier scheme.  The
chooser must match it byte for byte (codec, candidate sizes, arrays,
meta, tile CRCs) and raise the same errors, while running one ``encode``.
Given the previous choice and the rows changed since, it must match the
oracle just as exactly while re-encoding only the units those rows dirty.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hybrid import GPU_STAR_SCHEMES, choose_gpu_star
from repro.core.updates import UpdatableColumn
from repro.formats.base import set_checksums
from repro.formats.gpudfor import GpuDFor
from repro.formats.gpufor import GpuFor, layout_blocks, pack_blocks
from repro.formats.gpurfor import RFOR_BLOCK, GpuRFor
from repro.formats.ragged import layout_ragged, pack_ragged
from repro.formats.registry import get_codec
from repro.gpusim import GPUDevice
from repro.ssb.dbgen import sort_lineorder_by
from repro.ssb.loader import compress_column

CODEC_CLASSES = (GpuFor, GpuDFor, GpuRFor)
INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1


@pytest.fixture(autouse=True)
def tile_checksums():
    """Attach tile CRCs at encode, so the comparisons cover them."""
    previous = set_checksums(True)
    yield
    set_checksums(previous)


def _codecs(d_blocks: int = 4):
    return [
        get_codec(name, **({} if name == "gpu-rfor" else {"d_blocks": d_blocks}))
        for name in GPU_STAR_SCHEMES
    ]


def oracle(values: np.ndarray, d_blocks: int = 4):
    """Encode with every scheme and keep the smallest (earlier wins ties)."""
    sizes: dict[str, int] = {}
    best = None
    for codec in _codecs(d_blocks):
        enc = codec.encode(values)
        sizes[codec.name] = enc.nbytes
        if best is None or enc.nbytes < best[1].nbytes:
            best = (codec.name, enc)
    return best[0], best[1], sizes


def assert_same_encoding(got, want) -> None:
    assert got.codec == want.codec
    assert got.count == want.count
    assert got.dtype == want.dtype
    assert list(got.arrays) == list(want.arrays)
    for key, arr in want.arrays.items():
        assert got.arrays[key].dtype == arr.dtype, key
        assert got.arrays[key].tobytes() == arr.tobytes(), key
    assert sorted(got.meta) == sorted(want.meta)
    for key, value in want.meta.items():
        if isinstance(value, np.ndarray):
            assert got.meta[key].dtype == value.dtype, key
            assert got.meta[key].tobytes() == value.tobytes(), key
        else:
            assert got.meta[key] == value, key


def check_against_oracle(values: np.ndarray, d_blocks: int = 4) -> None:
    try:
        want_name, want_enc, want_sizes = oracle(values, d_blocks)
    except ValueError as err:
        with pytest.raises(ValueError) as raised:
            choose_gpu_star(values, d_blocks)
        assert str(raised.value) == str(err)
        return
    for codec in _codecs(d_blocks):
        assert codec.layout(values).nbytes == want_sizes[codec.name], codec.name
    choice = choose_gpu_star(values, d_blocks)
    assert choice.codec_name == want_name
    assert choice.candidate_bytes == want_sizes
    assert_same_encoding(choice.encoded, want_enc)


def _boundary_lengths() -> list[int]:
    # Just off every 128-value block, 512-value RFOR block / GPU-FOR tile,
    # and 4-block RFOR span.
    edges = (128, 256, 512, 1024, 4 * RFOR_BLOCK)
    return sorted({m + d for m in edges for d in (-1, 0, 1)})


def _shapes(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    return {
        "random": rng.integers(0, 1 << 20, n),
        "constant": np.full(n, 42, dtype=np.int64),
        "sorted": np.sort(rng.integers(0, 1 << 24, n)),
        "runs": np.repeat(rng.integers(0, 50, n), rng.integers(1, 40, n))[:n],
        "negative": rng.integers(-(1 << 30), -(1 << 10), n),
    }


MATRIX = [(name, n) for n in _boundary_lengths() for name in
          ("random", "constant", "sorted", "runs", "negative")]


class TestOracleEquivalence:
    def test_empty_and_single(self):
        for values in (np.zeros(0, dtype=np.int64), np.array([7]), np.array([-3])):
            check_against_oracle(values)

    def test_empty_input_ties_go_to_gpu_for(self):
        choice = choose_gpu_star(np.zeros(0, dtype=np.int64))
        assert len(set(choice.candidate_bytes.values())) == 1
        assert choice.codec_name == "gpu-for"

    @pytest.mark.parametrize("shape,n", MATRIX)
    def test_boundary_matrix(self, shape, n):
        rng = np.random.default_rng(n * 31 + len(shape))
        check_against_oracle(_shapes(rng, n)[shape])

    @pytest.mark.parametrize("d_blocks", [1, 2, 4, 8])
    def test_d_blocks(self, rng, d_blocks):
        values = np.repeat(rng.integers(0, 1 << 12, 900), rng.integers(1, 5, 900))
        check_against_oracle(values, d_blocks)

    def test_exact_32_bit_block_ranges(self):
        ramp = np.linspace(INT32_MIN, INT32_MAX, 128).astype(np.int64)
        assert int(ramp.max() - ramp.min()) == 2**32 - 1
        check_against_oracle(ramp)  # one block: every scheme fits
        check_against_oracle(np.tile(ramp, 9))  # deltas overflow GPU-DFOR
        zig = np.zeros(300, dtype=np.int64)
        zig[::2] = 2**32 - 1 + INT32_MIN
        zig[1::2] = INT32_MIN
        check_against_oracle(zig)

    def test_int32_extreme_references(self, rng):
        for base in (INT32_MIN, INT32_MAX):
            check_against_oracle(np.full(700, base, dtype=np.int64))
        low = INT32_MIN + rng.integers(0, 1 << 16, 1500)
        check_against_oracle(low)
        high = INT32_MAX - rng.integers(0, 1 << 16, 1500)
        check_against_oracle(high)

    def test_input_dtypes(self, rng):
        raw = rng.integers(0, 1000, 777)
        for dtype in (np.int32, np.uint16, np.int64):
            check_against_oracle(raw.astype(dtype))

    @pytest.mark.parametrize("order", ["unsorted", "orderdate-sorted"])
    def test_every_lineorder_column(self, ssb_db, order):
        db = ssb_db if order == "unsorted" else sort_lineorder_by(ssb_db)
        for name, values in db.lineorder.items():
            check_against_oracle(np.asarray(values, dtype=np.int64))


class TestLayoutSizes:
    @pytest.mark.parametrize("codec_cls", CODEC_CLASSES)
    def test_layout_nbytes_equals_encoded_nbytes(self, rng, codec_cls):
        codec = codec_cls()
        for n in _boundary_lengths():
            for name, values in _shapes(rng, n).items():
                assert codec.layout(values).nbytes == codec.encode(values).nbytes, (name, n)

    def test_pack_blocks_is_layout_then_pack(self, rng):
        values = rng.integers(-500, 500, 1024)
        layout = layout_blocks(values)
        data, starts, bits = pack_blocks(values)
        assert layout.nbytes == data.nbytes + starts.nbytes
        assert np.array_equal(layout.bits, bits)

    def test_ragged_last_miniblock_padding_counts(self):
        """A partial last miniblock is padded with the block's first value.

        Here the first run value (1000) and first run length (473) are
        large while the runs of the last, partial miniblock are 0/1 values
        of length 1: the padding alone makes that miniblock 10 and 9 bits
        wide, and the layout must count it.
        """
        n_runs = 40
        run_values = np.array([1000] + [k % 2 for k in range(n_runs - 1)])
        run_lengths = np.array([RFOR_BLOCK - (n_runs - 1)] + [1] * (n_runs - 1))
        values = np.repeat(run_values, run_lengths)
        assert values.size == RFOR_BLOCK
        codec = GpuRFor()
        layout = codec.layout(values)
        assert list(layout.run_values.bits) == [10, 10]
        assert list(layout.run_lengths.bits) == [9, 9]
        assert layout.nbytes == codec.encode(values).nbytes
        for stream in (run_values, run_lengths):
            counts = np.array([n_runs])
            packed = pack_ragged(stream, counts)
            assert layout_ragged(stream, counts).nbytes == (
                packed.data.nbytes + packed.block_starts.nbytes
            )
        check_against_oracle(np.tile(values, 3)[:-5])


class TestErrorParity:
    """The chooser raises what encoding all three schemes raised."""

    def _assert_raises_everywhere(self, values, message):
        with pytest.raises(ValueError, match=message):
            choose_gpu_star(values)
        check_against_oracle(values)

    def test_reference_beyond_int32(self):
        self._assert_raises_everywhere(
            np.full(200, 2**31, dtype=np.int64), "block references do not fit in int32"
        )
        self._assert_raises_everywhere(
            np.full(200, INT32_MIN - 1, dtype=np.int64),
            "block references do not fit in int32",
        )

    def test_block_range_over_32_bits(self):
        values = np.zeros(300, dtype=np.int64)
        values[5] = 2**32
        self._assert_raises_everywhere(
            values, "per-block value range exceeds 32 bits; cannot bit-pack"
        )

    def test_gpu_dfor_first_value_outside_int32(self):
        # GPU-FOR fits (every block's minimum is in int32 and its range
        # under 32 bits) and so do the deltas, but a tile starts at 2**31.
        values = np.tile(2**31 + 5 - np.arange(128, dtype=np.int64) * 2**24, 8)
        GpuFor().encode(values)
        self._assert_raises_everywhere(values, "first values do not fit in int32")
        with pytest.raises(ValueError, match="first values do not fit in int32"):
            GpuDFor().layout(values)

    def test_not_one_dimensional(self):
        self._assert_raises_everywhere(
            np.zeros((4, 4), dtype=np.int64), "encode expects a 1-D integer array"
        )


@pytest.mark.parametrize("codec_cls", [GpuFor, GpuRFor])
def test_range_past_int64_is_rejected_not_wrapped(codec_cls):
    # value - block minimum overflows int64 here; a range check on the
    # wrapped difference passed it, and the block packed as zeros.
    values = np.array([-5] * 127 + [2**63 - 1], dtype=np.int64)
    with pytest.raises(ValueError, match="per-block value range exceeds 32 bits"):
        codec_cls().encode(values)


def _updates(rng, values, cycles, rows, last_row=False):
    """``cycles`` random update sets of ``rows`` rows each, every new value
    another row's value, so the column keeps its distribution."""
    n = values.size
    out = []
    for _ in range(cycles):
        picked = rng.choice(n, rows, replace=False)
        if last_row:
            picked[:2] = (n - 1, n - 2)
        out.append((picked, values[rng.integers(0, n, rows)]))
    return out


def _flush_chain(values, updates, d_blocks=4) -> list[str]:
    """Apply ``updates`` in turn, choosing incrementally after each.

    Every incremental choice must equal the oracle's (codec, sizes,
    arrays, meta, tile CRCs) and carry the full chooser's per-unit sizes.
    Returns the winner after every step.
    """
    values = np.array(values, dtype=np.int64)
    choice = choose_gpu_star(values, d_blocks)
    winners = [choice.codec_name]
    for rows, new in updates:
        values[rows] = new
        choice = choose_gpu_star(values, d_blocks, previous=choice, dirty_rows=rows)
        want_name, want_enc, want_sizes = oracle(values, d_blocks)
        assert choice.codec_name == want_name
        assert choice.candidate_bytes == want_sizes
        assert_same_encoding(choice.encoded, want_enc)
        full = choose_gpu_star(values, d_blocks)
        for name in GPU_STAR_SCHEMES:
            assert np.array_equal(choice.unit_bytes[name], full.unit_bytes[name]), name
        winners.append(choice.codec_name)
    return winners


class TestIncrementalChoice:
    """``choose_gpu_star(values, previous=..., dirty_rows=...)`` equals the
    full choice, with checksums on and off."""

    @pytest.mark.parametrize("checksums", [True, False])
    @pytest.mark.parametrize("d_blocks", [1, 4])
    def test_random_update_sets(self, rng, d_blocks, checksums):
        set_checksums(checksums)
        n = 6000
        columns = {
            "random": rng.integers(0, 1 << 20, n),
            "sorted": np.sort(rng.integers(0, 1 << 24, n)),
            "runs": np.repeat(rng.integers(0, 50, n), rng.integers(20, 60, n))[:n],
        }
        winners = set()
        for values in columns.values():
            winners.update(_flush_chain(values, _updates(rng, values, 8, 40), d_blocks))
        assert winners == set(GPU_STAR_SCHEMES)

    @pytest.mark.parametrize("checksums", [True, False])
    @pytest.mark.parametrize("d_blocks", [1, 4])
    def test_dirty_short_last_tile(self, rng, d_blocks, checksums):
        set_checksums(checksums)
        n = 5 * RFOR_BLOCK + 37
        for values in (
            rng.integers(0, 1 << 12, n),
            np.repeat(rng.integers(0, 9, n), 30)[:n],
            np.arange(n) * 3,
        ):
            _flush_chain(values, _updates(rng, values, 4, 25, last_row=True), d_blocks)

    @pytest.mark.parametrize("checksums", [True, False])
    def test_winner_flips_both_ways(self, rng, checksums):
        set_checksums(checksums)
        n = 8192
        values = np.arange(n) * 5
        scrambled = [
            (rows, rng.integers(0, 1 << 20, rows.size))
            for rows in np.array_split(rng.permutation(n), 4)
        ]
        restore = [(np.arange(n), np.arange(n) * 5)]
        winners = _flush_chain(values, scrambled + restore)
        assert winners[0] == winners[-1] == "gpu-dfor"
        assert "gpu-for" in winners

    def test_no_dirty_rows_returns_previous(self, rng):
        choice = choose_gpu_star(rng.integers(0, 100, 3000))
        values = np.array(choice.codec.decode(choice.encoded), dtype=np.int64)
        assert choose_gpu_star(values, previous=choice, dirty_rows=[]) is choice

    def test_previous_arrays_untouched(self, rng):
        values = rng.integers(0, 1 << 10, 4000)
        for_choice = choose_gpu_star(values)
        saved = {k: a.copy() for k, a in for_choice.encoded.arrays.items()}
        saved_crcs = for_choice.encoded.meta["tile_crcs"].copy()
        values[[3, 700, 3999]] = [1, 2, 3]
        choose_gpu_star(values, previous=for_choice, dirty_rows=[3, 700, 3999])
        for key, arr in saved.items():
            assert for_choice.encoded.arrays[key].tobytes() == arr.tobytes(), key
        assert for_choice.encoded.meta["tile_crcs"].tobytes() == saved_crcs.tobytes()

    @pytest.mark.parametrize(
        "rows,new",
        [
            (np.array([5]), np.array([2**40])),
            (np.arange(128), np.full(128, 2**31)),
            (np.arange(1024), np.tile(2**31 + 5 - np.arange(128) * 2**24, 8)),
        ],
        ids=["block-range", "reference", "dfor-first-value"],
    )
    def test_errors_match_full_chooser(self, rows, new):
        values = np.arange(3000, dtype=np.int64)
        previous = choose_gpu_star(values)
        values[rows] = new
        with pytest.raises(ValueError) as full:
            choose_gpu_star(values)
        with pytest.raises(ValueError) as incremental:
            choose_gpu_star(values, previous=previous, dirty_rows=rows)
        assert str(incremental.value) == str(full.value)

    def test_bad_arguments(self, rng):
        values = rng.integers(0, 100, 1000)
        previous = choose_gpu_star(values)
        with pytest.raises(ValueError, match="needs dirty_rows"):
            choose_gpu_star(values, previous=previous)
        with pytest.raises(ValueError, match="needs the previous choice"):
            choose_gpu_star(values, dirty_rows=[1])
        with pytest.raises(ValueError, match="d_blocks=4, not 2"):
            choose_gpu_star(values, 2, previous=previous, dirty_rows=[1])
        with pytest.raises(ValueError, match="encodes 1000 values"):
            choose_gpu_star(values[:-1], previous=previous, dirty_rows=[1])
        with pytest.raises(IndexError, match="dirty rows"):
            choose_gpu_star(values, previous=previous, dirty_rows=[1000])


class TestFlush:
    def test_flushes_match_full_choice(self, rng):
        values = rng.integers(0, 1 << 14, 7000)
        column = UpdatableColumn(values)
        for rows, new in _updates(rng, values, 6, 50, last_row=True):
            column.update_many(rows, new)
            column.flush(GPUDevice())
            want_name, want_enc, _ = oracle(column.values)
            assert column.codec_name == want_name
            assert_same_encoding(column.encoded, want_enc)

    def test_failed_flush_leaves_column_unchanged(self):
        column = UpdatableColumn(np.arange(2000))
        encoded, codec_name = column.encoded, column.codec_name
        flushed = []
        column.add_invalidation_hook(flushed.append)
        column.update(5, 2**40)
        with pytest.raises(ValueError, match="per-block value range exceeds 32 bits"):
            column.flush(GPUDevice())
        assert column.read(5) == 2**40
        assert column.snapshot()[5] == 2**40
        assert column.pending_updates == 1
        assert int(column.values[5]) == 5
        assert column.encoded is encoded and column.codec_name == codec_name
        assert flushed == []
        # The column still flushes once the bad value is overwritten.
        column.update(5, 7)
        column.flush(GPUDevice())
        assert column.pending_updates == 0 and flushed == [column]
        expect = np.arange(2000)
        expect[5] = 7
        assert_same_encoding(column.encoded, oracle(expect)[1])
        assert np.array_equal(column.snapshot(), expect)

    def test_raising_encode_leaves_the_column_unchanged(self, rng, monkeypatch):
        column = UpdatableColumn(rng.integers(0, 1000, 3000))
        values, encoded, codec_name = column.values, column.encoded, column.codec_name
        before = values.copy()
        flushed = []
        column.add_invalidation_hook(flushed.append)
        column.update_many(np.arange(0, 3000, 7), np.arange(0, 3000, 7) + 5000)
        pending = dict(column._pending)

        def failing(*args, **kwargs):
            raise MemoryError("encode failed")

        monkeypatch.setattr("repro.core.updates.choose_gpu_star", failing)
        with pytest.raises(MemoryError, match="encode failed"):
            column.flush(GPUDevice())
        assert column.values is values
        np.testing.assert_array_equal(column.values, before)
        assert column._pending == pending
        assert column.encoded is encoded and column.codec_name == codec_name
        assert flushed == []

    def test_empty_flush_does_no_encoding_work(self, rng, monkeypatch):
        column = UpdatableColumn(rng.integers(0, 1000, 3000))
        encoded = column.encoded
        flushed = []
        column.add_invalidation_hook(flushed.append)

        def forbidden(*args, **kwargs):
            raise AssertionError("an empty flush laid out or packed a column")

        for cls in CODEC_CLASSES:
            for attr in ("layout", "encode", "splice"):
                monkeypatch.setattr(cls, attr, forbidden)
        report = column.flush(GPUDevice())
        assert column.encoded is encoded
        assert flushed == [column]
        assert report.updates_applied == 0
        assert report.compressed_bytes == encoded.nbytes
        assert report.codec_name == column.codec_name


class TestOneEncodePerChoice:
    @pytest.fixture
    def encode_calls(self, monkeypatch):
        calls: list[str] = []
        for cls in CODEC_CLASSES:
            original = cls.encode

            def counted(self, *args, _original=original, **kwargs):
                calls.append(self.name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "encode", counted)
        return calls

    def test_flush_encodes_once(self, rng, encode_calls):
        """A flush that changes the winner encodes the new one in full."""
        column = UpdatableColumn(np.arange(5120))
        assert column.codec_name == "gpu-dfor"
        column.update_many(np.arange(5120), rng.integers(0, 1 << 20, 5120))
        encode_calls.clear()
        column.flush(GPUDevice())
        assert encode_calls == [column.codec_name] == ["gpu-for"]

    def test_flush_with_same_winner_encodes_nothing(self, rng, encode_calls):
        """A flush whose winner holds re-packs only the dirty units."""
        column = UpdatableColumn(rng.integers(0, 1000, 5000))
        codec_name = column.codec_name
        column.update_many(np.arange(0, 5000, 97), np.arange(0, 5000, 97))
        encode_calls.clear()
        column.flush(GPUDevice())
        assert column.codec_name == codec_name
        assert encode_calls == []

    def test_compress_column_encodes_once(self, rng, encode_calls):
        stored = compress_column("c", rng.integers(0, 1000, 5000), "gpu-star")
        assert encode_calls == [stored.codec_name]
