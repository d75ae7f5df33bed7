"""GPU-* sizes every candidate from its layout and packs only the winner.

The oracle below is the chooser's definition: encode with all three
schemes and keep the smallest, ties going to the earlier scheme.  The
chooser must match it byte for byte (codec, candidate sizes, arrays,
meta, tile CRCs) and raise the same errors, while running one ``encode``.
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
        column = UpdatableColumn(rng.integers(0, 1000, 5000))
        column.update_many(np.arange(0, 5000, 97), np.arange(0, 5000, 97))
        encode_calls.clear()
        column.flush(GPUDevice())
        assert len(encode_calls) == 1
        assert encode_calls == [column.codec_name]

    def test_compress_column_encodes_once(self, rng, encode_calls):
        stored = compress_column("c", rng.integers(0, 1000, 5000), "gpu-star")
        assert encode_calls == [stored.codec_name]
