"""Kernel backend layer: bit-identity oracle matrix and fused decode+filter.

The pluggable backends under ``repro.formats.kernels`` must be
bit-identical: the reference NumPy phase-loop implementation is the
oracle, and the precompiled shift-table backend is checked against it
across every bitwidth, for ordinary, read-only, and strided input
streams.  The fused
``decode_filter_tiles_into`` codec entry points are likewise checked
against the base-class oracle (full decode, then ``row_mask``) across
the codec registry × predicate matrix.
"""

import tracemalloc

import numpy as np
import pytest

from repro.engine.predicates import Equals, InSet, Range
from repro.formats import bitio, kernels
from repro.formats.base import TileCodec
from repro.formats.kernels.numpy_ref import NumpyBackend
from repro.formats.kernels.shift_table import (
    _GATHER_MAX,
    _PLANS,
    _SLAB,
    ShiftTableBackend,
)
from repro.formats.registry import get_codec

GPU_CODECS = ("gpu-for", "gpu-dfor", "gpu-rfor", "gpu-bp", "gpu-simdbp128")

#: Sizes spanning the fancy-gather small-batch path, phase-unaligned
#: tails, and the large strided regime.
SIZES = (1, 7, 31, 32, 33, 100, 4095, 4096, 4097, 10000)


def _make_backend(name: str):
    if name == "numpy":
        return NumpyBackend()
    return ShiftTableBackend()


@pytest.fixture(params=["numpy", "shift-table"])
def backend(request):
    return _make_backend(request.param)


@pytest.fixture
def oracle():
    return NumpyBackend()


class TestBackendBitIdentity:
    @pytest.mark.parametrize("bits", range(1, 33))
    def test_pack_unpack_matches_oracle(self, backend, oracle, bits, rng):
        for size in SIZES:
            values = rng.integers(0, 2**bits, size, dtype=np.uint64)
            packed = backend.pack(values, bits)
            expect = oracle.pack(values, bits)
            assert np.array_equal(packed, expect), (bits, size, "pack")
            out = backend.unpack(packed, size, bits)
            assert out.dtype == np.uint32
            assert np.array_equal(out, values.astype(np.uint32)), (bits, size)

    @pytest.mark.parametrize("bits", range(1, 33))
    def test_unpack_into_matches_oracle(self, backend, oracle, bits, rng):
        # The allocation-free variant writing int64 scratch directly.
        for size in (1, 100, 4095, 4097, 10000):
            values = rng.integers(0, 2**bits, size, dtype=np.uint64)
            packed = oracle.pack(values, bits)
            out = np.full(size + 5, -1, dtype=np.int64)
            backend.unpack_into(packed, size, bits, out)
            assert np.array_equal(out[:size], values.astype(np.int64)), (bits, size)
            assert (out[size:] == -1).all(), (bits, size)  # no overrun

    @pytest.mark.parametrize("bits", [1, 3, 8, 17, 32])
    def test_read_only_streams(self, backend, bits, rng):
        # Backends must never write into their input (e.g. mmap'd pages).
        values = rng.integers(0, 2**bits, 2000, dtype=np.uint64)
        packed = bitio.pack_bits(values, bits)
        packed.setflags(write=False)
        out = backend.unpack(packed, values.size, bits)
        assert np.array_equal(out, values.astype(np.uint32))

    @pytest.mark.parametrize("bits", [1, 5, 8, 16, 24, 32])
    def test_strided_block_unpack(self, backend, oracle, bits, rng):
        # Synthetic block stream: header word + word-aligned payload,
        # repeated — the geometry the codecs' fast path hands over.
        count = 128  # 128 * bits is a multiple of 32 for every width
        payload_words = bitio.words_needed(count, bits)
        n_blocks = 9
        stride = payload_words + 2
        data = rng.integers(0, 2**32, n_blocks * stride + 1, dtype=np.uint64)
        data = data.astype(np.uint32)
        expect_all = []
        for i in range(n_blocks):
            vals = rng.integers(0, 2**bits, count, dtype=np.uint64)
            packed = bitio.pack_bits(vals, bits)
            data[1 + i * stride : 1 + i * stride + payload_words] = packed
            expect_all.append(vals.astype(np.uint32))
        got = backend.unpack_strided(
            data, 1, n_blocks, payload_words, stride, count, bits
        )
        assert np.array_equal(got, np.concatenate(expect_all))
        # And through the validated bitio wrappers, plain and into.
        got2 = bitio.unpack_bits_strided(
            data, 1, n_blocks, payload_words, stride, count, bits
        )
        assert np.array_equal(got2, np.concatenate(expect_all))
        out = np.full(n_blocks * count + 2, -1, dtype=np.int64)
        bitio.unpack_bits_strided_into(
            data, 1, n_blocks, payload_words, stride, count, bits, out
        )
        assert np.array_equal(out[: n_blocks * count], np.concatenate(expect_all))
        assert (out[n_blocks * count :] == -1).all()
        with pytest.raises(ValueError, match="1-D integer buffer"):
            bitio.unpack_bits_strided_into(
                data, 1, n_blocks, payload_words, stride, count, bits,
                np.empty(3, dtype=np.int64),
            )

    def test_strided_input_view(self, backend, rng):
        # A strided (non-contiguous) word view must unpack like its
        # contiguous copy: bitio normalizes with ascontiguousarray.
        values = rng.integers(0, 2**7, 999, dtype=np.uint64)
        packed = bitio.pack_bits(values, 7)
        interleaved = np.vstack([packed, packed]).T.reshape(-1)[::2]
        assert not interleaved.flags["C_CONTIGUOUS"]
        out = bitio.unpack_bits(interleaved, values.size, 7)
        assert np.array_equal(out, values.astype(np.uint32))


class TestPhaseMatrix:
    """The shift-table backend's phase-matrix unpack at its edges."""

    @staticmethod
    def _counts(bits: int) -> list[int]:
        # Around the small-batch threshold, and one count that is not a
        # multiple of the width's period.
        period = _PLANS[bits].period
        return [
            _GATHER_MAX - 1,
            _GATHER_MAX,
            _GATHER_MAX + 1,
            period * (_GATHER_MAX // period + 3) + period // 2 + 1,
        ]

    @pytest.mark.parametrize("bits", range(1, 33))
    def test_exact_read_only_stream(self, oracle, bits, rng):
        # The stream ends at the last value's word: no slack for the
        # window of the final group to read past.
        backend = ShiftTableBackend()
        for count in self._counts(bits):
            values = rng.integers(0, 2**bits, count, dtype=np.uint64)
            packed = oracle.pack(values, bits)
            assert packed.size == bitio.words_needed(count, bits)
            packed.setflags(write=False)
            assert np.array_equal(backend.unpack(packed, count, bits), values), count
            out = np.full(count + 3, -1, dtype=np.int64)
            backend.unpack_into(packed, count, bits, out)
            assert np.array_equal(out[:count], values.astype(np.int64)), count
            assert (out[count:] == -1).all()

    @pytest.mark.parametrize("bits", [3, 6, 15, 23, 31])
    def test_unpack_into_temporaries_bounded(self, oracle, bits, rng):
        # Temporaries stay within three slabs of windows, far below one
        # full-length uint64 array (8 MB at 1M values).
        count = 1_000_000
        values = rng.integers(0, 2**bits, count, dtype=np.uint64)
        packed = oracle.pack(values, bits)
        out = np.empty(count, dtype=np.int64)
        backend = ShiftTableBackend()
        backend.unpack_into(packed, count, bits, out)  # warm the tables
        tracemalloc.start()
        try:
            backend.unpack_into(packed, count, bits, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, values.astype(np.int64))
        assert peak <= 3 * _SLAB * _PLANS[bits].window.itemsize, peak


class TestBackendSelection:
    def test_unknown_name_rejected(self):
        previous = kernels.backend_name()
        for name in ("cuda", "shift_table"):
            with pytest.raises(ValueError, match="unknown kernel backend"):
                kernels.set_backend(name)
        assert kernels.backend_name() == previous

    def test_set_backend_roundtrip(self):
        previous = kernels.backend_name()
        try:
            for name in ("numpy", "shift-table"):
                assert kernels.set_backend(name).name == name
                assert kernels.backend_name() == name
        finally:
            kernels.set_backend(previous)


# ---------------------------------------------------------------------------
# Fused decode+filter vs the base-class oracle
# ---------------------------------------------------------------------------

PREDICATES = [
    Range("c", 100, 5000),
    Range("c", None, 300),
    Range("c", 9_000_000, None),
    Range("c", -5, -1),
    Equals("c", 42),
    InSet("c", frozenset({1, 5, 42, 77})),
]


def _datasets(rng):
    return {
        "uniform": rng.integers(0, 10_000, 20_000).astype(np.int64),
        "clustered": np.sort(rng.integers(0, 10**7, 20_000)).astype(np.int64),
        "runs": np.repeat(rng.integers(0, 50, 500), 40).astype(np.int64),
        "negative": rng.integers(-1_000, 1_000, 12_000).astype(np.int64),
        "zeros": np.zeros(5_000, dtype=np.int64),
        "tiny": np.array([42], dtype=np.int64),
    }


@pytest.mark.parametrize("codec_name", GPU_CODECS)
@pytest.mark.parametrize("backend_name", ["numpy", "shift-table"])
class TestFusedDecodeFilter:
    def test_matches_oracle(self, codec_name, backend_name, rng):
        previous = kernels.backend_name()
        kernels.set_backend(backend_name)
        try:
            self._run_matrix(codec_name, rng)
        finally:
            kernels.set_backend(previous)

    def _run_matrix(self, codec_name, rng):
        codec = get_codec(codec_name)
        for dname, vals in _datasets(rng).items():
            if codec_name == "gpu-bp" and vals.size and vals.min() < 0:
                continue
            enc = codec.encode(vals)
            nt = codec.num_tiles(enc)
            elems = codec.tile_elements(enc)
            selections = [
                np.arange(nt),
                np.arange(nt)[::2],
                np.arange(nt)[::-1],
                np.array([], dtype=np.int64),
            ]
            for sel in selections:
                for pred in PREDICATES:
                    cap = sel.size * elems
                    out = np.empty(cap + 3, dtype=np.int64)
                    mask = np.empty(cap + 3, dtype=np.bool_)
                    ref_out = np.empty(cap + 3, dtype=np.int64)
                    ref_mask = np.empty(cap + 3, dtype=np.bool_)
                    written = codec.decode_filter_tiles_into(
                        enc, sel, pred, out, mask
                    )
                    expect = TileCodec.decode_filter_tiles_into(
                        codec, enc, sel, pred, ref_out, ref_mask
                    )
                    label = (codec_name, dname, sel.size, pred)
                    assert written == expect, label
                    assert np.array_equal(mask[:written], ref_mask[:written]), label
                    # Values are only defined where the mask is True.
                    assert np.array_equal(
                        out[:written][mask[:written]],
                        ref_out[:written][ref_mask[:written]],
                    ), label

    def test_plain_decode_unchanged(self, codec_name, backend_name, rng):
        # The regular-geometry fast paths must not change decode output.
        previous = kernels.backend_name()
        kernels.set_backend(backend_name)
        try:
            codec = get_codec(codec_name)
            for vals in (
                rng.integers(0, 250, 20_000).astype(np.int64),  # uniform width
                rng.integers(0, 2**20, 9_000).astype(np.int64),
            ):
                enc = codec.encode(vals)
                nt = codec.num_tiles(enc)
                got = codec.decode_range(enc, 0, nt)
                assert np.array_equal(np.asarray(got, dtype=np.int64), vals)
        finally:
            kernels.set_backend(previous)


class TestFusedBufferContracts:
    def test_rejects_bad_mask_buffers(self, rng):
        codec = get_codec("gpu-for")
        enc = codec.encode(rng.integers(0, 100, 5000).astype(np.int64))
        elems = codec.tile_elements(enc)
        pred = Range("c", 1, 50)
        out = np.empty(elems, dtype=np.int64)
        with pytest.raises(ValueError):
            codec.decode_filter_tiles_into(
                enc, np.array([0]), pred, out, np.empty(elems - 1, dtype=np.bool_)
            )
        with pytest.raises(ValueError):
            codec.decode_filter_tiles_into(
                enc, np.array([0]), pred, out, np.empty(elems, dtype=np.uint8)
            )
