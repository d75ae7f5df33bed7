"""Baseline codecs: NSF, NSV, RLE, Delta, Dict, GPU-BP, GPU-SIMDBP128."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import (
    Delta,
    Dict,
    GpuBp,
    GpuSimdBp128,
    Nsf,
    Nsv,
    Rle,
)
from repro.formats.nsf import nsf_width


class TestNsf:
    @pytest.mark.parametrize(
        "hi,width", [(255, 1), (256, 2), (65_535, 2), (65_536, 4), (2**31 - 1, 4)]
    )
    def test_width_staircase(self, hi, width):
        assert nsf_width(np.array([0, hi])) == width

    def test_negative_forces_four_bytes(self):
        assert nsf_width(np.array([-1, 5])) == 4

    def test_roundtrip_signed(self, rng):
        values = rng.integers(-(2**31), 2**31, 1000)
        codec = Nsf()
        assert np.array_equal(codec.decode(codec.encode(values)), values)

    def test_roundtrip_each_width(self, rng):
        for hi in (200, 60_000, 10**9):
            values = rng.integers(0, hi, 500)
            codec = Nsf()
            enc = codec.encode(values)
            assert np.array_equal(codec.decode(enc), values)

    def test_footprint(self, rng):
        enc = Nsf().encode(rng.integers(0, 200, 1024))
        assert enc.nbytes == 1024  # one byte each

    def test_single_cascade_pass(self, rng):
        enc = Nsf().encode(rng.integers(0, 200, 100))
        assert len(Nsf().cascade_passes(enc)) == 1

    def test_too_wide_rejected(self):
        with pytest.raises(ValueError):
            Nsf().encode(np.array([2**33]))


class TestNsv:
    def test_roundtrip_mixed_widths(self, rng):
        values = np.concatenate(
            [rng.integers(0, 2**b, 500) for b in (6, 14, 22, 31)]
        )
        rng.shuffle(values)
        codec = Nsv()
        assert np.array_equal(codec.decode(codec.encode(values)), values)

    def test_adapts_to_skew(self, rng):
        # 99% small values: NSV ~1 byte avg, NSF forced to 4.
        values = rng.integers(0, 200, 10_000)
        values[0] = 2**30
        nsv_bits = Nsv().encode(values).bits_per_int
        nsf_bits = Nsf().encode(values).bits_per_int
        assert nsv_bits < 11
        assert nsf_bits == 32

    def test_length_stream_is_2_bits(self, rng):
        enc = Nsv().encode(rng.integers(0, 100, 4000))
        assert enc.arrays["lengths"].nbytes == 1000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Nsv().encode(np.array([-1]))

    def test_empty(self):
        codec = Nsv()
        assert codec.decode(codec.encode(np.array([], dtype=np.int64))).size == 0

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.int64)
        codec = Nsv()
        assert np.array_equal(codec.decode(codec.encode(arr)), arr)


class TestRle:
    def test_roundtrip(self, rng):
        values = np.repeat(rng.integers(0, 50, 100), rng.integers(1, 100, 100))
        codec = Rle()
        assert np.array_equal(codec.decode(codec.encode(values)), values)

    def test_run_structure(self):
        enc = Rle().encode(np.array([3, 3, 3, 7, 7, 3]))
        assert list(enc.arrays["values"]) == [3, 7, 3]
        assert list(enc.arrays["lengths"]) == [3, 2, 1]

    def test_four_cascade_passes(self):
        enc = Rle().encode(np.array([1, 1, 2]))
        assert len(Rle().cascade_passes(enc)) == 4

    def test_empty(self):
        codec = Rle()
        assert codec.decode(codec.encode(np.array([], dtype=np.int64))).size == 0

    def test_footprint_shrinks_with_run_length(self, rng):
        short = Rle().encode(np.repeat(rng.integers(0, 99, 1000), 2)).bits_per_int
        long = Rle().encode(np.repeat(rng.integers(0, 99, 1000), 50)).bits_per_int
        assert long < short / 10


class TestDelta:
    def test_roundtrip_sorted(self, rng):
        values = np.sort(rng.integers(-(2**30), 2**30, 5000))
        codec = Delta()
        assert np.array_equal(codec.decode(codec.encode(values)), values)

    def test_stores_first_value_as_first_delta(self):
        enc = Delta().encode(np.array([10, 12, 11]))
        assert list(enc.arrays["deltas"]) == [10, 2, -1]

    def test_wide_delta_rejected(self):
        with pytest.raises(ValueError, match="int32"):
            Delta().encode(np.array([0, 2**33]))

    def test_empty(self):
        codec = Delta()
        assert codec.decode(codec.encode(np.array([], dtype=np.int64))).size == 0


class TestDict:
    def test_roundtrip(self, rng):
        values = rng.integers(0, 30, 10_000) * 1000 - 7
        codec = Dict()
        assert np.array_equal(codec.decode(codec.encode(values)), values)

    def test_code_width_tracks_cardinality(self, rng):
        few = Dict().encode(rng.integers(0, 100, 1000))
        many = Dict().encode(rng.integers(0, 100_000, 50_000))
        assert few.meta["width"] == 1
        assert many.meta["width"] >= 2

    def test_effective_on_low_cardinality(self, rng):
        values = rng.integers(0, 10, 10_000) * 10**8
        assert Dict().encode(values).bits_per_int < 10


class TestGpuBp:
    def test_roundtrip(self, rng):
        values = rng.integers(0, 2**20, 10_000)
        codec = GpuBp()
        assert np.array_equal(codec.decode(codec.encode(values)), values)

    def test_no_frame_of_reference(self, rng):
        # Dates around 19,920,101 need ~25 bits raw — GPU-BP pays them all.
        dates = rng.integers(19_920_101, 19_981_231, 50_000)
        from repro.formats import GpuFor

        bp_bits = GpuBp().encode(dates).bits_per_int
        for_bits = GpuFor().encode(dates).bits_per_int
        assert bp_bits > 24
        assert for_bits < 22

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            GpuBp().encode(np.array([-1]))

    def test_tiles(self, rng):
        values = rng.integers(0, 1000, 1000)
        codec = GpuBp()
        enc = codec.encode(values)
        elems = codec.tile_elements(enc)
        for t in range(codec.num_tiles(enc)):
            tile = values[t * elems : (t + 1) * elems]
            assert np.array_equal(codec.decode_tile(enc, t), tile), t


class TestGpuSimdBp128:
    def test_roundtrip(self, rng):
        values = rng.integers(-500, 10**6, 9000)
        codec = GpuSimdBp128()
        assert np.array_equal(codec.decode(codec.encode(values)), values)

    def test_one_skewed_value_inflates_whole_4096_block(self, rng):
        from repro.formats import GpuFor

        values = rng.integers(0, 16, 8192)
        values[0] = 2**28
        vertical = GpuSimdBp128().encode(values).bits_per_int
        horizontal = GpuFor().encode(values).bits_per_int
        assert vertical > 14  # half the data at 29 bits
        assert horizontal < 7  # only one miniblock inflated

    def test_register_pressure_resources(self):
        codec = GpuSimdBp128()
        enc = codec.encode(np.arange(4096))
        res = codec.kernel_resources(enc)
        assert res.registers_per_thread > 64  # must spill

    def test_d_blocks_fixed(self):
        with pytest.raises(ValueError):
            GpuSimdBp128(d_blocks=2)

    def test_empty_and_single(self):
        codec = GpuSimdBp128()
        assert codec.decode(codec.encode(np.array([], dtype=np.int64))).size == 0
        assert np.array_equal(codec.decode(codec.encode(np.array([5]))), [5])
