"""Random-access API: gather, filtered scans, tile skipping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.random_access import (
    filtered_scan,
    gather,
    uncompressed_filtered_scan_ms,
)
from repro.formats import CorruptTileError, get_codec, set_checksums
from repro.formats.registry import codec_names, is_tile_codec
from repro.gpusim import GPUDevice, V100

TILE_CODECS = [name for name in codec_names() if is_tile_codec(name)]

#: (gather ms, gather tiles, filtered-scan ms, filtered-scan tiles) for rows
#: 3, 2002, 4001, ... of :func:`_runs_column`: Section 8's whole-tile
#: pricing, which does not depend on how the host reads the rows.
PINNED = {
    "gpu-bp": (0.005010362, 6, 0.005010362, 6),
    "gpu-dfor": (0.005016698, 6, 0.005016698, 6),
    "gpu-for": (0.005013626, 6, 0.005013626, 6),
    "gpu-rfor": (0.0050312, 6, 0.0050312, 6),
    "gpu-simdbp128": (0.005060276363636364, 3, 0.005062370909090909, 3),
}


@pytest.fixture
def column(rng):
    return rng.integers(0, 2**16, 100_000)


@pytest.fixture
def encoded(column):
    return get_codec("gpu-for").encode(column)


class TestGather:
    def test_values_correct(self, rng, column, encoded):
        idx = rng.integers(0, column.size, 500)
        report = gather(encoded, idx, GPUDevice())
        assert np.array_equal(report.values, column[idx])

    def test_duplicates_and_order_preserved(self, column, encoded):
        idx = np.array([5, 5, 99_999, 0, 5])
        report = gather(encoded, idx, GPUDevice())
        assert np.array_equal(report.values, column[idx])

    def test_sparse_gather_touches_few_tiles(self, encoded):
        report = gather(encoded, np.array([0, 1, 2]), GPUDevice())
        assert report.tiles_touched == 1
        assert report.tile_fraction < 0.05

    def test_dense_gather_touches_all_tiles(self, rng, column, encoded):
        idx = rng.permutation(column.size)
        report = gather(encoded, idx, GPUDevice())
        assert report.tiles_touched == report.tiles_total

    def test_sparse_cheaper_than_dense(self, rng, column, encoded):
        overhead = V100.kernel_launch_us / 1000.0
        sparse = gather(encoded, np.array([17]), GPUDevice())
        dense = gather(encoded, rng.integers(0, column.size, column.size), GPUDevice())
        assert (sparse.simulated_ms - overhead) < (dense.simulated_ms - overhead) / 5

    def test_out_of_range(self, encoded):
        with pytest.raises(IndexError):
            gather(encoded, np.array([encoded.count]), GPUDevice())
        with pytest.raises(IndexError):
            gather(encoded, np.array([-1]), GPUDevice())

    def test_empty_gather(self, encoded):
        report = gather(encoded, np.array([], dtype=np.int64), GPUDevice())
        assert report.values.size == 0
        assert report.tiles_touched == 0

    @pytest.mark.parametrize("codec", ["gpu-for", "gpu-dfor", "gpu-rfor", "gpu-bp"])
    def test_all_tile_codecs(self, rng, codec):
        column = np.repeat(rng.integers(0, 100, 2000), rng.integers(1, 10, 2000))
        enc = get_codec(codec).encode(column)
        idx = rng.integers(0, column.size, 200)
        report = gather(enc, idx, GPUDevice())
        assert np.array_equal(report.values.astype(np.int64), column[idx])

    def test_non_tile_codec_rejected(self, column):
        enc = get_codec("nsf").encode(column)
        with pytest.raises(TypeError):
            gather(enc, np.array([0]), GPUDevice())

    @given(st.lists(st.integers(0, 9999), min_size=0, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_gather_property(self, indices):
        rng = np.random.default_rng(0)
        column = rng.integers(0, 1000, 10_000)
        enc = get_codec("gpu-for").encode(column)
        idx = np.array(indices, dtype=np.int64)
        report = gather(enc, idx, GPUDevice())
        assert np.array_equal(report.values, column[idx])


def _runs_column():
    """10,007 int32 values in short runs: every tile codec encodes it, and
    its last tile is short for every tile size."""
    rng = np.random.default_rng(2022)
    values = np.repeat(rng.integers(0, 5000, 4000), rng.integers(1, 6, 4000))
    return values[:10_007].astype(np.int32)


def _index_sets(n):
    unsorted = np.random.default_rng(5).integers(0, n, 300)  # with repeats
    return {
        "empty": np.zeros(0, dtype=np.int64),
        "single": np.array([n // 2]),
        "unsorted": np.concatenate([unsorted, unsorted[:50], [n - 1]]),
        "all": np.arange(n),
    }


@pytest.mark.parametrize("codec_name", TILE_CODECS)
class TestEveryTileCodec:
    @pytest.mark.parametrize("which", ("empty", "single", "unsorted", "all"))
    def test_values_match_decode(self, codec_name, which):
        codec = get_codec(codec_name)
        enc = codec.encode(_runs_column())
        truth = codec.decode(enc)
        idx = _index_sets(enc.count)[which]
        got = gather(enc, idx, GPUDevice()).values
        assert got.dtype == truth.dtype
        assert np.array_equal(got, truth[idx])
        mask = np.zeros(enc.count, dtype=bool)
        mask[idx] = True
        got = filtered_scan(enc, mask, GPUDevice()).values
        assert got.dtype == truth.dtype
        assert np.array_equal(got, truth[mask])

    def test_pricing_pinned(self, codec_name):
        enc = get_codec(codec_name).encode(_runs_column())
        rows = np.arange(3, enc.count, 1999)
        mask = np.zeros(enc.count, dtype=bool)
        mask[rows] = True
        g = gather(enc, rows, GPUDevice())
        f = filtered_scan(enc, mask, GPUDevice())
        ms_g, tiles_g, ms_f, tiles_f = PINNED[codec_name]
        assert (repr(g.simulated_ms), g.tiles_touched) == (repr(ms_g), tiles_g)
        assert (repr(f.simulated_ms), f.tiles_touched) == (repr(ms_f), tiles_f)


    def test_checksums_verified(self, codec_name):
        codec = get_codec(codec_name)
        previous = set_checksums(True)
        try:
            enc = codec.encode(_runs_column())
        finally:
            set_checksums(previous)
        enc.meta["tile_crcs"][1] ^= 1  # tile 1 no longer matches its CRC
        row = codec.tile_elements(enc) + 1
        mask = np.zeros(enc.count, dtype=bool)
        mask[row] = True
        with pytest.raises(CorruptTileError, match="checksum"):
            gather(enc, np.array([row]), GPUDevice())
        with pytest.raises(CorruptTileError, match="checksum"):
            filtered_scan(enc, mask, GPUDevice())


class TestFilteredScan:
    def test_values_in_row_order(self, rng, column, encoded):
        mask = rng.random(column.size) < 0.03
        report = filtered_scan(encoded, mask, GPUDevice())
        assert np.array_equal(report.values, column[mask])

    def test_empty_selection(self, column, encoded):
        report = filtered_scan(encoded, np.zeros(column.size, bool), GPUDevice())
        assert report.values.size == 0
        assert report.tiles_touched == 0

    def test_full_selection(self, column, encoded):
        report = filtered_scan(encoded, np.ones(column.size, bool), GPUDevice())
        assert np.array_equal(report.values, column)
        assert report.tiles_touched == report.tiles_total

    def test_mask_shape_checked(self, encoded):
        with pytest.raises(ValueError):
            filtered_scan(encoded, np.ones(3, bool), GPUDevice())

    def test_cost_plateaus_beyond_tile_knee(self, rng, column, encoded):
        # Selectivity 1/64 already touches ~every 512-row tile.
        times = []
        for sel in (1 / 64, 0.5, 1.0):
            mask = rng.random(column.size) < sel
            times.append(filtered_scan(encoded, mask, GPUDevice()).simulated_ms)
        assert times[2] == pytest.approx(times[0], rel=0.05)
        assert times[2] == pytest.approx(times[1], rel=0.05)

    def test_compressed_plateau_below_uncompressed(self, rng, column, encoded):
        mask = np.ones(column.size, bool)
        compressed = filtered_scan(encoded, mask, GPUDevice()).simulated_ms
        uncompressed = uncompressed_filtered_scan_ms(
            column.size, column.size, GPUDevice()
        )
        assert compressed < uncompressed


class TestUncompressedScan:
    def test_caps_at_full_sweep(self):
        device = GPUDevice()
        full = uncompressed_filtered_scan_ms(10_000, 10_000, device)
        device = GPUDevice()
        beyond_knee = uncompressed_filtered_scan_ms(10_000, 1_000, device)
        assert beyond_knee == pytest.approx(full, rel=0.05)

    def test_sparse_is_cheap(self):
        overhead = V100.kernel_launch_us / 1000.0
        sparse = uncompressed_filtered_scan_ms(1_000_000, 10, GPUDevice())
        dense = uncompressed_filtered_scan_ms(1_000_000, 1_000_000, GPUDevice())
        assert (sparse - overhead) < (dense - overhead) / 5

    def test_validation(self):
        with pytest.raises(ValueError):
            uncompressed_filtered_scan_ms(10, 11, GPUDevice())
