"""Extension features: strings, decimals, serialization, updates, tuning."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tuning import choose_d
from repro.core.updates import UpdatableColumn
from repro.formats import (
    decode_decimals,
    decode_strings,
    encode_decimals,
    encode_strings,
    get_codec,
    load_encoded,
    save_encoded,
)
from repro.gpusim import A100, V100, GPUDevice


class TestStrings:
    CITIES = np.array(["paris", "tokyo", "lima", "tokyo", "paris", "oslo"] * 100)

    def test_roundtrip(self):
        col = encode_strings(self.CITIES)
        assert np.array_equal(decode_strings(col), self.CITIES)

    def test_dictionary_sorted_and_deduped(self):
        col = encode_strings(self.CITIES)
        assert list(col.dictionary) == ["lima", "oslo", "paris", "tokyo"]
        assert col.cardinality == 4

    def test_code_lookup(self):
        col = encode_strings(self.CITIES)
        assert col.code_of("oslo") == 1
        with pytest.raises(KeyError):
            col.code_of("berlin")

    def test_code_range_matches_string_range(self):
        col = encode_strings(self.CITIES)
        lo, hi = col.code_range("m", "p")  # oslo only
        assert (lo, hi) == (1, 2)

    def test_explicit_codec(self):
        col = encode_strings(self.CITIES, codec_name="gpu-rfor")
        assert col.codec_name == "gpu-rfor"
        assert np.array_equal(decode_strings(col), self.CITIES)

    def test_compresses_low_cardinality(self):
        col = encode_strings(self.CITIES)
        raw_bytes = self.CITIES.size * 4  # already-dict-encoded baseline
        assert col.codes.nbytes < raw_bytes

    def test_rejects_non_strings(self):
        with pytest.raises(ValueError):
            encode_strings(np.arange(5))

    @given(st.lists(st.text(max_size=8), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.array(values)
        col = encode_strings(arr)
        assert np.array_equal(decode_strings(col), arr)


class TestDecimals:
    def test_roundtrip(self, rng):
        prices = rng.integers(100, 100_000, 5000) / 100.0
        col = encode_decimals(prices, scale=2)
        assert np.array_equal(decode_decimals(col), prices)

    def test_scale_validation(self, rng):
        thirds = np.array([1 / 3])
        with pytest.raises(ValueError, match="multiples"):
            encode_decimals(thirds, scale=2)
        with pytest.raises(ValueError, match="scale"):
            encode_decimals(np.array([1.0]), scale=10)

    def test_negative_decimals(self):
        values = np.array([-12.34, 0.0, 99.99])
        col = encode_decimals(values, scale=2)
        assert np.array_equal(decode_decimals(col), values)

    def test_compression_tracks_integer_scheme(self, rng):
        # Sorted timestamps with 1 decimal place compress like sorted ints.
        times = np.sort(rng.integers(0, 10**7, 50_000)) / 10.0
        col = encode_decimals(times, scale=1)
        assert col.codec_name == "gpu-dfor"
        assert col.bits_per_value < 12


def assert_meta_equal(got: dict, want: dict) -> None:
    """Key sets match; array values (e.g. ``tile_crcs``) by dtype and content."""
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            assert isinstance(got[key], np.ndarray), key
            assert got[key].dtype == value.dtype, key
            assert np.array_equal(got[key], value), key
        else:
            assert got[key] == value, key


class TestSerialization:
    @pytest.mark.parametrize("codec", ["gpu-for", "gpu-dfor", "gpu-rfor", "nsf", "nsv"])
    def test_roundtrip_through_file(self, rng, tmp_path, codec):
        values = np.repeat(rng.integers(0, 500, 1000), rng.integers(1, 5, 1000))
        enc = get_codec(codec).encode(values)
        path = tmp_path / f"{codec}.npz"
        save_encoded(enc, path)
        loaded = load_encoded(path)
        assert loaded.codec == enc.codec
        assert loaded.count == enc.count
        assert_meta_equal(loaded.meta, enc.meta)
        assert np.array_equal(get_codec(codec).decode(loaded), values)

    def test_roundtrip_through_buffer(self, rng):
        enc = get_codec("gpu-for").encode(rng.integers(0, 100, 1000))
        buf = io.BytesIO()
        save_encoded(enc, buf)
        buf.seek(0)
        loaded = load_encoded(buf)
        assert np.array_equal(
            get_codec("gpu-for").decode(loaded), get_codec("gpu-for").decode(enc)
        )

    def test_footprint_close_to_memory(self, rng, tmp_path):
        enc = get_codec("gpu-for").encode(rng.integers(0, 2**16, 100_000))
        path = tmp_path / "col.npz"
        save_encoded(enc, path)
        on_disk = path.stat().st_size
        assert on_disk < enc.nbytes * 1.05 + 2048  # O(1) metadata only

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, a=np.arange(3))
        with pytest.raises(ValueError, match="metadata"):
            load_encoded(path)


class TestUpdatableColumn:
    def test_reads_see_buffered_updates(self, rng):
        col = UpdatableColumn(rng.integers(0, 100, 5000))
        col.update(42, 999_999)
        assert col.read(42) == 999_999
        assert col.pending_updates == 1

    def test_snapshot_merges_overlay(self, rng):
        base = rng.integers(0, 100, 5000)
        col = UpdatableColumn(base)
        col.update_many(np.array([0, 10]), np.array([7, 8]))
        snap = col.snapshot()
        expected = base.copy()
        expected[[0, 10]] = [7, 8]
        assert np.array_equal(snap, expected)

    def test_flush_reencodes_and_ships(self, rng):
        col = UpdatableColumn(np.arange(10_000))
        col.update(5, 123)
        device = GPUDevice()
        report = col.flush(device)
        assert report.updates_applied == 1
        assert report.transfer_ms > 0
        assert col.pending_updates == 0
        assert col.read(5) == 123
        assert device.transfers[0].nbytes == col.encoded.nbytes

    def test_flush_may_switch_scheme(self, rng):
        # Sorted keys start as DFOR; randomizing them should flip to FOR.
        col = UpdatableColumn(np.arange(50_000))
        assert col.codec_name == "gpu-dfor"
        idx = np.arange(50_000)
        col.update_many(idx, rng.integers(0, 2**16, 50_000))
        col.flush(GPUDevice())
        assert col.codec_name == "gpu-for"

    def test_bounds_checked(self, rng):
        col = UpdatableColumn(np.arange(10))
        with pytest.raises(IndexError):
            col.update(10, 0)
        with pytest.raises(IndexError):
            col.read(-1)
        with pytest.raises(ValueError):
            col.update_many(np.array([1]), np.array([1, 2]))


class TestDTuner:
    def test_v100_queries_pick_4(self):
        assert choose_d(V100, output_columns=4).d_blocks == 4

    def test_v100_decode_picks_16(self):
        assert choose_d(V100, output_columns=1).d_blocks == 16

    def test_a100_allows_higher_d(self):
        # The Section 8 prediction: newer GPUs sustain larger D.
        for columns in (1, 4):
            assert (
                choose_d(A100, output_columns=columns).d_blocks
                >= choose_d(V100, output_columns=columns).d_blocks
            )

    def test_scores_normalized(self):
        choice = choose_d(V100, output_columns=4)
        assert choice.scores[choice.d_blocks] == pytest.approx(1.0)
        assert all(s >= 1.0 for s in choice.scores.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_d(V100, output_columns=0)
