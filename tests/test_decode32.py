"""32-bit decode: every tile codec into an int32 buffer, bit-identical to int64.

* the width matrix — widths 1..32 for every tile codec, with references
  at both int32 extremes, decoded plain (contiguous and fragmented tile
  batches reaching into the short last tile), fused with interval and
  non-interval predicates, and as runs (GPU-RFOR), with tile CRCs
  attached and verified on every decode;
* diffs of ``2**31`` and more — a GPU-FOR block spanning the whole int32
  range, where the fused compare must run on the unsigned diffs, and a
  GPU-DFOR tile whose delta is ``2**32 - 1``, whose prefix sum wraps;
* the engine's choice — a column whose bounds fit int32 decodes into
  int32 arena buffers, one whose bounds overflow falls back to int64,
  and answers match a numpy oracle either way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.crystal import CrystalEngine, SSBQuery
from repro.engine.predicates import Equals, InSet, Range
from repro.formats.base import set_checksums, set_verify_mode
from repro.formats.registry import codec_names, get_codec, is_tile_codec
from repro.ssb.loader import ColumnStore, StoredColumn

TILE_CODECS = [name for name in codec_names() if is_tile_codec(name)]
INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1


@pytest.fixture
def checksummed():
    """Encode with tile CRCs and verify them on every decode."""
    previous, mode = set_checksums(True), set_verify_mode("always")
    yield
    set_checksums(previous)
    set_verify_mode(mode)


def _full_width(rng, n, width, block):
    """Diffs in ``[0, 2**width)`` with each block's minimum 0 and every
    32-value miniblock reaching ``2**width - 1``."""
    diffs = rng.integers(0, 2**width, n, dtype=np.int64)
    diffs[::block] = 0
    diffs[1::32] = 2**width - 1
    return diffs


def _column(codec_name, width, extreme, rng):
    """Values of about ``width`` bits per packed value, all in int32, at the
    low (``-2**31``) or high (``2**31 - 1``) end of its range."""
    if codec_name == "gpu-dfor":
        # Deltas of values spread over 2**(width-1) reach ``width`` bits.
        n, spread = 5 * 512 + 77, 2 ** (width - 1)
        base = INT32_MIN if extreme == "low" else INT32_MAX - spread + 1
        return base + rng.integers(0, spread, n, dtype=np.int64)
    if codec_name == "gpu-rfor":
        runs = 3 * 512 // 5 + 40
        base = INT32_MIN if extreme == "low" else INT32_MAX - 2**width + 1
        values = base + _full_width(rng, runs, width, 512 // 5)
        return np.repeat(values, rng.integers(3, 8, runs))[: 3 * 512 + 77]
    block = 4096 if codec_name == "gpu-simdbp128" else 128
    n = 2 * 4096 + 777 if codec_name == "gpu-simdbp128" else 20 * 128 + 45
    diffs = _full_width(rng, n, width, block)
    if codec_name == "gpu-bp":  # raw magnitudes: no reference to move
        return diffs
    base = INT32_MIN if extreme == "low" else INT32_MAX - 2**width + 1
    return base + diffs


def _predicates(values):
    """Intervals inside, around and outside the values, plus predicates
    that are no interval (decoded first, then tested)."""
    lo, hi = int(values.min()), int(values.max())
    mid = (lo + hi) // 2
    return [
        Range("c", lo, hi),
        Range("c", mid, None),
        Range("c", None, mid),
        Range("c", int(values[7]), int(values[7])),
        Range("c", lo + 2**31, None),  # a diff of 2**31 from the minimum
        Range("c", 2**40, None),
        Range("c", None, -(2**40)),
        Equals("c", int(values[-1])),
        InSet("c", tuple(sorted({int(values[3]), int(values[-2])}))),
    ]


def _decode_both(fn, size):
    """Run ``fn(out)`` on an int32 and an int64 buffer of ``size``."""
    out32 = np.full(size, 7, dtype=np.int32)
    out64 = np.full(size, 7, dtype=np.int64)
    return (fn(out32), out32), (fn(out64), out64)


def _assert_matrix_cell(codec, enc, values):
    elems = codec.tile_elements(enc)
    n_tiles = codec.num_tiles(enc)
    batches = [
        np.arange(n_tiles),
        np.array([n_tiles - 1, 0, n_tiles - 1]),
        np.arange(1, n_tiles, 2),
    ]
    for tiles in batches:
        size = tiles.size * elems
        (w32, o32), (w64, o64) = _decode_both(
            lambda out: codec.decode_tiles_into(enc, tiles, out), size
        )
        assert w32 == w64
        assert np.array_equal(o32[:w32].astype(np.int64), o64[:w64]), tiles
        rows = np.concatenate(
            [np.arange(t * elems, min((t + 1) * elems, values.size)) for t in tiles]
        )
        assert np.array_equal(o64[:w64], values[rows])
        for pred in _predicates(values):
            m32, m64 = np.zeros(size, bool), np.zeros(size, bool)
            (f32, v32), (f64, v64) = _decode_both(
                lambda out: codec.decode_filter_tiles_into(
                    enc, tiles, pred, out, m32 if out.dtype == np.int32 else m64
                ),
                size,
            )
            assert f32 == f64 == w64
            assert np.array_equal(m32[:f32], m64[:f64]), pred
            assert np.array_equal(m64[:f64], pred.row_mask(values[rows])), pred
            assert np.array_equal(v32[:f32].astype(np.int64), v64[:f64]), pred
        if codec.stores_runs:
            (r32, _), (r64, _) = _decode_both(
                lambda out: codec.decode_runs_into(enc, tiles, out), size
            )
            assert (r32 is None) == (r64 is None)
            if r64 is not None:
                for a32, a64 in zip(r32, r64):
                    assert a32.dtype == np.int32
                    assert np.array_equal(a32.astype(np.int64), a64)


class TestWidthMatrix:
    @pytest.mark.parametrize("extreme", ("low", "high"))
    @pytest.mark.parametrize("width", range(1, 33))
    @pytest.mark.parametrize("codec_name", TILE_CODECS)
    def test_int32_decode_is_bit_identical(
        self, codec_name, width, extreme, rng, checksummed
    ):
        if codec_name == "gpu-bp" and (width == 32 or extreme == "high"):
            pytest.skip("GPU-BP stores raw magnitudes: width 32 needs int64, "
                        "and there is no reference to move to an extreme")
        values = _column(codec_name, width, extreme, rng)
        assert INT32_MIN <= values.min() and values.max() <= INT32_MAX
        codec = get_codec(codec_name)
        enc = codec.encode(values)
        assert "tile_crcs" in enc.meta
        _assert_matrix_cell(codec, enc, values)


class TestWideDiffs:
    def test_gpu_for_block_spanning_the_int32_range(self, rng, checksummed):
        values = rng.integers(INT32_MIN, INT32_MAX + 1, 3 * 512 + 5, dtype=np.int64)
        values[::128] = INT32_MIN
        values[1::128] = INT32_MAX  # a diff of 2**32 - 1 in every block
        codec = get_codec("gpu-for")
        enc = codec.encode(values)
        _assert_matrix_cell(codec, enc, values)
        tiles = np.arange(codec.num_tiles(enc))
        for lo in (-1, 0, 1, 2**30, INT32_MAX):  # diffs just below/above 2**31
            pred = Range("c", lo, None)
            mask = np.zeros(tiles.size * 512, dtype=bool)
            out = np.zeros(tiles.size * 512, dtype=np.int32)
            written = codec.decode_filter_tiles_into(enc, tiles, pred, out, mask)
            assert np.array_equal(mask[:written], values >= lo), lo

    def test_gpu_dfor_delta_of_two_to_the_32_wraps(self, checksummed):
        values = np.full(3 * 512 + 100, INT32_MAX, dtype=np.int64)
        values[::512] = INT32_MIN  # each tile jumps by 2**32 - 1 after its first row
        codec = get_codec("gpu-dfor")
        enc = codec.encode(values)
        _assert_matrix_cell(codec, enc, values)


def _fact_engine(values, codec_name, streaming, workers=2):
    """A one-column gpu-star fact table ``lo_val`` (plus the row count
    dbgen's tables imply) and an engine over it."""
    from repro.ssb.dbgen import generate

    db = generate(scale_factor=0.001, seed=1)
    db.lineorder = {"lo_orderkey": np.arange(values.size), "lo_val": values}
    enc = get_codec(codec_name).encode(values)
    store = ColumnStore(
        system="gpu-star",
        columns={"lo_val": StoredColumn(
            "lo_val", "gpu-star", values, enc, enc.nbytes, codec_name=codec_name
        )},
    )
    return CrystalEngine(
        db, store, streaming=streaming, stream_workers=workers, morsel_tiles=64
    )


def _sum_query(lo, hi):
    pred = Range("lo_val", lo, hi)

    def fn(engine):
        p = engine.pipeline("sum-val")
        p.filter_pushdown(pred)
        values = p.load("lo_val")
        p.filter_predicate(pred, values)
        groups = p.live(values).astype(np.int64) % 7
        result = p.group_sum(groups, values, 7)
        p.finish()
        return result

    return SSBQuery("sum-val", ("lo_val",), fn)


def _oracle(values, lo, hi):
    keep = values[(values >= lo) & (values <= hi)]
    sums = np.bincount(keep % 7, weights=keep.astype(float), minlength=7)
    return {int(k): int(v) for k, v in enumerate(sums) if v}


class TestEngineDtype:
    @pytest.mark.parametrize("codec_name", ("gpu-for", "gpu-dfor", "gpu-rfor"))
    @pytest.mark.parametrize("streaming", (False, True))
    def test_bounds_pick_the_decode_dtype(self, codec_name, streaming, rng):
        n = 200 * 512 + 31
        runs = np.repeat(rng.integers(0, 10**6, n // 4 + 1), 4)[:n]
        fits = runs
        wide = 3 * 10**9 + runs  # past int32, but every block holds a 0:
        wide[:: 128 if codec_name == "gpu-for" else 512] = 0  # refs fit int32
        for values, dtype in ((fits, np.int32), (wide, np.int64)):
            engine = _fact_engine(values, codec_name, streaming)
            assert engine.decode_dtype("lo_val") == dtype
            lo = int(np.percentile(values, 10))
            hi = int(np.percentile(values, 60))
            got = engine.run(_sum_query(lo, hi)).groups
            assert got == _oracle(values, lo, hi), (codec_name, dtype)
            if streaming:  # the dense load's arena buffer has the dtype
                rows = [
                    buf for arena in engine._stream_executor._arenas
                    for key, buf in arena._buffers.items() if key.startswith("rows/")
                ]
                assert rows and all(buf.dtype == dtype for buf in rows)
            engine.close()

    def test_a_flush_past_int32_widens_the_next_decode(self, rng):
        from repro.core.updates import UpdatableColumn

        n = 50 * 512
        values = rng.integers(0, 10**6, n)
        engine = _fact_engine(values, "gpu-for", streaming=True)
        column = UpdatableColumn(values)
        engine.bind_updatable("lo_val", column)
        assert engine.decode_dtype("lo_val") == np.int32
        assert engine.run(_sum_query(0, 2**40)).groups == _oracle(values, 0, 2**40)
        # Tiles' last rows, so every GPU-* codec the chooser tries packs them.
        column.update_many(np.array([511, 18 * 512 - 1]), np.array([2**31 + 5, 2**31 + 10**6]))
        column.flush(engine.device)
        assert engine.decode_dtype("lo_val") == np.int64
        current = column.values
        got = engine.run(_sum_query(-(2**40), 2**40)).groups
        assert got == _oracle(current, -(2**40), 2**40)
        engine.close()
