"""Morsel-streaming execution: out-buffer decode, bit-identity, threads.

Five layers of coverage:

* out-buffer decode contract — every tile codec's ``decode_tiles_into``
  must agree with its allocating twin across full ranges, non-contiguous
  subsets, partial last tiles and buffer reuse, and reject undersized or
  mistyped buffers;
* many morsels vs one — for every GPU-* codec and a cross-flight query
  matrix, a streaming engine must return the same aggregates and kernel
  count as the default engine's one morsel (one worker) at every
  worker count, including unaligned morsel widths and plans whose
  pushdown prunes every tile (``test_ssb_sim_golden.py`` pins the
  default engine itself);
* merge semantics — min/max partials merge, avg is refused, lookups are
  built exactly once in the plan pass, and a run leaves no cyclic
  garbage;
* derived morsels and the drain loop — per-query widths cover every
  surviving tile once on aligned boundaries and answer like the fixed
  64-tile grid; the calling thread drains beside ``workers - 1`` pool
  threads, and the lowest-index morsel error surfaces after every
  morsel ran;
* concurrency — the engine's metadata/decode caches and the serving
  pool survive a multi-threaded access storm, and the ``QueryServer``
  records streaming metrics.
"""

from __future__ import annotations

import gc
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.engine.crystal import TILE, CrystalEngine, SSBQuery
from repro.engine.predicates import And, Equals, InSet, Range
from repro.engine.ssb_queries import QUERIES
from repro.engine.streaming import (
    MIN_MORSEL_TILES,
    MORSEL_ALIGN_TILES,
    TileStreamExecutor,
)
from repro.formats.base import DecodeArena, TileCodec
from repro.formats.registry import get_codec
from repro.query.compiler import QueryCompiler
from repro.query.ssb import SSB_SPECS, ssb_model
from repro.serving.pool import ColumnPool
from repro.ssb.dbgen import generate, sort_lineorder_by
from repro.ssb.loader import ColumnStore, StoredColumn, load_lineorder

GPU_CODECS = ("gpu-for", "gpu-dfor", "gpu-rfor", "gpu-bp", "gpu-simdbp128")
MATRIX_QUERIES = ("q1.1", "q1.3", "q2.1", "q3.1", "q4.1")
#: Checkerboard plans keep every other run of this many engine tiles:
#: 1 fragments the 128- and 512-row codec tiles, 8 the 4096-row ones.
CHECKERBOARD_WIDTHS = (1, 8)


# ---------------------------------------------------------------------------
# Out-buffer decode contract
# ---------------------------------------------------------------------------


def _datasets(rng):
    return {
        "random": rng.integers(0, 10_000, 20_000),
        "sorted": np.sort(rng.integers(0, 100_000, 9000)),
        "runs": np.repeat(rng.integers(0, 50, 60), rng.integers(1, 300, 60)),
        "partial_tail": rng.integers(0, 1000, 2 * 4096 + 17),
        "one_tile": rng.integers(0, 1000, 100),
        "empty": np.zeros(0, dtype=np.int64),
    }


@pytest.mark.parametrize("codec_name", GPU_CODECS)
class TestDecodeTilesInto:
    def test_matches_allocating_decode(self, codec_name, rng):
        codec = get_codec(codec_name)
        assert isinstance(codec, TileCodec)
        for label, data in _datasets(rng).items():
            data = np.asarray(data, dtype=np.int64)
            enc = codec.encode(data)
            n_tiles = codec.num_tiles(enc)
            elems = codec.tile_elements(enc)
            out = np.full(max(1, n_tiles * elems), -1, dtype=np.int64)
            written = codec.decode_range_into(enc, 0, n_tiles, out)
            assert written == data.size, label
            assert np.array_equal(out[:written], data), label

    def test_non_contiguous_subset(self, codec_name, rng):
        codec = get_codec(codec_name)
        data = rng.integers(0, 10_000, 3 * 4096 + 77).astype(np.int64)
        enc = codec.encode(data)
        n_tiles = codec.num_tiles(enc)
        elems = codec.tile_elements(enc)
        # Every other tile, always including the partial last tile.
        tiles = np.unique(np.r_[np.arange(0, n_tiles, 2), n_tiles - 1])
        out = np.empty(tiles.size * elems, dtype=np.int64)
        written = codec.decode_tiles_into(enc, tiles, out)
        expect = codec.decode_tiles(enc, tiles).astype(np.int64)
        assert written == expect.size
        assert np.array_equal(out[:written], expect)

    def test_empty_tile_list(self, codec_name, rng):
        codec = get_codec(codec_name)
        enc = codec.encode(rng.integers(0, 100, 5000).astype(np.int64))
        out = np.empty(1, dtype=np.int64)
        assert codec.decode_tiles_into(enc, np.zeros(0, dtype=np.int64), out) == 0

    def test_buffer_reuse_across_calls(self, codec_name, rng):
        codec = get_codec(codec_name)
        data = rng.integers(0, 10_000, 2 * 4096 + 100).astype(np.int64)
        enc = codec.encode(data)
        n_tiles = codec.num_tiles(enc)
        elems = codec.tile_elements(enc)
        arena = DecodeArena()
        for tiles in (
            np.arange(n_tiles),
            np.array([n_tiles - 1]),
            np.arange(min(2, n_tiles)),
        ):
            buf = arena.scratch("col", tiles.size * elems)
            written = codec.decode_tiles_into(enc, tiles, buf)
            expect = codec.decode_tiles(enc, tiles).astype(np.int64)
            assert np.array_equal(buf[:written], expect)
        # Grow-only: one buffer per key, sized for the largest request.
        assert arena.resident_bytes == n_tiles * elems * 8

    def test_rejects_bad_buffers(self, codec_name, rng):
        codec = get_codec(codec_name)
        enc = codec.encode(rng.integers(0, 100, 5000).astype(np.int64))
        elems = codec.tile_elements(enc)
        tiles = np.array([0])
        with pytest.raises(ValueError):
            codec.decode_tiles_into(enc, tiles, np.empty(elems - 1, dtype=np.int64))
        with pytest.raises(ValueError):
            codec.decode_tiles_into(enc, tiles, np.empty(elems, dtype=np.float64))
        with pytest.raises(ValueError):
            codec.decode_tiles_into(
                enc, tiles, np.empty(2 * elems, dtype=np.int64)[::2]
            )


# ---------------------------------------------------------------------------
# Streaming vs materialized bit-identity
# ---------------------------------------------------------------------------


def _columns_for(queries) -> tuple[str, ...]:
    names: list[str] = []
    for q in queries:
        for c in QUERIES[q].columns:
            if c not in names:
                names.append(c)
    return tuple(names)


def _encoded_store(db, codec_name: str, columns) -> ColumnStore:
    """A gpu-star store with every fact column under one codec."""
    stored = {}
    for name in columns:
        values = db.lineorder[name]
        enc = get_codec(codec_name).encode(values)
        stored[name] = StoredColumn(
            name, "gpu-star", values, enc, enc.nbytes, codec_name=codec_name
        )
    return ColumnStore(system="gpu-star", columns=stored)


def _matrix_store(db, codec_name: str) -> ColumnStore:
    store = _encoded_store(
        db, codec_name, _columns_for(MATRIX_QUERIES) + CHECKERBOARD_COLUMNS
    )
    # A positional column: lets a plan select rows by engine tile.
    rows = np.arange(db.num_lineorder_rows, dtype=np.int64)
    enc = get_codec(codec_name).encode(rows)
    store.columns["row_id"] = StoredColumn(
        "row_id", "gpu-star", rows, enc, enc.nbytes, codec_name=codec_name
    )
    return store


@pytest.fixture(scope="module", params=GPU_CODECS)
def codec_store(request, ssb_db):
    return request.param, _matrix_store(ssb_db, request.param)


CHECKERBOARD_COLUMNS = ("lo_discount", "lo_revenue", "lo_quantity")
CHECKERBOARD_DISCOUNT = Range("lo_discount", 2, 8)


def _checkerboard_tiles(tile: np.ndarray, width: int, last_tile: int) -> np.ndarray:
    return ((tile // width) % 2 == 0) | (tile == last_tile)


def _checkerboard_query(width: int, num_rows: int) -> SSBQuery:
    """Keeps every other run of ``width`` engine tiles and the short last
    tile, then loads columns over that fragmented tile set: a fused
    decode+filter (``lo_discount``) and plain decodes."""
    last_tile = (num_rows - 1) // TILE

    def fn(engine):
        p = engine.pipeline(f"checkerboard-{width}")
        p.filter_pushdown(And((CHECKERBOARD_DISCOUNT,)))
        rows = np.asarray(p.load("row_id"))
        p.filter(_checkerboard_tiles(rows // TILE, width, last_tile))
        p.filter_predicate(CHECKERBOARD_DISCOUNT, p.load("lo_discount"))
        revenue = p.load("lo_revenue")
        codes = np.asarray(p.load("lo_quantity"), dtype=np.int64) % 50
        result = p.group_sum(codes, revenue, 50)
        p.finish()
        return result

    return SSBQuery(f"checkerboard-{width}", ("row_id",) + CHECKERBOARD_COLUMNS, fn)


def _checkerboard_oracle(db, width: int) -> dict[int, int]:
    lo = db.lineorder
    tile = np.arange(db.num_lineorder_rows) // TILE
    keep = _checkerboard_tiles(tile, width, int(tile[-1]))
    keep &= (lo["lo_discount"] >= 2) & (lo["lo_discount"] <= 8)
    sums = np.bincount(
        np.asarray(lo["lo_quantity"], dtype=np.int64)[keep] % 50,
        weights=np.asarray(lo["lo_revenue"], dtype=np.float64)[keep],
        minlength=50,
    )
    return {int(c): int(sums[c]) for c in np.flatnonzero(sums)}


def _matrix_query(qname: str, db) -> SSBQuery:
    if qname.startswith("checkerboard-"):
        return _checkerboard_query(int(qname.split("-")[1]), db.num_lineorder_rows)
    return QUERIES[qname]


class TestStreamingBitIdentity:
    @pytest.mark.parametrize(
        "qname",
        MATRIX_QUERIES + tuple(f"checkerboard-{w}" for w in CHECKERBOARD_WIDTHS),
    )
    def test_matches_materialized_every_worker_count(
        self, codec_store, ssb_db, qname
    ):
        codec_name, store = codec_store
        query = _matrix_query(qname, ssb_db)
        ref = CrystalEngine(ssb_db, store).run(query)
        if qname.startswith("checkerboard-"):
            # Every codec tile size leaves a short last tile here.
            assert ssb_db.num_lineorder_rows % 128
            assert ref.groups == _checkerboard_oracle(ssb_db, int(qname[-1]))
        for workers, morsel_tiles in ((1, None), (2, None), (8, None), (2, 3)):
            engine = CrystalEngine(
                ssb_db,
                store,
                streaming=True,
                stream_workers=workers,
                morsel_tiles=morsel_tiles,
            )
            got = engine.run(query)
            label = (codec_name, qname, workers, morsel_tiles)
            assert got.groups == ref.groups, label
            assert got.kernel_count == ref.kernel_count, label
            stats = engine.last_stream_stats
            assert stats["workers"] == workers
            assert stats["morsels"] == len(stats["morsel_ms"])
            # A morsel covering the whole column decodes into fresh
            # arrays; only narrower ones fill the workers' arenas.
            narrower = stats["morsels"] > 1 or (
                stats["morsels"] == 1 and stats["morsel_tiles"] < stats["tiles_total"]
            )
            assert (stats["peak_decoded_bytes"] > 0) == narrower, label

    def test_one_codec_call_per_column_per_morsel(
        self, codec_store, ssb_db, monkeypatch
    ):
        codec_name, store = codec_store
        calls: Counter = Counter()
        depth = [0]
        cls = type(get_codec(codec_name))
        for attr in ("decode_tiles_into", "decode_range_into", "decode_filter_tiles_into"):

            def counted(self, enc, *args, _inner=getattr(cls, attr)):
                depth[0] += 1
                try:
                    return _inner(self, enc, *args)
                finally:
                    depth[0] -= 1
                    if depth[0] == 0:  # count outermost calls only
                        calls[id(enc)] += 1

            monkeypatch.setattr(cls, attr, counted)
        query = _checkerboard_query(8 if codec_name == "gpu-simdbp128" else 1,
                                    ssb_db.num_lineorder_rows)
        CrystalEngine(ssb_db, store).run(query)
        # Every column load of the default engine's one morsel,
        # fragmented or full-grid (row_id), is one call.
        assert len(calls) == 4 and max(calls.values()) == 1, calls
        calls.clear()
        # One worker derives one morsel; a pinned width cuts several.
        engine = CrystalEngine(
            ssb_db, store, streaming=True, stream_workers=1, morsel_tiles=64
        )
        engine.run(query)
        morsels = engine.last_stream_stats["morsels"]
        assert morsels > 1
        assert len(calls) == 4 and max(calls.values()) <= morsels, calls

    def test_uncompressed_store_streams_too(self, ssb_db, none_store):
        query = QUERIES["q2.1"]
        ref = CrystalEngine(ssb_db, none_store).run(query)
        engine = CrystalEngine(
            ssb_db, none_store, streaming=True, stream_workers=4
        )
        got = engine.run(query)
        assert got.groups == ref.groups
        assert got.kernel_count == ref.kernel_count
        # Nothing decodes, so the arenas stay empty.
        assert engine.last_stream_stats["peak_decoded_bytes"] == 0

    def test_repeat_runs_reuse_executor_and_stay_identical(
        self, ssb_db, gpu_star_store
    ):
        engine = CrystalEngine(
            ssb_db, gpu_star_store, streaming=True, stream_workers=2
        )
        query = QUERIES["q1.1"]
        first = engine.run(query).groups
        executor = engine._stream_executor
        for _ in range(2):
            assert engine.run(query).groups == first
        assert engine._stream_executor is executor
        assert executor.peak_decoded_bytes > 0

    def test_empty_after_pushdown(self, ssb_db, gpu_star_store):
        # Far above any conservative codec bound (reference + 2**bits),
        # so pushdown provably prunes every tile.
        impossible = Range("lo_orderdate", 2**40, None)

        def fn(engine):
            p = engine.pipeline("empty-scan")
            p.filter_pushdown(And((impossible,)))
            orderdate = p.load("lo_orderdate")
            p.filter_predicate(impossible, orderdate)
            price = p.load("lo_extendedprice")
            result = p.total_sum(price)
            p.finish()
            return result

        query = SSBQuery("empty", ("lo_orderdate", "lo_extendedprice"), fn)
        ref = CrystalEngine(ssb_db, gpu_star_store).run(query)
        assert ref.groups == {0: 0}
        for workers in (1, 4):
            engine = CrystalEngine(
                ssb_db, gpu_star_store, streaming=True, stream_workers=workers
            )
            got = engine.run(query)
            assert got.groups == {0: 0}
            assert got.kernel_count == ref.kernel_count
            assert engine.last_stream_stats["morsels"] == 0


# ---------------------------------------------------------------------------
# Merge semantics and guard rails
# ---------------------------------------------------------------------------


def _minmax_query(how: str) -> SSBQuery:
    def fn(engine):
        p = engine.pipeline("minmax")
        quantity = p.load("lo_quantity")
        p.filter(np.asarray(quantity, dtype=np.int64) % 3 == 0)
        discount = p.load("lo_discount")
        result = p.group_aggregate(
            np.asarray(quantity, dtype=np.int64) % 8,
            np.asarray(discount, dtype=np.int64) * 100 + quantity,
            8,
            how=how,
        )
        p.finish()
        return result

    return SSBQuery(f"minmax-{how}", ("lo_quantity", "lo_discount"), fn)


class TestMergeSemantics:
    @pytest.mark.parametrize("how", ("min", "max"))
    def test_min_max_partials_merge(self, ssb_db, gpu_star_store, how):
        query = _minmax_query(how)
        ref = CrystalEngine(ssb_db, gpu_star_store).run(query)
        engine = CrystalEngine(
            ssb_db, gpu_star_store, streaming=True, stream_workers=4
        )
        assert engine.run(query).groups == ref.groups

    def test_avg_is_refused(self, ssb_db, gpu_star_store):
        def fn(engine):
            p = engine.pipeline("avg")
            quantity = p.load("lo_quantity")
            result = p.group_aggregate(
                np.zeros(p.n, dtype=np.int64), quantity, 1, how="avg"
            )
            p.finish()
            return result

        query = SSBQuery("avg", ("lo_quantity",), fn)
        # avg partials cannot merge across morsels: every engine refuses
        # it the same way, with the sum-and-count advice.
        for streaming in (False, True):
            engine = CrystalEngine(ssb_db, gpu_star_store, streaming=streaming)
            with pytest.raises(ValueError, match="unknown aggregate 'avg'.*sum and count"):
                engine.run(query)

    def test_run_leaves_no_cyclic_garbage(self, ssb_db, gpu_star_store):
        # A plan's proxies and lookups must die with the query: a
        # reference cycle would hold them until the cyclic GC runs.
        query = QueryCompiler(ssb_model(), ssb_db, store=gpu_star_store).compile(
            SSB_SPECS["q4.2"]
        )
        engine = CrystalEngine(ssb_db, gpu_star_store, streaming=True, stream_workers=2)
        gc.collect()
        gc.disable()
        try:
            engine.run(query)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_lookups_build_once(self, ssb_db, gpu_star_store):
        engine = CrystalEngine(
            ssb_db, gpu_star_store, streaming=True, stream_workers=4
        )
        before = engine.device.kernel_count
        engine.run(QUERIES["q3.1"])
        names = [
            launch.spec.name
            for launch in engine.device.launches[before:]
            if launch.spec.name.startswith("build-")
        ]
        # customer, supplier, date: one build kernel each despite the
        # query function re-running once per morsel.
        assert len(names) == 3

    @pytest.mark.parametrize("flight", ("q2.1", "q3.2", "q4.1"))
    def test_dimension_filters_evaluated_once_per_query(
        self, ssb_db, gpu_star_store, monkeypatch, flight
    ):
        dim_arrays = {
            id(values)
            for table in ("customer", "supplier", "part", "date")
            for values in ssb_db.table(table).values()
        }
        calls = [0]
        for cls in (Range, Equals, InSet):

            def counted(self, values, _inner=cls.row_mask):
                calls[0] += id(values) in dim_arrays
                return _inner(self, values)

            monkeypatch.setattr(cls, "row_mask", counted)
        query = QueryCompiler(ssb_model(), ssb_db, store=gpu_star_store).compile(
            SSB_SPECS[flight]
        )
        calls[0] = 0  # the compiler's own dimension reductions
        CrystalEngine(ssb_db, gpu_star_store).run(query)
        per_query = calls[0]
        assert per_query > 0
        for morsel_tiles in (None, 3):
            calls[0] = 0
            engine = CrystalEngine(
                ssb_db, gpu_star_store, streaming=True, stream_workers=2,
                morsel_tiles=morsel_tiles,
            )
            engine.run(query)
            assert engine.last_stream_stats["morsels"] > 1
            assert calls[0] == per_query, morsel_tiles

    def test_streaming_gating(self, ssb_db, gpu_star_store):
        # Every fused plan runs through the executor, streaming or not;
        # only the staged OmniSci baseline prices its own kernels.
        for streaming in (False, True):
            engine = CrystalEngine(ssb_db, gpu_star_store, streaming=streaming)
            assert engine.uses_streaming()
            for system in ("omnisci", "nvcomp", "planner", "gpu-bp"):
                gated = CrystalEngine(
                    ssb_db, ColumnStore(system=system, columns={}), streaming=streaming
                )
                assert gated.uses_streaming() == (system != "omnisci")

    def test_invalid_config_rejected(self, ssb_db, gpu_star_store):
        engine = CrystalEngine(ssb_db, gpu_star_store)
        with pytest.raises(ValueError):
            TileStreamExecutor(engine, workers=0)
        with pytest.raises(ValueError):
            TileStreamExecutor(engine, morsel_tiles=0)
        # None derives the width per query; an explicit width is kept.
        assert TileStreamExecutor(engine).morsel_tiles is None
        assert TileStreamExecutor(engine, morsel_tiles=3).morsel_tiles == 3

    @pytest.mark.parametrize("streaming", (False, True))
    def test_engine_rejects_bad_config(self, ssb_db, gpu_star_store, streaming):
        # Refused at construction, whatever the mode, not at the first run.
        for kwargs in ({"stream_workers": 0}, {"morsel_tiles": 0}):
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                CrystalEngine(ssb_db, gpu_star_store, streaming=streaming, **kwargs)

    def test_default_engine_is_one_worker(self, ssb_db, gpu_star_store):
        """Without ``streaming`` the engine is the 1-worker executor: same
        answers, simulated ms, kernels and cached images, flight by flight."""
        plain = CrystalEngine(ssb_db, gpu_star_store)
        one = CrystalEngine(ssb_db, gpu_star_store, streaming=True, stream_workers=1)
        assert len(QUERIES) == 13
        for qname, query in QUERIES.items():
            a, b = plain.run(query), one.run(query)
            assert a.groups == b.groups, qname
            assert repr(a.simulated_ms) == repr(b.simulated_ms), qname
            assert a.kernel_count == b.kernel_count, qname
            images = [
                {key for key in engine._cache if key.startswith("decoded/")}
                for engine in (plain, one)
            ]
            assert images[0] == images[1], qname
        assert images[0], "the flights keep no whole-column image"


# ---------------------------------------------------------------------------
# Derived morsel widths and the shared drain loop
# ---------------------------------------------------------------------------


def _assert_partition(morsels, tile_active, span, workers, num_rows):
    """The derived-partition contract over one executor span."""
    lo, hi = span
    live = np.flatnonzero(tile_active[lo:hi]) + lo
    seen = []
    prev_hi = lo
    for k, m in enumerate(morsels):
        assert m.index == k
        assert prev_hi <= m.tile_lo < m.tile_hi <= hi, (k, m)
        assert m.tile_lo == lo or m.tile_lo % MORSEL_ALIGN_TILES == 0, m
        assert (m.row_lo, m.row_hi) == (m.tile_lo * TILE, min(m.tile_hi * TILE, num_rows))
        if k < len(morsels) - 1:  # the last morsel takes the remainder
            assert m.tile_hi - m.tile_lo >= MIN_MORSEL_TILES, m
        seen.extend(np.flatnonzero(tile_active[m.tile_lo : m.tile_hi]) + m.tile_lo)
        prev_hi = m.tile_hi
    assert np.array_equal(np.asarray(seen, dtype=np.int64), live)
    # One morsel per worker: each takes ceil(surviving / workers) tiles
    # (at least the floor), so there are never more morsels than workers.
    assert len(morsels) <= workers
    take = max(MIN_MORSEL_TILES, -(-live.size // workers))
    for m in morsels[:-1]:
        assert np.count_nonzero(tile_active[m.tile_lo : m.tile_hi]) >= take, m
    if live.size:
        # Never narrower than the floor unless the surviving tiles are.
        widest = max(m.tile_hi - m.tile_lo for m in morsels)
        assert widest >= min(MIN_MORSEL_TILES, live.size)


class _GridOnly:
    """An engine stand-in exposing only the tile grid's shape and span."""

    def __init__(self, num_tiles: int, tile_span: tuple[int, int] | None = None):
        self.num_tiles = num_tiles
        self.num_rows = num_tiles * TILE - 100
        self.tile_span = tile_span if tile_span is not None else (0, num_tiles)


@pytest.fixture(scope="module")
def date_sorted():
    db = sort_lineorder_by(generate(scale_factor=0.01, seed=7), "lo_orderdate")
    return db, load_lineorder(db, "gpu-star")


class TestDerivedMorsels:
    @pytest.mark.parametrize("num_tiles", (5, 64, 117, 1171, 3000))
    def test_partition_contract_on_synthetic_grids(self, num_tiles):
        rng = np.random.default_rng(num_tiles)
        tiles = np.arange(num_tiles)
        grids = {
            "all": np.ones(num_tiles, dtype=bool),
            "none": np.zeros(num_tiles, dtype=bool),
            "window": (tiles >= num_tiles // 3) & (tiles < num_tiles // 2 + 3),
            "checkerboard-1": tiles % 2 == 0,
            "checkerboard-8": (tiles // 8) % 2 == 0,
            "sparse": rng.random(num_tiles) < 0.05,
        }
        for shards in (1, 2, 4, 7):
            bounds = np.linspace(0, num_tiles, shards + 1).astype(int)
            for span in zip(bounds[:-1], bounds[1:]):
                span = (int(span[0]), int(span[1]))
                engine = _GridOnly(num_tiles, span)
                for workers in (1, 2, 8):
                    executor = TileStreamExecutor(engine, workers=workers)
                    for label, active in grids.items():
                        active = active.copy()
                        active[: span[0]] = False
                        active[span[1] :] = False
                        morsels = executor._partition(active)
                        _assert_partition(
                            morsels, active, span, workers, engine.num_rows
                        )
                        # A pinned width keeps the fixed grid from the span start.
                        pinned = executor._partition(active, morsel_tiles=64)
                        assert all((m.tile_lo - span[0]) % 64 == 0 for m in pinned)

    def test_width_grows_with_the_surviving_tiles(self):
        executor = TileStreamExecutor(_GridOnly(3000), workers=2)
        morsels = executor._partition(np.ones(3000, dtype=bool))
        assert len(morsels) == 2
        assert [m.tile_hi - m.tile_lo for m in morsels] == [1504, 1496]

    @pytest.mark.parametrize(
        "data, qname",
        [(d, q) for d in ("unsorted", "sorted") for q in ("q1.1", "q2.1", "q3.2", "q4.1")]
        + [("checkerboard", "checkerboard-1"), ("checkerboard", "checkerboard-8")],
    )
    def test_answers_match_the_pinned_grid(
        self, ssb_db, gpu_star_store, date_sorted, data, qname
    ):
        if data == "sorted":
            db, store = date_sorted
        elif data == "checkerboard":
            # GPU-SIMDBP128's 4096-row codec tiles are the ones morsel
            # boundaries must not split.
            db, store = ssb_db, _matrix_store(ssb_db, "gpu-simdbp128")
        else:
            db, store = ssb_db, gpu_star_store
        query = _matrix_query(qname, db)
        pinned = CrystalEngine(db, store, streaming=True, stream_workers=2, morsel_tiles=64)
        ref = pinned.run(query)
        num_tiles = pinned.num_tiles
        for shards in (1, 2, 4, 7):
            bounds = np.linspace(0, num_tiles, shards + 1).astype(int)
            for span in zip(bounds[:-1], bounds[1:]):
                span = (int(span[0]), int(span[1]))
                for workers in (1, 2, 8):
                    engine = CrystalEngine(
                        db, store, streaming=True, stream_workers=workers, tile_span=span
                    )
                    executor = TileStreamExecutor(engine, workers=workers)
                    plan = executor.plan(query)
                    _assert_partition(
                        plan.morsels, plan.tile_active, span, workers, engine.num_rows
                    )
        for workers in (1, 2, 8):
            engine = CrystalEngine(db, store, streaming=True, stream_workers=workers)
            got = engine.run(query)
            label = (data, qname, workers)
            assert got.groups == ref.groups, label
            assert got.kernel_count == ref.kernel_count, label
            assert got.simulated_ms == ref.simulated_ms, label
            stats = engine.last_stream_stats
            widths = [m.tile_hi - m.tile_lo for m in engine._stream_executor.plan(query).morsels]
            assert stats["morsel_tiles"] == max(widths, default=0), label

    def test_stats_report_the_width_used(self, ssb_db, gpu_star_store):
        cases = ((True, 3, 3), (False, None, None))
        for streaming, morsel_tiles, expect in cases:
            engine = CrystalEngine(
                ssb_db, gpu_star_store, streaming=streaming, morsel_tiles=morsel_tiles
            )
            engine.run(QUERIES["q2.1"])
            expect = engine.num_tiles if expect is None else expect
            assert engine.last_stream_stats["morsel_tiles"] == expect


def _record_morsels(monkeypatch, executor, fail=()):
    """Wrap ``executor._run_morsel``: log (morsel index, thread) and
    raise for the morsel indices in ``fail``."""
    ran: list[tuple[int, threading.Thread]] = []
    inner = executor._run_morsel

    def run(query, plan, morsel):
        ran.append((morsel.index, threading.current_thread()))
        if morsel.index in fail:
            raise RuntimeError(f"morsel {morsel.index} failed")
        return inner(query, plan, morsel)

    monkeypatch.setattr(executor, "_run_morsel", run)
    return ran


class TestMorselDrain:
    def test_two_workers_are_the_caller_and_one_pool_thread(
        self, ssb_db, gpu_star_store, monkeypatch
    ):
        engine = CrystalEngine(ssb_db, gpu_star_store, streaming=True)
        executor = TileStreamExecutor(engine, workers=2, morsel_tiles=1)
        ran = _record_morsels(monkeypatch, executor)
        try:
            executor.execute(QUERIES["q2.1"])
            assert executor._pool._max_workers == 1
            assert len(executor._pool._threads) == 1
        finally:
            executor.close()
        assert sorted(i for i, _ in ran) == list(range(engine.num_tiles))
        threads = {t for _, t in ran}
        assert threading.current_thread() in threads
        assert len(threads) <= 2

    def test_one_worker_starts_no_pool(self, ssb_db, gpu_star_store, monkeypatch):
        engine = CrystalEngine(ssb_db, gpu_star_store, streaming=True)
        executor = TileStreamExecutor(engine, workers=1, morsel_tiles=3)
        ran = _record_morsels(monkeypatch, executor)
        executor.execute(QUERIES["q2.1"])
        assert executor._pool is None
        assert {t for _, t in ran} == {threading.current_thread()}

    def test_drain_stress_runs_every_morsel_once(
        self, ssb_db, gpu_star_store, monkeypatch
    ):
        # More workers than cores and a short switch interval: a morsel
        # popped twice or lost would break the count or the answer.
        query = QUERIES["q2.1"]
        ref = CrystalEngine(ssb_db, gpu_star_store).run(query).groups
        engine = CrystalEngine(ssb_db, gpu_star_store, streaming=True)
        executor = TileStreamExecutor(engine, workers=8, morsel_tiles=1)
        ran = _record_morsels(monkeypatch, executor)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                ran.clear()
                assert executor.execute(query) == ref
                assert sorted(i for i, _ in ran) == list(range(engine.num_tiles))
        finally:
            sys.setswitchinterval(interval)
            executor.close()

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_first_error_in_morsel_order_after_every_morsel_ran(
        self, ssb_db, gpu_star_store, monkeypatch, workers
    ):
        from repro.serving.metrics import MetricsRegistry

        engine = CrystalEngine(ssb_db, gpu_star_store, streaming=True)
        metrics = MetricsRegistry()
        executor = TileStreamExecutor(
            engine, workers=workers, morsel_tiles=3, metrics=metrics
        )
        ran = _record_morsels(monkeypatch, executor, fail=(5, 2))
        try:
            with pytest.raises(RuntimeError, match="morsel 2 failed"):
                executor.execute(QUERIES["q2.1"])
        finally:
            executor.close()
        assert sorted(i for i, _ in ran) == list(range(-(-engine.num_tiles // 3)))
        assert metrics.snapshot()["streaming_morsel_failures"] == 2


# ---------------------------------------------------------------------------
# Concurrency: engine caches, serving pool, server metrics
# ---------------------------------------------------------------------------


def _storm(worker, n_threads: int = 8) -> list:
    errors: list = []
    barrier = threading.Barrier(n_threads)

    def run(i):
        barrier.wait()
        try:
            worker(i)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


class TestConcurrentAccess:
    def test_engine_metadata_caches(self, ssb_db, gpu_star_store):
        engine = CrystalEngine(ssb_db, gpu_star_store)
        columns = ("lo_orderdate", "lo_quantity", "lo_discount", "lo_extendedprice")
        expected = {c: engine.column_values(c).copy() for c in columns}
        engine.evict_decoded()

        def worker(i):
            for rep in range(10):
                for c in columns:
                    engine.tile_read_bytes(c)
                    mins, maxs = engine.column_tile_bounds(c)
                    assert mins.size == engine.num_tiles == maxs.size
                    assert np.array_equal(engine.column_values(c), expected[c])
                if i == 0 and rep % 3 == 0:
                    engine.evict_decoded()

        assert _storm(worker) == []

    def test_pool_admit_get_invalidate_storm(self):
        pool = ColumnPool(budget_bytes=1 << 20)
        from repro.serving.pool import PoolAdmissionError

        def worker(i):
            for rep in range(50):
                key = f"decoded/col{(i + rep) % 4}"
                try:
                    pool.admit(key, 4096, kind="decoded", payload=rep)
                except PoolAdmissionError:  # pragma: no cover - tiny budget
                    pass
                pool.get(key)
                if rep % 7 == 0:
                    pool.invalidate(key)

        assert _storm(worker) == []
        assert pool.resident_bytes <= 1 << 20

    def test_query_server_streaming_metrics(self, ssb_db, gpu_star_store):
        from repro.serving.scheduler import QueryServer, ServeRequest

        ref = CrystalEngine(ssb_db, gpu_star_store).run(QUERIES["q1.1"])
        server = QueryServer(
            ssb_db, gpu_star_store, streaming=True, stream_workers=2
        )
        assert server.engine.uses_streaming()
        results = server.serve([ServeRequest("query", "q1.1")])
        assert results[0].ok
        assert results[0].groups == ref.groups
        snap = server.metrics_snapshot()
        assert snap["streaming_queries"] == 1
        assert snap["streaming_morsels"] >= 1
        assert snap["streaming_morsel_ms_count"] >= 1
        assert snap["streaming_peak_decoded_bytes"] > 0
