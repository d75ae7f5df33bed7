"""Morsel-streaming execution: out-buffer decode, bit-identity, threads.

Four layers of coverage:

* out-buffer decode contract — every tile codec's ``decode_tiles_into``
  must agree with its allocating twin across full ranges, non-contiguous
  subsets, partial last tiles and buffer reuse, and reject undersized or
  mistyped buffers;
* many morsels vs one — for every GPU-* codec and a cross-flight query
  matrix, a streaming engine must return the same aggregates and kernel
  count as the default engine's single whole-grid morsel at every
  worker count, including unaligned morsel widths and plans whose
  pushdown prunes every tile (``test_ssb_sim_golden.py`` pins the
  default engine itself);
* merge semantics — min/max partials merge, avg is refused, lookups are
  built exactly once in the plan pass, and a run leaves no cyclic
  garbage;
* concurrency — the engine's metadata/decode caches and the serving
  pool survive a multi-threaded access storm, and the ``QueryServer``
  records streaming metrics.
"""

from __future__ import annotations

import gc
import threading
from collections import Counter

import numpy as np
import pytest

from repro.engine.crystal import TILE, CrystalEngine, SSBQuery
from repro.engine.predicates import And, Equals, InSet, Range
from repro.engine.ssb_queries import QUERIES
from repro.engine.streaming import DEFAULT_MORSEL_TILES, TileStreamExecutor
from repro.formats.base import DecodeArena, TileCodec
from repro.formats.registry import get_codec
from repro.query.compiler import QueryCompiler
from repro.query.ssb import SSB_SPECS, ssb_model
from repro.serving.pool import ColumnPool
from repro.ssb.loader import ColumnStore, StoredColumn

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


@pytest.fixture(scope="module", params=GPU_CODECS)
def codec_store(request, ssb_db):
    codec_name = request.param
    store = _encoded_store(
        ssb_db, codec_name, _columns_for(MATRIX_QUERIES) + CHECKERBOARD_COLUMNS
    )
    # A positional column: lets a plan select rows by engine tile.
    rows = np.arange(ssb_db.num_lineorder_rows, dtype=np.int64)
    enc = get_codec(codec_name).encode(rows)
    store.columns["row_id"] = StoredColumn(
        "row_id", "gpu-star", rows, enc, enc.nbytes, codec_name=codec_name
    )
    return codec_name, store


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
            assert stats["peak_decoded_bytes"] > 0

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
        # Fragmented column loads (row_id's full-grid load decodes via
        # the allocating decode_range) are one call each.
        assert len(calls) == 3 and max(calls.values()) == 1, calls
        calls.clear()
        engine = CrystalEngine(ssb_db, store, streaming=True, stream_workers=1)
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
        assert (
            TileStreamExecutor(engine).morsel_tiles == DEFAULT_MORSEL_TILES
        )


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
