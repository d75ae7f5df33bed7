"""Semantic result cache: exact/donor reuse, invalidation, serving.

The contract under test is *bit-identity*: a semcache-backed engine must
return exactly the answer a cold engine computes, whatever mix of cached
and fresh partials produced it — across codecs, worker counts, budget
pressure, and concurrent flushes.  Reuse is an optimization the stats
expose; staleness is a correctness bug these tests hunt directly.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.updates import UpdatableColumn
from repro.engine.crystal import CrystalEngine, SSBQuery
from repro.engine.predicates import And, Equals, Range
from repro.engine.ssb_queries import QUERIES, make_flight1, make_scan
from repro.engine.streaming import TileStreamExecutor
from repro.formats.base import set_checksums
from repro.formats.registry import get_codec
from repro.gpusim import GPUDevice
from repro.query.compiler import QueryCompiler
from repro.query.model import Query
from repro.query.ssb import ssb_model
from repro.serving.scheduler import QueryServer
from repro.serving.semcache import PARTIAL_GRID_TILES, SemanticResultCache
from repro.serving.sharding import ShardRouter
from repro.ssb.dbgen import generate, sort_lineorder_by
from repro.ssb.loader import ColumnStore, StoredColumn, load_lineorder

GPU_CODECS = ("gpu-for", "gpu-dfor", "gpu-rfor", "gpu-bp", "gpu-simdbp128")

# The dashboard drill-down mix: a year, its repeat, a month inside it, a
# week inside that, plus a cross-dimension widening that must NOT reuse.
YEAR = And((
    Range("lo_orderdate", 19930101, 19931231),
    Range("lo_discount", 1, 3),
    Range("lo_quantity", 0, 24),
))
MONTH = And((
    Range("lo_orderdate", 19930601, 19930630),
    Range("lo_discount", 1, 3),
    Range("lo_quantity", 0, 24),
))
# Wide enough that, date-sorted at SF 0.01 (~23 rows/day, 512-row
# tiles), whole tiles sit provably inside the window for donor transfer.
QUARTER = And((
    Range("lo_orderdate", 19930401, 19930630),
    Range("lo_discount", 1, 3),
    Range("lo_quantity", 0, 24),
))
WEEK = And((
    Range("lo_orderdate", 19930607, 19930613),
    Range("lo_discount", 1, 3),
    Range("lo_quantity", 0, 24),
))
WIDE_QTY = And((
    Range("lo_orderdate", 19930101, 19931231),
    Range("lo_discount", 1, 3),
))
DRILLDOWN = ("year", YEAR), ("year", YEAR), ("month", MONTH), ("week", WEEK), ("wide", WIDE_QTY)


@pytest.fixture(scope="module")
def sorted_db():
    """Date-clustered lineorder: zone maps can prove drill-down reuse."""
    return sort_lineorder_by(generate(scale_factor=0.01, seed=7), "lo_orderdate")


@pytest.fixture(scope="module")
def sorted_store(sorted_db):
    return load_lineorder(sorted_db, "gpu-star")


def _encoded_store(db, codec_name: str) -> ColumnStore:
    stored = {}
    for name in ("lo_orderdate", "lo_discount", "lo_quantity", "lo_extendedprice"):
        values = db.lineorder[name]
        enc = get_codec(codec_name).encode(values)
        stored[name] = StoredColumn(
            name, "gpu-star", values, enc, enc.nbytes, codec_name=codec_name
        )
    return ColumnStore(system="gpu-star", columns=stored)


def _cached_engine(db, store, workers=2, morsel_tiles=None, budget=None):
    engine = CrystalEngine(
        db, store, streaming=True, stream_workers=workers, morsel_tiles=morsel_tiles
    )
    engine.semcache = (
        SemanticResultCache() if budget is None else SemanticResultCache(budget)
    )
    return engine


class TestSemanticKey:
    def test_equivalent_spellings_share_key(self):
        a = make_scan("a", And((Range("lo_orderdate", 19930101, 19931231),
                                Range("lo_discount", 1, 3))))
        b = make_scan("b", And((Range("lo_discount", 1, 3),
                                And((Range("lo_orderdate", 19930101, 19931231),)))))
        assert a.semantic_key() == b.semantic_key()

    def test_point_range_equals_equals(self):
        a = make_scan("a", And((Range("lo_discount", 3, 3),)))
        b = make_scan("b", And((Equals("lo_discount", 3),)))
        assert a.semantic_key() == b.semantic_key()

    def test_different_filters_differ(self):
        a = make_scan("a", And((Range("lo_discount", 1, 3),)))
        b = make_scan("b", And((Range("lo_discount", 1, 4),)))
        assert a.semantic_key() != b.semantic_key()

    def test_registry_queries_have_keys(self):
        keys = {name: QUERIES[name].semantic_key() for name in QUERIES}
        assert len(set(keys.values())) == len(keys)  # all distinct
        # The flight-1 registry entries are plain predicate scans now, so
        # an identically-filtered ad-hoc scan coalesces with them.
        adhoc = make_flight1("q1.1-copy", 19930101, 19931231, 1, 3, 0, 24)
        assert adhoc.semantic_key() == QUERIES["q1.1"].semantic_key()

    def test_scan_rejects_unfilterable_column(self):
        with pytest.raises(ValueError, match="lo_revenue"):
            make_scan("bad", And((Range("lo_revenue", 0, 1),)))


# ---------------------------------------------------------------------------
# Bit-identity: warm answers equal cold answers, everywhere
# ---------------------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("codec_name", GPU_CODECS)
    def test_drilldown_matches_cold_every_codec(self, sorted_db, codec_name):
        store = _encoded_store(sorted_db, codec_name)
        warm = _cached_engine(sorted_db, store, workers=2, morsel_tiles=1)
        for i, (label, pred) in enumerate(DRILLDOWN):
            q = make_scan(f"scan-{label}", pred)
            got = warm.run(q).groups
            cold = CrystalEngine(sorted_db, store, streaming=True).run(q).groups
            assert got == cold, (codec_name, label, i)

    @pytest.mark.parametrize("workers", (1, 4))
    def test_drilldown_matches_cold_every_worker_count(
        self, sorted_db, sorted_store, workers
    ):
        warm = _cached_engine(sorted_db, sorted_store, workers=workers, morsel_tiles=1)
        for label, pred in DRILLDOWN:
            q = make_scan(f"scan-{label}", pred)
            got = warm.run(q).groups
            cold = CrystalEngine(
                sorted_db, sorted_store, streaming=True, stream_workers=workers
            ).run(q).groups
            assert got == cold, (workers, label)

    def test_registry_flight1_through_cache(self, sorted_db, sorted_store):
        warm = _cached_engine(sorted_db, sorted_store)
        for name in ("q1.1", "q1.2", "q1.3", "q1.1"):
            got = warm.run(QUERIES[name]).groups
            cold = CrystalEngine(sorted_db, sorted_store, streaming=True)
            assert got == cold.run(QUERIES[name]).groups, name
        assert warm.semcache.stats()["semcache_hits"] >= 1


class TestExactReuse:
    def test_repeat_is_a_full_hit(self, sorted_db, sorted_store):
        engine = _cached_engine(sorted_db, sorted_store)
        q = make_scan("scan-year", YEAR)
        first = engine.run(q).groups
        second = engine.run(q).groups
        assert first == second
        stats = engine.semcache.stats()
        assert stats["semcache_hits"] == 1
        assert stats["semcache_misses"] == 1
        # The warm run executed zero fresh morsels.
        assert engine.last_stream_stats["cached_morsels"] == engine.last_stream_stats["morsels"]

    def test_spelling_variant_hits_same_entry(self, sorted_db, sorted_store):
        engine = _cached_engine(sorted_db, sorted_store)
        engine.run(make_scan("a", YEAR))
        variant = And(tuple(reversed(YEAR.predicates)))
        engine.run(make_scan("b", variant))
        stats = engine.semcache.stats()
        assert stats["semcache_hits"] == 1
        assert stats["semcache_entries"] == 1


class TestPartialGrid:
    def test_derived_morsels_keep_the_fixed_partial_grid(self, sorted_db, sorted_store):
        # Spans are the cache key: whatever width the executor derives
        # for its own morsels, cached partials sit on one fixed grid,
        # while a fully fresh query runs at most one morsel per worker.
        grids = {}
        for workers in (1, 2, 8):
            engine = _cached_engine(sorted_db, sorted_store, workers=workers)
            engine.run(make_scan("scan-year", YEAR))
            engine.run(QUERIES["q2.1"])  # no date filter: every grid window
            stats = engine.last_stream_stats
            assert stats["partial_tiles"] == PARTIAL_GRID_TILES
            assert 1 <= len(stats["morsel_ms"]) <= workers
            assert stats["morsels"] == -(-engine.num_tiles // PARTIAL_GRID_TILES)
            assert stats["morsel_tiles"] >= stats["partial_tiles"]
            spans = sorted(
                {span for entry in engine.semcache._entries.values() for span in entry.spans}
            )
            assert spans and all(
                lo % PARTIAL_GRID_TILES == 0
                and hi == min(lo + PARTIAL_GRID_TILES, engine.num_tiles)
                for lo, hi in spans
            )
            grids[workers] = spans
        assert grids[1] == grids[2] == grids[8]

    def test_pinned_width_pins_the_partial_grid(self, sorted_db, sorted_store):
        engine = _cached_engine(sorted_db, sorted_store, morsel_tiles=3)
        engine.run(make_scan("scan-year", YEAR))
        (entry,) = engine.semcache._entries.values()
        assert entry.spans and all(lo % 3 == 0 and hi - lo <= 3 for lo, hi in entry.spans)


class TestDonorReuse:
    def test_quarter_drilldown_reuses_year_partials(self, sorted_db, sorted_store):
        engine = _cached_engine(sorted_db, sorted_store, morsel_tiles=1)
        engine.run(make_scan("scan-year", YEAR))
        got = engine.run(make_scan("scan-quarter", QUARTER)).groups
        cold = CrystalEngine(sorted_db, sorted_store, streaming=True)
        assert got == cold.run(make_scan("scan-quarter", QUARTER)).groups
        stats = engine.semcache.stats()
        assert stats["semcache_donated_partials"] >= 1
        assert stats.get("semcache_partial_hits", 0) + stats.get("semcache_hits", 0) >= 1

    def test_widening_refuses_donation(self, sorted_db, sorted_store):
        # Dropping the quantity conjunct widens the row set: the year
        # partials exclude qty>24 rows the wide query needs, so zone maps
        # must refuse the transfer (quantity is unclustered — no tile is
        # all-inside qty<=24).
        engine = _cached_engine(sorted_db, sorted_store, morsel_tiles=1)
        engine.run(make_scan("scan-year", YEAR))
        got = engine.run(make_scan("scan-wide", WIDE_QTY)).groups
        cold = CrystalEngine(sorted_db, sorted_store, streaming=True)
        assert got == cold.run(make_scan("scan-wide", WIDE_QTY)).groups
        assert "semcache_donated_partials" not in engine.semcache.stats()

    def test_unsorted_data_cannot_prove_reuse(self, ssb_db):
        # Same drill-down on unclustered dates: every tile spans the full
        # date domain, so nothing is provable and nothing transfers —
        # but the answer is still exact.
        store = load_lineorder(ssb_db, "gpu-star")
        engine = _cached_engine(ssb_db, store, morsel_tiles=1)
        engine.run(make_scan("scan-year", YEAR))
        got = engine.run(make_scan("scan-quarter", QUARTER)).groups
        cold = CrystalEngine(ssb_db, store, streaming=True)
        assert got == cold.run(make_scan("scan-quarter", QUARTER)).groups
        assert "semcache_donated_partials" not in engine.semcache.stats()

    def test_promoted_spans_hit_without_donor_scan(self, sorted_db, sorted_store):
        engine = _cached_engine(sorted_db, sorted_store, morsel_tiles=1)
        engine.run(make_scan("scan-year", YEAR))
        engine.run(make_scan("scan-quarter", QUARTER))
        donated = engine.semcache.stats()["semcache_donated_partials"]
        # The repeat finds the donated spans under its own signature.
        engine.run(make_scan("scan-quarter", QUARTER))
        stats = engine.semcache.stats()
        assert stats["semcache_donated_partials"] == donated
        assert stats["semcache_hits"] >= 1


# ---------------------------------------------------------------------------
# Invalidation: flushes can never leave a stale partial servable
# ---------------------------------------------------------------------------


def _matching_row(db) -> int:
    d = db.lineorder
    mask = (
        (d["lo_orderdate"] >= 19930101) & (d["lo_orderdate"] <= 19931231)
        & (d["lo_discount"] >= 1) & (d["lo_discount"] <= 3)
        & (d["lo_quantity"] <= 24)
    )
    rows = np.flatnonzero(mask)
    assert rows.size, "workload fixture must select at least one row"
    return int(rows[0])


class TestInvalidation:
    def test_flush_drops_partials_and_serves_fresh(self, sorted_db):
        store = load_lineorder(sorted_db, "gpu-star")
        engine = _cached_engine(sorted_db, store)
        device = GPUDevice()
        ucol = UpdatableColumn(sorted_db.lineorder["lo_extendedprice"])
        engine.bind_updatable("lo_extendedprice", ucol)
        q = make_scan("scan-year", YEAR)
        before = engine.run(q).groups

        row = _matching_row(sorted_db)
        ucol.update(row, ucol.read(row) + 10_000_000)
        ucol.flush(device)

        after = engine.run(q).groups
        assert after != before  # the update is visible
        cold = CrystalEngine(sorted_db, store, streaming=True)
        assert after == cold.run(q).groups  # and exactly right
        stats = engine.semcache.stats()
        assert stats["semcache_invalidations"] >= 1
        assert stats["semcache_invalidated_partials"] >= 1

    def test_epoch_bumps_only_dependent_entries(self, sorted_db, sorted_store):
        engine = _cached_engine(sorted_db, sorted_store)
        engine.run(make_scan("scan-year", YEAR))
        dropped = engine.semcache.invalidate_column("lo_revenue")
        assert dropped == 0  # scans do not read lo_revenue
        assert engine.semcache.stats()["semcache_entries"] == 1
        dropped = engine.semcache.invalidate_column("lo_quantity")
        assert dropped == 1
        assert engine.semcache.stats()["semcache_entries"] == 0

    def test_flush_storm_never_serves_stale(self, sorted_db):
        """Concurrent queries racing flushes: every answer matches some
        consistent epoch, and post-storm answers match the final bytes."""
        store = load_lineorder(sorted_db, "gpu-star")
        server = QueryServer(
            sorted_db, store, streaming=True, stream_workers=2,
            semantic_cache=True,
        )
        device = GPUDevice()
        ucol = UpdatableColumn(sorted_db.lineorder["lo_extendedprice"])
        server.engine.bind_updatable("lo_extendedprice", ucol)
        q = make_scan("scan-year", YEAR)
        row = _matching_row(sorted_db)

        def reference() -> dict[int, int]:
            return CrystalEngine(sorted_db, store, streaming=True).run(q).groups

        # Epoch 0 reference, then flush between query waves, snapshotting
        # a reference under the engine lock after each flush (the lock
        # orders the flush against in-flight executions, exactly as a
        # maintenance path must).
        references = [reference()]
        server.start()
        results: list[dict[int, int]] = []
        errors: list[Exception] = []

        def client(n: int) -> None:
            try:
                for _ in range(n):
                    res = server.query(q).result(timeout=60)
                    assert res.ok, res.error
                    results.append(res.groups)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(4,)) for _ in range(3)]
        for t in threads:
            t.start()
        for bump in (1, 2, 3):
            with server._engine_lock:
                ucol.update(row, ucol.read(row) + 10_000_000 * bump)
                ucol.flush(device)
                references.append(reference())
        for t in threads:
            t.join()
        final = server.query(q).result(timeout=60)
        server.stop()
        assert not errors, errors
        # Zero stale reads: every served answer is one of the epoch
        # references — a stale partial merged with fresh data would be a
        # mixture matching none of them.
        distinct = {tuple(sorted(r.items())) for r in references}
        assert len(distinct) == len(references)  # each flush changed the answer
        for groups in results:
            assert tuple(sorted(groups.items())) in distinct
        assert final.ok and final.groups == references[-1]


# ---------------------------------------------------------------------------
# Budget pressure
# ---------------------------------------------------------------------------


class TestBudget:
    def test_resident_bytes_bounded(self, sorted_db, sorted_store):
        budget = 400
        engine = _cached_engine(sorted_db, sorted_store, budget=budget)
        for label, pred in DRILLDOWN:
            engine.run(make_scan(f"scan-{label}", pred))
        stats = engine.semcache.stats()
        assert 0 < stats["semcache_resident_bytes"] <= budget

    def test_budget_too_small_for_any_partial(self, sorted_db, sorted_store):
        engine = _cached_engine(sorted_db, sorted_store, budget=64)
        q = make_scan("scan-year", YEAR)
        first = engine.run(q).groups
        second = engine.run(q).groups  # nothing cached: full re-execution
        assert first == second
        stats = engine.semcache.stats()
        assert stats["semcache_install_rejections"] >= 1
        assert stats["semcache_resident_bytes"] == 0
        assert stats["semcache_misses"] == 2

    def test_eviction_keeps_answers_exact(self, sorted_db, sorted_store):
        engine = _cached_engine(sorted_db, sorted_store, budget=400)
        for _round in range(2):
            for label, pred in DRILLDOWN:
                q = make_scan(f"scan-{label}", pred)
                got = engine.run(q).groups
                cold = CrystalEngine(sorted_db, sorted_store, streaming=True)
                assert got == cold.run(q).groups, label


# ---------------------------------------------------------------------------
# Server integration: coalescing and configuration
# ---------------------------------------------------------------------------


class TestServerIntegration:
    def test_one_worker_cache_matches_uncached(self, sorted_db, sorted_store):
        """A 1-worker server (no ``streaming``) runs the semantic cache
        too: cold and warm answers equal an uncached server's."""
        cached = QueryServer(sorted_db, sorted_store, semantic_cache=True)
        plain = QueryServer(sorted_db, sorted_store)
        assert cached.engine.stream_workers == 1
        for _round in range(2):
            for label, pred in DRILLDOWN:
                q = make_scan(f"scan-{label}", pred)
                got, want = (server.query(q) for server in (cached, plain))
                cached.drain()
                plain.drain()
                assert got.result().ok and want.result().ok, label
                assert got.result().groups == want.result().groups, label
        assert cached.metrics_snapshot()["semcache_hits"] > 0
        for server in (cached, plain):
            server.stop()

    def test_equivalent_spellings_coalesce(self, sorted_db, sorted_store):
        # Two ad-hoc requests with the same rows under different
        # spellings land in one drain window and execute once.
        server = QueryServer(
            sorted_db, sorted_store, streaming=True, semantic_cache=True
        )
        a = make_scan("spelling-a", YEAR)
        b = make_scan("spelling-b", And(tuple(reversed(YEAR.predicates))))
        fa, fb = server.query(a), server.query(b)
        server.drain()
        ra, rb = fa.result(), fb.result()
        assert ra.ok and rb.ok
        assert ra.batch_size == rb.batch_size == 2
        assert ra.groups == rb.groups
        assert server.metrics.snapshot()["server_batched_requests"] >= 1

    def test_warm_queries_hit_through_server(self, sorted_db, sorted_store):
        server = QueryServer(
            sorted_db, sorted_store, streaming=True, semantic_cache=True
        )
        q = make_scan("scan-year", YEAR)
        server.query(q)
        server.drain()
        f = server.query(q)
        server.drain()
        assert f.result().ok
        snap = server.metrics_snapshot()
        assert snap["semcache_hits"] == 1
        assert snap["semcache_queries"] == 2

    def test_server_without_cache_has_no_semcache(self, sorted_db, sorted_store):
        server = QueryServer(sorted_db, sorted_store, streaming=True)
        assert server.semcache is None
        assert server.engine.semcache is None


# ---------------------------------------------------------------------------
# Wide misses: one morsel per worker, one cached partial per 64-tile span
# ---------------------------------------------------------------------------

#: Dashboard-style panels: date windows x discount/quantity bands, two
#: measures each (two aggregate calls whose results the plan unions).
PANEL_WINDOWS = (
    Equals("d_year", 1993),
    Range("d_yearmonthnum", 199301, 199306),
    Range("d_yearmonthnum", 199304, 199306),
    Equals("d_year", 1995),
)
PANEL_BANDS = (
    (Range("lo_discount", 1, 3), Range("lo_quantity", 1, 24)),
    (Range("lo_discount", 4, 6), Range("lo_quantity", 26, 35)),
)


@pytest.fixture(scope="module")
def wide_db():
    """Date-sorted SF 0.05: 586 engine tiles, ten 64-tile cache spans."""
    return sort_lineorder_by(generate(scale_factor=0.05, seed=7), "lo_orderdate")


@pytest.fixture(scope="module", params=(False, True), ids=("plain", "checksummed"))
def wide_store(request, wide_db):
    previous = set_checksums(request.param)
    try:
        yield load_lineorder(wide_db, "gpu-star")
    finally:
        set_checksums(previous)


def _wide_queries(db, store) -> list:
    """The 13 flights, then the panels (each twice: the repeat hits)."""
    compiler = QueryCompiler(ssb_model(), db, store)
    panels = [
        compiler.compile(
            Query(f"panel-{i}-{j}", measures=("revenue_disc", "revenue"),
                  filters=(window,) + band)
        )
        for i, window in enumerate(PANEL_WINDOWS)
        for j, band in enumerate(PANEL_BANDS)
    ]
    return list(QUERIES.values()) + panels + panels


def _partials(engine) -> dict:
    """Every resident partial: ``{(signature, span): (agg_ops, result)}``."""
    cache = engine.semcache
    out = {}
    for entry in list(cache._entries.values()):
        for span in sorted(entry.spans):
            resident = cache.pool.get(cache._span_key(entry.sig, span))
            if resident is not None:
                partial = resident.payload
                out[(entry.sig, span)] = (partial.agg_ops, partial.result)
    return out


def _drop_every_other_span(engine) -> None:
    """Evict alternate cached spans, so a repeat's fresh spans interleave
    with covered ones."""
    cache = engine.semcache
    for entry in cache._entries.values():
        for span in sorted(entry.spans)[1::2]:
            entry.spans.discard(span)
            cache.pool.invalidate(cache._span_key(entry.sig, span))


def _ledger(pipelines) -> tuple:
    """The morsel accounting a fused kernel is priced from, summed."""
    calls = max((len(p._gathers) for p in pipelines), default=0)
    return (
        sum(p._read_bytes for p in pipelines),
        sum(p._write_bytes for p in pipelines),
        sum(p._compute for p in pipelines),
        sum(p._shared for p in pipelines),
        sum(p.live_count for p in pipelines),
        [sum(p._gathers[i][0] for p in pipelines) for i in range(calls)],
    )


def _last_ledger(engine):
    """The ledger of the engine's last priced query (``None`` before any)."""
    return getattr(engine._stream_executor, "ledger", None)


class TestWideMisses:
    """A derived-width engine against one pinned to the partial grid.

    The pinned engine runs one morsel per span; the derived one runs at
    most ``workers`` wide morsels.  Both
    must cache the very same partials, merge the same answers, and sum
    the same accounting into the same priced device time.
    """

    @pytest.fixture(autouse=True)
    def ledgers(self, monkeypatch):
        price = TileStreamExecutor._price_fused_kernel

        def spy(executor, query, ppipe, pipelines):
            executor.ledger = _ledger(pipelines)
            return price(executor, query, ppipe, pipelines)

        monkeypatch.setattr(TileStreamExecutor, "_price_fused_kernel", spy)

    def _pair(self, db, store, workers):
        wide = _cached_engine(db, store, workers=workers)
        pinned = _cached_engine(db, store, workers=workers, morsel_tiles=PARTIAL_GRID_TILES)
        return wide, pinned

    def _same(self, wide, pinned, q, label):
        a, b = wide.run(q), pinned.run(q)
        assert a.groups == b.groups, label
        assert a.simulated_ms == b.simulated_ms, label
        assert _last_ledger(wide) == _last_ledger(pinned), label
        assert _partials(wide) == _partials(pinned), label
        stats = wide.last_stream_stats
        assert stats["partial_tiles"] == PARTIAL_GRID_TILES
        assert len(stats["morsel_ms"]) <= wide.stream_workers, label
        return stats

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_flights_and_panels_match_the_pinned_grid(self, wide_db, wide_store, workers):
        wide, pinned = self._pair(wide_db, wide_store, workers)
        for q in _wide_queries(wide_db, wide_store):
            self._same(wide, pinned, q, (workers, q.name))
        assert _partials(wide)
        assert wide.semcache.stats()["semcache_hits"] >= 1
        counters = ("semcache_covered_morsels", "semcache_fresh_morsels")
        wide_stats, pinned_stats = wide.semcache.stats(), pinned.semcache.stats()
        assert [wide_stats[c] for c in counters] == [pinned_stats[c] for c in counters]

    @pytest.mark.parametrize("workers", (1, 2))
    def test_fresh_spans_between_covered_ones(self, wide_db, wide_store, workers):
        wide, pinned = self._pair(wide_db, wide_store, workers)
        for q in (QUERIES["q2.1"], QUERIES["q4.1"]):
            self._same(wide, pinned, q, q.name)
            _drop_every_other_span(wide)
            _drop_every_other_span(pinned)
            stats = self._same(wide, pinned, q, q.name)
            assert 0 < stats["cached_morsels"] < stats["morsels"]
            if workers == 1:
                # One morsel runs across the covered spans between the
                # fresh ones, masking them rather than recomputing them.
                assert len(stats["morsel_ms"]) == 1
                assert stats["morsel_tiles"] > 2 * PARTIAL_GRID_TILES

    @pytest.mark.parametrize("workers", (1, 2))
    def test_donor_transfer(self, wide_db, wide_store, workers):
        wide, pinned = self._pair(wide_db, wide_store, workers)
        years = And((
            Range("lo_orderdate", 19930101, 19961231),
            Range("lo_discount", 1, 3),
            Range("lo_quantity", 0, 24),
        ))
        every = And((
            Range("lo_orderdate", 19920101, 19981231),
            Range("lo_discount", 1, 3),
            Range("lo_quantity", 0, 24),
        ))
        self._same(wide, pinned, make_scan("scan-years", years), "years")
        stats = self._same(wide, pinned, make_scan("scan-every", every), "every")
        assert wide.semcache.stats()["semcache_donated_partials"] >= 1
        assert 0 < stats["cached_morsels"] < stats["morsels"]

    @pytest.mark.parametrize("workers", (1, 2))
    def test_two_shard_router(self, wide_db, wide_store, workers):
        routers = [
            ShardRouter(wide_db, wide_store, 2, stream_workers=workers,
                        morsel_tiles=tiles, semantic_cache=True)
            for tiles in (None, PARTIAL_GRID_TILES)
        ]
        try:
            for q in _wide_queries(wide_db, wide_store)[:13]:
                (wide_groups, wide_ms), (pinned_groups, pinned_ms) = (
                    router.execute(q) for router in routers
                )
                assert wide_groups == pinned_groups, q.name
                assert wide_ms == pinned_ms, q.name
                for wide_shard, pinned_shard in zip(*(r.shards for r in routers)):
                    wide_engine, pinned_engine = wide_shard.engine, pinned_shard.engine
                    assert _last_ledger(wide_engine) == _last_ledger(pinned_engine), q.name
                    assert _partials(wide_engine) == _partials(pinned_engine), q.name
        finally:
            for router in routers:
                router.close()

    def test_span_costs_split_the_morsel_wall_time(self, wide_db, wide_store, monkeypatch):
        seen = []
        run_partials = TileStreamExecutor.run_partials

        def spy(executor, plan, spans):
            seen.append(run_partials(executor, plan, spans))
            return seen[-1]

        monkeypatch.setattr(TileStreamExecutor, "run_partials", spy)
        engine = _cached_engine(wide_db, wide_store, workers=2)
        engine.run(QUERIES["q2.1"])
        ((outcomes, partials),) = seen
        assert len(outcomes) == 2 and len(partials) == 10
        for o in outcomes:
            mine = [p.wall_ms for p in partials if p.pipeline is o.pipeline]
            assert len(mine) == len(o.pipeline.span_tiles) > 1
            assert sum(mine) == pytest.approx(o.wall_ms)
        # Each cached partial keeps its own share as its eviction cost.
        costs = sorted(
            r.reconstruct_cost_ms
            for r in engine.semcache.pool._residents.values()
        )
        assert costs == pytest.approx(sorted(p.wall_ms for p in partials))

    def test_a_derived_result_cannot_be_split(self, wide_db, wide_store):
        def halved(eng):
            p = eng.pipeline("halved")
            result = p.total_sum(p.load("lo_revenue"))
            p.finish()
            return {0: result[0] // 2}

        q = SSBQuery("halved", ("lo_revenue",), halved)
        pinned = _cached_engine(wide_db, wide_store, morsel_tiles=PARTIAL_GRID_TILES)
        pinned.run(q)  # one morsel per span: nothing to split
        with pytest.raises(RuntimeError, match="cannot be split by span"):
            _cached_engine(wide_db, wide_store).run(q)
