"""QueryServer: batching, backpressure, timeouts, concurrency + eviction
correctness, and the update-flush invalidation regression."""

import threading

import numpy as np
import pytest

from repro.core.updates import UpdatableColumn
from repro.engine.crystal import CrystalEngine
from repro.engine.ssb_queries import QUERIES
from repro.formats.registry import get_codec
from repro.gpusim import GPUDevice
from repro.serving import (
    ColumnPool,
    QueryServer,
    ServeRequest,
    ServerSaturated,
)
from repro.ssb.dbgen import generate
from repro.ssb.loader import load_lineorder

#: Every GPU-* tile codec, pinned to one lineorder query column each so
#: the eviction-correctness suite exercises them all end to end.
CODEC_COLUMNS = {
    "lo_orderdate": "gpu-dfor",
    "lo_quantity": "gpu-for",
    "lo_discount": "gpu-rfor",
    "lo_extendedprice": "gpu-bp",
    "lo_revenue": "gpu-simdbp128",
}
#: Queries that together touch all five codec-pinned columns.
QUERY_MIX = ("q1.1", "q1.2", "q2.1", "q3.1", "q4.1")


@pytest.fixture(scope="module")
def db():
    return generate(scale_factor=0.002, seed=7)


@pytest.fixture(scope="module")
def codec_store(db):
    """A gpu-star store with one column per GPU-* codec."""
    store = load_lineorder(db, "gpu-star")
    for name, codec_name in CODEC_COLUMNS.items():
        col = store[name]
        enc = get_codec(codec_name).encode(col.values)
        col.payload = enc
        col.codec_name = codec_name
        col.nbytes = enc.nbytes
    return store


@pytest.fixture(scope="module")
def expected(db, codec_store):
    """Uncached single-query reference results (fresh engine per query)."""
    out = {}
    for name in QUERY_MIX:
        engine = CrystalEngine(db, codec_store, GPUDevice())
        out[name] = engine.run(QUERIES[name]).groups
    return out


def tight_budget(db, store):
    """Room for the compressed columns the mix reads plus one decoded image
    of 4-byte values (every column fits int32): the mix caches two images
    (GPU-RFOR keys load as runs, sparse loads gather rows, and neither
    caches one) and zone maps and per-tile traffic take some room too, so
    eviction is guaranteed."""
    columns = {c for name in QUERY_MIX for c in QUERIES[name].columns}
    return sum(store[c].nbytes for c in columns) + db.num_lineorder_rows * 4


class TestEvictionCorrectness:
    def test_interleaved_queries_bit_identical_under_eviction(
        self, db, codec_store, expected
    ):
        budget = tight_budget(db, codec_store)
        server = QueryServer(db, codec_store, budget_bytes=budget,
                             max_queue=128, batch_window=3)
        names = [QUERY_MIX[i % len(QUERY_MIX)] for i in range(30)]
        results = server.serve([ServeRequest("query", n) for n in names])

        assert all(r.ok for r in results)
        for name, result in zip(names, results):
            assert result.groups == expected[name], name

        snap = server.metrics_snapshot()
        assert snap["pool_evictions"] > 0, "budget did not force eviction"
        assert snap["pool_peak_resident_bytes"] <= budget

    def test_lookups_bit_identical_under_eviction(self, db, codec_store):
        budget = tight_budget(db, codec_store)
        server = QueryServer(db, codec_store, budget_bytes=budget)
        rng = np.random.default_rng(3)
        requests, want = [], []
        for column in CODEC_COLUMNS:
            idx = rng.integers(0, db.num_lineorder_rows, size=200)
            requests.append(ServeRequest("lookup", column, indices=idx))
            want.append(codec_store[column].values[idx])
        requests, want = requests * 3, want * 3  # interleave with reuse
        results = server.serve(requests)
        for result, reference in zip(results, want):
            assert result.ok
            assert np.array_equal(result.values, reference)

    def test_threaded_clients(self, db, codec_store, expected):
        budget = tight_budget(db, codec_store)
        server = QueryServer(db, codec_store, budget_bytes=budget,
                             max_queue=16, batch_window=4)
        server.start()
        errors = []

        def client(seed):
            rng = np.random.default_rng(seed)
            for _ in range(6):
                name = QUERY_MIX[int(rng.integers(len(QUERY_MIX)))]
                future = server.query(name, block_s=10.0)
                result = future.result(timeout=60)
                if not result.ok or result.groups != expected[name]:
                    errors.append((name, result.status))

        threads = [threading.Thread(target=client, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        server.stop()
        assert not errors
        snap = server.metrics_snapshot()
        assert snap["server_served"] == 36
        assert snap["pool_peak_resident_bytes"] <= budget


class TestBatching:
    def test_identical_queries_share_one_execution(self, db, codec_store):
        server = QueryServer(db, codec_store, batch_window=8)
        results = server.serve([ServeRequest("query", "q1.1")] * 5)
        assert all(r.ok and r.batch_size == 5 for r in results)
        assert all(r.execute_ms == results[0].execute_ms for r in results)
        snap = server.metrics_snapshot()
        assert snap["server_batches"] == 1
        assert snap["server_batched_requests"] == 4

    def test_lookup_indices_coalesce(self, db, codec_store):
        server = QueryServer(db, codec_store, batch_window=4)
        idx = [np.array([0, 5, 9]), np.array([2, 2]), np.array([7])]
        results = server.serve(
            [ServeRequest("lookup", "lo_quantity", indices=i) for i in idx]
        )
        values = codec_store["lo_quantity"].values
        for request_idx, result in zip(idx, results):
            assert result.batch_size == 3
            assert np.array_equal(result.values, values[request_idx])

    def test_same_named_adhoc_queries_never_coalesce(self, db, codec_store):
        """Regression: two ad-hoc SSBQuery objects sharing a name but
        running different plans used to collide on ``semantic_key()``
        (name + empty predicate), so one request was answered with the
        other's result.  Undeclared-semantics queries now key on object
        identity."""
        from repro.engine.crystal import SSBQuery

        def sum_between(lo, hi):
            def fn(engine):
                p = engine.pipeline("adhoc")
                quantity = p.load("lo_quantity")
                p.filter((quantity >= lo) & (quantity <= hi))
                revenue = p.load("lo_revenue")
                result = p.total_sum(revenue)
                p.finish()
                return result
            return SSBQuery("adhoc", ("lo_quantity", "lo_revenue"), fn)

        narrow, wide = sum_between(1, 5), sum_between(1, 50)
        assert narrow.semantic_key() != wide.semantic_key()

        server = QueryServer(db, codec_store, batch_window=8)
        results = server.serve([
            ServeRequest("query", "adhoc", query=narrow),
            ServeRequest("query", "adhoc", query=wide),
        ])
        assert all(r.ok for r in results)
        assert all(r.batch_size == 1 for r in results)
        assert results[0].groups[0] < results[1].groups[0]

        # Resubmitting the *same object* still batches: identity is per
        # plan, not per call.
        repeats = server.serve([
            ServeRequest("query", "adhoc", query=narrow),
            ServeRequest("query", "adhoc", query=narrow),
        ])
        assert all(r.batch_size == 2 for r in repeats)
        assert all(r.groups == results[0].groups for r in repeats)

    def test_compiled_specs_batch_on_canonical_plan_key(self, db, codec_store):
        """Declarative specs batch on the compiled plan's canonical key:
        same structure coalesces across distinct spec objects, different
        predicates never do — even under one shared name."""
        from repro.engine.predicates import Equals, Range
        from repro.query.compiler import QueryCompiler
        from repro.query.model import Query
        from repro.query.ssb import ssb_model

        compiler = QueryCompiler(ssb_model(), db, store=codec_store)
        server = QueryServer(db, codec_store, batch_window=8,
                             compiler=compiler)
        same_a = Query("adhoc", measures=("revenue",),
                       filters=(Equals("s_region", 2),), group_by=("d_year",))
        same_b = Query("adhoc", measures=("revenue",),
                       filters=(Range("s_region", 2, 2),), group_by=("d_year",))
        other = Query("adhoc", measures=("revenue",),
                      filters=(Equals("s_region", 3),), group_by=("d_year",))
        futures = [server.query(q) for q in (same_a, same_b, other)]
        server.drain()
        results = [f.result() for f in futures]
        assert [r.batch_size for r in results] == [2, 2, 1]
        assert results[0].groups == results[1].groups
        assert results[2].groups != results[0].groups


class TestBackpressure:
    def test_full_queue_rejects(self, db, codec_store):
        server = QueryServer(db, codec_store, max_queue=2)
        server.submit(ServeRequest("query", "q1.1"))
        server.submit(ServeRequest("query", "q1.1"))
        with pytest.raises(ServerSaturated):
            server.submit(ServeRequest("query", "q1.1"))
        assert server.metrics_snapshot()["server_rejected"] == 1
        server.drain()
        server.submit(ServeRequest("query", "q1.1"))  # space again

    def test_simulated_timeout_rejects_stale_requests(self, db, codec_store):
        # batch_window=1: each query is its own batch, so every later
        # request waits on the serving clock and overruns a ~0 timeout.
        server = QueryServer(db, codec_store, batch_window=1,
                             default_timeout_ms=1e-12)
        results = server.serve([ServeRequest("query", "q1.1")] * 4)
        statuses = [r.status for r in results]
        assert statuses[0] == "ok"
        assert statuses[1:] == ["timeout"] * 3
        assert server.metrics_snapshot()["server_timeouts"] == 3

    def test_latency_includes_queue_wait(self, db, codec_store):
        server = QueryServer(db, codec_store, batch_window=1)
        results = server.serve(
            [ServeRequest("query", q) for q in ("q1.1", "q2.1", "q3.1")]
        )
        assert results[0].queue_wait_ms == 0.0
        assert results[1].queue_wait_ms > 0.0
        assert results[2].queue_wait_ms > results[1].queue_wait_ms
        assert results[2].latency_ms == pytest.approx(
            results[2].queue_wait_ms + results[2].execute_ms
        )


class TestFlushInvalidation:
    """Satellite regression: flush must not leave engines serving stale
    bytes out of their decoded caches."""

    def _roundtrip(self, db, store, engine):
        column = "lo_quantity"
        updatable = UpdatableColumn(store[column].values)
        engine.bind_updatable(column, updatable)
        before = engine.run(QUERIES["q1.1"]).groups

        # Push every quantity out of q1.1's `quantity < 25` predicate.
        device = GPUDevice()
        updatable.update_many(
            np.arange(len(updatable)), np.full(len(updatable), 30)
        )
        updatable.flush(device)

        after = engine.run(QUERIES["q1.1"]).groups
        fresh = CrystalEngine(db, store, GPUDevice()).run(QUERIES["q1.1"]).groups
        assert after == fresh, "engine served stale post-flush bytes"
        assert after != before
        assert sum(after.values()) == 0  # predicate now matches nothing
        np.testing.assert_array_equal(
            engine.column_values(column), updatable.values
        )

    def test_dict_cached_engine_sees_flush(self, db):
        store = load_lineorder(db, "gpu-star")
        self._roundtrip(db, store, CrystalEngine(db, store, GPUDevice()))

    def test_pool_backed_engine_sees_flush(self, db):
        store = load_lineorder(db, "gpu-star")
        pool = ColumnPool(1 << 30)
        engine = CrystalEngine(db, store, GPUDevice(), pool=pool)
        self._roundtrip(db, store, engine)

    def test_published_column_keeps_its_values_after_the_next_flush(self, db):
        store = load_lineorder(db, "gpu-star")
        engine = CrystalEngine(db, store, GPUDevice())
        updatable = UpdatableColumn(store["lo_quantity"].values)
        engine.bind_updatable("lo_quantity", updatable)
        device = GPUDevice()
        updatable.update(3, 41)
        updatable.flush(device)
        published = store["lo_quantity"]
        # The flush publishes the column's own array, not a copy of it.
        assert published.values is updatable.values
        snapshot = published.values.copy()
        updatable.update_many(np.arange(10), np.full(10, 50))
        updatable.flush(device)
        np.testing.assert_array_equal(published.values, snapshot)
        assert int(published.values[3]) == 41
        assert store["lo_quantity"] is not published
        assert int(store["lo_quantity"].values[3]) == 50

    def test_flush_hook_fires_without_pending_updates(self, db):
        store = load_lineorder(db, "gpu-star")
        updatable = UpdatableColumn(store["lo_discount"].values)
        fired = []
        updatable.add_invalidation_hook(lambda u: fired.append(u.codec_name))
        updatable.flush(GPUDevice())
        assert fired == [updatable.codec_name]
