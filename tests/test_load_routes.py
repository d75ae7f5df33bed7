"""One load route: the default engine reads columns the way a streaming one does.

Every morsel's inline load goes through ``TileStreamExecutor.decode_slice``
(dense and fused) or ``gather_slice`` (sparse), including the one morsel
of the default (1-worker) engine.  These tests pin the behaviour the
route shares, over the date-sorted SF 0.01 database, where pushdown
prunes tiles and loads take every route:

* a cached decoded image is CRC-checked under ``verify_cached`` whichever
  route reads it, so a corrupted image is re-decoded, not served;
* ``fault_hook`` sees the same columns on the default engine as on a
  1-worker streaming one;
* an engine restricted to part of the tile grid (``tile_span``) answers
  and prices like a streaming engine over the same span.
"""

from __future__ import annotations

import pytest

from repro.engine.crystal import CrystalEngine
from repro.formats.base import set_checksums
from repro.query.compiler import QueryCompiler
from repro.query.ssb import SSB_SPECS, ssb_model
from repro.ssb.dbgen import generate, sort_lineorder_by
from repro.ssb.loader import load_lineorder

Q11_REVENUE = {0: 4034475210}


@pytest.fixture(scope="module")
def sorted_db():
    return sort_lineorder_by(generate(scale_factor=0.01, seed=7), "lo_orderdate")


@pytest.fixture(scope="module")
def sorted_store(sorted_db):
    return load_lineorder(sorted_db, "gpu-star")


@pytest.fixture(scope="module")
def queries(sorted_db, sorted_store):
    compiler = QueryCompiler(ssb_model(), sorted_db, store=sorted_store)
    return {name: compiler.compile(spec) for name, spec in SSB_SPECS.items()}


@pytest.fixture
def checksums_on():
    previous = set_checksums(True)
    yield
    set_checksums(previous)


@pytest.mark.parametrize("pushdown", (True, False))
def test_verify_cached_checks_every_image_read(
    sorted_db, checksums_on, pushdown
):
    store = load_lineorder(sorted_db, "gpu-star")  # encoded with CRCs
    query = QueryCompiler(ssb_model(), sorted_db, store=store).compile(
        SSB_SPECS["q1.1"]
    )
    engine = CrystalEngine(sorted_db, store, pushdown=pushdown)
    engine.verify_cached = True
    assert engine.run(query).groups == Q11_REVENUE
    image = engine.column_values("lo_extendedprice")
    image += 1  # silent in-memory corruption of the cached image
    assert engine.run(query).groups == Q11_REVENUE


def test_fault_hook_sees_the_same_columns(sorted_db, sorted_store, queries):
    whole = CrystalEngine(sorted_db, sorted_store)
    streamed = CrystalEngine(sorted_db, sorted_store, streaming=True, stream_workers=1)
    whole_cols, streamed_cols = set(), set()
    whole.fault_hook, streamed.fault_hook = whole_cols.add, streamed_cols.add
    loaded = 0
    try:
        for name, query in queries.items():
            whole_cols.clear()
            streamed_cols.clear()
            for engine in (whole, streamed):
                engine.evict_decoded()  # every flight loads from the payload
            whole.run(query)
            streamed.run(query)
            assert whole_cols == streamed_cols, name
            loaded += len(whole_cols)
    finally:
        streamed.close()
    assert loaded > len(queries)


@pytest.mark.parametrize("half", ("lower", "upper"))
def test_partial_tile_span_matches_streaming(sorted_db, sorted_store, queries, half):
    n = -(-sorted_db.num_lineorder_rows // 512)
    span = (0, n // 2) if half == "lower" else (n // 2, n)
    whole = CrystalEngine(sorted_db, sorted_store, tile_span=span)
    streamed = CrystalEngine(
        sorted_db, sorted_store, tile_span=span, streaming=True, stream_workers=2
    )
    try:
        for name, query in queries.items():
            got, want = whole.run(query), streamed.run(query)
            assert got.groups == want.groups, name
            assert repr(got.simulated_ms) == repr(want.simulated_ms), name
            assert got.kernel_count == want.kernel_count, name
    finally:
        streamed.close()
