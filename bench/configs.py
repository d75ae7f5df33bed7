"""Every engine, server and compiler the benchmark drives, built in one place.

A later change that removes or renames a constructor knob edits this file
and nothing else in the benchmark.
"""

from __future__ import annotations

from repro.core.updates import UpdatableColumn
from repro.engine.crystal import CrystalEngine
from repro.query.compiler import QueryCompiler
from repro.query.ssb import ssb_model
from repro.serving.scheduler import QueryServer
from repro.ssb.loader import ColumnStore, load_lineorder

#: Morsel workers of every streaming engine: one per core of the 2-vCPU
#: machine the benchmark was sized on.
STREAM_WORKERS = 2
#: Share of the decoded working set the serving pool may hold on top of
#: the compressed images (budget = compressed + 40% of decoded bytes).
POOL_DECODED_SHARE = 0.4
#: Columns ``update-flush`` rewrites, round robin.
UPDATE_COLUMNS = ("lo_extendedprice", "lo_discount", "lo_quantity", "lo_revenue")


def load_store(db) -> ColumnStore:
    """Compress every ``lineorder`` column with the GPU-* hybrid."""
    return load_lineorder(db, "gpu-star")


def compiler(db, store: ColumnStore) -> QueryCompiler:
    return QueryCompiler(ssb_model(), db, store)


def scan_engine(db, store: ColumnStore) -> CrystalEngine:
    """``scan-cold``: the default materializing engine."""
    return CrystalEngine(db, store)


def stream_engine(db, store: ColumnStore) -> CrystalEngine:
    """``scan-stream``: the morsel-parallel streaming engine."""
    return CrystalEngine(db, store, streaming=True, stream_workers=STREAM_WORKERS)


def pool_budget_bytes(store: ColumnStore) -> int:
    decoded = sum(col.values.size * 8 for col in store.columns.values())
    return store.total_bytes + int(POOL_DECODED_SHARE * decoded)


def dashboard_server(db, store: ColumnStore, query_compiler: QueryCompiler) -> QueryServer:
    """``serve-dashboard`` and ``update-flush``: streaming + semantic cache."""
    return QueryServer(
        db,
        store,
        budget_bytes=pool_budget_bytes(store),
        streaming=True,
        stream_workers=STREAM_WORKERS,
        semantic_cache=True,
        compiler=query_compiler,
    )


def updatable_columns(db, server: QueryServer) -> dict[str, UpdatableColumn]:
    """Bind one :class:`UpdatableColumn` per rewritten column to the server."""
    columns = {}
    for name in UPDATE_COLUMNS:
        column = UpdatableColumn(db.lineorder[name])
        server.engine.bind_updatable(name, column)
        columns[name] = column
    return columns
