"""Morsel-streaming vs materialized execution (`repro run streaming`).

The engine's default runs each fused plan as one morsel spanning the
whole tile grid, which decodes each fact column into a full-length image
before filtering (column-at-a-time).  A streaming engine cuts the same
plan the way the paper's kernels do (Section 3/7): contiguous tile
morsels are decoded into small per-worker scratch buffers, filtered,
probed and partially aggregated, and the partials merge in
deterministic morsel order.

For each SSB query this driver reports both paths' wall clock and peak
decoded-intermediate bytes, checks the answers agree bit for bit at
every worker count, and reports the worker-scaling of the fastest query.
"""

from __future__ import annotations

import time

from repro.engine.crystal import CrystalEngine
from repro.engine.ssb_queries import QUERIES
from repro.experiments.common import print_experiment
from repro.ssb.dbgen import SSBDatabase, generate, sort_lineorder_by
from repro.ssb.loader import load_lineorder

DEFAULT_QUERIES = ("q1.1", "q1.3", "q2.1", "q3.1", "q4.1")
DEFAULT_WORKERS = (1, 2, 8)


def _best_wall_ms(engine: CrystalEngine, query, reps: int) -> tuple[float, dict]:
    """Best-of-``reps`` wall clock with cold decoded data, warm metadata."""
    best = None
    groups = None
    for _ in range(reps):
        engine.evict_decoded()
        t0 = time.perf_counter()
        groups = engine.run(query).groups
        wall_ms = (time.perf_counter() - t0) * 1e3
        best = wall_ms if best is None else min(best, wall_ms)
    return best, groups


def run(
    db: SSBDatabase | None = None,
    scale_factor: float = 0.05,
    seed: int = 7,
    queries=DEFAULT_QUERIES,
    workers=DEFAULT_WORKERS,
    reps: int = 3,
) -> list[dict]:
    """Compare the two execution paths; returns one row per query."""
    if db is None:
        db = generate(scale_factor=scale_factor, seed=seed)
    db = sort_lineorder_by(db, "lo_orderdate")
    store = load_lineorder(db, "gpu-star")

    materialized = CrystalEngine(db, store)
    streamers = {
        w: CrystalEngine(db, store, streaming=True, stream_workers=w)
        for w in workers
    }

    rows = []
    for name in queries:
        query = QUERIES[name]
        mat_ms, mat_groups = _best_wall_ms(materialized, query, reps)
        # Peak decoded intermediates of the materialized path: every
        # loaded column's full int64 image is cache-resident at once.
        mat_peak = sum(
            materialized.column_values(c).nbytes
            for c in query.columns
            if materialized.column_inline(c)
        )
        stream_ms = {}
        stream_peak = 0
        for w, engine in streamers.items():
            ms, groups = _best_wall_ms(engine, query, reps)
            if groups != mat_groups:
                raise AssertionError(
                    f"streaming changed the answer for {name} at "
                    f"{w} workers: {groups} != {mat_groups}"
                )
            stream_ms[w] = ms
            stream_peak = max(
                stream_peak, engine.last_stream_stats["peak_decoded_bytes"]
            )
        best_stream = min(stream_ms.values())
        rows.append({
            "query": name,
            "wall_ms_materialized": mat_ms,
            **{f"wall_ms_stream_w{w}": ms for w, ms in stream_ms.items()},
            "wall_speedup": mat_ms / best_stream if best_stream else float("nan"),
            "peak_MB_materialized": mat_peak / 1e6,
            "peak_MB_stream": stream_peak / 1e6,
            "peak_ratio": mat_peak / stream_peak if stream_peak else float("nan"),
        })
    return rows


def main() -> None:  # pragma: no cover - CLI convenience
    rows = run()
    print_experiment(
        "Morsel streaming vs materialized execution (orderdate-sorted "
        "lineorder, GPU-* store; answers verified bit-identical)",
        [{k: (round(v, 3) if isinstance(v, float) else v) for k, v in r.items()}
         for r in rows],
    )
