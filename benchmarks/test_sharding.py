"""Sharded serving benchmark: the SF=20 paper-scale scaling claim.

Drives a scan-heavy flight-1 mix through the serving layer's
``ShardRouter`` at 1/2/4 tile-range shards on a large SSB instance
(default SF=0.5 — big enough that the fixed per-query fused-kernel
launch overhead stops masking the data-proportional work), asserts
bit-identical answers at every shard count and a >=3x simulated
speedup at 4 shards both as measured and projected to the paper's
SF=20, then runs hot key-range scans over the sorted ``lo_orderkey``
prefix to capture routing-skew metrics.  Emits ``BENCH_sharding.json``
— simulated ms (``sim_ms``), speedups, SF=20 projections, routing skew,
per-shard occupancy — as the scaling baseline later changes compare
against.

Environment knobs:
    REPRO_SHARDING_SF   — SSB scale factor for this bench (default 0.5;
                          deliberately independent of REPRO_BENCH_SF)
    REPRO_SHARDING_REPS — repetitions of the broad scan set (default 2)
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from conftest import run_once
from repro.engine.ssb_queries import make_flight1
from repro.experiments.common import PAPER_SF
from repro.experiments.sharding_workload import _project_sf20, make_key_scan
from repro.serving.metrics import MetricsRegistry
from repro.serving.sharding import ShardRouter
from repro.ssb.dbgen import generate
from repro.ssb.loader import load_lineorder

SHARDING_SF = float(os.environ.get("REPRO_SHARDING_SF", "0.5"))
REPS = int(os.environ.get("REPRO_SHARDING_REPS", "2"))
SHARD_COUNTS = (1, 2, 4)
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sharding.json"


def _broad_scans() -> list:
    """Flight-1 revenue scans with no key predicate — every shard's zone
    maps survive, so the router fans each query out to all shards."""
    return [
        make_flight1("bench-scan-93", 19930101, 19931231, 1, 3, 0, 24),
        make_flight1("bench-scan-94", 19940101, 19941231, 4, 6, 26, 35),
        make_flight1("bench-scan-95", 19950101, 19951231, 5, 7, 26, 35),
        make_flight1("bench-scan-all", 19930101, 19971231, 1, 7, 0, 50),
    ]


def _run_sharded():
    db = generate(scale_factor=SHARDING_SF, seed=7)
    store = load_lineorder(db, "gpu-star")
    broad = _broad_scans() * REPS
    keys = db.lineorder["lo_orderkey"]
    hot = [
        make_key_scan("bench-key-hot", int(keys[0]), int(keys[keys.size // 8])),
        make_key_scan(
            "bench-key-mid",
            int(keys[keys.size // 8]),
            int(keys[keys.size // 5]),
        ),
    ]

    rows = []
    answers_by_count = {}
    last_router_stats = None
    single_ms = None
    launch_ms = None
    for num_shards in SHARD_COUNTS:
        metrics = MetricsRegistry()
        router = ShardRouter(db, store, num_shards, metrics=metrics)
        if launch_ms is None:
            launch_ms = router.sharded.spec.kernel_launch_us / 1000.0
        sim = 0.0
        answers = []
        for query in broad:
            with router.pinned(query.columns) as place_ms:
                groups, execute_ms = router.execute(query)
            sim += place_ms + execute_ms
            answers.append(groups)
        # Untimed: hot key scans exercise zone-map routing so the skew
        # gauges and per-shard routed counts reflect a skewed stream.
        for query in hot:
            with router.pinned(query.columns):
                groups, _ = router.execute(query)
            answers.append(groups)
        answers_by_count[num_shards] = answers
        if single_ms is None:
            single_ms = sim
        sim_sf20 = _project_sf20(sim, len(broad), SHARDING_SF, launch_ms)
        rows.append(
            {
                "shards": num_shards,
                "sim_ms": sim,
                "speedup": single_ms / sim,
                "sim_ms_sf20": sim_sf20,
            }
        )
        if num_shards == SHARD_COUNTS[-1]:
            snap = metrics.snapshot()
            last_router_stats = {
                "routing_skew": snap.get("router_routing_skew", 1.0),
                "queries_routed": int(snap.get("router_queries", 0)),
                "shards": router.shard_summary(),
            }
        router.close()

    base_sf20 = rows[0]["sim_ms_sf20"]
    for row in rows:
        row["speedup_sf20"] = base_sf20 / row["sim_ms_sf20"]
    return db, store, rows, answers_by_count, last_router_stats


def test_sharded_scan_scaling(benchmark):
    db, store, rows, answers_by_count, router_stats = run_once(
        benchmark, _run_sharded
    )

    # Bit-identity: every shard count produced the single-device answers.
    reference = answers_by_count[SHARD_COUNTS[0]]
    for num_shards, answers in answers_by_count.items():
        assert answers == reference, f"answers drifted at {num_shards} shards"

    by_shards = {r["shards"]: r for r in rows}
    assert by_shards[1]["speedup"] == 1.0
    assert by_shards[4]["speedup"] >= 3.0, by_shards[4]
    assert by_shards[4]["speedup_sf20"] >= 3.0, by_shards[4]
    assert router_stats["routing_skew"] > 1.0, "hot key scans did not skew"

    summary = {
        "scale_factor": SHARDING_SF,
        "paper_sf": PAPER_SF,
        "num_rows": int(db.num_lineorder_rows),
        "compressed_bytes": int(store.total_bytes),
        "num_broad_queries": len(_broad_scans()) * REPS,
        "num_key_queries": 2,
        "scaling": rows,
        "routing_skew": router_stats["routing_skew"],
        "queries_routed": router_stats["queries_routed"],
        "shards": router_stats["shards"],
    }
    OUTPUT_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"\nsharding: {by_shards[4]['speedup']:.2f}x measured at 4 shards "
        f"(SF={SHARDING_SF:g}), {by_shards[4]['speedup_sf20']:.2f}x "
        f"projected at SF={PAPER_SF:g}, routing skew "
        f"{router_stats['routing_skew']:.2f} -> {OUTPUT_PATH.name}"
    )
