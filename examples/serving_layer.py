"""Serve concurrent queries from a budgeted GPU buffer pool.

Demonstrates the serving layer end to end: a device budget smaller than
the decoded working set, eight client threads firing mixed SSB queries
and point lookups at a running QueryServer, and the metrics surface
showing what the pool and scheduler did — hits, evictions, batching,
backpressure, latency percentiles.

Run:  python examples/serving_layer.py
"""

import threading

import numpy as np

from repro import QUERIES, generate_ssb, load_lineorder
from repro.serving import QueryServer, ServerSaturated

QUERY_MIX = ("q1.1", "q2.1", "q3.1", "q4.1")
CLIENTS = 8
REQUESTS_PER_CLIENT = 6


def client(server: QueryServer, seed: int, failures: list) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(REQUESTS_PER_CLIENT):
        name = QUERY_MIX[int(rng.integers(len(QUERY_MIX)))]
        try:
            result = server.query(name, block_s=5.0).result(timeout=60)
        except ServerSaturated:
            failures.append(name)
            continue
        if not result.ok:
            failures.append(name)


def main(scale_factor: float = 0.01) -> None:
    db = generate_ssb(scale_factor=scale_factor)
    store = load_lineorder(db, "gpu-star")

    # Budget: the compressed store plus ~40% of the decoded working set
    # (every int64 image the query mix can materialize), so the pool must
    # evict decoded images while serving.
    columns = {c for name in QUERY_MIX for c in QUERIES[name].columns}
    decoded_ws = len(columns) * db.num_lineorder_rows * 8
    budget = store.total_bytes + int(0.4 * decoded_ws)
    print(
        f"budget {budget / 1e6:.1f} MB  "
        f"(compressed {store.total_bytes / 1e6:.1f} MB, decoded working set "
        f"{decoded_ws / 1e6:.1f} MB)\n"
    )

    server = QueryServer(db, store, budget_bytes=budget,
                         max_queue=16, batch_window=4)
    server.start()
    failures: list = []
    threads = [
        threading.Thread(target=client, args=(server, seed, failures))
        for seed in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    server.stop()

    snap = server.metrics_snapshot()
    served = snap.get("server_served", 0)
    hits, misses = snap.get("pool_hits", 0), snap.get("pool_misses", 0)
    print(f"served {served}/{CLIENTS * REQUESTS_PER_CLIENT} requests "
          f"({len(failures)} failed), {snap.get('server_batches', 0)} batches, "
          f"{snap.get('server_batched_requests', 0)} piggybacked")
    print(f"simulated serving time {server.clock_ms:.3f} ms -> "
          f"{served / (server.clock_ms / 1000):.0f} queries/s")
    print(f"latency p50 {snap.get('latency_ms_p50', 0):.3f} ms, "
          f"p99 {snap.get('latency_ms_p99', 0):.3f} ms")
    print(f"pool: {hits / max(1, hits + misses):.0%} hit rate, "
          f"{snap.get('pool_evictions', 0)} evictions, peak resident "
          f"{snap.get('pool_peak_resident_bytes', 0) / 1e6:.1f} MB "
          f"of {budget / 1e6:.1f} MB budget")


if __name__ == "__main__":
    main()
