"""Workload-adaptive codec tiering: Zipf-skewed serving mix, X7.

The planner's static per-column codec choice (best compression ratio,
Section 8) is the right answer for a uniform workload — but serving
traffic is skewed: a handful of columns absorb most scans and point
lookups while the rest idle.  This driver pushes the same Zipf-skewed
scan+lookup mix through two otherwise identical
:class:`~repro.serving.scheduler.QueryServer` configurations over a
deliberately tight :class:`~repro.serving.pool.ColumnPool` budget:

* **static** — the planner's choice forever (tiering off);
* **adaptive** — :class:`~repro.serving.tiering.CodecTieringManager`
  re-encodes columns between tiers from decayed access heat: the hottest
  columns get the decode-cheapest codec plus a pinned decoded image
  (lookups become one coalesced gather instead of per-tile decodes, and
  scans take the uncompressed fast path), cooled columns drop to the
  nvCOMP entropy tier and spill their payload to an on-disk container.

The comparison is a **warm wall**: each mode serves a warmup prefix
first (the adaptive run converges — heat accumulates, re-encodes and
swaps land, the pool settles) and only the simulated serving clock of
the measured suffix is compared.  One-time adaptation cost is reported
separately (``reencode_ms`` is host-side work off the serving clock).
Answers are asserted bit-identical between the two modes on every
request, warmup included.
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.engine.ssb_queries import make_flight1
from repro.experiments.common import print_experiment
from repro.serving.metrics import MetricsRegistry
from repro.serving.scheduler import QueryServer, ServeRequest
from repro.serving.tiering import TieringPolicy
from repro.ssb.dbgen import SSBDatabase, generate
from repro.ssb.loader import load_lineorder
from repro.ssb.schema import LINEORDER_COLUMNS

#: Scale factor the experiment generates when no database is supplied.
#: SF 0.05 is kernel-launch dominated; at 0.2 the decode and transfer
#: terms the tiers trade against are the actual cost drivers.
TIERING_SF = 0.2
#: Fraction of the request stream that is broad scans (rest: lookups).
SCAN_FRACTION = 0.15
#: Zipf exponent ranking columns by lookup popularity.
ZIPF_S = 2.0
#: Only the first N ranked columns ever receive lookups; the rest of the
#: table is dead weight the adaptive mode can demote and spill.
LOOKUP_CANDIDATES = 10
#: Point-lookup batch size — large enough that per-tile decode work,
#: not kernel launch overhead, dominates a compressed gather.
LOOKUP_BATCH = 16384
#: Columns the flight-1 scans read; they head the lookup ranking so the
#: workload's scan heat and lookup heat concentrate on the same hot set.
SCAN_COLUMNS = ("lo_extendedprice", "lo_quantity", "lo_orderdate", "lo_discount")


def build_workload(
    db: SSBDatabase,
    num_requests: int = 120,
    num_warmup: int = 36,
    seed: int = 13,
    lookup_batch: int = LOOKUP_BATCH,
) -> list[dict]:
    """A Zipf-skewed mix of flight-1 scans and point-lookup batches.

    Returned as request *specs* (kind + arguments), so each serving mode
    instantiates its own fresh :class:`ServeRequest` objects.  Lookup
    columns are drawn Zipf(:data:`ZIPF_S`)-ranked with the scan columns
    at the head — the top four columns absorb ~90 % of the lookups — and
    only the first :data:`LOOKUP_CANDIDATES` ranked columns are ever
    looked up: the deep tail idles forever (cold-tier candidates).

    The warmup prefix brackets its random mix with two deterministic
    catalog sweeps (one lookup per candidate column).  The opening sweep
    lands first-touch PCIe staging in the warmup wall for *both* modes;
    the closing sweep re-touches every candidate after the adaptive
    run's tier swaps have settled, so post-swap re-staging is paid
    before measurement starts and the measured suffix compares
    steady-state serving, not one-time placement.
    """
    rng = np.random.default_rng(seed)
    num_rows = db.num_lineorder_rows
    scans = [
        make_flight1("tier-scan-93", 19930101, 19931231, 1, 3, 0, 24),
        make_flight1("tier-scan-94", 19940101, 19941231, 4, 6, 26, 35),
    ]
    ranked = list(SCAN_COLUMNS) + [
        c for c in LINEORDER_COLUMNS if c not in SCAN_COLUMNS
    ]
    candidates = ranked[:LOOKUP_CANDIDATES]
    weights = 1.0 / np.arange(1, len(candidates) + 1) ** ZIPF_S
    weights /= weights.sum()

    def sweep() -> list[dict]:
        return [
            {
                "kind": "lookup",
                "column": column,
                "indices": rng.integers(0, num_rows, size=lookup_batch),
            }
            for column in candidates
        ]

    def mixed(count: int) -> list[dict]:
        out: list[dict] = []
        for i in range(count):
            if rng.random() < SCAN_FRACTION:
                out.append({"kind": "query", "query": scans[i % len(scans)]})
            else:
                column = candidates[int(rng.choice(len(candidates), p=weights))]
                indices = rng.integers(0, num_rows, size=lookup_batch)
                out.append(
                    {"kind": "lookup", "column": column, "indices": indices}
                )
        return out

    body = num_warmup - 2 * len(candidates)
    if body < 0:
        raise ValueError("num_warmup too small for two catalog sweeps")
    return (
        sweep()
        + mixed(body)
        + sweep()
        + mixed(num_requests - num_warmup)
    )


def default_policy(spill_dir: str | None = None) -> TieringPolicy:
    """The policy the experiment (and benchmark) runs with.

    Time constants are sized to the serving clock of a small simulated
    workload (a full run advances the clock a handful of simulated
    milliseconds): the heat half-life far exceeds the run, so any column
    ever touched keeps heat above the cold threshold — only the table's
    never-touched deep tail demotes to the entropy tier — while
    maintenance every 50 simulated µs converges the hot set within the
    warmup prefix.
    """
    return TieringPolicy(
        half_life_ms=50.0,
        hot_count=len(SCAN_COLUMNS),
        hot_min_accesses=4.0,
        cold_max_accesses=0.5,
        pin_hot_decoded=True,
        spill_dir=spill_dir,
        bytes_budget_factor=1.10,
        min_dwell_ms=0.0,
        maintenance_interval_ms=0.05,
    )


def _serve(
    db: SSBDatabase,
    specs: list[dict],
    num_warmup: int,
    budget_bytes: int,
    policy: TieringPolicy | None,
) -> dict:
    """Run the stream through one server configuration.

    Serves the warmup prefix, snapshots the serving clock, then serves
    the measured suffix; ``warm_wall_ms`` is the clock advance over the
    measured suffix only.
    """
    store = load_lineorder(db, "gpu-star")
    static_bytes = store.total_bytes
    metrics = MetricsRegistry()
    server = QueryServer(
        db,
        store,
        budget_bytes=budget_bytes,
        metrics=metrics,
        streaming=True,
        tiering=policy,
    )
    requests = [
        ServeRequest("query", spec["query"].name, query=spec["query"])
        if spec["kind"] == "query"
        else ServeRequest("lookup", spec["column"], indices=spec["indices"])
        for spec in specs
    ]
    answers = []

    def drain(batch):
        # One request per serve() round: this is a latency-serving
        # comparison — batching same-column lookups would amortize the
        # static mode's per-gather decode across requests.
        for request in batch:
            for result in server.serve([request]):
                assert result.ok, result.error
                answers.append(
                    dict(result.groups)
                    if result.groups is not None
                    else result.values
                )

    drain(requests[:num_warmup])
    warm_clock = server.clock_ms
    drain(requests[num_warmup:])
    warm_wall = server.clock_ms - warm_clock
    snap = metrics.snapshot()
    tiers = server.tiering.tiers() if server.tiering is not None else {}
    heats = (
        {
            name: server.tiering.heat(name, server.clock_ms)
            for name in store.columns
        }
        if server.tiering is not None
        else {}
    )
    server.stop()
    return {
        "warm_wall_ms": warm_wall,
        "total_wall_ms": server.clock_ms,
        "answers": answers,
        "static_bytes": static_bytes,
        "compressed_bytes": store.total_bytes,
        "tiers": tiers,
        "heats": heats,
        "swaps": snap.get("tiering_swaps", 0),
        "reencode_ms": snap.get("tiering_reencode_ms_count", 0)
        and snap.get("tiering_reencode_ms_mean", 0.0)
        * snap.get("tiering_reencode_ms_count", 0),
        "bytes_reclaimed": snap.get("tiering_bytes_reclaimed", 0),
        "pool_evictions": snap.get("pool_evictions", 0),
    }


def run(
    db: SSBDatabase | None = None,
    scale_factor: float = TIERING_SF,
    num_requests: int = 120,
    num_warmup: int = 36,
    seed: int = 13,
    budget_fraction: float = 0.45,
    spill: bool = True,
) -> dict:
    """Serve the skewed mix statically and adaptively; returns a summary.

    The shared pool budget is ``budget_fraction`` of the store's
    decoded footprint (every column as the engine's int64 image) — tight
    enough that full decoded residency is impossible, big enough that
    the hot set's pinned decoded images fit (they displace the hot
    columns' compressed residents rather than add to them).
    """
    if db is None:
        db = generate(scale_factor=scale_factor, seed=7)
    else:
        scale_factor = db.num_lineorder_rows / 6_000_000
    specs = build_workload(
        db, num_requests=num_requests, num_warmup=num_warmup, seed=seed
    )
    decoded = db.num_lineorder_rows * 8 * len(LINEORDER_COLUMNS)
    budget = max(1, int(decoded * budget_fraction))
    spill_dir = tempfile.mkdtemp(prefix="repro-tiering-") if spill else None

    static = _serve(db, specs, num_warmup, budget, policy=None)
    adaptive = _serve(
        db, specs, num_warmup, budget, policy=default_policy(spill_dir)
    )

    for i, (a, b) in enumerate(zip(static["answers"], adaptive["answers"])):
        if isinstance(a, dict):
            assert a == b, f"request {i}: groups diverged under tiering"
        else:
            assert np.array_equal(a, b), f"request {i}: values diverged"

    rows = []
    for mode, result in (("static", static), ("adaptive", adaptive)):
        rows.append(
            {
                "mode": mode,
                "warm_wall_ms": result["warm_wall_ms"],
                "speedup": static["warm_wall_ms"] / result["warm_wall_ms"],
                "compressed_MB": result["compressed_bytes"] / 1e6,
                "bytes_vs_static": result["compressed_bytes"]
                / static["compressed_bytes"],
                "swaps": result["swaps"],
                "reencode_ms": result["reencode_ms"],
                "bytes_reclaimed_MB": result["bytes_reclaimed"] / 1e6,
                "pool_evictions": result["pool_evictions"],
            }
        )
    return {
        "rows": rows,
        "tiers": adaptive["tiers"],
        "heats": adaptive["heats"],
        "num_requests": num_requests,
        "num_warmup": num_warmup,
        "scale_factor": scale_factor,
        "budget_bytes": budget,
        "speedup": static["warm_wall_ms"] / adaptive["warm_wall_ms"],
        "bytes_vs_static": adaptive["compressed_bytes"]
        / static["compressed_bytes"],
    }


def summary_rows(result: dict) -> list[dict]:
    """The static-vs-adaptive comparison as report-table rows."""
    return result["rows"]


def tier_rows(result: dict) -> list[dict]:
    """The adaptive run's final tier placement, hottest first."""
    heats = result["heats"]
    return [
        {
            "column": name,
            "tier": result["tiers"].get(name, "warm"),
            "decayed_accesses": heats.get(name, 0.0),
        }
        for name in sorted(result["tiers"], key=lambda n: -heats.get(n, 0.0))
    ]


def main() -> None:
    result = run()
    print_experiment(
        "Extension — workload-adaptive codec tiering vs static planner "
        f"({result['num_requests']} requests, "
        f"{result['num_warmup']} warmup, SF={result['scale_factor']:g}, "
        f"pool budget {result['budget_bytes'] / 1e6:.1f} MB)",
        summary_rows(result),
    )
    print_experiment("Final tier placement (adaptive run)", tier_rows(result))


if __name__ == "__main__":
    main()
