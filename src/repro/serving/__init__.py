"""The compressed-column serving layer (the system around §3/§7's model).

Three cooperating pieces turn the single-query reproduction into a
multi-tenant server:

* :class:`~repro.serving.pool.ColumnPool` — a byte-budgeted GPU buffer
  manager: compressed and decoded column images are first-class residents
  with pin counts, and a cost-aware policy (reconstructible images first,
  greedy-dual decode-cost × recency within a class) evicts under
  pressure, so ``GPUSpec.global_capacity_bytes`` is actually enforced.
* :class:`~repro.serving.scheduler.QueryServer` — concurrent admission of
  SSB queries and point lookups, with a bounded queue (backpressure),
  per-request simulated timeouts, and batching of compatible requests
  into one execution, all served through a shard router.
* :class:`~repro.serving.metrics.MetricsRegistry` — the shared counters,
  gauges and latency percentiles both components export.
* :class:`~repro.serving.semcache.SemanticResultCache` — a byte-budgeted
  semantic result cache of per-tile-span partial aggregates, reused
  across queries whose canonicalized predicates provably agree per tile.
* :class:`~repro.serving.sharding.ShardRouter` — the server's one
  execution path (a single device is one shard) and multi-GPU serving:
  columns partitioned tile-range-wise over N simulated devices, queries
  routed only to shards surviving zone-map pushdown, per-shard partials
  scatter-gathered over the modeled interconnect (bit-identical answers
  at every shard count).
* :class:`~repro.serving.tiering.CodecTieringManager` — workload-adaptive
  codec tiering: per-column decayed access heat drives background
  re-encoding between hot (decode-cheapest, optionally pinned decoded),
  warm (planner's static choice) and cold (nvCOMP entropy, spillable to
  disk) tiers, published by atomic epoch-checked column swaps.
"""

from repro.serving.faults import (
    FAULT_MODES,
    FaultInjector,
    TransientDecodeError,
    copy_encoded,
)
from repro.serving.metrics import (
    MetricsRegistry,
    labeled,
    metrics_rows,
    percentile,
)
from repro.serving.pool import (
    ColumnPool,
    EvictionRecord,
    PoolAdmissionError,
    Resident,
    estimate_decode_cost_ms,
)
from repro.serving.scheduler import (
    QueryServer,
    ServeRequest,
    ServedResult,
    ServerClosed,
    ServerSaturated,
)
from repro.serving.semcache import (
    DEFAULT_SEMCACHE_BUDGET,
    CachedPartial,
    SemanticResultCache,
)
from repro.serving.sharding import (
    ColumnShard,
    ShardRouter,
    codec_tile_alignment,
)
from repro.serving.tiering import (
    CodecTieringManager,
    TieringPolicy,
)

__all__ = [
    "CachedPartial",
    "CodecTieringManager",
    "ColumnPool",
    "ColumnShard",
    "DEFAULT_SEMCACHE_BUDGET",
    "EvictionRecord",
    "FAULT_MODES",
    "FaultInjector",
    "MetricsRegistry",
    "PoolAdmissionError",
    "QueryServer",
    "Resident",
    "SemanticResultCache",
    "ServeRequest",
    "ServedResult",
    "ServerClosed",
    "ServerSaturated",
    "ShardRouter",
    "TieringPolicy",
    "TransientDecodeError",
    "codec_tile_alignment",
    "copy_encoded",
    "estimate_decode_cost_ms",
    "labeled",
    "metrics_rows",
    "percentile",
]
