"""Tile-range shards behind one router: the serving layer's only path.

The paper runs each query as one fused kernel over a tile grid (§3, §7);
a tile-range shard is that grid cut to a span, and a single device is
simply the one span that covers every tile.  So every
:class:`~repro.serving.scheduler.QueryServer` serves through a
:class:`ShardRouter` (one shard by default), and the §1 motivation — a
working set larger than one GPU, split "between multiple GPUs" at the
price of interconnect merges — is the same router at ``N > 1`` shards:

* Every compressed column is partitioned **tile-range-wise** over ``N``
  simulated devices of a :class:`~repro.gpusim.multigpu.ShardedDevice`
  on codec-tile-aligned boundaries (no codec tile ever straddles two
  devices).  A :class:`ColumnShard` owns one contiguous engine-tile
  span: its own :class:`~repro.gpusim.executor.GPUDevice`, its own
  byte-budgeted :class:`~repro.serving.pool.ColumnPool`, and a
  :class:`~repro.engine.crystal.CrystalEngine` restricted to the span
  (``tile_span``).  Each shard's queries run through
  :meth:`CrystalEngine.run <repro.engine.crystal.CrystalEngine.run>`,
  so its streaming decode arenas are charged to its own pool.
* The :class:`ShardRouter` routes each query only to shards whose tile
  ranges survive zone-map pushdown of the query's declared predicate IR
  (:meth:`~repro.engine.crystal.CrystalEngine.surviving_tiles`), runs
  the shards concurrently, and scatter-gathers the per-shard partial
  aggregates through the executor's exact-integer ``merge_parts`` path —
  paying the modeled interconnect cost via
  :meth:`~repro.gpusim.multigpu.ShardedDevice.merge_results` — so
  answers are bit-identical at every shard count.  Point lookups split
  their indices by shard row range and gather on the owning devices.
* Hot small columns can be **replicated**: pinned in full on every
  shard's pool, so point lookups against them never cross the
  interconnect.  Updates fan out: one
  :class:`~repro.core.updates.UpdatableColumn` flush invalidates every
  shard's caches, pool residents and semantic-cache epochs.

Per-shard latency, queue depth and routing skew land in the shared
:class:`~repro.serving.metrics.MetricsRegistry` under labeled keys
(``shard_execute_ms{shard=2}`` …); pools are labeled by shard only when
there is more than one, so a single device scrapes the plain
``pool_hits``/``pool_misses``/``pool_evictions`` keys.  Times returned
by :meth:`ShardRouter.execute` and :meth:`ShardRouter.lookup` are the
simulator's milliseconds (``sim_ms``), never host wall time.
"""

from __future__ import annotations

import contextlib
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.engine.crystal import TILE, CrystalEngine, SSBQuery
from repro.engine.streaming import TileStreamExecutor
from repro.formats.base import TileCodec
from repro.formats.registry import get_codec
from repro.gpusim.multigpu import ShardedDevice
from repro.gpusim.spec import GPUSpec
from repro.serving.metrics import MetricsRegistry
from repro.serving.pool import ColumnPool
from repro.serving.semcache import DEFAULT_SEMCACHE_BUDGET, SemanticResultCache
from repro.ssb.dbgen import SSBDatabase
from repro.ssb.loader import ColumnStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.updates import UpdatableColumn

__all__ = ["ColumnShard", "ShardRouter", "codec_tile_alignment"]


def codec_tile_alignment(store: ColumnStore, columns=None) -> int:
    """Rows per legal shard boundary: the LCM of every codec tile size.

    Shard boundaries must land on every stored codec's tile grid (and on
    the engine's :data:`~repro.engine.crystal.TILE` grid), or a codec
    tile would straddle two devices and both would have to decode it.
    GPU-SIMDBP128's 4096-value blocks dominate in practice: mixed stores
    align to 4096 rows.
    """
    align = TILE
    names = columns if columns is not None else list(store.columns)
    for name in names:
        col = store[name]
        if not col.codec_name or col.payload is None:
            continue
        codec = get_codec(col.codec_name)
        if isinstance(codec, TileCodec):
            align = math.lcm(align, int(codec.tile_elements(col.payload)))
    return align


@dataclass
class ColumnShard:
    """One contiguous tile-range slice of the store on its own device."""

    index: int
    tile_lo: int
    tile_hi: int
    row_lo: int
    row_hi: int
    device: object
    pool: ColumnPool
    engine: CrystalEngine
    #: Serializes all access to the shard's (not thread-safe) device and
    #: engine: the router dispatches at most one query to a shard at a
    #: time, even when several callers share the router.
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Queries routed to this shard so far (routing-skew accounting).
    routed: int = 0
    #: Aggregate simulated device ms this shard has executed.
    busy_ms: float = 0.0

    @property
    def num_tiles(self) -> int:
        return self.tile_hi - self.tile_lo

    @property
    def num_rows(self) -> int:
        return self.row_hi - self.row_lo

    @property
    def empty(self) -> bool:
        return self.tile_hi <= self.tile_lo


@dataclass
class _ShardOutcome:
    """One shard's contribution to a routed query."""

    shard: int
    groups: dict[int, int]
    agg_ops: tuple[str, ...]
    device_ms: float
    wall_ms: float
    morsels: int


class ShardRouter:
    """Routes queries to tile-range shards and merges their partials.

    One router owns ``num_shards`` :class:`ColumnShard`\\ s over a single
    :class:`~repro.ssb.loader.ColumnStore`.  ``budget_bytes`` is the
    byte budget of **each** shard's pool (default: the device spec's
    global memory); ``replicate_columns`` are pinned in full on every
    shard.  ``streaming`` picks the shard engines' execution style.  The
    router's :attr:`elapsed_ms` is the simulated clock of everything
    routed through it (slowest selected shard per query, plus
    interconnect merges).
    """

    def __init__(
        self,
        db: SSBDatabase,
        store: ColumnStore,
        num_shards: int,
        budget_bytes: int | None = None,
        metrics: MetricsRegistry | None = None,
        stream_workers: int = 4,
        morsel_tiles: int | None = None,
        interconnect_gbps: float = 50.0,
        spec: GPUSpec | None = None,
        streaming: bool = True,
        verify_cached: bool = False,
        semantic_cache: bool = False,
        semcache_budget_bytes: int | None = None,
        replicate_columns: Iterable[str] = (),
        sharded: ShardedDevice | None = None,
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if semantic_cache and not streaming:
            raise ValueError(
                "semantic_cache requires streaming=True: partials are "
                "cached at morsel granularity"
            )
        self.db = db
        self.store = store
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if sharded is None:
            kwargs = {"interconnect_gbps": interconnect_gbps}
            if spec is not None:
                kwargs["spec"] = spec
            sharded = ShardedDevice(num_shards, **kwargs)
        elif sharded.num_devices != num_shards:
            raise ValueError(
                f"sharded device has {sharded.num_devices} devices, "
                f"router wants {num_shards} shards"
            )
        self.sharded = sharded
        self.num_rows = db.num_lineorder_rows
        #: Rows per legal shard boundary (codec tile LCM).
        self.alignment = codec_tile_alignment(store)
        self.replicated = frozenset(replicate_columns)
        unknown = self.replicated - set(store.columns)
        if unknown:
            raise ValueError(f"cannot replicate unknown columns {sorted(unknown)}")
        per_shard_budget = (
            budget_bytes
            if budget_bytes is not None
            else sharded.spec.global_capacity_bytes
        )
        self.shards: list[ColumnShard] = []
        for i, (row_lo, row_hi) in enumerate(
            sharded.shard_bounds(self.num_rows, tile=self.alignment)
        ):
            tile_lo = row_lo // TILE
            tile_hi = -(-row_hi // TILE)
            pool = ColumnPool(
                per_shard_budget,
                metrics=self.metrics,
                metric_labels={"shard": i} if num_shards > 1 else None,
            )
            engine = CrystalEngine(
                db,
                store,
                device=sharded.devices[i],
                pool=pool,
                streaming=streaming,
                stream_workers=stream_workers,
                morsel_tiles=morsel_tiles,
                tile_span=(tile_lo, tile_hi),
            )
            engine.metrics = self.metrics
            engine.verify_cached = verify_cached
            if semantic_cache:
                engine.semcache = SemanticResultCache(
                    semcache_budget_bytes
                    if semcache_budget_bytes is not None
                    else DEFAULT_SEMCACHE_BUDGET,
                    metrics=self.metrics,
                )
            self.shards.append(
                ColumnShard(
                    index=i,
                    tile_lo=tile_lo,
                    tile_hi=tile_hi,
                    row_lo=row_lo,
                    row_hi=row_hi,
                    device=sharded.devices[i],
                    pool=pool,
                    engine=engine,
                )
            )
        if num_shards > 1 and not self.shards[0].engine.uses_streaming():
            raise ValueError(
                f"{store.system} plans are staged over the whole table and "
                f"cannot run on tile-range shards"
            )
        self._dispatch: ThreadPoolExecutor | None = None
        self._clock_lock = threading.Lock()
        self._elapsed_ms = 0.0
        self._inflight = [0] * num_shards
        #: Routing/merge details of the most recent :meth:`execute`.
        self.last_execution: dict = {}
        if self.replicated:
            self.place_columns(tuple(sorted(self.replicated)))

    # -- introspection -------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def elapsed_ms(self) -> float:
        """Simulated wall-clock of all work routed so far."""
        with self._clock_lock:
            return self._elapsed_ms

    @property
    def capacity_bytes(self) -> int:
        return self.sharded.capacity_bytes

    def _advance(self, ms: float) -> float:
        with self._clock_lock:
            self._elapsed_ms += ms
            return self._elapsed_ms

    def _nonempty(self) -> list[ColumnShard]:
        return [s for s in self.shards if not s.empty]

    # -- placement and replication -------------------------------------------

    def _shard_compressed_bytes(self, col, shard: ColumnShard) -> int:
        """This shard's slice of a column's compressed footprint.

        Rows-proportional with telescoping integer splits, so the shard
        shares always sum exactly to ``col.nbytes``.  Replicated columns
        are whole everywhere.
        """
        if col.name in self.replicated or self.num_rows == 0:
            return col.nbytes
        lo = col.nbytes * shard.row_lo // self.num_rows
        hi = col.nbytes * shard.row_hi // self.num_rows
        return hi - lo

    def place_columns(self, columns: tuple[str, ...]) -> float:
        """Stage columns' compressed slices into every shard's pool.

        Each shard admits (and pays PCIe transfer for) only its own tile
        range's share — replicated columns in full, pinned.  Returns the
        placement's simulated ms: shards transfer concurrently, so it is
        the slowest shard's transfer time.
        """
        sim_ms = 0.0
        for shard in self._nonempty():
            shard_ms = 0.0
            with shard.lock:
                for name in columns:
                    if shard.engine.pinned_decoded(name) is not None:
                        # Hot tier: the pinned decoded image serves every
                        # read on this shard — staging the compressed
                        # bytes would only burn PCIe and pool budget.
                        continue
                    col = self.store[name]
                    key = f"compressed/{name}"
                    if shard.pool.get(key) is not None:
                        continue
                    nbytes = self._shard_compressed_bytes(col, shard)
                    payload = col.payload
                    if payload is None and col.spill_path is not None:
                        payload = self.store.ensure_payload(name)
                    shard.pool.admit(
                        key,
                        nbytes,
                        kind="compressed",
                        payload=payload,
                        reconstruct_cost_ms=shard.device.spec.pcie.transfer_ms(
                            nbytes
                        ),
                        pin=name in self.replicated,
                    )
                    shard_ms += shard.device.transfer_to_device(nbytes)
                    if name in self.replicated:
                        self.metrics.inc(
                            "shard_replicated_bytes",
                            nbytes,
                            labels={"shard": shard.index},
                        )
            sim_ms = max(sim_ms, shard_ms)
        if sim_ms:
            self._advance(sim_ms)
        return sim_ms

    @contextlib.contextmanager
    def pinned(self, columns: tuple[str, ...]) -> Iterator[float]:
        """Place ``columns`` on every shard and pin them for the block.

        Yields the placement's simulated ms (0.0 on full pool hits).
        """
        place_ms = self.place_columns(columns)
        keys = tuple(f"compressed/{c}" for c in columns)
        with contextlib.ExitStack() as stack:
            for shard in self._nonempty():
                stack.enter_context(shard.pool.pinned(*keys))
            yield place_ms

    # -- routing -------------------------------------------------------------

    def route(self, query: SSBQuery) -> list[ColumnShard]:
        """Shards whose tile ranges survive the query's predicate pushdown.

        Uses the declared predicate IR against the shared zone maps; a
        query with no declared predicate fans out to every shard, and a
        lone shard is selected without a zone-map pass.  At least one
        shard is always selected (the aggregate identity must come from
        somewhere), mirroring one engine's behavior when pushdown prunes
        everything.
        """
        candidates = self._nonempty()
        if query.predicate is not None and len(candidates) > 1:
            surviving = candidates[0].engine.surviving_tiles(query.predicate)
            selected = [
                s for s in candidates if surviving[s.tile_lo : s.tile_hi].any()
            ]
        else:
            selected = list(candidates)
        if not selected:
            selected = candidates[:1]
        for shard in selected:
            shard.routed += 1
            self.metrics.inc("shard_queries", labels={"shard": shard.index})
        self.metrics.inc("router_queries")
        self.metrics.inc("router_shards_selected", len(selected))
        self._publish_skew()
        return selected

    def _publish_skew(self) -> None:
        """Routing skew: busiest shard's share over the fair share."""
        counts = [s.routed for s in self._nonempty()]
        total = sum(counts)
        if total and counts:
            skew = max(counts) * len(counts) / total
            self.metrics.gauge("router_routing_skew", skew)
        for shard in self.shards:
            self.metrics.gauge(
                "shard_routed_total", shard.routed, labels={"shard": shard.index}
            )

    # -- execution -----------------------------------------------------------

    def _run_shard(self, shard: ColumnShard, query: SSBQuery) -> _ShardOutcome:
        with shard.lock:
            self._inflight[shard.index] += 1
            self.metrics.gauge(
                "shard_queue_depth",
                self._inflight[shard.index],
                labels={"shard": shard.index},
            )
            t0 = time.perf_counter()
            try:
                result = shard.engine.run(query)
            finally:
                self._inflight[shard.index] -= 1
                self.metrics.gauge(
                    "shard_queue_depth",
                    self._inflight[shard.index],
                    labels={"shard": shard.index},
                )
            shard.busy_ms += result.simulated_ms
            stats = shard.engine.last_stream_stats
            return _ShardOutcome(
                shard=shard.index,
                groups=result.groups,
                agg_ops=tuple(stats.get("agg_ops", ())),
                device_ms=result.simulated_ms,
                wall_ms=(time.perf_counter() - t0) * 1e3,
                morsels=int(stats.get("morsels", 0)),
            )

    def _ensure_dispatch(self) -> ThreadPoolExecutor:
        if self._dispatch is None:
            self._dispatch = ThreadPoolExecutor(
                max_workers=max(1, self.num_shards), thread_name_prefix="shard"
            )
        return self._dispatch

    def execute(self, query: SSBQuery) -> tuple[dict[int, int], float]:
        """Run one query across its surviving shards; merge the partials.

        Returns ``(groups, sim_ms)``: the bit-identical merged answer
        and the simulated time — the slowest selected shard's device
        time plus the interconnect all-gather of the per-shard partials.
        The router's :attr:`elapsed_ms` clock advances by the same
        amount.
        """
        selected = self.route(query)
        outcomes: list[_ShardOutcome | None] = [None] * len(selected)
        if len(selected) == 1:
            outcomes[0] = self._run_shard(selected[0], query)
        else:
            pool = self._ensure_dispatch()
            futures = [
                (shard, pool.submit(self._run_shard, shard, query))
                for shard in selected
            ]
            # Gather every future before raising, then surface the error
            # deterministically (lowest shard index), mirroring the
            # morsel executor's contract.
            errors: list[tuple[int, BaseException]] = []
            for pos, (shard, fut) in enumerate(futures):
                try:
                    outcomes[pos] = fut.result()
                except Exception as exc:
                    errors.append((shard.index, exc))
            if errors:
                self.metrics.inc("router_shard_failures", len(errors))
                errors.sort(key=lambda pair: pair[0])
                raise errors[0][1]
        parts = [(list(o.agg_ops), o.groups) for o in outcomes]
        if any(ops for ops, _ in parts):
            merged = TileStreamExecutor.merge_parts({}, parts)
        else:  # defensive: no aggregates recorded — single part passthrough
            merged = dict(outcomes[0].groups)
        merge_ms = 0.0
        if len(selected) > 1:
            # Ring all-gather of the per-shard partial aggregates: each
            # group entry is a (code, value) pair of 8-byte ints.
            partial_bytes = max(16 * max(1, len(o.groups)) for o in outcomes)
            merge_ms = self.sharded.merge_results(partial_bytes)
            self.metrics.observe("router_merge_ms", merge_ms)
        sim_ms = max(o.device_ms for o in outcomes) + merge_ms
        self._advance(sim_ms)
        for o in outcomes:
            self.metrics.observe(
                "shard_execute_ms", o.device_ms, labels={"shard": o.shard}
            )
            self.metrics.gauge(
                "shard_busy_ms",
                self.shards[o.shard].busy_ms,
                labels={"shard": o.shard},
            )
        self.last_execution = {
            "query": query.name,
            "shards": [o.shard for o in outcomes],
            "shard_ms": {o.shard: o.device_ms for o in outcomes},
            "shard_morsels": {o.shard: o.morsels for o in outcomes},
            "merge_ms": merge_ms,
            "sim_ms": sim_ms,
        }
        return merged, sim_ms

    # -- point lookups -------------------------------------------------------

    def check_indices(self, indices) -> np.ndarray:
        """Validate lookup indices: integers in ``[0, num_rows)``.

        Returns them as int64; raises :class:`ValueError` otherwise, so a
        bad index fails at the boundary instead of resolving to garbage.
        """
        arr = np.asarray(indices)
        if arr.size == 0:
            return arr.astype(np.int64).reshape(-1)
        if arr.dtype.kind not in "iu":
            raise ValueError(f"lookup indices must be integers, got {arr.dtype}")
        if int(arr.min()) < 0 or int(arr.max()) >= self.num_rows:
            raise ValueError(
                f"lookup indices must lie in [0, {self.num_rows}), got "
                f"[{int(arr.min())}, {int(arr.max())}]"
            )
        return arr.astype(np.int64).reshape(-1)

    def lookup(self, name: str, indices: np.ndarray) -> tuple[np.ndarray, float]:
        """Scatter-gather one coalesced lookup batch across the shards.

        Indices are split by shard row range; each owning shard gathers
        its slice on its own device concurrently, and the fetched values
        ride the interconnect back (one all-gather).  Replicated columns
        skip the scatter entirely: the least-loaded shard serves the
        whole batch from its pinned full copy.  Returns ``(values,
        sim_ms)``.
        """
        indices = self.check_indices(indices)
        col = self.store[name]
        out = np.empty(indices.size, dtype=np.int64)
        if name in self.replicated:
            shard = min(self._nonempty(), key=lambda s: s.busy_ms)
            sim_ms = self._gather_on(shard, col, indices, out, slice(None))
            self._advance(sim_ms)
            return out, sim_ms
        plan: list[tuple[ColumnShard, np.ndarray]] = []
        for shard in self._nonempty():
            mask = (indices >= shard.row_lo) & (indices < shard.row_hi)
            if mask.any():
                plan.append((shard, np.flatnonzero(mask)))
        if not plan:
            return out, 0.0
        if len(plan) == 1:
            shard, pos = plan[0]
            sim_ms = self._gather_on(shard, col, indices[pos], out, pos)
        else:
            pool = self._ensure_dispatch()
            futures = [
                (
                    shard,
                    pool.submit(self._gather_on, shard, col, indices[pos], out, pos),
                )
                for shard, pos in plan
            ]
            errors: list[tuple[int, BaseException]] = []
            sim_ms = 0.0
            for shard, fut in futures:
                try:
                    sim_ms = max(sim_ms, fut.result())
                except Exception as exc:
                    errors.append((shard.index, exc))
            if errors:
                errors.sort(key=lambda pair: pair[0])
                raise errors[0][1]
            # Fetched values all-gather back over the interconnect.
            per_device = max(pos.size for _, pos in plan) * 8
            sim_ms += self.sharded.merge_results(per_device)
        self._advance(sim_ms)
        return out, sim_ms

    def _gather_on(self, shard, col, idx, out, pos) -> float:
        """Gather ``idx`` of one column on a shard's device into ``out[pos]``.

        The one per-device lookup: a hot column's pinned decoded image
        serves a plain coalesced gather, an inline-compressed column a
        :func:`~repro.core.random_access.gather` (priced per touched tile), and
        anything else one coalesced element per index (after the cold
        tier's unspill + cascade-decode prologue).
        """
        # Through the scheduler's namespace, where served lookups' gather
        # is looked up (and where instrumentation wraps it).
        from repro.serving.scheduler import gather

        engine, device = shard.engine, shard.device
        with shard.lock:
            before = device.elapsed_ms
            # Branch on the ``col`` snapshot the router fetched once: a
            # tier swap racing this gather must not pair a re-probed
            # verdict with the snapshot's payload.
            pinned = engine.pinned_decoded(col.name)
            if pinned is not None:
                source = pinned
            elif engine.inline_column(col):
                out[pos] = gather(col.payload, idx, device).values
                source = None
            else:
                if col.tier == "cold":
                    # Entropy-coded payloads have no random access: the
                    # batch pays the unspill + cascade decode prologue.
                    engine.decompress_first((col.name,))
                source = col.values
            if source is not None:
                with device.launch(
                    f"lookup-{col.name}", grid_blocks=max(1, idx.size // 128)
                ) as k:
                    k.read_gather(idx.size, 4, source.size * 4)
                    k.compute(idx.size)
                out[pos] = np.asarray(source)[idx]
            ms = device.elapsed_ms - before
            shard.busy_ms += ms
            return ms

    # -- invalidation fan-out ------------------------------------------------

    def invalidate_column(self, name: str) -> None:
        """Drop every shard's cached derivatives of one column."""
        for shard in self.shards:
            shard.engine.invalidate_column(name)

    def bind_updatable(self, name: str, column: "UpdatableColumn") -> None:
        """Serve ``name`` from an updatable column on every shard.

        Each shard's engine installs its own flush hook, so one
        :meth:`~repro.core.updates.UpdatableColumn.flush` swaps the
        shared store image once and invalidates every shard's caches,
        pool residents and semantic-cache epochs — no shard can serve
        pre-update bytes.
        """
        for shard in self.shards:
            shard.engine.bind_updatable(name, column)

    # -- maintenance ---------------------------------------------------------

    def trim_arenas(self, max_bytes: int = 0) -> int:
        """Trim every shard's streaming decode arenas; returns bytes freed."""
        live = self._nonempty()
        if not live:
            return 0
        share = max(0, max_bytes) // len(live)
        return sum(s.engine.trim_stream_arenas(share) for s in live)

    def shard_summary(self) -> list[dict]:
        """One report row per shard (routing, occupancy, residency)."""
        return [
            {
                "shard": s.index,
                "tiles": s.num_tiles,
                "rows": s.num_rows,
                "routed": s.routed,
                "busy_ms": s.busy_ms,
                "resident_bytes": s.pool.resident_bytes,
                "evictions": self.metrics.counter(
                    "pool_evictions", labels=s.pool.metric_labels
                ),
            }
            for s in self.shards
        ]

    def close(self) -> None:
        """Shut down shard engines' workers and the dispatch pool (idempotent)."""
        for shard in self.shards:
            shard.engine.close()
        if self._dispatch is not None:
            self._dispatch.shutdown(wait=True)
            self._dispatch = None
