"""Fused tile-streaming query execution with a morsel-parallel executor.

The paper's central claim (Sections 3 and 7) is that decompression is a
*device function*: a tile is decoded in shared memory and filtered,
probed and aggregated inline, so the whole query is one fused kernel.
:class:`TileStreamExecutor` runs every such query;
:meth:`CrystalEngine.run <repro.engine.crystal.CrystalEngine.run>` hands
it every plan except the staged OmniSci baseline.

1. A **plan pass** runs the query function once against a zero-row proxy
   pipeline.  It builds (and prices) the dimension lookups exactly once,
   evaluates predicate pushdown against the full tile grid (the engine's
   only zone-map bounds pass), and captures the fused kernel's resource
   footprint (registers, shared memory).
2. The surviving tiles are partitioned into contiguous **morsels**.
   Each morsel re-runs the query function against a morsel-scoped
   pipeline (lookups are replayed, so dimension filters never re-run)
   that loads only its own chunk of each needed column, then filters,
   probes and accumulates partial aggregates over just those rows.  A
   streaming engine cuts morsels of ``morsel_tiles`` engine tiles and
   decodes each chunk's live codec tiles in one batched codec call into
   a per-worker :class:`~repro.formats.base.DecodeArena`, so steady
   state allocates nothing.  A non-streaming engine runs one morsel
   spanning the whole grid, which loads the engine's whole-column
   images (cached across queries) instead of arena chunks.
3. Partials are merged **in deterministic morsel order** with exact
   integer arithmetic, so answers are bit-identical at any morsel count
   and worker count; one fused fact kernel is then priced from the plan
   pass and the merged accounting (:meth:`TileStreamExecutor._price_fused_kernel`,
   the only fused pricer).

Morsels run on a ``ThreadPoolExecutor``.  A morsel's work is many small
NumPy calls that hold the GIL for most of their run, so workers in one
process mostly take turns: on a 2-vCPU host a second worker doubled each
morsel's wall time and left the query's no faster (two single-worker
processes side by side each kept their speed).  A morsel's cost is set
by its rows: one codec call per column, and group partials sized by the
live rows, not the group domain.  Only the coordinator thread ever
touches the simulated ``GPUDevice`` (it is not thread-safe); workers do
pure array work.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.engine.crystal import (
    BLOCK_THREADS,
    TILE,
    CrystalEngine,
    FactPipeline,
    SSBQuery,
    codec_tile_activity,
    decode_active_tiles,
)
from repro.engine.lookup import Lookup
from repro.engine.predicates import (
    And,
    ColumnPredicate,
    canonical_key,
    canonical_predicates,
    column_predicates,
)
from repro.formats.base import (
    DecodeArena,
    TileCodec,
    corruption_guard,
    crc32_values,
)
from repro.formats.registry import get_codec
from repro.formats.validate import CorruptTileError

__all__ = ["DEFAULT_MORSEL_TILES", "StreamPlan", "TileStreamExecutor"]

#: Engine tiles per morsel: 64 tiles = 32768 rows, a multiple of every
#: codec tile size (including GPU-SIMDBP128's 4096-value blocks), so
#: morsel boundaries land on codec tile boundaries and no tile is
#: decoded twice.
DEFAULT_MORSEL_TILES = 64


@dataclass(frozen=True)
class Morsel:
    """One contiguous chunk of the fact table's tile grid."""

    index: int
    tile_lo: int
    tile_hi: int
    row_lo: int
    row_hi: int


class _PlanPipeline(FactPipeline):
    """Zero-row pipeline for the plan pass.

    Row-level operators see empty arrays (and cost nothing), while
    pushdown runs against the **full** tile grid — the executor reads the
    surviving set from :attr:`global_tile_active`.  Resource accounting
    (registers, shared memory per block, decode register pressure) is
    row-count independent, so the plan pass captures the fused kernel's
    footprint exactly.
    """

    def __init__(self, engine: CrystalEngine, name: str, lookups: list[tuple]):
        super().__init__(engine, name, staged=False, rows=0, tiles=0)
        #: Tiles surviving pushdown over the whole fact table.
        self.global_tile_active = np.ones(engine.num_tiles, dtype=bool)
        # The plan engine's lookup list (not the plan engine itself, which
        # holds this pipeline: no reference cycle outlives the query).
        self._lookups = lookups
        #: Operator trace of the plan pass, excluding predicate details:
        #: loads, probes (by lookup index), raw filters and aggregates in
        #: call order.  Together with the lookup fingerprints and the
        #: query's name/plan_key this identifies *what* the plan computes;
        #: the predicate conjuncts below identify *which rows* it keeps.
        self.trace: list[tuple] = []
        #: Every predicate conjunct the query applied (pushdown and exact
        #: row filters), for canonicalization into the semantic key.
        self.pred_conjuncts: list[ColumnPredicate] = []

    def _tile_read_bytes(self, name: str) -> np.ndarray:
        # Loads read nothing here: the morsels account the payload reads
        # over their own surviving tiles.  (Also warms the engine's
        # per-tile traffic cache so workers only ever read it.)
        self.engine.tile_read_bytes(name)
        return np.zeros(0, dtype=np.int64)

    def _column_slice(self, name: str) -> np.ndarray:
        return np.zeros(0, dtype=np.int64)

    def load(self, name: str) -> np.ndarray:
        self.trace.append(("load", name))
        return super().load(name)

    def probe(self, lookup: Lookup, keys: np.ndarray) -> np.ndarray:
        idx = next(
            (i for i, (_, _, built) in enumerate(self._lookups) if built is lookup), -1
        )
        self.trace.append(("probe", idx))
        return super().probe(lookup, keys)

    def filter(self, rowmask: np.ndarray) -> None:
        self.trace.append(("filter",))
        return super().filter(rowmask)

    def filter_predicate(self, predicate, values) -> None:
        self.pred_conjuncts.append(predicate)
        return super().filter_predicate(predicate, values)

    def group_sum(self, codes, weights, num_groups):
        self.trace.append(("agg", "sum", int(num_groups)))
        return super().group_sum(codes, weights, num_groups)

    def total_sum(self, values):
        self.trace.append(("agg", "sum", 1))
        return super().total_sum(values)

    def total_sum_product(self, a, b):
        self.trace.append(("agg", "sum-product", 1))
        return super().total_sum_product(a, b)

    def group_aggregate(self, codes, values, num_groups, how="sum"):
        if how not in ("sum", "count"):  # those delegate to group_sum
            self.trace.append(("agg", how, int(num_groups)))
        return super().group_aggregate(codes, values, num_groups, how=how)

    def filter_pushdown(self, predicate) -> int:
        self._check_open()
        preds = column_predicates(predicate)
        self.pred_conjuncts.extend(preds)
        if not self.engine.pushdown or not preds:
            return 0
        engine = self.engine
        before = int(self.global_tile_active.sum())
        for pred in preds:
            mins, maxs = engine.column_tile_bounds(pred.column)
            self.global_tile_active &= pred.tile_may_match(mins, maxs)
            # Zone-map metadata scan, accounted once for the whole grid
            # (morsels inherit the surviving set without re-scanning).
            self._read_bytes += engine.num_tiles * 16
            self._compute += engine.num_tiles * 2
        return before - int(self.global_tile_active.sum())


class _MorselPipeline(FactPipeline):
    """A :class:`FactPipeline` over one morsel's rows.

    Inherits the plan pass's surviving tile set and records which
    aggregate ops ran so the executor knows how to merge the partial
    results.  On a streaming engine it decodes column chunks into the
    worker's arena; otherwise its morsel spans the whole grid and it
    loads the engine's column images (fresh or cached full decodes,
    CRC-verified under ``verify_cached``).
    """

    def __init__(self, executor: "TileStreamExecutor", name: str, morsel: Morsel):
        super().__init__(
            executor.engine,
            name,
            staged=False,
            rows=morsel.row_hi - morsel.row_lo,
            tiles=morsel.tile_hi - morsel.tile_lo,
        )
        self._executor = executor
        self._morsel = morsel
        self.tile_active &= executor.tile_active[morsel.tile_lo : morsel.tile_hi]
        if not self.tile_active.all():
            # Loads leave pruned tiles zero-filled, so their rows must be
            # dead in the mask: sound, as no row of theirs can match.
            self.mask &= np.repeat(self.tile_active, TILE)[: self.n]
        #: Aggregate merge ops in call order ("sum", "min" or "max").
        self.agg_ops: list[str] = []

    def _tile_read_bytes(self, name: str) -> np.ndarray:
        m = self._morsel
        return self.engine.tile_read_bytes(name)[m.tile_lo : m.tile_hi]

    def _column_slice(self, name: str) -> np.ndarray:
        m = self._morsel
        if not self.engine.streaming:
            return self.engine.column_values_pruned(name, self.tile_active)
        pinned = self.engine.pinned_decoded(name)
        if pinned is not None:
            return pinned[m.row_lo : m.row_hi]
        # One snapshot decides the branch: a racing atomic tier swap must
        # never pair an inline verdict with the other image's payload.
        col = self.engine.store[name]
        if self.engine.inline_column(col):
            return self._executor.decode_slice(name, m, self.tile_active, col=col)
        return col.values[m.row_lo : m.row_hi]

    def _column_slice_filtered(self, name, predicate):
        """Fused decode+filter load: ``(values, rowmask)``, or
        ``(values, None)`` when fusion cannot apply (cached image,
        checksummed column under active verification, ...) and the
        caller must evaluate the predicate itself."""
        if not self.engine.streaming:
            return self.engine.column_values_filtered(name, self.tile_active, predicate)
        return self._executor.decode_slice(
            name, self._morsel, self.tile_active, predicate=predicate
        )

    # -- aggregate-op recording (drives the deterministic merge) ----------

    def group_sum(self, codes, weights, num_groups):
        self.agg_ops.append("sum")
        return super().group_sum(codes, weights, num_groups)

    def total_sum(self, values):
        self.agg_ops.append("sum")
        return super().total_sum(values)

    def total_sum_product(self, a, b):
        self.agg_ops.append("sum")
        return super().total_sum_product(a, b)

    def group_aggregate(self, codes, values, num_groups, how="sum"):
        if how in ("min", "max"):
            self.agg_ops.append(how)
        # sum/count delegate to group_sum, which records itself.
        return super().group_aggregate(codes, values, num_groups, how=how)


@dataclass
class _MorselOutcome:
    """One morsel's partial result plus its pipeline (for accounting)."""

    result: dict[int, int]
    pipeline: _MorselPipeline
    wall_ms: float


class _PlanEngine:
    """Engine proxy for the plan pass: real lookups, zero-row pipeline."""

    def __init__(self, engine: CrystalEngine):
        self._engine = engine
        self.db = engine.db
        self.pushdown = engine.pushdown
        self.lookups: list[tuple[str, str, Lookup]] = []
        #: Content fingerprints of the built lookups, in build order:
        #: (table, key column, key base, payload CRC, payload size).  Two
        #: plans probing differently-filtered dimensions (q3.1's nations
        #: vs q3.2's cities) fingerprint differently even though their
        #: operator traces look alike.
        self.fingerprints: list[tuple] = []
        self.pipeline_obj: _PlanPipeline | None = None

    def build_lookup(self, table_name, key_col, **kwargs) -> Lookup:
        lookup = self._engine.build_lookup(table_name, key_col, **kwargs)
        self.lookups.append((table_name, key_col, lookup))
        self.fingerprints.append(
            (
                table_name,
                key_col,
                int(lookup.key_base),
                int(crc32_values(lookup.payload)),
                int(lookup.payload.size),
            )
        )
        return lookup

    def replay_lookup(self, i: int, table_name: str, key_col: str) -> Lookup:
        if i >= len(self.lookups) or self.lookups[i][:2] != (table_name, key_col):
            raise RuntimeError(
                f"morsel replay diverged from the plan pass at lookup #{i} "
                f"({table_name}.{key_col}); streaming requires the query "
                f"function to be deterministic"
            )
        return self.lookups[i][2]

    def pipeline(self, name: str) -> _PlanPipeline:
        if self.pipeline_obj is not None:
            raise RuntimeError("streaming supports one pipeline per query")
        self.pipeline_obj = _PlanPipeline(self._engine, name, self.lookups)
        return self.pipeline_obj


class _MorselEngine:
    """Engine proxy a morsel re-runs the query function against.

    Lookups are replayed from the plan pass (built and priced exactly
    once, read-only thereafter); the pipeline is morsel-scoped.
    """

    def __init__(self, executor: "TileStreamExecutor", plan: _PlanEngine, morsel: Morsel):
        self._executor = executor
        self._plan = plan
        self._morsel = morsel
        self._lookup_cursor = 0
        self.db = executor.engine.db
        self.pushdown = executor.engine.pushdown
        self.pipeline_obj: _MorselPipeline | None = None

    def build_lookup(self, table_name, key_col, **kwargs) -> Lookup:
        lookup = self._plan.replay_lookup(self._lookup_cursor, table_name, key_col)
        self._lookup_cursor += 1
        return lookup

    def pipeline(self, name: str) -> _MorselPipeline:
        if self.pipeline_obj is not None:
            raise RuntimeError("streaming supports one pipeline per query")
        self.pipeline_obj = _MorselPipeline(self._executor, name, self._morsel)
        return self.pipeline_obj


@dataclass
class StreamPlan:
    """Everything the plan pass learned about one query, pre-execution.

    The semantic result cache drives the executor through this object:
    :meth:`TileStreamExecutor.plan` builds it, the cache decides which
    morsels actually need to run, :meth:`TileStreamExecutor.run_morsels`
    executes a subset, and :meth:`TileStreamExecutor.merge_parts`
    combines cached and fresh partials bit-identically.

    ``base_key`` identifies *what* the plan computes (query identity,
    lookup content fingerprints, operator trace) while ``pred_key`` is
    the canonicalized form of *which rows* it keeps — together they form
    the semantic cache signature.
    """

    query: SSBQuery
    engine_plan: _PlanEngine
    ppipe: _PlanPipeline
    plan_result: dict[int, int]
    tile_active: np.ndarray
    morsels: list[Morsel]
    base_key: tuple
    pred_key: tuple
    predicates: tuple[ColumnPredicate, ...]
    #: Aggregate merge ops derived from the plan trace — available even
    #: when every morsel is pruned (a zero-morsel shard still knows it
    #: computes a sum), so cross-shard merges never lose the identity.
    agg_ops: tuple[str, ...] = ()


class TileStreamExecutor:
    """Runs one query's plan morsel-by-morsel over the surviving tiles."""

    def __init__(
        self,
        engine: CrystalEngine,
        workers: int = 4,
        morsel_tiles: int | None = None,
        metrics=None,
        tile_span: tuple[int, int] | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        morsel_tiles = DEFAULT_MORSEL_TILES if morsel_tiles is None else morsel_tiles
        if morsel_tiles < 1:
            raise ValueError(f"morsel_tiles must be >= 1, got {morsel_tiles}")
        if tile_span is not None:
            lo, hi = int(tile_span[0]), int(tile_span[1])
            if not (0 <= lo <= hi <= engine.num_tiles):
                raise ValueError(
                    f"tile_span {tile_span} outside [0, {engine.num_tiles}]"
                )
            tile_span = (lo, hi)
        self.engine = engine
        self.workers = workers
        self.morsel_tiles = morsel_tiles
        self.metrics = metrics
        #: Engine-tile range ``[lo, hi)`` this executor is restricted to
        #: (``None`` = the whole fact table).  A sharded serving layer
        #: gives each shard's executor its tile span; plans then skip
        #: tiles outside it and the fused kernel is priced over the span
        #: only, so per-shard work genuinely shrinks with the shard.
        self.tile_span = tile_span
        #: Surviving tile grid of the most recent execute() (plan pass).
        self.tile_active = np.ones(0, dtype=bool)
        #: Stats of the most recent execute() call.
        self.last_stats: dict = {}
        self._tls = threading.local()
        self._arena_lock = threading.Lock()
        self._arenas: list[DecodeArena] = []
        self._pool: ThreadPoolExecutor | None = None

    # -- worker-side decode -------------------------------------------------

    def _arena(self) -> DecodeArena:
        arena = getattr(self._tls, "arena", None)
        if arena is None:
            arena = DecodeArena()
            self._tls.arena = arena
            with self._arena_lock:
                self._arenas.append(arena)
        return arena

    @property
    def peak_decoded_bytes(self) -> int:
        """Bytes held across every worker's arena (buffers only grow
        between :meth:`trim_arenas` calls, so this is also the peak
        decoded-intermediate footprint since the last trim)."""
        with self._arena_lock:
            return sum(a.resident_bytes for a in self._arenas)

    def trim_arenas(self, max_bytes: int = 0) -> int:
        """Release worker arena scratch down to ``max_bytes`` total.

        Arena buffers grow to the largest chunk ever decoded and are
        otherwise held forever; serving layers call this between query
        bursts to return the memory.  The budget is split evenly across
        workers (each arena trims to its share, largest buffers first).
        Safe against concurrent morsels: buffers a worker borrowed stay
        valid, only the arena's references are dropped.  Returns the
        number of bytes released.
        """
        with self._arena_lock:
            arenas = list(self._arenas)
        if not arenas:
            return 0
        share = max(0, max_bytes) // len(arenas)
        return sum(arena.trim(share) for arena in arenas)

    def decode_slice(
        self,
        name: str,
        morsel: Morsel,
        tile_active: np.ndarray,
        predicate=None,
        col=None,
    ):
        """Decode one column's chunk for a morsel into the worker's arena.

        Covers the codec tiles overlapping ``[row_lo, row_hi)``; codec
        tiles whose engine tiles were all pruned stay zero-filled (their
        rows are dead in the morsel's mask by construction).  Returns a
        view of exactly the morsel's rows.

        With a ``predicate``, the filter is fused into the decode via the
        codec's ``decode_filter_tiles_into`` and the return value becomes
        ``(values, rowmask)`` views — or ``(values, None)`` when fusion
        cannot apply (checksummed column under active verification), in
        which case the caller evaluates the predicate itself.

        ``col`` pins the caller's :class:`StoredColumn` snapshot so one
        object serves both the inline check and the decode; without it a
        fresh snapshot is taken here.  Either way a column that is no
        longer tile-encoded (a racing tier swap published an uncompressed
        or cold image) degrades to a plain values slice — bit-identical
        by the swap's contract, never a torn decode.
        """
        if col is None:
            col = self.engine.store[name]
        want_mask = predicate is not None
        if not col.codec_name:
            vals = col.values[morsel.row_lo : morsel.row_hi]
            return (vals, None) if want_mask else vals
        if self.engine.fault_hook is not None:
            self.engine.fault_hook(name)
        codec = get_codec(col.codec_name)
        assert isinstance(codec, TileCodec)
        enc = col.payload
        if want_mask and not self.engine.fusion_allowed(enc):
            predicate = None
        elems = codec.tile_elements(enc)
        r0, r1 = morsel.row_lo, morsel.row_hi
        c0 = r0 // elems
        c1 = min(-(-r1 // elems), codec.num_tiles(enc))
        arena = self._arena()
        cap = (c1 - c0) * elems
        view = arena.scratch(name, cap)[:cap]
        mview = None
        if predicate is not None:
            mview = arena.scratch(f"mask/{name}", cap, dtype=np.bool_)[:cap]
        active = codec_tile_activity(tile_active, elems, c0, c1, morsel.tile_lo)
        try:
            with corruption_guard(name):
                fused_rows = decode_active_tiles(
                    codec, enc, active, c0, view, mview, predicate, arena.scratch
                )
        except CorruptTileError as exc:
            # Re-raise with the owning morsel span so the coordinator
            # (and the client) can see exactly which slice of which
            # worker died, instead of an anonymous thread-pool failure.
            raise CorruptTileError(
                exc.column,
                exc.tile_id,
                f"{exc.reason} [morsel {morsel.index}: engine tiles "
                f"{morsel.tile_lo}..{morsel.tile_hi}, rows {r0}..{r1}]",
            ) from exc
        off = r0 - c0 * elems
        vals = view[off : off + (r1 - r0)]
        if not want_mask:
            return vals
        if mview is None:
            return vals, None
        self.engine.count_fused_kernel(fused_rows)
        return vals, mview[off : off + (r1 - r0)]

    # -- orchestration ------------------------------------------------------

    def _span(self) -> tuple[int, int]:
        """The executor's engine-tile range ``[lo, hi)``."""
        if self.tile_span is not None:
            return self.tile_span
        return (0, self.engine.num_tiles)

    def _partition(self, tile_active: np.ndarray) -> list[Morsel]:
        """Contiguous fixed-width morsels; fully-pruned windows are skipped
        wholesale (the streaming counterpart of tile skipping)."""
        engine = self.engine
        span_lo, span_hi = self._span()
        morsels: list[Morsel] = []
        for tile_lo in range(span_lo, span_hi, self.morsel_tiles):
            tile_hi = min(tile_lo + self.morsel_tiles, span_hi)
            if not tile_active[tile_lo:tile_hi].any():
                continue
            morsels.append(
                Morsel(
                    index=len(morsels),
                    tile_lo=tile_lo,
                    tile_hi=tile_hi,
                    row_lo=tile_lo * TILE,
                    row_hi=min(tile_hi * TILE, engine.num_rows),
                )
            )
        return morsels

    def _run_morsel(
        self, query: SSBQuery, plan: _PlanEngine, morsel: Morsel
    ) -> _MorselOutcome:
        t0 = time.perf_counter()
        mengine = _MorselEngine(self, plan, morsel)
        result = query.fn(mengine)
        if mengine.pipeline_obj is None or not mengine.pipeline_obj._finished:
            raise RuntimeError(
                f"query {query.name} did not finish a pipeline in its morsel run"
            )
        wall_ms = (time.perf_counter() - t0) * 1e3
        return _MorselOutcome(result, mengine.pipeline_obj, wall_ms)

    def plan(self, query: SSBQuery) -> StreamPlan:
        """Run the zero-row plan pass and derive the semantic identity."""
        engine = self.engine
        plan = _PlanEngine(engine)
        plan_result = query.fn(plan)
        ppipe = plan.pipeline_obj
        if ppipe is None or not ppipe._finished:
            raise RuntimeError(
                f"query {query.name} did not run a FactPipeline plan; "
                f"streaming needs a pipeline-based query function"
            )
        active = ppipe.global_tile_active
        if self.tile_span is not None:
            # Restrict to the shard's span without mutating the global
            # pushdown result (the plan pipeline's accounting keeps it).
            active = active.copy()
            active[: self.tile_span[0]] = False
            active[self.tile_span[1] :] = False
        self.tile_active = active
        # Warm the shared metadata caches from the coordinator so morsel
        # workers only ever read them (bounds were warmed by pushdown).
        for name in query.columns:
            engine.tile_read_bytes(name)
        # Queries may declare a plan_key grouping structurally identical
        # plans (e.g. flight-1 drill-downs differing only in filters);
        # otherwise the name keeps host-side arithmetic outside the
        # predicate IR from ever aliasing across distinct queries.
        plan_base = query.plan_key if query.plan_key is not None else ("query", query.name)
        base_key = (plan_base, tuple(plan.fingerprints), tuple(ppipe.trace))
        if self.tile_span is not None:
            # Partials of different shards must never alias in a shared
            # semantic cache: the span is part of what the plan computes.
            base_key = base_key + (("span",) + self.tile_span,)
        pred = And(tuple(ppipe.pred_conjuncts))
        return StreamPlan(
            query=query,
            engine_plan=plan,
            ppipe=ppipe,
            plan_result=plan_result,
            tile_active=self.tile_active,
            morsels=self._partition(self.tile_active),
            base_key=base_key,
            pred_key=canonical_key(pred),
            predicates=canonical_predicates(pred),
            agg_ops=tuple(
                "sum" if op in ("sum", "sum-product", "count") else op
                for entry in ppipe.trace
                if entry[0] == "agg"
                for op in (entry[1],)
            ),
        )

    def run_morsels(
        self, plan: StreamPlan, morsels: list[Morsel]
    ) -> list[_MorselOutcome]:
        """Execute a subset of the plan's morsels; outcomes align positionally.

        The subset keeps the original morsel indices, so errors still
        surface deterministically (first in global morsel order).
        """
        query, engine_plan = plan.query, plan.engine_plan
        pos = {m.index: i for i, m in enumerate(morsels)}
        outcomes: list[_MorselOutcome] = [None] * len(morsels)  # type: ignore[list-item]
        if self.workers == 1 or len(morsels) <= 1:
            for m in morsels:
                outcomes[pos[m.index]] = self._run_morsel(query, engine_plan, m)
        else:
            pool = self._ensure_pool()
            futures = [
                (m, pool.submit(self._run_morsel, query, engine_plan, m))
                for m in morsels
            ]
            # Gather every future before raising: a corrupt morsel must
            # not leave siblings running against shared arenas, and the
            # error surfaced must be deterministic (first in morsel
            # order), not whichever worker lost the race.
            errors: list[tuple[int, BaseException]] = []
            for m, fut in futures:
                try:
                    outcomes[pos[m.index]] = fut.result()
                except Exception as exc:
                    errors.append((m.index, exc))
            if errors:
                if self.metrics is not None:
                    self.metrics.inc("streaming_morsel_failures", len(errors))
                errors.sort(key=lambda pair: pair[0])
                raise errors[0][1]
        return outcomes

    def publish_stats(
        self,
        plan: StreamPlan,
        outcomes: list[_MorselOutcome],
        exec_ms: float,
        cached_morsels: int = 0,
    ) -> None:
        """Record ``last_stats`` and metrics for one executed query."""
        engine = self.engine
        peak = self.peak_decoded_bytes
        span_lo, span_hi = self._span()
        self.last_stats = {
            "query": plan.query.name,
            "workers": self.workers,
            "morsel_tiles": self.morsel_tiles,
            "tiles_total": int(engine.num_tiles),
            "tiles_span": int(span_hi - span_lo),
            "tiles_active": int(np.count_nonzero(plan.tile_active)),
            "morsels": len(plan.morsels),
            "morsel_ms": [o.wall_ms for o in outcomes],
            "execute_ms": exec_ms,
            "peak_decoded_bytes": int(peak),
            "agg_ops": list(plan.agg_ops),
        }
        if cached_morsels:
            self.last_stats["cached_morsels"] = int(cached_morsels)
        if self.metrics is not None:
            self.metrics.inc("streaming_queries")
            self.metrics.inc("streaming_morsels", len(outcomes))
            for o in outcomes:
                self.metrics.observe("streaming_morsel_ms", o.wall_ms)
            self.metrics.gauge_max("streaming_peak_decoded_bytes", int(peak))

    def execute(self, query: SSBQuery) -> dict[int, int]:
        """Run ``query`` morsel-parallel; returns the merged aggregates."""
        plan = self.plan(query)
        t0 = time.perf_counter()
        outcomes = self.run_morsels(plan, plan.morsels)
        exec_ms = (time.perf_counter() - t0) * 1e3
        merged = self.merge_parts(
            plan.plan_result,
            [(o.pipeline.agg_ops, o.result) for o in outcomes],
        )
        self._price_fused_kernel(query, plan.ppipe, [o.pipeline for o in outcomes])
        self.publish_stats(plan, outcomes, exec_ms)
        return merged

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="morsel"
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; a fresh one is created
        lazily if the executor is used again)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- merge + pricing ----------------------------------------------------

    @staticmethod
    def merge_parts(
        plan_result: dict[int, int],
        parts: list[tuple[list[str], dict[int, int]]],
    ) -> dict[int, int]:
        """Merge partials in morsel order with exact integer arithmetic.

        Each part is ``(agg_ops, result)`` — the aggregate merge ops a
        partial's pipeline recorded plus its result dict — so cached
        partials (which outlive their pipelines) merge through the same
        code path as fresh morsel outcomes.

        The plan pass's zero-row result seeds the merge: it is the
        aggregate's identity ({0: 0} for total sums, {} for grouped), so
        the empty-after-pushdown case falls out for free.  Sums combine
        as Python ints (arbitrary precision — no float re-rounding), so
        the result is independent of worker count and morsel count.
        """
        ops = {op for agg_ops, _ in parts for op in agg_ops}
        if not ops:
            return dict(plan_result)
        if len(ops) > 1:
            raise RuntimeError(f"cannot merge mixed aggregate ops {sorted(ops)}")
        op = ops.pop()
        merged = {int(k): int(v) for k, v in plan_result.items()}
        for _, result in parts:
            for code, val in result.items():
                code, val = int(code), int(val)
                if op == "sum":
                    merged[code] = merged.get(code, 0) + val
                elif op == "min":
                    merged[code] = min(merged.get(code, val), val)
                else:  # max
                    merged[code] = max(merged.get(code, val), val)
        return merged

    def _price_fused_kernel(
        self,
        query: SSBQuery,
        ppipe: _PlanPipeline,
        pipelines: list[_MorselPipeline],
    ) -> None:
        """Price the one fused fact kernel from the merged accounting.

        Resource footprint (registers, shared memory per block) comes
        from the plan pipeline — it is row-count independent, so every
        morsel cut prices the same kernel.  Traffic and compute sum the
        morsels' contributions; per-call gathers merge by call index
        (every morsel runs the same call sequence, so the lists align).
        """
        engine = self.engine
        read = ppipe._read_bytes + sum(p._read_bytes for p in pipelines)
        write = ppipe._write_bytes
        compute = ppipe._compute + sum(p._compute for p in pipelines)
        shared = ppipe._shared + sum(p._shared for p in pipelines)
        live = sum(p.live_count for p in pipelines)
        if pipelines and all(
            len(p._gathers) == len(pipelines[0]._gathers) for p in pipelines
        ):
            gathers = [
                (
                    sum(p._gathers[i][0] for p in pipelines),
                    pipelines[0]._gathers[i][1],
                    pipelines[0]._gathers[i][2],
                )
                for i in range(len(pipelines[0]._gathers))
            ]
        elif pipelines:  # defensive: divergent call sequences concatenate
            gathers = [g for p in pipelines for g in p._gathers]
        else:
            gathers = list(ppipe._gathers)
        regs = 14 + ppipe._extra_regs + ppipe._decode_regs
        # The fused kernel's grid covers only this executor's tile span:
        # a shard launches one block per *its* tiles, not the whole fact
        # table's, so shard wall-clock scales down with the shard.
        span_lo, span_hi = self._span()
        span_tiles = max(1, span_hi - span_lo)
        with engine.device.launch(
            f"fact-{ppipe.name}",
            grid_blocks=span_tiles,
            block_threads=BLOCK_THREADS,
            registers_per_thread=regs,
            shared_mem_per_block=ppipe._smem,
        ) as k:
            if read:
                k.traffic.read_bytes += read  # already transaction-aligned
            if write:
                k.write_linear(write)
            for count, eb, region in gathers:
                k.read_gather(count, eb, region)
            k.compute(compute + span_tiles * 600)
            k.shared(shared + live * 4)
