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
   probes and accumulates partial aggregates over just those rows.
   A load is a slice of a whole-column image when the engine holds one;
   otherwise it reads the compressed source by one of three routes, each
   one batched codec call over the chunk's live codec tiles:

   * dense rows, :meth:`TileStreamExecutor.decode_slice` — the tiles
     decoded, optionally fused with a filter;
   * runs, :meth:`TileStreamExecutor.run_slice` — taken by a dense load
     where fusion is allowed and the codec keeps runs (GPU-RFOR): the
     runs come back unexpanded as a
     :class:`~repro.engine.runs.RunColumn`, which the pipeline filters
     and probes once per run;
   * sparse rows, :meth:`TileStreamExecutor.gather_slice` — once few
     rows are live, just those rows read.

   Morsels are sized from the surviving tiles and the worker count (or
   cut at a pinned ``morsel_tiles``; a semantic-cache miss groups its
   fresh cache spans the same way, see
   :meth:`TileStreamExecutor.run_partials`).  The morsel picks where its
   loads land: a morsel narrower than the column decodes into its
   worker's :class:`~repro.formats.base.DecodeArena`, one buffer per
   dense load of the query; one covering the whole column decodes into
   fresh arrays, and a column it decoded whole into rows becomes the
   engine's image, reused until ``evict_decoded``.
3. Partials are merged **in deterministic morsel order** with exact
   integer arithmetic, so answers are bit-identical at any morsel count
   and worker count; one fused fact kernel is then priced from the plan
   pass and the merged accounting (:meth:`TileStreamExecutor._price_fused_kernel`,
   the only fused pricer).

Morsels are drained from one shared queue by the calling thread and
``workers - 1`` pool helpers.  A morsel costs a fixed part (plan and
lookup replay, per-column dispatch: about 1.25 ms on the SSB flights)
plus its rows, so the executor cuts as few as keep every worker busy:
one morsel per worker over the query's surviving tiles
(:meth:`TileStreamExecutor._partition`), at least
:data:`MIN_MORSEL_TILES` each.  At 1 worker q2.1 (SF 0.1, date-sorted)
took 198.5 ms as 145 eight-tile morsels and 19.5 ms as 4.  A morsel may
span a dead gap between clusters of surviving tiles: its dead rows cost
less than a second morsel's fixed part.

What a second worker can gain is bounded by the host more than by the
GIL.  On a 2-vCPU host, two threads each running half the calls against
one thread running all of them, a single call's speedup swung from 1.0x
to 2.0x between runs, even for GIL-free C code, with other load on the
host.  Keeping only trials in which a GIL-free, latency-bound C loop
first scaled at least 1.8x, ``np.repeat``, ``unpack_bits``, boolean
compaction and ``take`` reached a median of 1.6-1.9x, so RLE run
expansion and the bit-unpack gathers do release the GIL.  A GIL-free C
bit-unpack loop on L2-resident data scaled only 1.3x: for
throughput-bound code the two vCPUs act like SMT siblings, so about 1.3x
is the ceiling for decode-bound morsels on such a host.

A morsel's memory follows its live rows and its columns' real width,
which is what lets one morsel per worker fit.  Dense rows decode into
int32 where the column's zone-map bounds fit
(:meth:`CrystalEngine.decode_dtype`); a sparse load, and a probe under
a selection, come back as a :class:`~repro.engine.live.LiveColumn` at
the live rows rather than scattered into a buffer as wide as the
morsel; and an arena keeps one buffer per dense load of a query, not
one per column it ever read.

The calling thread drains morsels too, rather than idling on futures.
glibc gives each thread that allocates its own malloc arena and keeps
what that arena once held, so a pool thread's heap stays at the most it
ever held at once, while the caller reuses the main heap that plan
setup already grew.  A pool helper therefore empties its decode arena
when it starts a query: scratch kept from the last query would sit
under this query's transients.  On the ``scan-stream`` benchmark's
flights (2 workers, 2-vCPU host; glibc ``malloc_info``) the helper's
heap held 10.5 MB at three 8-byte morsels per worker; at one 4-byte
morsel per worker it held 13.9 MB with its scratch kept across queries
and 8.8 MB with the scratch emptied at each query's start.  (At two
morsels per worker with an idle caller and two pool threads, peak RSS
was 284 MB, against 206 MB with the caller draining.)  Only the
coordinator thread ever touches the simulated ``GPUDevice`` (it is not
thread-safe); morsels do pure array work.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import deque
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
from repro.engine.live import LiveColumn
from repro.engine.lookup import Lookup
from repro.engine.runs import RunColumn
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

__all__ = [
    "MIN_MORSEL_TILES",
    "MORSEL_ALIGN_TILES",
    "StreamPlan",
    "TileStreamExecutor",
]

#: Floor of a derived morsel's width in engine tiles (32768 rows): below
#: it the per-morsel fixed cost outweighs the parallelism gained.
MIN_MORSEL_TILES = 64
#: Derived morsel boundaries fall on multiples of this many engine tiles,
#: counted from tile 0: 8 tiles = 4096 rows, the largest codec tile
#: (GPU-SIMDBP128's block), so no codec tile is decoded by two morsels.
MORSEL_ALIGN_TILES = 8


def _merge_into(merged: dict[int, int], op: str, result: dict[int, int]) -> None:
    """Fold one partial ``result`` into ``merged`` by merge ``op``
    (``"sum"``, ``"min"`` or ``"max"``) with exact Python ints."""
    for code, val in result.items():
        code, val = int(code), int(val)
        if op == "sum":
            merged[code] = merged.get(code, 0) + val
        elif op == "min":
            merged[code] = min(merged.get(code, val), val)
        else:  # max
            merged[code] = max(merged.get(code, val), val)


def _fresh_buffer(key: str, elements: int, dtype=np.int64) -> np.ndarray:
    """:meth:`DecodeArena.scratch` for loads that keep no arena."""
    return np.empty(elements, dtype=dtype)


@dataclass(frozen=True)
class Morsel:
    """One contiguous chunk of the fact table's tile grid."""

    index: int
    tile_lo: int
    tile_hi: int
    row_lo: int
    row_hi: int
    #: The partial spans a wide morsel keeps one result each for, as
    #: ``(tile_lo, tile_hi)`` in order (:meth:`TileStreamExecutor.run_partials`);
    #: tiles outside them are masked inactive.  Empty: the morsel is
    #: itself one partial.
    spans: tuple[tuple[int, int], ...] = ()


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

    def _column_slice(self, name, col, predicate=None):
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
    results.  Every load goes through the executor: dense ones through
    :meth:`TileStreamExecutor.decode_slice` (which hands GPU-RFOR
    columns to :meth:`TileStreamExecutor.run_slice`), sparse ones
    through :meth:`TileStreamExecutor.gather_slice`.
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
        #: Morsel-relative ``(tile_lo, tile_hi)`` of each partial span.
        self._spans = [(lo - morsel.tile_lo, hi - morsel.tile_lo) for lo, hi in morsel.spans]
        if self._spans:
            inside = np.zeros_like(self.tile_active)
            for lo, hi in self._spans:
                inside[lo:hi] = True
            self.tile_active &= inside
        #: Surviving tiles of each partial span.
        self.span_tiles = [int(self.tile_active[lo:hi].sum()) for lo, hi in self._spans]
        #: Per aggregate call, its whole result and one result per span.
        self._calls: list[tuple[dict[int, int], list[dict[int, int]]]] = []
        if not self.tile_active.all():
            # Loads leave pruned tiles' rows unspecified, so those rows
            # start dead: sound, as no row of theirs can match.
            tiles = np.flatnonzero(self.tile_active)
            rows = (tiles[:, None] * TILE + np.arange(TILE)).reshape(-1)
            self._rows = rows[: np.searchsorted(rows, self.n)]
        #: Aggregate merge ops in call order ("sum", "min" or "max").
        self.agg_ops: list[str] = []
        # Dense loads so far: the next one decodes into arena slot
        # ``_dense_loads``.
        self._dense_loads = 0

    def _tile_read_bytes(self, name: str) -> np.ndarray:
        m = self._morsel
        return self.engine.tile_read_bytes(name)[m.tile_lo : m.tile_hi]

    def _column_slice(self, name, col, predicate=None):
        slot = self._dense_loads
        self._dense_loads += 1
        return self._executor.decode_slice(
            name, self._morsel, self.tile_active, col, predicate, slot
        )

    def _column_rows(self, name, col):
        return self._executor.gather_slice(name, self._morsel, self.rows, col)

    # -- aggregates: op recording (drives the deterministic merge) -------

    def _aggregate(self, how, num_groups, compute, *columns):
        self.agg_ops.append(how)
        if not self._spans:
            return super()._aggregate(how, num_groups, compute, *columns)
        # A wide morsel computes each span's partial on its slice of the
        # live rows (sorted, so each span's is contiguous), exactly as a
        # morsel of that one span would, and prices it the same way.
        cols = [self.live(c) for c in columns]
        edges = np.array([(lo * TILE, min(hi * TILE, self.n)) for lo, hi in self._spans])
        if self._rows is not None:
            edges = np.searchsorted(self._rows, edges)
        self._account_aggregate(num_groups, how, [int(b - a) for a, b in edges])
        parts = [compute(*(c[a:b] for c in cols)) for a, b in edges.tolist()]
        whole: dict[int, int] = {}
        for part in parts:
            _merge_into(whole, how, part)
        self._calls.append((whole, parts))
        return whole

    def span_results(self, result: dict[int, int]) -> list[dict[int, int]]:
        """One result per partial span, given the query's ``result``.

        A span's result is what a morsel of just that span returns: the
        union of its aggregate calls' span results in call order.  That
        holds only if the query returned the union of its calls' results;
        anything else (a result it derived further) cannot be split by
        span, so it raises rather than cache a guess.
        """
        union: dict[int, int] = {}
        for whole, _ in self._calls:
            union.update(whole)
        if result != union:
            raise RuntimeError(
                f"query {self.name} returned something other than its "
                f"aggregate results; its partials cannot be split by span"
            )
        out: list[dict[int, int]] = [{} for _ in self._spans]
        for _, parts in self._calls:
            for span_result, part in zip(out, parts):
                span_result.update(part)
        return out


@contextlib.contextmanager
def _morsel_guard(name: str, morsel: Morsel):
    """:func:`corruption_guard` naming the morsel span a fault hit.

    The coordinator (and the client) then see exactly which slice of
    which worker died, instead of an anonymous thread-pool failure.
    """
    try:
        with corruption_guard(name):
            yield
    except CorruptTileError as exc:
        raise CorruptTileError(
            exc.column,
            exc.tile_id,
            f"{exc.reason} [morsel {morsel.index}: engine tiles "
            f"{morsel.tile_lo}..{morsel.tile_hi}, rows "
            f"{morsel.row_lo}..{morsel.row_hi}]",
        ) from exc


@dataclass
class _MorselOutcome:
    """One morsel's partial result plus its pipeline (for accounting)."""

    result: dict[int, int]
    pipeline: _MorselPipeline
    wall_ms: float

    def per_span(self) -> list["_MorselOutcome"]:
        """One outcome per partial span of a wide morsel, in span order:
        the span's own result and a share of ``wall_ms`` by its surviving
        tiles (the span's reconstruction cost in the semantic cache)."""
        pipe = self.pipeline
        total = sum(pipe.span_tiles)
        return [
            _MorselOutcome(result, pipe, self.wall_ms * tiles / total)
            for result, tiles in zip(pipe.span_results(self.result), pipe.span_tiles)
        ]


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
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if morsel_tiles is not None and morsel_tiles < 1:
            raise ValueError(f"morsel_tiles must be >= 1, got {morsel_tiles}")
        self.engine = engine
        self.workers = workers
        #: Pinned engine tiles per morsel, or ``None`` to derive the width
        #: per query from the surviving tiles (see :meth:`_partition`).
        self.morsel_tiles = morsel_tiles
        self.metrics = metrics
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
        """Bytes held across every worker's arena.

        After a query this is its decoded-intermediate footprint: a pool
        thread's arena holds the buffers of the last query it ran, and
        the calling thread's only grows between :meth:`trim_arenas`
        calls."""
        with self._arena_lock:
            return sum(a.resident_bytes for a in self._arenas)

    def trim_arenas(self, max_bytes: int = 0) -> int:
        """Release worker arena scratch down to ``max_bytes`` total.

        Arena buffers grow to the largest chunk a query decoded and are
        held until a pool thread's next query, or for good by the calling
        thread; serving layers call this between query bursts to return
        the memory.  The budget is split evenly across workers (each
        arena trims to its share, largest buffers first).
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

    def _load_source(self, name: str, morsel: Morsel, col):
        """``(slice, None)`` when a whole-column image serves a morsel's
        load (:meth:`CrystalEngine.decoded_image`), else ``(None, codec)``
        once the engine's ``fault_hook`` has seen the column: every load
        from the compressed source announces it."""
        image = self.engine.decoded_image(name, col)
        if image is not None:
            return image[morsel.row_lo : morsel.row_hi], None
        if self.engine.fault_hook is not None:
            self.engine.fault_hook(name)
        codec = get_codec(col.codec_name)
        assert isinstance(codec, TileCodec)
        return None, codec

    def decode_slice(
        self,
        name: str,
        morsel: Morsel,
        tile_active: np.ndarray,
        col,
        predicate=None,
        slot: int = 0,
    ):
        """Load one column's chunk for a morsel: the dense load route.

        Returns a view of exactly the morsel's rows.  A whole-column image
        (an uncompressed column's values, a pinned image or a cached
        decode) is sliced.  Otherwise the codec tiles overlapping
        ``[row_lo, row_hi)`` are decoded with one batched codec call, in
        the dtype :meth:`CrystalEngine.decode_dtype` picks.  A morsel
        narrower than the column decodes into its worker's arena buffer
        ``slot``: the morsel's ``slot``-th dense load, so an arena holds
        as many buffers as one query loads columns densely, not one for
        every column it ever read.  A morsel covering the whole column
        decodes into fresh arrays instead (arena slots that size, pinned
        by the coordinator, raised the ``scan-cold`` benchmark's peak
        RSS), and keeps a decode with every codec tile live as the
        column's image, reused until :meth:`CrystalEngine.evict_decoded`.
        Codec tiles whose engine tiles were all pruned stay zero-filled
        (their rows are dead in the morsel's selection by construction).

        With a ``predicate``, the filter is fused into the decode via the
        codec's ``decode_filter_tiles_into`` and the return value becomes
        ``(values, rowmask)`` views — or ``(values, None)`` when fusion
        does not apply (an image was sliced, or a checksummed column under
        active verification), in which case the caller evaluates the
        predicate itself.

        Where fusion is allowed and the codec keeps runs, the chunk loads
        through :meth:`run_slice` instead and comes back as a
        :class:`~repro.engine.runs.RunColumn` (with a ``predicate``, as
        ``(runs, None)``: the caller tests the predicate once per run).

        ``col`` is the caller's :class:`StoredColumn` snapshot, so one
        object serves both the inline check and the decode: a column that
        is no longer tile-encoded (a racing tier swap published an
        uncompressed or cold image) is sliced like any image —
        bit-identical by the swap's contract, never a torn decode.
        """
        want_mask = predicate is not None
        vals, codec = self._load_source(name, morsel, col)
        if codec is None:
            return (vals, None) if want_mask else vals
        enc = col.payload
        fusable = self.engine.fusion_allowed(enc)
        if not fusable:
            predicate = None
        elems = codec.tile_elements(enc)
        r0, r1 = morsel.row_lo, morsel.row_hi
        c0 = r0 // elems
        c1 = min(-(-r1 // elems), codec.num_tiles(enc))
        whole = r0 == 0 and r1 == enc.count
        scratch = _fresh_buffer if whole else self._arena().scratch
        cap = (c1 - c0) * elems
        view = scratch(f"rows/{slot}", cap, self.engine.decode_dtype(name))[:cap]
        active = codec_tile_activity(tile_active, elems, c0, c1, morsel.tile_lo)
        if fusable and codec.stores_runs:
            runs = self.run_slice(name, morsel, codec, enc, c0 + np.flatnonzero(active), view)
            if runs is not None:
                if not want_mask:
                    return runs
                self.engine.count_fused_kernel(runs.covered)
                return runs, None
        mview = None
        if predicate is not None:
            mview = scratch(f"mask/{slot}", cap, np.bool_)[:cap]
        with _morsel_guard(name, morsel):
            fused_rows = decode_active_tiles(
                codec, enc, active, c0, view, mview, predicate, scratch
            )
        off = r0 - c0 * elems
        vals = view[off : off + (r1 - r0)]
        if mview is not None:
            self.engine.count_fused_kernel(fused_rows)
            return vals, mview[off : off + (r1 - r0)]
        if whole and active.all():
            vals = self.engine.cache_image(name, col, vals)
        return (vals, None) if want_mask else vals

    def run_slice(
        self,
        name: str,
        morsel: Morsel,
        codec: TileCodec,
        enc,
        tiles: np.ndarray,
        out: np.ndarray,
    ) -> RunColumn | None:
        """Load one column's chunk for a morsel as runs: the run load route.

        :meth:`decode_slice` takes it for a column read from its
        compressed source where fused decode is allowed.  One
        :meth:`TileCodec.decode_runs_into` call over the chunk's live
        codec ``tiles`` fills ``out`` (the buffer the chunk's rows would
        fill) with their runs, which come back as a
        :class:`~repro.engine.runs.RunColumn` over the morsel's rows,
        clipped to them; rows of pruned tiles are covered by no run.
        Returns ``None`` when the codec offers no runs, and the caller
        decodes rows instead.
        """
        with _morsel_guard(name, morsel):
            runs = codec.decode_runs_into(enc, tiles, out)
        if runs is None:
            return None
        values, lengths, starts = runs
        r0, n = morsel.row_lo, morsel.row_hi - morsel.row_lo
        starts -= r0
        elems = codec.tile_elements(enc)
        last = min((int(tiles[-1]) + 1) * elems, enc.count) if tiles.size else 0
        if tiles.size and (tiles[0] * elems < r0 or last > r0 + n):
            # Codec tiles overhang the morsel: clip the runs to its rows.
            ends = np.minimum(starts + lengths, n)
            np.maximum(starts, 0, out=starts)
            np.subtract(ends, starts, out=lengths)
            keep = lengths > 0
            values, lengths, starts = values[keep], lengths[keep], starts[keep]
        return RunColumn(values, lengths, starts, n)

    def gather_slice(
        self, name: str, morsel: Morsel, rows: np.ndarray, col
    ):
        """Read a morsel's live ``rows`` of one column: the sparse load route.

        A whole-column image is sliced, as :meth:`decode_slice` would;
        otherwise one :meth:`TileCodec.gather_rows` call reads just the
        rows (morsel-relative, the pipeline's selection), which come back
        as a :class:`~repro.engine.live.LiveColumn` at those rows, so the
        load holds no buffer as wide as the morsel.  ``col`` is the
        caller's :class:`StoredColumn` snapshot.
        """
        vals, codec = self._load_source(name, morsel, col)
        if codec is None:
            return vals
        with _morsel_guard(name, morsel):
            values = codec.gather_rows(col.payload, rows + morsel.row_lo)
        return LiveColumn(values, rows, morsel.row_hi - morsel.row_lo)

    # -- orchestration ------------------------------------------------------

    def _partition(
        self, tile_active: np.ndarray, morsel_tiles: int | None = None
    ) -> list[Morsel]:
        """Cut the span's surviving tiles into contiguous morsels.

        With a width (``morsel_tiles``, else the executor's pinned one)
        the grid is fixed from the span start and fully-pruned windows are
        skipped wholesale (the streaming counterpart of tile skipping).
        The semantic cache plans on such a grid, but only to key its
        partials: it runs a miss's fresh grid windows through
        :meth:`run_partials`, which groups them by the rule below
        (:meth:`_cover`).  Otherwise there is one morsel per worker: each
        takes ``ceil(surviving / workers)`` of the surviving tiles, at
        least :data:`MIN_MORSEL_TILES` of them (the last takes what is
        left), and ends after its last one on the next multiple of
        :data:`MORSEL_ALIGN_TILES`.
        """
        span_lo, span_hi = self.engine.tile_span
        width = morsel_tiles if morsel_tiles is not None else self.morsel_tiles
        if width is not None:
            grid = [(lo, min(lo + width, span_hi)) for lo in range(span_lo, span_hi, width)]
            return self._morsels([(lo, hi) for lo, hi in grid if tile_active[lo:hi].any()])
        live = np.flatnonzero(tile_active[span_lo:span_hi]) + span_lo
        n = live.size
        take = max(MIN_MORSEL_TILES, -(-n // self.workers))
        align = MORSEL_ALIGN_TILES
        spans = []
        i = 0
        while i < n:
            lo = max(span_lo, int(live[i]) // align * align)
            hi = min(span_hi, (int(live[min(i + take, n) - 1]) // align + 1) * align)
            spans.append((lo, hi))
            i = int(np.searchsorted(live, hi))
        return self._morsels(spans)

    def _cover(self, tile_active: np.ndarray, spans: list[Morsel]) -> list[Morsel]:
        """Cut partial ``spans`` (in tile order) into wide morsels.

        :meth:`_partition`'s rule, on span boundaries: each morsel takes
        whole spans until it holds ``ceil(surviving / workers)`` of their
        surviving tiles, at least :data:`MIN_MORSEL_TILES`, so there are
        at most ``workers`` of them.  A morsel's tile range runs from its
        first span to its last; the spans it skips are masked inactive.
        """
        tiles = [int(np.count_nonzero(tile_active[m.tile_lo : m.tile_hi])) for m in spans]
        take = max(MIN_MORSEL_TILES, -(-sum(tiles) // self.workers))
        groups: list[list[tuple[int, int]]] = []
        held = take
        for m, count in zip(spans, tiles):
            if held >= take:
                groups.append([])
                held = 0
            groups[-1].append((m.tile_lo, m.tile_hi))
            held += count
        return self._morsels([(g[0][0], g[-1][1]) for g in groups], [tuple(g) for g in groups])

    def _morsels(
        self,
        ranges: list[tuple[int, int]],
        spans: list[tuple[tuple[int, int], ...]] | None = None,
    ) -> list[Morsel]:
        num_rows = self.engine.num_rows
        return [
            Morsel(
                index=i,
                tile_lo=lo,
                tile_hi=hi,
                row_lo=lo * TILE,
                row_hi=min(hi * TILE, num_rows),
                spans=spans[i] if spans is not None else (),
            )
            for i, (lo, hi) in enumerate(ranges)
        ]

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

    def run_partials(
        self, plan: StreamPlan, spans: list[Morsel]
    ) -> tuple[list[_MorselOutcome], list[_MorselOutcome]]:
        """Compute one partial per span: some of ``plan.morsels``, in order.

        Returns ``(morsels, partials)``: the outcomes of the morsels that
        ran (for pricing and stats) and one outcome per span, aligned
        with ``spans``.  With a pinned ``morsel_tiles`` every span runs
        as its own morsel.  Otherwise the spans run as at most
        ``workers`` wide morsels (:meth:`_cover`), each of which records
        every aggregate call per span; pricing then adds up to what
        one-span morsels record, so the fused kernel prices the same.
        """
        if self.morsel_tiles is not None:
            outcomes = self.run_morsels(plan, spans)
            return outcomes, outcomes
        outcomes = self.run_morsels(plan, self._cover(plan.tile_active, spans))
        return outcomes, [part for o in outcomes for part in o.per_span()]

    def plan(self, query: SSBQuery, morsel_tiles: int | None = None) -> StreamPlan:
        """Run the zero-row plan pass and derive the semantic identity.

        ``morsel_tiles`` pins this plan's morsel grid (the semantic cache
        keys partials on a fixed grid); ``None`` keeps the executor's.
        """
        engine = self.engine
        plan = _PlanEngine(engine)
        plan_result = query.fn(plan)
        ppipe = plan.pipeline_obj
        if ppipe is None or not ppipe._finished:
            raise RuntimeError(
                f"query {query.name} did not run a FactPipeline plan; "
                f"streaming needs a pipeline-based query function"
            )
        # Restrict to the engine's tile span without mutating the global
        # pushdown result (the plan pipeline's accounting keeps it).
        span = engine.tile_span
        active = ppipe.global_tile_active.copy()
        active[: span[0]] = False
        active[span[1] :] = False
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
        # The span is part of what the plan computes: partials of
        # different shards must never alias in a shared semantic cache.
        base_key = (
            plan_base, tuple(plan.fingerprints), tuple(ppipe.trace), ("span",) + span
        )
        pred = And(tuple(ppipe.pred_conjuncts))
        return StreamPlan(
            query=query,
            engine_plan=plan,
            ppipe=ppipe,
            plan_result=plan_result,
            tile_active=self.tile_active,
            morsels=self._partition(self.tile_active, morsel_tiles),
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

        The calling thread and up to ``workers - 1`` pool helpers pull
        morsels from one shared queue until it is empty, so a short last
        morsel never leaves a worker idle.  Every morsel runs even when
        one fails, so none is still using the shared arenas when the
        error surfaces; the error raised is the first in morsel order
        (the subset keeps the original morsel indices), not whichever
        thread lost the race.
        """
        query, engine_plan = plan.query, plan.engine_plan
        outcomes: list[_MorselOutcome] = [None] * len(morsels)  # type: ignore[list-item]
        errors: list[tuple[int, Exception]] = []
        pending = deque(range(len(morsels)))

        def drain(helper: bool = False) -> None:
            arena = getattr(self._tls, "arena", None)
            if helper and arena is not None:
                # A pool thread's malloc heap keeps its high-water mark, so
                # scratch it kept from the last query would sit under this
                # query's transients; it starts each query empty instead.
                arena.clear()
            while True:
                try:
                    i = pending.popleft()
                except IndexError:
                    return
                try:
                    outcomes[i] = self._run_morsel(query, engine_plan, morsels[i])
                except Exception as exc:
                    errors.append((morsels[i].index, exc))

        helpers = min(self.workers, len(morsels)) - 1
        futures = [self._ensure_pool().submit(drain, True) for _ in range(helpers)]
        drain()
        for fut in futures:
            # The queue is empty: a helper still waiting behind another
            # query's morsels has nothing left to run.
            if not fut.cancel():
                fut.result()
        if errors:
            if self.metrics is not None:
                self.metrics.inc("streaming_morsel_failures", len(errors))
            raise min(errors, key=lambda pair: pair[0])[1]
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
        span_lo, span_hi = engine.tile_span
        self.last_stats = {
            "query": plan.query.name,
            "workers": self.workers,
            # The widest morsel run and the widest partial merged: the
            # same width unless the semantic cache ran wide morsels.
            "morsel_tiles": max(
                (o.pipeline._morsel.tile_hi - o.pipeline._morsel.tile_lo for o in outcomes),
                default=0,
            ),
            "partial_tiles": max((m.tile_hi - m.tile_lo for m in plan.morsels), default=0),
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
            # The calling thread drains morsels too (see run_morsels).
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers - 1, thread_name_prefix="morsel"
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
            _merge_into(merged, op, result)
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
        # The fused kernel's grid covers only the engine's tile span: a
        # shard launches one block per *its* tiles, not the whole fact
        # table's, so a shard's simulated time scales down with the shard.
        span_lo, span_hi = engine.tile_span
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
