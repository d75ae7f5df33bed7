"""Crystal-style tile-based query engine with inline decompression.

The engine executes each SSB query the way Crystal does (Section 7):
dimension tables are turned into dense join lookups by small build
kernels, then **one fused fact kernel** sweeps ``lineorder`` in tiles of
512 rows (D=4 blocks of 128).  Under GPU-* compression the fact kernel's
column loads are ``LoadBitPack``/``LoadDBitPack``/``LoadRBitPack`` device
functions — the tile is decoded in shared memory inline with execution,
so compressed columns cost their compressed bytes plus decode compute,
never an extra global-memory round trip.

Three execution styles cover the paper's six systems:

* ``fused`` + inline decode — GPU-* (and ``None`` without decode);
* ``fused`` after a decompress-to-global prologue — nvCOMP, Planner and
  GPU-BP, which cannot pipeline decompression into the query (Section 9.4);
* ``staged`` — the OmniSci model: one kernel per operator with row-wise
  column access and a materialized selection bitmap between operators.

Every fused query is driven by one executor,
:class:`~repro.engine.streaming.TileStreamExecutor`: a plan pass, then
morsels over the surviving tiles of the engine's ``tile_span`` (the
whole grid unless the engine serves one tile-range shard), then one
priced fact kernel.  Without ``streaming`` one worker, the
coordinator thread, runs them.  Every morsel's column load takes the
executor's one load route: a whole-column image if the engine holds one
(:meth:`CrystalEngine.decoded_image`), else a batched decode of the live
tiles (``decode_slice``) or, once few rows are live, a row read
(``gather_slice``).  Only staged plans call the query function against
the engine itself.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.nvcomp import decompress_nvcomp
from repro.core.planner import decompress_planned
from repro.core.tile_decompress import decompress
from repro.formats.base import (
    EncodedColumn,
    TileCodec,
    corruption_guard,
    crc32_values,
    exact_tile_bounds,
    verify_mode,
)
from repro.formats.registry import get_codec
from repro.gpusim.executor import GPUDevice
from repro.gpusim.memory import linear_bytes
from repro.engine.lookup import MISS, Lookup, make_lookup
from repro.engine.runs import RunColumn
from repro.engine.predicates import (
    And,
    ColumnPredicate,
    canonical_key,
    column_predicates,
)
from repro.ssb.dbgen import SSBDatabase
from repro.ssb.loader import ColumnStore, StoredColumn

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serving -> engine)
    from repro.core.updates import UpdatableColumn
    from repro.serving.pool import ColumnPool

#: Rows one thread block processes (D=4 blocks of 128).
TILE = 512
#: Thread-block size used by every query kernel.
BLOCK_THREADS = 128
#: Values each thread keeps live per loaded column (the paper's D).
D_PER_THREAD = TILE // BLOCK_THREADS

#: Fraction of peak bandwidth the OmniSci-style engine achieves: its
#: row-at-a-time JIT kernels neither tile nor coalesce column access the
#: way Crystal does (both this paper and Shanbhag et al. 2020 report the
#: resulting order-of-magnitude query gap).
OMNISCI_EFFICIENCY = 0.24
#: Extra per-row interpretation ops per OmniSci operator.
OMNISCI_OP_OVERHEAD = 24

#: Systems whose columns must be decompressed to global memory before the
#: query kernel can read them.
DECOMPRESS_FIRST_SYSTEMS = ("nvcomp", "planner", "gpu-bp")

#: Share of a pipeline's span rows below which an inline column load reads
#: only the live rows (:meth:`TileCodec.gather_rows`) instead of decoding
#: every active tile.  After a flight's first loads on unsorted data only
#: 0-4% of rows are live while 60-100% of tiles stay active.  Measured on a
#: 2-vCPU host, one 592k-row GPU-FOR column at random selectivity: the
#: gather took 0.16 ms at 1% live, 0.58 ms at 4%, 1.6 ms at 10% and 3.9 ms
#: at 20%, against 2.2-2.4 ms for a whole-column decode, so it breaks even
#: near 12-15%.  Codecs without a row-level gather decode the tiles their
#: live rows fall in, which is never more than the active tiles.
SPARSE_GATHER_FRACTION = 1 / 8

#: Group sums stay exact through a float64 ``bincount`` while every
#: partial sum is below this magnitude.
_EXACT_FLOAT = 2**53


def group_sums(codes: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """``sum(weights)`` by ``codes`` over ``size`` groups, exact for int64.

    A float64 ``bincount`` is exact only while ``max|w| * rows < 2**53``;
    past that the sums accumulate as int64, or as Python ints where even
    int64 could overflow.
    """
    weights = np.asarray(weights)
    bound = _magnitude(weights)
    if bound * weights.size < _EXACT_FLOAT:
        return np.bincount(codes, weights=weights, minlength=size)
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    dtype = np.int64 if bound * weights.size < 2**63 else object
    sums = np.zeros(size, dtype=dtype)
    sums[ordered[starts]] = np.add.reduceat(weights[order].astype(dtype), starts)
    return sums


def exact_sum(a: np.ndarray, b: np.ndarray | None = None) -> int:
    """``sum(a)``, or ``sum(a * b)``, of int64 arrays, exact.

    Accumulates in int64 while ``bound * rows < 2**63`` (``bound`` is the
    largest magnitude of a term) and in Python ints past that, the rule
    :func:`group_sums` uses.
    """
    bound = _magnitude(a) * (1 if b is None else _magnitude(b))
    if bound * a.size >= 2**63:
        a = a.astype(object)
        b = None if b is None else b.astype(object)
    return int((a if b is None else a * b).sum())


def _magnitude(values: np.ndarray) -> int:
    """The largest ``|value|``, as a Python int (0 when empty)."""
    return max(int(values.max()), -int(values.min())) if values.size else 0


def _total_of(a: np.ndarray, b: np.ndarray | None = None) -> dict[int, int]:
    """:meth:`FactPipeline.total_sum` (or ``total_sum_product``) of
    live-row values."""
    a = a.astype(np.int64, copy=False)
    return {0: exact_sum(a, None if b is None else b.astype(np.int64, copy=False))}


def _group_sums_of(codes: np.ndarray, weights: np.ndarray, num_groups: int) -> dict[int, int]:
    """:meth:`FactPipeline.group_sum` of live-row ``codes`` and ``weights``:
    the nonzero sums by group code."""
    if codes.size == 0:
        return {}
    codes = codes.astype(np.int64, copy=False)
    if codes.min() < 0 or codes.max() >= num_groups:
        raise ValueError("group codes out of range")
    keys = None
    if codes.size * 32 < num_groups:
        # Few live rows over a large group domain (a morsel's rows
        # against q4.3's 1.75M groups): sum over the codes present
        # instead of a dense num_groups array.
        keys, codes = np.unique(codes, return_inverse=True)
    sums = group_sums(codes, weights, num_groups if keys is None else keys.size)
    nz = np.flatnonzero(sums)
    codes_out = nz if keys is None else keys[nz]
    return {int(c): int(s) for c, s in zip(codes_out.tolist(), sums[nz].tolist())}


def _group_extremes_of(
    codes: np.ndarray, values: np.ndarray, num_groups: int, how: str
) -> dict[int, int]:
    """``min`` or ``max`` of live-row ``values`` by group code."""
    if codes.size == 0:
        return {}
    codes = codes.astype(np.int64, copy=False)
    if codes.min() < 0 or codes.max() >= num_groups:
        raise ValueError("group codes out of range")
    vals = values.astype(np.int64, copy=False)
    sentinel = np.iinfo(np.int64).max if how == "min" else np.iinfo(np.int64).min
    out = np.full(num_groups, sentinel, dtype=np.int64)
    op = np.minimum if how == "min" else np.maximum
    op.at(out, codes, vals)
    touched = np.zeros(num_groups, dtype=bool)
    touched[codes] = True
    return {int(c): int(out[c]) for c in np.flatnonzero(touched)}


def codec_tile_activity(
    tile_active: np.ndarray, elems: int, c0: int, c1: int, tile_lo: int = 0
) -> np.ndarray:
    """Which codec tiles ``[c0, c1)`` of ``elems`` rows overlap a live engine tile.

    ``tile_active[i]`` is engine tile ``tile_lo + i``; the codec window
    must not start after it (``c0 * elems <= tile_lo * TILE``).  A codec
    tile spanning several engine tiles is live if any of them is.
    """
    if TILE % elems and elems % TILE:
        raise ValueError(
            f"codec tile of {elems} rows does not divide the engine tile of {TILE}"
        )
    unit = min(elems, TILE)  # the finer grid: both tile sizes are multiples
    per_codec = elems // unit
    units = np.zeros((c1 - c0) * per_codec, dtype=bool)
    off = (tile_lo * TILE - c0 * elems) // unit
    fine = np.repeat(tile_active, TILE // unit)[: units.size - off]
    units[off : off + fine.size] = fine
    return units.reshape(c1 - c0, per_codec).any(axis=1)


def decode_active_tiles(
    codec: TileCodec, enc, active, c0, out, mask, predicate, scratch
) -> int:
    """Decode codec tiles ``c0 + flatnonzero(active)`` with one codec call.

    Tile ``c0 + i`` lands at ``out[i * elems:]``; inactive tiles' rows are
    zero (``False`` in ``mask``).  With a ``predicate`` the decode is the
    codec's fused ``decode_filter_tiles_into`` and ``mask`` receives its
    row mask.  A fragmented batch is decoded into ``scratch(key, n, dtype)``
    buffers of ``out``'s dtype and placed in one vectorized step; only the
    column's last tile may be short.  Returns the values decoded.
    """
    elems, n = codec.tile_elements(enc), active.size
    if active.all():
        if predicate is None:
            return codec.decode_range_into(enc, c0, c0 + n, out)
        return codec.decode_filter_tiles_into(
            enc, np.arange(c0, c0 + n), predicate, out, mask
        )
    idx = np.flatnonzero(active)
    tiles, cap = idx + c0, idx.size * elems
    batch = scratch(f"batch/{out.dtype}", cap, out.dtype)
    placed = [(out, batch, 0)]
    written = 0
    if predicate is not None:
        mbatch = scratch("batch-mask", cap, np.bool_)
        placed.append((mask, mbatch, False))
        if idx.size:
            written = codec.decode_filter_tiles_into(enc, tiles, predicate, batch, mbatch)
    elif idx.size:
        written = codec.decode_tiles_into(enc, tiles, batch)
    full, tail = divmod(written, elems)
    for dst, src, fill in placed:
        grid = dst[: n * elems].reshape(n, elems)
        grid[~active] = fill
        grid[idx[:full]] = src[: full * elems].reshape(full, elems)
        if tail:  # the column's short last tile
            start = idx[full] * elems
            dst[start : start + tail] = src[full * elems : written]
    return written


@dataclass
class QueryResult:
    """Outcome of one SSB query on one system."""

    name: str
    system: str
    simulated_ms: float
    kernel_count: int
    #: Aggregate output: {group_code: value} or a single scalar under "".
    groups: dict[int, int]
    #: Fixed launch overhead included in ``simulated_ms``.
    launch_overhead_ms: float = 0.0

    @property
    def total(self) -> int:
        """Sum of all aggregate values (handy for cross-system checks)."""
        return int(sum(self.groups.values()))

    def scaled_ms(self, scale: float) -> float:
        """Project to a ``scale``x larger fact table (launch overhead is
        size-independent, everything else is linear in the row count)."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        return (self.simulated_ms - self.launch_overhead_ms) * scale + self.launch_overhead_ms


class CrystalEngine:
    """Executes SSB queries over one system's column store."""

    def __init__(
        self,
        db: SSBDatabase,
        store: ColumnStore,
        device: GPUDevice | None = None,
        pool: "ColumnPool | None" = None,
        pushdown: bool = True,
        streaming: bool = False,
        stream_workers: int = 4,
        morsel_tiles: int | None = None,
        tile_span: tuple[int, int] | None = None,
    ):
        self.db = db
        self.store = store
        self.device = device if device is not None else GPUDevice()
        #: When set, decoded images and tile metadata live as evictable
        #: residents of the serving layer's ColumnPool instead of the
        #: unbounded per-engine dicts — device capacity is then enforced.
        self.pool = pool
        #: Whether a query's pushdown may skip tiles from codec bounds;
        #: off, queries run the unpruned plan.
        self.pushdown = pushdown
        if stream_workers < 1:
            raise ValueError(f"stream_workers must be >= 1, got {stream_workers}")
        if morsel_tiles is not None and morsel_tiles < 1:
            raise ValueError(f"morsel_tiles must be >= 1, got {morsel_tiles}")
        #: Worker threads the executor runs morsels on: ``stream_workers``
        #: with ``streaming``, else 1.  The morsel, not a mode, picks where
        #: a load lands: one covering the whole column decodes into fresh
        #: arrays and keeps a decode with every tile live as the column's
        #: image; a narrower one decodes into its worker's arena.  Answers
        #: and simulated time are bit-identical at any worker count; only
        #: peak memory and wall clock differ.  Staged plans ignore it.
        self.stream_workers = stream_workers if streaming else 1
        #: Engine tiles per streaming morsel; pins the semantic cache's
        #: partial grid too.  ``None`` derives the width per query.
        self.morsel_tiles = morsel_tiles
        #: Optional serving MetricsRegistry receiving per-morsel timings
        #: and the peak decoded-bytes gauge (set by the QueryServer).
        self.metrics = None
        #: Optional semantic result cache (see ``serving.semcache``).
        #: When set, streaming queries probe it for reusable per-tile
        #: partial aggregates before running morsels, and
        #: :meth:`invalidate_column` bumps its per-column epochs so a
        #: flush can never merge stale partials.
        self.semcache = None
        #: Optional fault-injection hook, called with the column name
        #: before every source decode; used by the robustness tests to
        #: simulate transient decode failures (see serving.faults).
        self.fault_hook = None
        #: When True, every cached decoded image served from the pool or
        #: the engine cache is re-verified against the encoded column's
        #: whole-column CRC; on mismatch the stale image is dropped and
        #: the column re-decoded from its compressed source.
        self.verify_cached = False
        #: Stats dict of the most recent streaming run (see
        #: ``TileStreamExecutor.last_stats``); empty before any.
        self.last_stream_stats: dict = {}
        # Reused across queries so worker threads and per-worker decode
        # arenas persist: steady-state streaming allocates nothing.
        self._stream_executor = None
        self.num_rows = db.num_lineorder_rows
        self.num_tiles = -(-self.num_rows // TILE)
        lo, hi = tile_span if tile_span is not None else (0, self.num_tiles)
        if not (0 <= lo <= hi <= self.num_tiles):
            raise ValueError(f"tile_span {tile_span} outside [0, {self.num_tiles}]")
        #: Engine-tile range ``[lo, hi)`` fused queries run over (the
        #: whole fact table by default).  A tile-range shard's engine gets
        #: its shard's span: plans skip tiles outside it and the fused
        #: kernel is priced over the span only, so per-shard work shrinks
        #: with the shard.
        self.tile_span = (int(lo), int(hi))
        # Cached derivatives by pool key when no pool is attached (see
        # _cache_get).  Morsel workers read it concurrently; the lock
        # makes the fill-on-miss and drop paths safe.
        self._cache: dict[str, object] = {}
        self._cache_lock = threading.Lock()
        # decode_dtype's verdicts by column, dropped with the bounds.
        self._decode_dtypes: dict[str, np.dtype] = {}
        self._staged = store.system == "omnisci"
        self._last_timeline: list[dict] = []

    # -- column storage helpers --------------------------------------------

    def column_inline(self, name: str) -> bool:
        """Whether this column decodes inline in the fact kernel."""
        return self.inline_column(self.store[name])

    def inline_column(self, col: StoredColumn) -> bool:
        """Object form of :meth:`column_inline`.

        Readers racing an atomic tier swap must branch on the one
        :class:`StoredColumn` snapshot they already fetched — re-fetching
        by name could observe the *other* side of the swap and pair an
        inline-ness verdict with the wrong payload.
        """
        return self.store.system == "gpu-star" and col.codec_name != ""

    def pinned_decoded(self, name: str) -> np.ndarray | None:
        """A hot column's pinned decoded image, if one is pool-resident.

        The tiering manager pins decoded images of the hottest columns;
        pricing paths treat such a column like uncompressed storage (the
        fact kernel reads 4-byte rows, no inline decode), and value paths
        serve slices of the image.  Only tier invalidation removes a
        pinned resident, never eviction — so the pricing and value views
        cannot diverge.
        """
        if self.pool is None:
            return None
        resident = self.pool.lookup(f"decoded/{name}")
        if resident is not None and resident.pin_count > 0:
            return resident.payload
        return None

    def column_values(self, name: str) -> np.ndarray:
        """The decoded values a fact-kernel column load produces.

        Inline-compressed columns really are decoded from their encoded
        payload — through the batched ``decode_range`` over the whole
        tile grid, mirroring the one-thread-block-per-tile kernel — so
        every query exercises the codec's decode path end to end.  The
        result is cached: within one engine the column's decoded image is
        reused across queries, like a device-resident decode buffer.
        """
        col = self.store[name]
        image = self.decoded_image(name, col)
        if image is not None:
            return image
        if self.fault_hook is not None:
            self.fault_hook(name)
        codec = get_codec(col.codec_name)
        assert isinstance(codec, TileCodec)
        with corruption_guard(name):
            values = codec.decode_range(col.payload, 0, codec.num_tiles(col.payload))
        return self.cache_image(name, col, values)

    def decoded_image(self, name: str, col: StoredColumn) -> np.ndarray | None:
        """The whole-column image a load of ``col`` reads instead of decoding.

        A column that is not inline-compressed is its own image.  An
        inline one has an image when the tiering manager pinned one or a
        whole-column decode was cached (:meth:`column_values`, or a
        morsel covering the whole column that found every tile live).
        Under :attr:`verify_cached` a cached image is first checked against
        the column's CRC; a stale one is dropped and ``None`` returned, so
        the caller decodes from the compressed payload.
        """
        if not self.inline_column(col):
            return col.values
        key = f"decoded/{name}"
        image = self._cache_get(key)
        if image is None or self._cached_image_ok(col, image):
            return image
        self._cache_drop(key)
        return None

    def cache_image(self, name: str, col: StoredColumn, values: np.ndarray) -> np.ndarray:
        """Keep ``values``, the whole decoded ``col``, for later loads."""
        cost_ms = 0.0
        if self.pool is not None:
            from repro.serving.pool import estimate_decode_cost_ms

            cost_ms = estimate_decode_cost_ms(col.payload, self.device)
        return self._cache_put(f"decoded/{name}", values, "decoded", cost_ms)

    def _cached_image_ok(self, col, values: np.ndarray) -> bool:
        """Whether a cached decoded image still matches its source CRC.

        Only consulted when :attr:`verify_cached` is on and the encoded
        payload carries a ``column_crc``; a mismatch (silent in-memory
        corruption of the decoded image) triggers re-decode from source.
        """
        if not self.verify_cached:
            return True
        enc = getattr(col, "payload", None)
        crc = enc.meta.get("column_crc") if isinstance(enc, EncodedColumn) else None
        if crc is None:
            return True
        if crc32_values(values) == int(crc):
            return True
        if self.metrics is not None:
            self.metrics.inc("decoded_image_refreshes")
        return False

    # -- cached derivatives: decoded images, zone maps, per-tile traffic ----

    def _cache_get(self, key: str):
        """The derivative cached under ``key`` (``decoded/``, ``bounds/`` or
        ``tilemeta/`` plus a column name), or ``None``.

        With a serving pool attached every derivative is an evictable pool
        resident, so device capacity is enforced; otherwise it lives in
        the engine's own dict.  A pool hit is counted and a miss is not:
        most loads probe for an image they never expected (a streaming
        engine decodes its chunks), and their probes would drown the hit
        rate.
        """
        if self.pool is None:
            return self._cache.get(key)
        if self.pool.lookup(key) is None:
            return None
        resident = self.pool.get(key)
        return None if resident is None else resident.payload

    def _cache_put(self, key: str, value, kind: str = "meta", cost_ms: float = 0.0):
        """Cache ``value`` under ``key``; returns the value callers share."""
        if self.pool is None:
            # setdefault under the lock: two racing workers may both
            # compute, but every caller then sees the same value.
            with self._cache_lock:
                return self._cache.setdefault(key, value)
        from repro.serving.pool import PoolAdmissionError

        arrays = value if isinstance(value, tuple) else (value,)
        try:
            self.pool.admit(
                key,
                sum(a.nbytes for a in arrays),
                kind=kind,
                payload=value,
                reconstruct_cost_ms=cost_ms,
            )
        except PoolAdmissionError:
            pass  # larger than the whole budget: serve it uncached
        return value

    def _cache_drop(self, key: str) -> None:
        with self._cache_lock:
            self._cache.pop(key, None)
        if self.pool is not None:
            self.pool.invalidate(key)

    def _cached(self, key: str, compute: Callable[[], object]):
        """The metadata cached under ``key``, computed on a miss."""
        value = self._cache_get(key)
        return value if value is not None else self._cache_put(key, compute())

    def fusion_allowed(self, enc) -> bool:
        """Whether fused decode+filter may serve this encoded column.

        Fused kernels skip unpacking blocks their header bounds already
        disqualify, so they cannot honour per-tile CRC verification on
        partially-skipped decodes.  Columns carrying a ``tile_crcs``
        table therefore stay on the plain decode path unless
        verification is globally off.
        """
        return verify_mode() == "off" or "tile_crcs" not in enc.meta

    def count_fused_kernel(self, rows: int) -> None:
        """Record one fused decode+filter kernel in the metrics registry."""
        if self.metrics is not None:
            self.metrics.inc("fused_decode_filter_kernels")
            self.metrics.inc("fused_decode_filter_rows", rows)

    def decode_dtype(self, name: str) -> np.dtype:
        """The dtype a load decodes a fact column's rows into.

        int32 where the column's zone-map bounds (:meth:`column_tile_bounds`,
        cached for pushdown) fit in it, as the paper's 4-byte columns do;
        int64 otherwise.  Operators widen to int64 only where arithmetic
        needs it: products, subtractions, group-code arithmetic and sums.
        """
        dtype = self._decode_dtypes.get(name)
        if dtype is None:
            mins, maxs = self.column_tile_bounds(name)
            info = np.iinfo(np.int32)
            fits = mins.size and int(mins.min()) >= info.min and int(maxs.max()) <= info.max
            dtype = np.dtype(np.int32 if fits else np.int64)
            self._decode_dtypes[name] = dtype
        return dtype

    def column_tile_bounds(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Conservative per-engine-tile value bounds for a fact column.

        Inline GPU-* columns derive them from codec block metadata
        (references + bitwidths) without decoding; uncompressed columns
        get exact min/max zone maps.  Bounds are cached — in the serving
        pool when one is attached, so they survive eviction of the much
        larger decoded images.
        """
        return self._cached(f"bounds/{name}", lambda: self._compute_tile_bounds(name))

    def _compute_tile_bounds(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        col = self.store[name]
        if self.inline_column(col):
            codec = get_codec(col.codec_name)
            enc = col.payload
            mins, maxs = codec.tile_bounds(enc)
            return self._regroup_bounds(mins, maxs, codec.bounds_elements(enc))
        mins, maxs = exact_tile_bounds(col.values, TILE)
        return self._regroup_bounds(mins, maxs, TILE)

    def _regroup_bounds(
        self, mins: np.ndarray, maxs: np.ndarray, bounds_elems: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Regroup codec-granularity bounds to engine tiles of :data:`TILE`.

        Padding uses identity sentinels (``INT64_MAX`` for mins,
        ``INT64_MIN`` for maxs): tiles past the data match nothing, so
        any predicate prunes them for free.
        """
        lo_pad = np.iinfo(np.int64).max
        hi_pad = np.iinfo(np.int64).min
        if bounds_elems == TILE:
            pass
        elif TILE % bounds_elems == 0:
            factor = TILE // bounds_elems
            padded_lo = np.full(self.num_tiles * factor, lo_pad, dtype=np.int64)
            padded_hi = np.full(self.num_tiles * factor, hi_pad, dtype=np.int64)
            padded_lo[: mins.size] = mins
            padded_hi[: maxs.size] = maxs
            mins = padded_lo.reshape(self.num_tiles, factor).min(axis=1)
            maxs = padded_hi.reshape(self.num_tiles, factor).max(axis=1)
        elif bounds_elems % TILE == 0:
            factor = bounds_elems // TILE
            mins = np.repeat(mins, factor)
            maxs = np.repeat(maxs, factor)
        else:
            raise ValueError(
                f"bounds granularity of {bounds_elems} rows does not divide "
                f"the engine tile of {TILE}"
            )
        if mins.size != self.num_tiles:
            out_lo = np.full(self.num_tiles, lo_pad, dtype=np.int64)
            out_hi = np.full(self.num_tiles, hi_pad, dtype=np.int64)
            n = min(mins.size, self.num_tiles)
            out_lo[:n] = mins[:n]
            out_hi[:n] = maxs[:n]
            mins, maxs = out_lo, out_hi
        return mins, maxs

    def surviving_tiles(self, predicate) -> np.ndarray:
        """Engine tiles a declared predicate cannot prove empty.

        The routing form of pushdown: the same zone maps
        :meth:`FactPipeline.filter_pushdown` consults, evaluated against
        a query's declared predicate IR without running any plan.  A
        shard router intersects this with each shard's tile range to
        skip shards the query provably cannot touch.  ``None`` (or
        pushdown disabled) keeps every tile — always sound.
        """
        active = np.ones(self.num_tiles, dtype=bool)
        if predicate is None or not self.pushdown:
            return active
        for pred in column_predicates(predicate):
            if pred.column not in self.store.columns:
                continue
            mins, maxs = self.column_tile_bounds(pred.column)
            active &= pred.tile_may_match(mins, maxs)
        return active

    def evict_decoded(self) -> None:
        """Drop every decoded image while keeping derived metadata.

        The serving pool's eviction pattern: decoded images are the big
        evictable payloads, while zone-map bounds and per-tile traffic
        metadata are tiny and survive — so the next query re-decodes
        (only the tiles it needs, under pushdown) but never re-derives
        metadata.
        """
        for name in self.store.columns:
            self._cache_drop(f"decoded/{name}")

    def invalidate_column(self, name: str) -> None:
        """Drop every cached derivative of a column (it was re-encoded)."""
        for kind in ("decoded", "tilemeta", "compressed", "bounds"):
            self._cache_drop(f"{kind}/{name}")
        self._decode_dtypes.pop(name, None)
        if self.semcache is not None:
            self.semcache.invalidate_column(name)

    def bind_updatable(self, name: str, column: "UpdatableColumn") -> None:
        """Serve ``name`` from an :class:`~repro.core.updates.UpdatableColumn`.

        Every :meth:`~repro.core.updates.UpdatableColumn.flush` re-encodes
        the column, so the store's image is swapped for the fresh encoding
        and all cached/pool-resident derivatives are invalidated — without
        this, the engine keeps serving the pre-update bytes forever.

        The swap publishes a *new* :class:`StoredColumn` object atomically
        (one dict store under the store's swap lock) instead of mutating
        fields in place: a concurrent reader holds either the whole old
        image or the whole new one, never a half-updated mix, and the
        epoch bump makes any in-flight background re-encode of the old
        bytes abort its compare-and-swap.  A flushed column always lands
        back in the warm tier — its fresh planner choice is the baseline
        the tiering manager re-scores from.
        """

        def _on_flush(ucol: "UpdatableColumn") -> None:
            old = self.store[name]
            self.store.swap_column(
                name,
                StoredColumn(
                    name=name,
                    system=old.system,
                    # Flushes replace ``values``, never write it: no copy.
                    values=ucol.values,
                    payload=ucol.encoded,
                    nbytes=ucol.encoded.nbytes,
                    codec_name=ucol.codec_name,
                    tier="warm",
                ),
            )
            self.invalidate_column(name)

        column.add_invalidation_hook(_on_flush)
        _on_flush(column)

    def tile_read_bytes(self, name: str) -> np.ndarray:
        """Aligned global-memory bytes each engine tile reads for a column."""
        return self._cached(f"tilemeta/{name}", lambda: self._compute_tile_read_bytes(name))

    def _compute_tile_read_bytes(self, name: str) -> np.ndarray:
        col = self.store[name]
        tx = self.device.spec.transaction_bytes
        # A hot column with a pinned decoded image reads plain 4-byte
        # rows — the tier invalidation that installs or removes the pin
        # also drops this cached metadata, so the two views stay coherent.
        if self.inline_column(col) and self.pinned_decoded(name) is None:
            codec = get_codec(col.codec_name)
            assert isinstance(codec, TileCodec)
            return self._regroup_tiles(
                codec.tile_read_bytes(col.payload, tx), codec.tile_elements(col.payload)
            )
        per_engine = np.full(self.num_tiles, linear_bytes(TILE * 4, tx), dtype=np.int64)
        tail = self.num_rows - (self.num_tiles - 1) * TILE
        per_engine[-1] = linear_bytes(tail * 4, tx)
        return per_engine

    def _regroup_tiles(self, per_codec_tile: np.ndarray, codec_tile_elems: int) -> np.ndarray:
        """Aggregate codec-tile traffic to engine tiles of :data:`TILE` rows."""
        if codec_tile_elems == TILE:
            out = per_codec_tile
        elif TILE % codec_tile_elems == 0:
            factor = TILE // codec_tile_elems
            padded = np.zeros(self.num_tiles * factor, dtype=np.int64)
            padded[: per_codec_tile.size] = per_codec_tile
            out = padded.reshape(self.num_tiles, factor).sum(axis=1)
        elif codec_tile_elems % TILE == 0:
            # Codec tiles span several engine tiles (e.g. GPU-SIMDBP128's
            # 4096-value blocks): amortize each codec tile's traffic.
            factor = codec_tile_elems // TILE
            out = np.repeat(per_codec_tile, factor) // factor
        else:
            raise ValueError(
                f"codec tile of {codec_tile_elems} rows does not divide the "
                f"engine tile of {TILE}"
            )
        if out.size != self.num_tiles:
            padded = np.zeros(self.num_tiles, dtype=np.int64)
            padded[: out.size] = out[: self.num_tiles]
            out = padded
        return out

    # -- dimension build kernels --------------------------------------------

    def build_lookup(
        self,
        table_name: str,
        key_col: str,
        payload: np.ndarray | Callable[[], np.ndarray] | None = None,
        mask: np.ndarray | Callable[[], np.ndarray] | None = None,
        read_cols: int = 2,
    ) -> Lookup:
        """Build a dense join lookup from a dimension table (one kernel).

        ``payload`` and ``mask`` may be zero-argument callables producing
        them: they run only when the lookup is really built, so a morsel
        replaying the plan pass's lookup never evaluates dimension filters.
        """
        payload = payload() if callable(payload) else payload
        mask = mask() if callable(mask) else mask
        table = self.db.table(table_name)
        keys = table[key_col]
        lookup = make_lookup(f"{table_name}.{key_col}", keys, payload, mask)
        with self.device.launch(
            f"build-{table_name}",
            grid_blocks=max(1, -(-keys.size // BLOCK_THREADS)),
            block_threads=BLOCK_THREADS,
            registers_per_thread=20,
        ) as k:
            k.read_linear(keys.size * 4 * read_cols)
            k.write_scatter(keys.size, 4, lookup.nbytes)
            k.compute(keys.size * 4)
        return lookup

    # -- fact pipeline --------------------------------------------------------

    def pipeline(self, name: str) -> "FactPipeline":
        """Open a staged fact-table pipeline for one query.

        Fused plans never run against the engine itself: :meth:`run`
        hands their query function the executor's plan and morsel
        proxies, so this raises for every non-staged store.
        """
        if not self._staged:
            raise RuntimeError(
                f"{self.store.system} plans are tile-fused: run them with "
                f"engine.run(SSBQuery(...)), not engine.pipeline()"
            )
        return FactPipeline(self, name, staged=True)

    def decompress_first(self, columns: tuple[str, ...]) -> None:
        """Decompress the needed fact columns to global memory (the
        prologue nvCOMP / Planner / GPU-BP queries pay, Section 9.4).

        Cold-tier columns of any system pay the same shape of prologue:
        their entropy-cascade payload cannot be decoded inline, so every
        query touching one first unspills it (a PCIe staging transfer
        when the bytes live only in the on-disk container) and runs the
        cascade's kernels — the decode-cost side of the ratio-vs-speed
        trade the tiering manager balances.
        """
        system = self.store.system
        for name in columns:
            col = self.store[name]
            if system == "nvcomp":
                decompress_nvcomp(col.payload, self.device)
            elif system == "planner":
                decompress_planned(col.payload, self.device)
            elif system == "gpu-bp":
                decompress(col.payload, self.device, write_back=True)
            elif col.tier == "cold":
                payload = col.payload
                if payload is None and col.spill_path is not None:
                    payload = self.store.ensure_payload(name)
                    self.device.transfer_to_device(col.nbytes)
                if payload is not None:
                    decompress_nvcomp(payload, self.device)

    def explain(self, query: "SSBQuery") -> list[dict]:
        """Run a query and return its per-kernel timeline (EXPLAIN ANALYZE).

        Each row is one kernel launch with its resource signature,
        occupancy, traffic, and simulated time — making visible exactly
        why e.g. a decompress-first system pays more kernels than the
        fused inline-decode plan.
        """
        self.run(query)
        return self._last_timeline

    def uses_streaming(self) -> bool:
        """Whether :meth:`run` routes through the streaming executor.

        True for every fused plan; staged (OmniSci) plans price their
        own per-operator kernels.
        """
        return not self._staged

    def _stream(self, query: "SSBQuery") -> dict[int, int]:
        """Run one query through the (cached) streaming executor."""
        from repro.engine.streaming import TileStreamExecutor

        executor = self._stream_executor
        if executor is not None and executor.metrics is not self.metrics:
            executor.close()
            executor = None
        if executor is None:
            executor = TileStreamExecutor(
                self,
                workers=self.stream_workers,
                morsel_tiles=self.morsel_tiles,
                metrics=self.metrics,
            )
            self._stream_executor = executor
        if self.semcache is not None:
            groups = self.semcache.execute(self, executor, query)
        else:
            groups = executor.execute(query)
        self.last_stream_stats = executor.last_stats
        self._account_stream_arenas()
        return groups

    def close(self) -> None:
        """Shut the streaming executor's worker pool down (idempotent)."""
        if self._stream_executor is not None:
            self._stream_executor.close()

    def trim_stream_arenas(self, max_bytes: int = 0) -> int:
        """Release streaming decode-arena scratch down to ``max_bytes``.

        Worker arenas grow to the largest column chunk a query decoded and
        hold it until a pool thread's next query (the calling thread's
        arena holds it for good); serving layers call this between query
        bursts (or the pool does, on eviction of the accounting resident)
        to give it back.  Returns bytes released.
        """
        executor = self._stream_executor
        if executor is None:
            return 0
        released = executor.trim_arenas(max_bytes)
        if released:
            self._account_stream_arenas()
        return released

    def _account_stream_arenas(self) -> None:
        """Mirror worker-arena scratch bytes into the serving pool budget.

        The arenas are working memory, not cache, but they occupy the
        same device budget as pool residents — so they are accounted as
        a payload-less resident whose ``release`` callback trims them.
        Under memory pressure the pool evicts the entry, the callback
        frees the scratch, and the budget is truthful again.
        """
        if self.pool is None or self._stream_executor is None:
            return
        from repro.serving.pool import PoolAdmissionError

        key = "scratch/stream-arenas"
        nbytes = self._stream_executor.peak_decoded_bytes
        if nbytes <= 0:
            self.pool.invalidate(key)
            return
        try:
            self.pool.admit(
                key,
                nbytes,
                kind="scratch",
                payload=None,
                release=self._release_stream_arenas,
            )
        except PoolAdmissionError:
            # Scratch larger than the whole budget: trim immediately
            # rather than carry unaccounted memory.
            self._stream_executor.trim_arenas(0)

    def _release_stream_arenas(self) -> None:
        """Pool eviction hook: free arena scratch, no pool re-entry."""
        executor = self._stream_executor
        if executor is not None:
            executor.trim_arenas(0)

    def run(self, query: "SSBQuery") -> QueryResult:
        """Execute one SSB query and report its simulated time."""
        kernels_before = self.device.kernel_count
        ms_before = self.device.elapsed_ms
        self.decompress_first(query.columns)
        if self.uses_streaming():
            groups = self._stream(query)
        else:  # staged OmniSci plans price their own per-operator kernels
            groups = query.fn(self)
        kernels = self.device.kernel_count - kernels_before
        self._last_timeline = self.device.timeline(since=kernels_before)
        return QueryResult(
            name=query.name,
            system=self.store.system,
            simulated_ms=self.device.elapsed_ms - ms_before,
            kernel_count=kernels,
            groups=groups,
            launch_overhead_ms=kernels * self.device.spec.kernel_launch_us / 1000.0,
        )


@dataclass
class SSBQuery:
    """One SSB query: the fact columns it touches and its plan.

    Queries may additionally declare their semantic identity for the
    serving layer's result cache and request coalescing:

    * ``plan_key`` groups queries whose plans are identical *except* for
      the declared ``predicate`` (e.g. the flight-1 drill-downs).  Two
      queries sharing a plan_key must run the very same operator
      sequence over the same columns and differ only in which rows their
      predicate conjuncts keep — partial aggregates then transfer
      between them tile-by-tile.  ``None`` keeps the query in its own
      group (keyed by name), which is always sound.
    * ``predicate`` is the query's full filter in the predicate IR, used
      for canonical semantic keys; queries whose filters are not
      expressible in the IR leave it ``None``.
    """

    name: str
    columns: tuple[str, ...]
    fn: Callable[[CrystalEngine], dict[int, int]]
    plan_key: tuple | None = None
    predicate: "ColumnPredicate | And | None" = None

    def semantic_key(self) -> tuple:
        """Hashable identity of what this query computes.

        Two requests with equal semantic keys return identical answers
        (same plan family, same canonicalized filter), so the serving
        layer coalesces them into one execution even when their
        predicate objects were built differently.

        An ad-hoc query that declares *neither* a plan_key nor a
        predicate has no inspectable semantics — its plan lives in an
        opaque ``fn`` — so its key falls back to object identity: a name
        alone must never coalesce two distinct plans.  Registry queries
        are module-level singletons, so repeated submissions of the same
        object still batch together.
        """
        if self.plan_key is None and self.predicate is None:
            return (("query", self.name), ("object", id(self)))
        base = self.plan_key if self.plan_key is not None else ("query", self.name)
        return (base, canonical_key(self.predicate))


class FactPipeline:
    """One query's sweep over the fact table.

    In ``staged`` mode (OmniSci) every operator prices its own kernel
    immediately, with a materialized selection bitmap read and written
    between operators.  In ``fused`` mode (Crystal) every call
    accumulates traffic/compute for the single fact kernel the streaming
    executor prices; the executor's plan and morsel pipelines subclass
    this one and supply the fused loads (``_tile_read_bytes``, the dense
    ``_column_slice``, with or without a fused predicate, and the sparse
    ``_column_rows``).  A dense load reads rows or, for a GPU-RFOR
    column, runs, so a load takes one of three routes: dense rows, runs
    or sparse rows.

    The selection is a sorted vector of the span's live rows (``None``
    until the first filter drops a row); operators take their inputs at
    those rows, and the host never touches a dead row's value.

    Every operator taking a per-row array also takes the one other form
    a column comes in, a :class:`~repro.engine.runs.RunColumn`:

    * a dense load of a GPU-RFOR column (the executor's run route) comes
      back as runs of many rows.  A pushdown conjunct,
      :meth:`filter_predicate` or :meth:`filter` tests each run once and
      turns the surviving runs into row ranges of the selection,
      :meth:`probe` looks each live run's key up once and returns the
      payloads as runs, and :meth:`live` expands values at the live rows
      only;
    * a sparse load (the executor's gather route) and a probe under a
      selection come back as runs of one row each, at the live rows of
      the moment.  :meth:`live` re-aligns them with the selection once it
      narrows, so no operator holds an array as wide as the span for a
      column read at a few rows.

    Pricing is the same on every route: it follows tile activity and
    live-row counts, never the host's representation.
    """

    def __init__(
        self,
        engine: CrystalEngine,
        name: str,
        staged: bool = False,
        rows: int | None = None,
        tiles: int | None = None,
    ):
        self.engine = engine
        self.name = name
        self.staged = staged
        # Default span is the whole fact table; the streaming executor's
        # plan and morsel pipelines set their own.
        self.n = engine.num_rows if rows is None else rows
        num_tiles = engine.num_tiles if tiles is None else tiles
        self.tile_active = np.ones(num_tiles, dtype=bool)
        # The selection: sorted live rows of the span, or None while every
        # row is live.  Filters narrow it; operators index with it.
        self._rows: np.ndarray | None = None
        # Two views of the selection over one run column's runs, keyed by
        # its ``starts`` array: the live runs while the live rows are
        # exactly their rows, and the run of each live row (kept in step
        # as rows drop).
        self._whole_runs: tuple[np.ndarray, np.ndarray] | None = None
        self._row_runs: tuple[np.ndarray, np.ndarray] | None = None
        self._finished = False
        # Fused-kernel accumulators.
        self._read_bytes = 0
        self._write_bytes = 0
        self._compute = 0
        self._shared = 0
        self._gathers: list[tuple[int, int, int]] = []
        self._extra_regs = 0
        self._decode_regs = 0
        self._smem = 0
        # Single-column pushdown conjuncts by column name: candidates for
        # fused decode+filter when that column is loaded.  A load that
        # fused one moves it to _fused_preds so the later exact
        # filter_predicate call skips the (now redundant) re-evaluation.
        self._pushdown_preds: dict[str, ColumnPredicate] = {}
        self._fused_preds: dict[str, ColumnPredicate] = {}

    # -- operators -----------------------------------------------------------

    def load(self, name: str) -> np.ndarray:
        """Load a fact column (tile loads skip fully-filtered tiles).

        Returns the column over the pipeline's span; only live rows hold
        meaningful values.  A dense load of a GPU-RFOR column may return
        a :class:`~repro.engine.runs.RunColumn` instead of an array (see
        the class docstring).  Pricing always follows the tile activity
        (the modeled kernel decodes whole tiles), but once fewer than
        :data:`SPARSE_GATHER_FRACTION` of the span's rows are live the
        host reads just those rows (:meth:`TileCodec.gather_rows`)
        instead of decoding every active tile, and they come back as a
        run column of one-row runs at those rows.  Decoded rows are int32
        where the column fits (:meth:`CrystalEngine.decode_dtype`).
        """
        self._check_open()
        engine = self.engine
        col = engine.store[name]
        if self.staged:
            # OmniSci: its own kernel, full column, row-wise access.
            self._staged_kernel(
                f"load-{name}",
                read_bytes=int(engine.tile_read_bytes(name).sum()),
                write_bytes=self.n * 4,
                ops=self.n * OMNISCI_OP_OVERHEAD,
            )
            return col.values

        tile_bytes = self._tile_read_bytes(name)
        self._read_bytes += int(tile_bytes[self.tile_active].sum())
        active_rows = int(self.tile_active.sum()) * TILE
        if self.tile_active.size and self.tile_active[-1]:
            # The last tile holds only the tail rows, not a full TILE.
            active_rows -= self.tile_active.size * TILE - self.n
        # One snapshot decides both pricing and the value path; a hot
        # column with a pinned decoded image loads like raw storage.
        inline = engine.inline_column(col) and engine.pinned_decoded(name) is None
        if inline:
            codec = get_codec(col.codec_name)
            assert isinstance(codec, TileCodec)
            res = codec.kernel_resources(col.payload)
            # Each thread holds one decoded value per block row it owns:
            # D=4 for the 128-row-block formats, but 32 for the 4096-value
            # vertical layout — the register pressure behind Section 4.3's
            # 14x q1.1 slowdown.
            self._extra_regs += max(
                D_PER_THREAD, codec.tile_elements(col.payload) // BLOCK_THREADS
            )
            self._compute += int(
                res.compute_ops_per_element * active_rows
                + res.tile_prologue_ops * int(self.tile_active.sum())
            )
            self._shared += int(res.shared_bytes_per_element * active_rows)
            # Columns decode one after another, so the compiler reuses the
            # decoder's scratch registers and staging buffer across loads:
            # only the widest decoder's state is live at once.  That state
            # is tiny for the FOR family but huge for the vertical-layout
            # ablation (Section 4.3's 14x q1.1 slowdown).
            self._decode_regs = max(
                self._decode_regs,
                max(2, res.registers_per_thread - 12 - 2 * D_PER_THREAD),
            )
            # Staging buffers are not reused: each compressed column's
            # tile stays resident in shared memory for the whole tile pass
            # (predicates may touch several decoded columns at once).
            self._smem += res.shared_mem_per_block
        else:
            self._extra_regs += D_PER_THREAD
            self._compute += active_rows  # BlockLoad index arithmetic

        # A pending pushdown conjunct on an inline column is applied at
        # load on every route: fused into the unpack where the codec can,
        # else evaluated on the live rows of the loaded values.  Its rows
        # are provably dead under the query's WHERE (pushdown conjuncts
        # are necessary conditions), so the selection narrows at once and
        # later probes and aggregates are priced on the same rows whether
        # the load was cold, warm or checksummed.  Pricing of the filter
        # step stays with the matching filter_predicate call, which sees
        # the identical selection either way.
        pred = self._pushdown_preds.get(name)
        pending = inline and pred is not None and name not in self._fused_preds
        rowmask = None
        if inline and self.live_count < self.n * SPARSE_GATHER_FRACTION:
            values = self._column_rows(name, col)
        elif pending:
            values, rowmask = self._column_slice(name, col, pred)
        else:
            return self._column_slice(name, col)
        if pending:
            if rowmask is None:
                self._apply(pred, values)
            else:
                self._narrow(self.live(rowmask))
            self._fused_preds[name] = pred
        return values

    def filter_pushdown(self, predicate: "ColumnPredicate | And | None") -> int:
        """Declare the query's pushdown predicate before any column loads.

        Pushdown prunes tiles from codec bounds, so later loads read and
        decode only the surviving tiles.  The streaming executor's plan
        pass runs the one bounds pass over the whole tile grid; a morsel
        inherits the surviving set and records the single-column
        conjuncts here, so a later load of that column can fuse the
        filter into its decode.  The exact row filters must still run
        afterwards (bounds are conservative).  No-op for the staged
        engine (row-at-a-time access has no tile granularity) or when
        the engine was built with ``pushdown=False``.

        Returns:
            Number of this pipeline's tiles pruned.
        """
        self._check_open()
        if self.staged or not self.engine.pushdown:
            return 0
        for pred in column_predicates(predicate):
            self._pushdown_preds[pred.column] = pred
        return int(np.count_nonzero(~self.tile_active))

    def filter(self, rowmask: np.ndarray) -> None:
        """AND a row predicate into the pipeline's selection.

        ``rowmask`` covers the span's rows or just its live rows (see
        :meth:`live`), or is a run column of bools (whole runs kept).
        """
        self._check_open()
        if isinstance(rowmask, RunColumn):
            self._narrow_runs(rowmask, rowmask.values.astype(bool, copy=False))
        else:
            self._narrow(np.asarray(self.live(rowmask), dtype=bool))
        self._after_mask_update()

    def filter_matched(self, payload) -> None:
        """Keep the live rows whose probe found a qualifying dimension row.

        The semijoin step of a filtered join, ``filter(payload != MISS)``
        on :meth:`probe`'s result: payloads held as runs are tested once
        per run, an array only at the live rows.
        """
        if not isinstance(payload, RunColumn):
            payload = self.live(payload)
        self.filter(payload != MISS)

    def filter_predicate(self, predicate: ColumnPredicate, values: np.ndarray) -> None:
        """AND a predicate's exact row filter into the selection.

        Unlike :meth:`filter` this evaluates the comparison only on
        currently-live rows: after pushdown most rows belong to pruned
        (undecoded, zero-filled) tiles, and late materialization means
        never inspecting their values at all.
        """
        self._check_open()
        values = self._row_array(values, "filter values")
        if self._fused_preds.get(predicate.column) == predicate:
            # This exact conjunct was already applied when its column was
            # loaded; only the filter step's accounting remains.
            self._fused_preds.pop(predicate.column)
            self._after_mask_update()
            return
        self._apply(predicate, values)
        self._after_mask_update()

    def _apply(self, predicate: ColumnPredicate, values) -> None:
        """Narrow the selection by ``predicate`` over a loaded column: once
        per run for a run column, else at the live rows."""
        if isinstance(values, RunColumn):
            self._narrow_runs(values, predicate.row_mask(values.values))
        else:
            self._narrow(predicate.row_mask(self.live(values)))

    def _after_mask_update(self) -> None:
        """Refresh tile activity and price the filter step."""
        if self._rows is not None:
            hit = np.zeros(self.tile_active.size, dtype=bool)
            hit[self._rows // TILE] = True
            self.tile_active &= hit
        if self.staged:
            self._staged_kernel(
                f"filter-{self.name}",
                read_bytes=self.n,
                write_bytes=self.n,
                ops=self.n * 2,
            )
        else:
            self._compute += self.live_count * 2

    def probe(self, lookup: Lookup, keys: np.ndarray) -> np.ndarray:
        """Probe a join lookup for every currently-live row.

        Returns the payloads over the span's rows
        (:data:`~repro.engine.lookup.MISS` where a live row's key has no
        qualifying dimension row); like a load's values, a dead row's
        entry is unspecified.  Under a selection they come back as
        one-row runs at the live rows; keys held as runs of many rows are
        looked up once per run, and the payloads come back as runs over
        the same rows.
        """
        self._check_open()
        count = self.live_count
        if self.staged:
            self._staged_kernel(
                f"probe-{lookup.name}",
                read_bytes=2 * self.n,
                write_bytes=self.n * 4,
                ops=self.n * (OMNISCI_OP_OVERHEAD + 3),
                gathers=(count, 4, lookup.nbytes),
            )
        else:
            self._gathers.append((count, 4, lookup.nbytes))
            self._compute += count * 3
        if isinstance(keys, RunColumn):
            return self._probe_runs(lookup, keys)
        found = lookup.probe(self.live(keys))
        if self._rows is None:
            return found
        return RunColumn(found, self._rows, self.n)

    def _probe_runs(self, lookup: Lookup, keys: RunColumn) -> RunColumn:
        """The payloads of run ``keys``: one per run over the same runs.

        Every run is probed while every run is live, or while every key
        lies in the lookup's range; otherwise only the live runs are,
        so a key the dimension lacks fails where a live row holds it,
        as on the row route, and never on a dead run.  One-row runs are
        probed at the live rows alone, as an array is, and the payloads
        come back at those rows.
        """
        if keys.lengths is None:
            return RunColumn(lookup.probe(self.live(keys)), self.rows, self.n)
        values = keys.values
        live = self._live_whole_runs(keys)
        if live is not None and live.size == values.size or lookup.covers(values):
            return keys.with_values(lookup.probe(values))
        if live is None:
            ids = self._live_run_ids(keys)
            live = ids[np.flatnonzero(np.diff(ids, prepend=-1))]
        found = np.full(values.size, MISS, dtype=lookup.payload.dtype)
        found[live] = lookup.probe(values[live])
        return keys.with_values(found)

    def group_sum(
        self, codes: np.ndarray, weights: np.ndarray, num_groups: int
    ) -> dict[int, int]:
        """Aggregate ``sum(weights) group by codes`` over live rows.

        ``codes`` and ``weights`` each cover the span's rows or just its
        live rows (see :meth:`live`).  Sums are exact for any int64
        weights.
        """
        return self._aggregate(
            "sum", num_groups, lambda c, w: _group_sums_of(c, w, num_groups), codes, weights
        )

    def total_sum(self, values: np.ndarray) -> dict[int, int]:
        """Ungrouped ``sum(values)`` over live rows (query flight 1), exact
        for any int64 values."""
        return self._aggregate("sum", 1, _total_of, values)

    def total_sum_product(self, a: np.ndarray, b: np.ndarray) -> dict[int, int]:
        """Ungrouped ``sum(a*b)`` over live rows (the flight-1 aggregate).

        The fused kernel forms the product inside its aggregation loop,
        so the host side multiplies only the selected rows instead of
        materializing a full product column.  Exact for any int64 inputs.
        """
        return self._aggregate("sum", 1, _total_of, a, b)

    def group_aggregate(
        self,
        codes: np.ndarray,
        values: np.ndarray | None,
        num_groups: int,
        how: str = "sum",
    ) -> dict[int, int]:
        """General grouped aggregate over live rows.

        Supported ``how``: ``sum``, ``count``, ``min``, ``max`` — the
        aggregates whose per-morsel partials merge exactly.  Traffic/
        compute accounting matches :meth:`group_sum` — on the GPU these
        are all the same atomic-update pattern over a small result array.
        """
        self._check_open()
        if how == "sum":
            if values is None:
                raise ValueError("sum needs a values column")
            return self.group_sum(codes, values, num_groups)
        if how == "count":
            return self.group_sum(
                codes, np.ones(self.live_count, dtype=np.int64), num_groups
            )
        if how not in ("min", "max"):
            raise ValueError(
                f"unknown aggregate {how!r}; expected sum, count, min or max "
                f"(avg does not merge across morsels — aggregate sum and "
                f"count and divide client-side)"
            )
        if values is None:
            raise ValueError(f"{how} needs a values column")
        return self._aggregate(
            how, num_groups, lambda c, v: _group_extremes_of(c, v, num_groups, how), codes, values
        )

    def _aggregate(self, how: str, num_groups: int, compute, *columns) -> dict[int, int]:
        """Account one aggregate call, then ``compute`` it on the columns
        taken at the live rows.  ``how`` is the merge op of its partials:
        ``"sum"``, ``"min"`` or ``"max"``."""
        self._account_aggregate(num_groups, how)
        return compute(*(self.live(c) for c in columns))

    def _account_aggregate(
        self, num_groups: int, how: str = "sum", counts: list[int] | None = None
    ) -> None:
        """Traffic/compute bookkeeping of one aggregate call.

        ``counts`` splits the live rows into partials that each update
        their own result array (one per cached span of a wide morsel):
        each partial is priced as the morsel it stands for would price
        it.  ``None`` is one partial of every live row.
        """
        self._check_open()
        if self.staged:
            count = self.live_count
            label = "aggregate" if how == "sum" else f"aggregate-{how}"
            self._staged_kernel(
                f"{label}-{self.name}",
                read_bytes=self.n * 8 + self.n,
                write_bytes=num_groups * 8,
                ops=self.n * (OMNISCI_OP_OVERHEAD + 8),
                scatters=(count, 8, num_groups * 8),
            )
            return
        if counts is None:
            counts = [self.live_count]
        self._compute += sum(counts) * 8
        self._gathers.append(
            (sum(min(c, num_groups * 4) for c in counts), 8, num_groups * 8)
        )
        self._write_bytes += num_groups * 8 * len(counts)

    # -- pricing ---------------------------------------------------------------

    def finish(self) -> None:
        """Close the pipeline.

        Staged operators priced their kernels as they ran; the fused
        kernel is priced by the streaming executor from the plan pass
        and the merged morsel accounting.
        """
        self._check_open()
        self._finished = True

    @property
    def live_count(self) -> int:
        """Rows of the span still live."""
        return self.n if self._rows is None else int(self._rows.size)

    @property
    def rows(self) -> np.ndarray:
        """Sorted indices of the span's live rows."""
        return np.arange(self.n) if self._rows is None else self._rows

    @property
    def mask(self) -> np.ndarray:
        """The selection as one bool per span row (a fresh array)."""
        if self._rows is None:
            return np.ones(self.n, dtype=bool)
        mask = np.zeros(self.n, dtype=bool)
        mask[self._rows] = True
        return mask

    def live(self, values: np.ndarray) -> np.ndarray:
        """``values`` at the live rows, in row order.

        ``values`` covers the span's rows or already just its live rows,
        which is returned as is; while every row is live the two are the
        same array.  Operators accept either form, so a plan can compute
        codes and measures on live rows only.  A run column is expanded
        at the live rows alone, and one-row runs read at an earlier
        (wider) selection are re-aligned with this one.
        """
        values = self._row_array(values, "values")
        if isinstance(values, RunColumn):
            return self._at_live_rows(values, values.values)
        if self._rows is None or values.shape[0] == self._rows.size:
            return values
        return values.take(self._rows)

    def _at_live_rows(self, runs: RunColumn, per_run: np.ndarray) -> np.ndarray:
        """``per_run`` (one value per run of ``runs``) at the live rows."""
        if runs.lengths is None and self.live_count == runs.covered:
            return per_run  # one-row runs, every one live
        live = self._live_whole_runs(runs)
        if live is None:
            return per_run.take(self._live_run_ids(runs))
        if live.size == per_run.size:
            return np.repeat(per_run, runs.lengths)
        return np.repeat(per_run.take(live), runs.lengths.take(live))

    def _live_whole_runs(self, runs: RunColumn) -> np.ndarray | None:
        """The runs of ``runs`` whose rows are exactly the live rows, in
        order, or ``None`` when the selection is no union of whole runs
        or the runs are one row each (:meth:`_live_run_ids` finds theirs).

        A run column covers the live codec tiles of its load, and every
        live row lies in a live tile, so as many live rows as covered
        rows means every run is live.
        """
        if runs.lengths is None:
            return None
        whole = self._whole_runs
        if whole is not None and whole[0] is runs.starts:
            return whole[1]
        if self.live_count == runs.covered:
            return np.arange(runs.values.size)
        return None

    def _live_run_ids(self, runs: RunColumn) -> np.ndarray:
        """The run of ``runs`` each live row falls in (selection set).

        Cached for runs of many rows.  One-row runs take one search each
        time, so a plan that interleaves them with a run column never
        evicts that column's views.
        """
        if runs.lengths is None:
            return runs.run_of(self._rows)
        cached = self._row_runs
        if cached is None or cached[0] is not runs.starts:
            live = self._live_whole_runs(runs)
            ids = (
                runs.run_of(self._rows)
                if live is None
                else np.repeat(live, runs.lengths.take(live))
            )
            cached = self._row_runs = (runs.starts, ids)
        return cached[1]

    def _row_array(self, values, what: str) -> np.ndarray:
        if isinstance(values, RunColumn):
            if values.n != self.n:
                raise ValueError(f"{what} must cover every fact row of the span")
            return values
        values = np.asarray(values)
        if values.ndim != 1 or values.shape[0] not in (self.n, self.live_count):
            raise ValueError(
                f"{what} must cover every fact row of the span, or its live rows"
            )
        return values

    def _narrow(self, keep: np.ndarray) -> None:
        """Keep the live rows where ``keep`` (one bool per live row) holds."""
        if keep.all():
            return
        if self._rows is None:
            self._rows = np.flatnonzero(keep)
            return
        self._rows = self._rows[keep]
        self._whole_runs = None
        if self._row_runs is not None:
            self._row_runs = (self._row_runs[0], self._row_runs[1][keep])

    def _narrow_runs(self, runs: RunColumn, keep: np.ndarray) -> None:
        """Keep the live rows whose run of ``runs`` ``keep`` (one bool per
        run) holds; while the live rows are whole runs of many rows, the
        kept runs' rows become the selection directly."""
        live = self._live_whole_runs(runs)
        if live is None:
            self._narrow(self._at_live_rows(runs, keep))
            return
        kept = live[keep.take(live)]
        if kept.size < live.size:
            self._rows = runs.rows_of(kept)
            self._whole_runs = (runs.starts, kept)
            self._row_runs = None

    # -- internals ---------------------------------------------------------------

    def _staged_kernel(
        self,
        name: str,
        read_bytes: int,
        write_bytes: int,
        ops: int,
        gathers: tuple[int, int, int] | None = None,
        scatters: tuple[int, int, int] | None = None,
    ) -> None:
        """One OmniSci operator kernel at OmniSci's achieved efficiency."""
        inflate = 1.0 / OMNISCI_EFFICIENCY
        with self.engine.device.launch(
            f"omnisci-{name}",
            grid_blocks=max(1, -(-self.n // 256)),
            block_threads=256,
            registers_per_thread=40,
        ) as k:
            k.read_linear(int(read_bytes * inflate))
            if write_bytes:
                k.write_linear(int(write_bytes * inflate))
            if gathers is not None:
                k.read_gather(*gathers)
            if scatters is not None:
                k.write_scatter(*scatters)
            k.compute(ops)

    def _check_open(self) -> None:
        if self._finished:
            raise RuntimeError("pipeline already finished")
