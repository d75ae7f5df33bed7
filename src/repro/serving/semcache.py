"""Partition-aware semantic result cache with cross-query partial reuse.

The serving layer caches column images and zone maps, but every query
still re-executes from scratch — dashboard traffic hitting the same
handful of filters re-pays full decode+aggregate cost per request.  The
tile grid is exactly the partition granularity at which that work can be
cached: the streaming executor already computes each morsel's partial
aggregate independently and merges partials with exact integer
arithmetic, so a partial computed for one query is a *value* that can be
re-merged into any later query that provably keeps the same rows over
that tile span.

:class:`SemanticResultCache` stores those per-morsel partials keyed by
the query's **semantic signature**:

* a *base key* identifying what the plan computes — the query's declared
  ``plan_key`` (or name), the content fingerprints of its dimension
  lookups, and the operator trace of the zero-row plan pass; and
* the *canonical predicate key* of every filter conjunct the plan
  applied (pushdown and exact row filters), from
  :func:`repro.engine.predicates.canonical_key`.

On a new query the cache probes for partials under the exact signature,
then scans recent **donor** entries sharing the base key but filtered
differently.  A donor's partial for a tile span transfers when zone-map
bounds prove the two predicates are row-equivalent over every tile of
the span — for each column whose canonical conjuncts differ, both
predicates must be all-true on the tile (``tile_must_match``), or
neither may match any of its rows (``tile_may_match`` false for both).
That rule covers the dashboard patterns directly: a ``year=1993``
drill-down to a month reuses the year-level partials for every tile the
month provably owns outright or provably misses, and a cross-dimension
filter reuses tiles where the extra conjunct is vacuous.

Only the *uncovered* morsels execute; cached and fresh partials merge
bit-identically through :meth:`TileStreamExecutor.merge_parts` (exact
Python ints, deterministic morsel order), so a warm answer is the same
object a cold run produces.

Partials live as ``partial``-kind residents of a private
:class:`~repro.serving.pool.ColumnPool`, reusing its cost-aware
greedy-dual eviction under a byte budget: a partial's reconstruction
cost is the wall time of the morsel that computed it, so cheap-to-redo
and long-unused partials evict first.

Staleness is impossible by construction: every partial carries the
per-column **epoch** tuple of the columns its value depends on, epochs
bump on :meth:`invalidate_column` (wired to ``UpdatableColumn.flush``
through ``CrystalEngine.invalidate_column``), and the execute loop
snapshots epochs before probing and re-checks them after running fresh
morsels — a flush racing the query forces a retry against the new
epochs instead of merging old partials with new data.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from hashlib import sha1

import numpy as np

from repro.engine.predicates import ColumnPredicate
from repro.serving.metrics import MetricsRegistry
from repro.serving.pool import ColumnPool, PoolAdmissionError

__all__ = [
    "DEFAULT_SEMCACHE_BUDGET",
    "PARTIAL_GRID_TILES",
    "CachedPartial",
    "SemanticResultCache",
]

#: Default byte budget for cached partials.  Partial aggregates are tiny
#: (a dict of group sums per morsel), so this holds thousands of spans —
#: the budget exists to bound pathological workloads, not typical ones.
DEFAULT_SEMCACHE_BUDGET = 16 * 1024 * 1024

#: Engine tiles per cached partial (32768 rows) unless the engine pins a
#: ``morsel_tiles``.  Spans are the cache key, so the grid must not move
#: with a query's surviving tiles the way the executor's own morsels do:
#: a fixed grid lets a drill-down find its year-level donor's spans.  On
#: SF 0.1 ``lo_orderdate``-sorted data 64 tiles hold about 130 days.
PARTIAL_GRID_TILES = 64

#: How many most-recent same-base entries a probe considers as donors.
MAX_DONORS = 8

#: How often a racing flush may force a re-execution before the query
#: gives up on the cache and runs fully fresh (still correct, just
#: uncached) — bounds latency under a pathological flush storm.
MAX_EPOCH_RETRIES = 8


def _digest(obj: object) -> str:
    return sha1(repr(obj).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class CachedPartial:
    """One morsel span's partial aggregate, frozen for reuse.

    ``agg_ops`` and ``result`` are exactly what the morsel pipeline
    produced (see ``TileStreamExecutor.merge_parts``); ``epochs`` pins
    the per-column versions the value was computed against, aligned with
    the owning entry's sorted column tuple.
    """

    span: tuple[int, int]
    agg_ops: tuple[str, ...]
    result: tuple[tuple[int, int], ...]
    epochs: tuple[int, ...]
    wall_ms: float

    @property
    def nbytes(self) -> int:
        # Accounting estimate: dict entry overhead dominates small ints.
        return 112 + 56 * len(self.result)

    def as_part(self) -> tuple[list[str], dict[int, int]]:
        return (list(self.agg_ops), dict(self.result))


@dataclass
class _Entry:
    """All cached spans of one semantic signature."""

    sig: str
    base_hash: str
    pred_key: tuple
    predicates: tuple[ColumnPredicate, ...]
    #: Sorted tuple of every column the partials' values depend on
    #: (loaded fact columns plus predicate columns); epochs align to it.
    columns: tuple[str, ...]
    #: Spans believed resident in the pool.  Mutated lock-free from the
    #: pool's eviction release hook (``set.discard`` is atomic under the
    #: GIL), so readers iterate over a snapshot and re-validate through
    #: ``pool.get``.
    spans: set[tuple[int, int]] = field(default_factory=set)


class SemanticResultCache:
    """Byte-budgeted cache of per-tile-span partial aggregates.

    Thread-safe; designed to sit between ``CrystalEngine._stream`` and
    the :class:`~repro.engine.streaming.TileStreamExecutor`.  Lock
    ordering is strictly ``semcache lock -> pool lock``: pool calls that
    may evict (and fire release hooks re-entering this module) happen
    *outside* the semcache lock, and the release hook itself touches
    only a GIL-atomic set.
    """

    def __init__(
        self,
        budget_bytes: int = DEFAULT_SEMCACHE_BUDGET,
        metrics: MetricsRegistry | None = None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Private pool (own metrics registry): partials compete with each
        # other under this budget, not with the serving layer's column
        # images, and its pool_* counters stay out of the server's.
        self.pool = ColumnPool(budget_bytes)
        self._lock = threading.RLock()
        self._entries: dict[str, _Entry] = {}
        #: Signatures per base hash, oldest first (recency for donor scan).
        self._by_base: dict[str, list[str]] = {}
        self._epochs: dict[str, int] = {}

    # -- epochs / invalidation ---------------------------------------------

    def epoch(self, column: str) -> int:
        with self._lock:
            return self._epochs.get(column, 0)

    def _epoch_snapshot(self, columns: tuple[str, ...]) -> tuple[int, ...]:
        with self._lock:
            return tuple(self._epochs.get(c, 0) for c in columns)

    def invalidate_column(self, name: str) -> int:
        """A column's bytes changed: bump its epoch, drop dependent entries.

        Returns the number of entries dropped.  Called from
        ``CrystalEngine.invalidate_column`` (itself fired by every
        ``UpdatableColumn.flush``), so a flushed column can never serve
        a pre-flush partial: surviving in-flight queries fail the epoch
        re-check and retry against fresh data.
        """
        with self._lock:
            self._epochs[name] = self._epochs.get(name, 0) + 1
            doomed = [e for e in self._entries.values() if name in e.columns]
            partials = 0
            for entry in doomed:
                partials += self._drop_entry(entry)
        if doomed:
            self.metrics.inc("semcache_invalidations", len(doomed))
            self.metrics.inc("semcache_invalidated_partials", partials)
        self._publish()
        return len(doomed)

    def _drop_entry(self, entry: _Entry) -> int:
        """Remove one entry and its pool residents (caller holds the lock)."""
        self._entries.pop(entry.sig, None)
        sigs = self._by_base.get(entry.base_hash)
        if sigs is not None:
            try:
                sigs.remove(entry.sig)
            except ValueError:
                pass
            if not sigs:
                self._by_base.pop(entry.base_hash, None)
        dropped = 0
        for span in tuple(entry.spans):
            entry.spans.discard(span)
            # invalidate() does not fire release hooks, so no re-entry.
            if self.pool.invalidate(self._span_key(entry.sig, span)):
                dropped += 1
        return dropped

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_base.clear()
            self.pool.clear()
        self._publish()

    # -- bookkeeping ---------------------------------------------------------

    @staticmethod
    def _span_key(sig: str, span: tuple[int, int]) -> str:
        return f"partial/{sig}/{span[0]}-{span[1]}"

    @staticmethod
    def _signature(engine, grid: int, plan) -> tuple[str, str]:
        # The tile grid and partial width shape the spans themselves, so
        # they are part of what makes partials compatible at all.
        base_repr = repr((plan.base_key, int(engine.num_tiles), int(grid)))
        return _digest((base_repr, plan.pred_key)), _digest(base_repr)

    @staticmethod
    def _entry_columns(plan) -> tuple[str, ...]:
        cols = set(plan.query.columns)
        cols.update(p.column for p in plan.predicates)
        return tuple(sorted(cols))

    def _touch(self, sig: str, base_hash: str) -> None:
        """Move a signature to the recent end of its base's donor list."""
        sigs = self._by_base.get(base_hash)
        if sigs and sigs[-1] != sig and sig in sigs:
            sigs.remove(sig)
            sigs.append(sig)

    def stats(self) -> dict:
        """Counters plus current occupancy, for benchmarks and tests."""
        out = {
            k: v
            for k, v in self.metrics.snapshot().items()
            if k.startswith("semcache_")
        }
        out["semcache_entries"] = len(self._entries)
        out["semcache_resident_bytes"] = self.pool.resident_bytes
        return out

    def _publish(self) -> None:
        self.metrics.gauge("semcache_entries", len(self._entries))
        self.metrics.gauge("semcache_resident_bytes", self.pool.resident_bytes)

    # -- probe ----------------------------------------------------------------

    def _get_partial(
        self, entry: _Entry, span: tuple[int, int]
    ) -> CachedPartial | None:
        """Fetch one span's partial if resident and epoch-fresh."""
        resident = self.pool.get(self._span_key(entry.sig, span))
        if resident is None:
            entry.spans.discard(span)  # evicted behind our back
            return None
        partial: CachedPartial = resident.payload
        if partial.epochs != self._epoch_snapshot(entry.columns):
            return None
        return partial

    def _probe(
        self, engine, plan, sig: str, base_hash: str
    ) -> dict[tuple[int, int], CachedPartial]:
        """Best resident coverage of the plan's morsel spans."""
        wanted = [(m.tile_lo, m.tile_hi) for m in plan.morsels]
        covered: dict[tuple[int, int], CachedPartial] = {}
        with self._lock:
            exact = self._entries.get(sig)
            donors = [
                self._entries[s]
                for s in reversed(self._by_base.get(base_hash, []))
                if s != sig and s in self._entries
            ][:MAX_DONORS]
            if exact is not None:
                self._touch(sig, base_hash)
        if exact is not None:
            for span in wanted:
                if span in exact.spans:
                    partial = self._get_partial(exact, span)
                    if partial is not None:
                        covered[span] = partial
        if len(covered) == len(wanted):
            return covered
        for donor in donors:
            missing = [s for s in wanted if s not in covered]
            if not missing:
                break
            if not any(s in donor.spans for s in missing):
                continue
            try:
                valid = self._donor_valid_tiles(engine, plan.predicates, donor.predicates)
            except Exception:
                continue  # bounds unavailable for some column: no donation
            for span in missing:
                if span not in donor.spans or not valid[span[0] : span[1]].all():
                    continue
                partial = self._get_partial(donor, span)
                if partial is not None:
                    covered[span] = partial
                    self.metrics.inc("semcache_donated_partials")
        return covered

    def _donor_valid_tiles(
        self,
        engine,
        q_preds: tuple[ColumnPredicate, ...],
        d_preds: tuple[ColumnPredicate, ...],
    ) -> np.ndarray:
        """Tiles where the donor's predicate provably keeps the query's rows.

        For tile ``t`` the donor's span partial equals the fresh one iff
        the two predicates agree row-wise over ``t``.  Zone-map bounds
        prove that two ways:

        * every column whose canonical conjuncts differ is all-true on
          ``t`` under *both* predicates (differing conjuncts vacuous,
          identical conjuncts agree trivially); or
        * neither predicate can match any row of ``t`` (both partials
          contribute the aggregate identity there).
        """
        n = engine.num_tiles
        q_by = {p.column: p for p in q_preds}
        d_by = {p.column: p for p in d_preds}
        must_both = np.ones(n, dtype=bool)
        for col in set(q_by) | set(d_by):
            qp, dp = q_by.get(col), d_by.get(col)
            if qp is not None and dp is not None and qp.cache_key() == dp.cache_key():
                continue  # identical conjunct: agrees on every row anywhere
            mins, maxs = engine.column_tile_bounds(col)
            if qp is not None:
                must_both &= qp.tile_must_match(mins, maxs)
            if dp is not None:
                must_both &= dp.tile_must_match(mins, maxs)
        if must_both.all():
            return must_both
        may_q = np.ones(n, dtype=bool)
        may_d = np.ones(n, dtype=bool)
        for preds, may in ((q_preds, may_q), (d_preds, may_d)):
            for p in preds:
                mins, maxs = engine.column_tile_bounds(p.column)
                may &= p.tile_may_match(mins, maxs)
        return must_both | (~may_q & ~may_d)

    # -- install --------------------------------------------------------------

    def _ensure_entry(self, sig: str, base_hash: str, plan) -> _Entry:
        with self._lock:
            entry = self._entries.get(sig)
            if entry is None:
                entry = _Entry(
                    sig=sig,
                    base_hash=base_hash,
                    pred_key=plan.pred_key,
                    predicates=plan.predicates,
                    columns=self._entry_columns(plan),
                )
                self._entries[sig] = entry
                self._by_base.setdefault(base_hash, []).append(sig)
            else:
                self._touch(sig, base_hash)
            return entry

    def _install(
        self,
        entry: _Entry,
        partials: list[CachedPartial],
    ) -> None:
        """Admit partials to the pool and index their spans.

        Admission runs outside the semcache lock (it may evict and fire
        release hooks); a partial the budget rejects is simply not
        cached.
        """
        for partial in partials:
            span = partial.span
            try:
                self.pool.admit(
                    self._span_key(entry.sig, span),
                    partial.nbytes,
                    kind="partial",
                    payload=partial,
                    reconstruct_cost_ms=partial.wall_ms,
                    release=lambda e=entry, s=span: e.spans.discard(s),
                )
            except PoolAdmissionError:
                self.metrics.inc("semcache_install_rejections")
                continue
            entry.spans.add(span)
            self.metrics.inc("semcache_installs")

    # -- the cache-aware execute path -----------------------------------------

    def execute(self, engine, executor, query) -> dict[int, int]:
        """Run ``query`` through ``executor``, reusing cached partials.

        Drop-in replacement for ``executor.execute(query)``: the answer
        is bit-identical (cached partials merge through the same exact
        integer path, in the same morsel order), only the work differs.
        """
        # A pinned executor width pins the partial grid too.
        grid = executor.morsel_tiles or PARTIAL_GRID_TILES
        plan = executor.plan(query, morsel_tiles=grid)
        for _attempt in range(MAX_EPOCH_RETRIES):
            # Re-derived each attempt: a re-plan after a racing flush may
            # change lookup fingerprints (and thus the signature).
            sig, base_hash = self._signature(engine, grid, plan)
            columns = self._entry_columns(plan)
            snapshot = self._epoch_snapshot(columns)
            covered = self._probe(engine, plan, sig, base_hash)
            fresh = [
                m for m in plan.morsels if (m.tile_lo, m.tile_hi) not in covered
            ]
            t0 = time.perf_counter()
            outcomes = executor.run_morsels(plan, fresh)
            exec_ms = (time.perf_counter() - t0) * 1e3
            if self._epoch_snapshot(columns) != snapshot:
                # A flush raced us: cached partials and fresh outcomes may
                # straddle the update.  Re-plan against the new bytes.
                self.metrics.inc("semcache_epoch_retries")
                plan = executor.plan(query, morsel_tiles=grid)
                continue
            by_span = {
                (m.tile_lo, m.tile_hi): o for m, o in zip(fresh, outcomes)
            }
            parts: list[tuple[list[str], dict[int, int]]] = []
            for m in plan.morsels:
                span = (m.tile_lo, m.tile_hi)
                if span in covered:
                    parts.append(covered[span].as_part())
                else:
                    o = by_span[span]
                    parts.append((o.pipeline.agg_ops, o.result))
            merged = executor.merge_parts(plan.plan_result, parts)
            # Price the fused kernel from the fresh work only: reused
            # partials are the work the cache saved.
            executor._price_fused_kernel(
                query, plan.ppipe, [o.pipeline for o in outcomes]
            )
            executor.publish_stats(
                plan, outcomes, exec_ms, cached_morsels=len(covered)
            )
            self._record_coverage(covered, fresh, plan)
            if fresh:
                entry = self._ensure_entry(sig, base_hash, plan)
                self._install(entry, self._freeze(fresh, outcomes, snapshot))
            if covered:
                # Promote donated spans under this signature so the next
                # identical query hits them without a donor scan.
                entry = self._ensure_entry(sig, base_hash, plan)
                promoted = [
                    CachedPartial(
                        span=p.span,
                        agg_ops=p.agg_ops,
                        result=p.result,
                        epochs=snapshot,
                        wall_ms=p.wall_ms,
                    )
                    for span, p in covered.items()
                    if span not in entry.spans
                ]
                if promoted:
                    self._install(entry, promoted)
            self._publish()
            return merged
        # Flush storm exhausted the retries: serve a fully fresh,
        # uncached execution (correct, just no reuse this time).
        self.metrics.inc("semcache_bypasses")
        return executor.execute(query)

    @staticmethod
    def _freeze(
        fresh: list, outcomes: list, snapshot: tuple[int, ...]
    ) -> list[CachedPartial]:
        return [
            CachedPartial(
                span=(m.tile_lo, m.tile_hi),
                agg_ops=tuple(o.pipeline.agg_ops),
                result=tuple(
                    (int(k), int(v)) for k, v in sorted(o.result.items())
                ),
                epochs=snapshot,
                wall_ms=o.wall_ms,
            )
            for m, o in zip(fresh, outcomes)
        ]

    def _record_coverage(self, covered, fresh, plan) -> None:
        total = len(plan.morsels)
        self.metrics.inc("semcache_queries")
        self.metrics.inc("semcache_covered_morsels", len(covered))
        self.metrics.inc("semcache_fresh_morsels", len(fresh))
        if total and not fresh:
            self.metrics.inc("semcache_hits")
        elif covered:
            self.metrics.inc("semcache_partial_hits")
        else:
            self.metrics.inc("semcache_misses")
        if covered:
            self.metrics.observe(
                "semcache_saved_ms", sum(p.wall_ms for p in covered.values())
            )
