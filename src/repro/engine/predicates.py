"""Column predicate IR for metadata-driven tile skipping.

The paper's tile decomposition (Section 4) gives every codec a natural
pruning granularity: a tile's block headers bound all of its values, so a
selective scan can skip whole tiles *before* decoding them.  This module
is the small predicate language the engine prunes with.

Each :class:`ColumnPredicate` answers two questions about one column:

* :meth:`~ColumnPredicate.row_mask` — the exact per-row filter, applied
  to decoded values (what the fused query kernel evaluates).
* :meth:`~ColumnPredicate.tile_may_match` — a conservative per-tile test
  against codec bounds ``[mins[t], maxs[t]]``.  ``False`` means the tile
  provably contains no matching row and may be skipped; ``True`` only
  means "cannot rule it out".

Predicates compose with :class:`And`, matching the conjunctive filters
of the SSB queries (Section 8): a tile survives only if every conjunct
may match it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "And",
    "ColumnPredicate",
    "Equals",
    "INT64_MAX",
    "INT64_MIN",
    "InSet",
    "Range",
    "canonical_key",
    "canonical_predicates",
    "column_predicates",
]


#: Inclusive int64 domain bounds, used when an interval is half-open.
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class ColumnPredicate:
    """A filter on a single column, usable both per-row and per-tile."""

    #: Name of the column the predicate constrains.
    column: str

    def row_mask(self, values: np.ndarray) -> np.ndarray:
        """Exact boolean mask over decoded ``values``."""
        raise NotImplementedError

    def as_interval(self) -> tuple[int, int] | None:
        """The predicate as one inclusive ``(lo, hi)`` interval, if it is one.

        Fused decode+filter kernels duck-type on this (codecs must not
        import the engine): an interval test can run in a codec's shifted
        domain before the frame-of-reference is added back.  ``None``
        means "not an interval" — the caller falls back to
        :meth:`row_mask` over materialized values.
        """
        return None

    def tile_may_match(self, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
        """Conservative per-tile test against inclusive bounds.

        Args:
            mins: Per-tile lower bounds (``int64``, one entry per tile).
            maxs: Per-tile upper bounds, aligned with ``mins``.

        Returns:
            Boolean array; ``False`` marks tiles that provably contain
            no row satisfying the predicate.
        """
        raise NotImplementedError

    def tile_must_match(self, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
        """Conservative per-tile test for *every* row satisfying the predicate.

        The dual of :meth:`tile_may_match`: ``True`` means the bounds
        prove the predicate holds on every row of the tile, so a filter
        over that tile is a no-op; ``False`` only means "cannot prove
        it".  Predicate subclasses without a cheap proof inherit the
        all-``False`` default, which is always sound.  The semantic
        result cache uses this to establish when a partial aggregate
        computed under one predicate is reusable under another.
        """
        return np.zeros(np.asarray(mins).shape, dtype=bool)

    def cache_key(self) -> tuple:
        """A stable, hashable identity for semantically equal predicates.

        Degenerate forms collapse (``Range(lo == hi)`` and single-element
        ``InSet`` both become the ``Equals`` key; an unsatisfiable range
        or empty set becomes ``("empty", column)``), so predicates built
        differently by different query flights compare — and hash —
        equal exactly when they select the same rows.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Range(ColumnPredicate):
    """``lo <= column <= hi`` (either bound optional, both inclusive)."""

    column: str
    lo: int | None = None
    hi: int | None = None

    def row_mask(self, values: np.ndarray) -> np.ndarray:
        mask = np.ones(np.asarray(values).shape, dtype=bool)
        if self.lo is not None:
            mask &= values >= self.lo
        if self.hi is not None:
            mask &= values <= self.hi
        return mask

    def tile_may_match(self, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
        # The tile interval [mins, maxs] must overlap [lo, hi].
        may = np.ones(np.asarray(mins).shape, dtype=bool)
        if self.lo is not None:
            may &= maxs >= self.lo
        if self.hi is not None:
            may &= mins <= self.hi
        return may

    def as_interval(self) -> tuple[int, int]:
        return (
            INT64_MIN if self.lo is None else int(self.lo),
            INT64_MAX if self.hi is None else int(self.hi),
        )

    def tile_must_match(self, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
        # Every row matches iff the whole tile interval sits inside [lo, hi].
        must = np.ones(np.asarray(mins).shape, dtype=bool)
        if self.lo is not None:
            must &= mins >= self.lo
        if self.hi is not None:
            must &= maxs <= self.hi
        return must

    def cache_key(self) -> tuple:
        lo, hi = self.as_interval()
        if lo > hi:
            return ("empty", self.column)
        if lo == hi:
            return ("eq", self.column, lo)
        return ("range", self.column, lo, hi)


@dataclass(frozen=True)
class Equals(ColumnPredicate):
    """``column == value``."""

    column: str
    value: int

    def row_mask(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values) == self.value

    def tile_may_match(self, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
        return (mins <= self.value) & (self.value <= maxs)

    def as_interval(self) -> tuple[int, int]:
        return (int(self.value), int(self.value))

    def tile_must_match(self, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
        # Only a constant tile equal to the value matches on every row.
        return (mins == self.value) & (maxs == self.value)

    def cache_key(self) -> tuple:
        return ("eq", self.column, int(self.value))


@dataclass(frozen=True)
class InSet(ColumnPredicate):
    """``column IN values`` for a small explicit set."""

    column: str
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(set(int(v) for v in self.values)))
        object.__setattr__(self, "values", ordered)

    def row_mask(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if not self.values:
            return np.zeros(values.shape, dtype=bool)
        members = np.asarray(self.values, dtype=np.int64)
        lo = self.values[0]
        span = self.values[-1] - lo + 1
        if values.dtype.kind != "i" or span > values.size:
            return np.isin(values, members)
        # A bool table over [lo, hi] plus one False slot at the end.
        # Offsets outside the span clamp to -1 or ``span``, both that
        # slot; an int64 wrap only happens far outside the span and lands
        # on the same side of it.
        table = np.zeros(span + 1, dtype=bool)
        table[members - lo] = True
        offsets = np.subtract(values, lo, dtype=np.int64)
        np.clip(offsets, -1, span, out=offsets)
        return table[offsets]

    def tile_may_match(self, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
        mins = np.asarray(mins)
        if not self.values:
            return np.zeros(mins.shape, dtype=bool)
        vals = np.asarray(self.values, dtype=np.int64)
        # A tile may match iff some set member falls inside [min, max]:
        # with vals sorted, that is one pair of binary searches per tile.
        first_ge_min = np.searchsorted(vals, mins, side="left")
        first_gt_max = np.searchsorted(vals, maxs, side="right")
        return first_ge_min < first_gt_max

    def tile_must_match(self, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
        mins = np.asarray(mins)
        if not self.values:
            return np.zeros(mins.shape, dtype=bool)
        # A constant tile whose value is a set member matches everywhere.
        vals = np.asarray(self.values, dtype=np.int64)
        return (mins == maxs) & np.isin(mins, vals)

    def cache_key(self) -> tuple:
        if not self.values:
            return ("empty", self.column)
        if len(self.values) == 1:
            return ("eq", self.column, self.values[0])
        return ("in", self.column, self.values)


@dataclass(frozen=True)
class And:
    """Conjunction of single-column predicates (the SSB filter shape)."""

    predicates: tuple[ColumnPredicate, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        flat: list[ColumnPredicate] = []
        for pred in self.predicates:
            if isinstance(pred, And):
                flat.extend(pred.predicates)
            else:
                flat.append(pred)
        object.__setattr__(self, "predicates", tuple(flat))

    def cache_key(self) -> tuple:
        """Canonical key of the whole conjunction (see :func:`canonical_key`)."""
        return canonical_key(self)


def canonical_predicates(
    predicate: ColumnPredicate | And | None,
) -> tuple[ColumnPredicate, ...]:
    """Reduce a predicate to one normalized conjunct per column.

    Per-column constraints are intersected exactly — ranges intersect
    their intervals, sets intersect their members and are clipped to the
    surrounding interval — and each surviving column re-emerges in its
    simplest form: ``Equals`` for a point, ``InSet`` for a small set,
    ``Range`` for an interval, nothing for a full-domain constraint, and
    ``InSet(column, ())`` for a provably empty one.  The result is
    sorted by column name, so any two conjunctions selecting the same
    rows normalize to the same tuple.
    """
    preds = column_predicates(predicate)
    los: dict[str, int] = {}
    his: dict[str, int] = {}
    sets: dict[str, frozenset[int] | None] = {}
    for pred in preds:
        col = pred.column
        if col not in los:
            los[col], his[col], sets[col] = INT64_MIN, INT64_MAX, None
        if isinstance(pred, InSet):
            members = frozenset(pred.values)
            prior = sets[col]
            sets[col] = members if prior is None else prior & members
        elif isinstance(pred, (Range, Equals)):
            lo, hi = pred.as_interval()
            los[col] = max(los[col], lo)
            his[col] = min(his[col], hi)
        else:
            raise TypeError(
                f"cannot canonicalize predicate type {type(pred).__name__}"
            )
    out: list[ColumnPredicate] = []
    for col in sorted(los):
        lo, hi, members = los[col], his[col], sets[col]
        if members is not None:
            vals = tuple(sorted(v for v in members if lo <= v <= hi))
            if not vals:
                out.append(InSet(col, ()))
            elif len(vals) == 1:
                out.append(Equals(col, vals[0]))
            else:
                out.append(InSet(col, vals))
        elif lo > hi:
            out.append(InSet(col, ()))
        elif lo == hi:
            out.append(Equals(col, lo))
        elif lo == INT64_MIN and hi == INT64_MAX:
            continue  # no constraint at all
        else:
            out.append(
                Range(
                    col,
                    None if lo == INT64_MIN else lo,
                    None if hi == INT64_MAX else hi,
                )
            )
    return tuple(out)


def canonical_key(predicate: ColumnPredicate | And | None) -> tuple:
    """A stable hashable key identifying a predicate up to semantics.

    ``("true",)`` for no constraint, ``("false",)`` when any column's
    constraint is unsatisfiable, otherwise ``("and", (conjunct keys
    sorted by column))`` over the :func:`canonical_predicates` form.
    Semantically identical filters built by different flights (``And``
    nesting, conjunct order, ``Range(lo == hi)`` vs ``Equals``,
    single-member ``InSet``, redundant repeats) all map to one key.
    """
    conjuncts = canonical_predicates(predicate)
    keys = tuple(p.cache_key() for p in conjuncts)
    if any(k[0] == "empty" for k in keys):
        return ("false",)
    if not keys:
        return ("true",)
    return ("and", keys)


def column_predicates(
    predicate: ColumnPredicate | And | None,
) -> tuple[ColumnPredicate, ...]:
    """Normalize a predicate (or conjunction, or ``None``) to a flat tuple."""
    if predicate is None:
        return ()
    if isinstance(predicate, And):
        return predicate.predicates
    if isinstance(predicate, ColumnPredicate):
        return (predicate,)
    raise TypeError(
        f"expected ColumnPredicate or And, got {type(predicate).__name__}"
    )
