"""One column-at-rows form, differentially: a :class:`FactPipeline` fed
:class:`~repro.engine.runs.RunColumn`s against dense arrays.

* hypothesis draws a span of a few tiles, some pruned (their rows dead
  and covered by no run), then a sequence of operators: new columns
  (runs of many rows with gaps, one-row runs at the live rows, span-wide
  arrays, and sums of two of them), ``filter``, ``filter_predicate``,
  ``filter_matched``, ``probe``, ``live`` and the four aggregates.
  Every result, and the selection after every step, must equal the
  same operator on dense arrays;
* a plan that interleaves a multi-row key column with one-row columns
  keeps the pipeline's views of the key's runs, which one-row columns
  never evict;
* the same interleaving end to end: GPU-RFOR keys loaded as runs beside
  columns gathered at few live rows, through the codecs, at 1 and 2
  workers (checksummed in CI, where the run route is denied).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.crystal import TILE, CrystalEngine, FactPipeline, SSBQuery
from repro.engine.lookup import MISS, make_lookup
from repro.engine.predicates import Range
from repro.engine.runs import RunColumn
from repro.formats.base import checksums_enabled
from repro.formats.gpufor import GpuFor
from repro.formats.gpurfor import GpuRFor
from repro.ssb.dbgen import SSBDatabase
from repro.ssb.loader import ColumnStore, StoredColumn

#: Dimension keys are 1..DIM; ``BAD`` is a key the dimension lacks.
DIM = 12
BAD = 99


def _lookup(rng):
    keys = np.arange(1, DIM + 1)
    payload = rng.integers(0, 5, DIM)
    mask = rng.random(DIM) < 0.7
    return make_lookup("dim", keys, payload=payload, mask=mask)


def _probed(lookup, dense):
    """The oracle's payload at every row (``MISS`` where the key is bad)."""
    idx = dense - lookup.key_base
    ok = (idx >= 0) & (idx < lookup.payload.size)
    return np.where(ok, lookup.payload[np.where(ok, idx, 0)], MISS).astype(np.int64)


class _Span:
    """A pipeline over ``n`` rows beside its oracle: the live mask and
    each column's value at every row."""

    def __init__(self, rng, n, pruned_tiles, bad_rate):
        self.rng = rng
        self.n = n
        self.bad_rate = bad_rate
        tiles = -(-n // TILE)
        # Operators on hand-built columns never reach the engine.
        self.p = FactPipeline(None, "forms", rows=n, tiles=tiles)
        self.pruned = np.zeros(n, dtype=bool)
        for t in pruned_tiles:
            self.pruned[t * TILE : (t + 1) * TILE] = True
        self.live = ~self.pruned
        self.p.filter(self.live.copy())  # a pruned tile's rows start dead
        self.columns: list[tuple[object, np.ndarray]] = []
        self.payloads: list[tuple[object, np.ndarray]] = []

    def check_selection(self):
        assert self.p.live_count == int(self.live.sum())
        assert np.array_equal(self.p.rows, np.flatnonzero(self.live))

    # -- columns ---------------------------------------------------------------

    def _values(self, size, keys):
        if keys:
            values = self.rng.integers(1, DIM + 1, size)
            values[self.rng.random(size) < self.bad_rate] = BAD
            return values
        return self.rng.integers(-20, 20, size)

    def runs(self, keys, cuts):
        """Runs of many rows over the unpruned tiles; runs holding no
        live row may be dropped, leaving gaps."""
        n = self.n
        edges = [0, n, *self.rng.integers(1, n, cuts).tolist()] if n > 1 else [0, n]
        edges += [t for t in range(0, n, TILE)]
        bounds = np.unique(edges)
        starts, lengths = bounds[:-1], np.diff(bounds)
        live_rows = np.add.reduceat(self.live.astype(np.int64), starts)
        keep = ~self.pruned[starts] & ((live_rows > 0) | (self.rng.random(starts.size) < 0.5))
        starts, lengths = starts[keep], lengths[keep]
        values = self._values(starts.size, keys)
        dense = np.zeros(n, dtype=np.int64)
        for v, s, m in zip(values, starts, lengths):
            dense[s : s + m] = v
        return RunColumn(values, starts, n, lengths), dense

    def unit(self, keys):
        """One-row runs at the live rows, as a sparse load reads them."""
        rows = self.p.rows
        values = self._values(rows.size, keys).astype(np.int32)
        dense = np.zeros(self.n, dtype=np.int64)
        dense[rows] = values
        return RunColumn(values, rows, self.n), dense

    def array(self, keys):
        dense = self._values(self.n, keys)
        return dense.copy(), dense


def _group_oracle(codes, values, groups, how):
    out: dict[int, int] = {}
    for c, v in zip(codes.tolist(), values.tolist()):
        if how == "sum":
            out[c] = out.get(c, 0) + v
        else:
            out[c] = v if c not in out else (min if how == "min" else max)(out[c], v)
    return {c: v for c, v in out.items() if how != "sum" or v}


OPS = (
    "runs", "unit", "array", "combine", "filter", "predicate", "probe", "matched", "live",
    "aggregate",
)
#: ``group_sum``, ``total_sum``, ``total_sum_product`` and each ``how`` of
#: ``group_aggregate``.
AGGREGATES = ("group_sum", "total", "product", "sum", "count", "min", "max")


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    tiles=st.integers(1, 4),
    tail=st.integers(0, TILE - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_operators_match_dense_arrays(data, tiles, tail, seed):
    rng = np.random.default_rng(seed)
    n = max(1, tiles * TILE - tail)
    pruned = data.draw(st.sets(st.integers(0, -(-n // TILE) - 1), max_size=2))
    bad_rate = data.draw(st.sampled_from((0.0, 0.002, 0.05)))
    span = _Span(rng, n, sorted(pruned), bad_rate)
    lookup = _lookup(rng)
    p, pool = span.p, span.columns
    span.check_selection()
    for op in data.draw(st.lists(st.sampled_from(OPS), min_size=4, max_size=25)):
        live = span.live
        if op in ("runs", "unit", "array"):
            keys = data.draw(st.booleans())
            if op == "runs":
                pool.append(span.runs(keys, data.draw(st.integers(0, 60))))
            else:
                pool.append(getattr(span, op)(keys))
            continue
        if not pool:
            continue
        col, dense = pool[data.draw(st.integers(0, len(pool) - 1))]
        if op == "combine":  # in form over the same runs, else expanded
            other, other_dense = pool[data.draw(st.integers(0, len(pool) - 1))]
            pool.append((col + other, dense + other_dense))
        elif op == "filter":
            m = data.draw(st.integers(2, 4))
            r = data.draw(st.integers(0, m - 1))
            p.filter(col % m != r)
            span.live = live & (dense % m != r)
        elif op == "predicate":
            lo = data.draw(st.integers(-20, DIM))
            hi = data.draw(st.integers(lo, BAD))
            p.filter_predicate(Range("c", lo, hi), col)
            span.live = live & (dense >= lo) & (dense <= hi)
        elif op == "probe":
            bad = live & ((dense < 1) | (dense > DIM))
            if bad.any():
                with pytest.raises(IndexError):
                    p.probe(lookup, col)
                continue
            payload = p.probe(lookup, col)
            if isinstance(col, RunColumn) and col.lengths is not None:
                assert payload.same_runs(col)
            span.payloads.append((payload, _probed(lookup, dense)))
            pool.append(span.payloads[-1])
        elif op == "matched":
            if not span.payloads:
                continue
            payload, dense = span.payloads[data.draw(st.integers(0, len(span.payloads) - 1))]
            p.filter_matched(payload)
            span.live = live & (dense != MISS)
        elif op == "live":
            got = p.live(col)
            assert isinstance(got, np.ndarray)
            assert np.array_equal(got, dense[live])
        else:
            other, other_dense = pool[data.draw(st.integers(0, len(pool) - 1))]
            kind = data.draw(st.sampled_from(AGGREGATES))
            groups = data.draw(st.integers(1, 7))
            codes, vals = dense[live] % groups, other_dense[live]
            if kind == "group_sum":
                got = p.group_sum(col % groups, other, groups)
                want = _group_oracle(codes, vals, groups, "sum")
            elif kind == "total":
                got, want = p.total_sum(col), {0: int(dense[live].sum())}
            elif kind == "product":
                got = p.total_sum_product(col, other)
                want = {0: int((dense[live] * vals).sum())}
            elif kind == "count":
                got = p.group_aggregate(col % groups, None, groups, how="count")
                want = _group_oracle(codes, np.ones_like(codes), groups, "sum")
            else:
                got = p.group_aggregate(col % groups, other, groups, how=kind)
                want = _group_oracle(codes, vals, groups, kind)
            assert got == want, kind
        span.check_selection()


# -- the run views survive one-row columns ---------------------------------------


def test_one_row_columns_keep_the_key_runs_views(rng):
    n = 4 * TILE - 100
    span = _Span(rng, n, [2], bad_rate=0.0)
    p, lookup = span.p, _lookup(rng)
    key, key_dense = span.runs(True, 200)

    def check(col, dense):
        assert np.array_equal(p.live(col), dense[span.live])
        span.check_selection()

    p.filter(key % 2 == 0)  # whole runs kept: the selection is the live runs
    span.live &= key_dense % 2 == 0
    whole = p._whole_runs
    assert whole is not None and whole[0] is key.starts
    check(key, key_dense)
    val, val_dense = span.unit(False)  # gathered at the live rows
    payload = p.probe(lookup, key)
    payload_dense = _probed(lookup, key_dense)
    assert p._whole_runs is whole  # neither gather nor probe narrowed
    p.filter(val % 3 != 0)
    span.live &= val_dense % 3 != 0
    check(key, key_dense)  # per-row run ids, cached by the key's runs
    assert p._row_runs[0] is key.starts
    ids = p._row_runs[1]
    check(val, val_dense)
    second = p.probe(lookup, val.with_values(np.full(val.values.size, 2, np.int32)))
    assert second.lengths is None and second.starts is p.rows
    assert p._row_runs[1] is ids  # one-row columns leave the views in place
    p.filter_matched(payload)
    span.live &= payload_dense != MISS
    assert p._row_runs[0] is key.starts  # kept in step with the selection
    check(key, key_dense)
    check(payload, payload_dense)
    check(val, val_dense)
    codes = np.asarray(p.live(payload), dtype=np.int64) * 3 + p.live(val) % 3
    live = span.live
    want = _group_oracle(payload_dense[live] * 3 + val_dense[live] % 3, key_dense[live], 15, "sum")
    assert p.group_sum(codes, key, 15) == want


# -- the same interleaving through the codecs ------------------------------------


#: The customer dimension's rows in the end-to-end test.
CUSTOMERS = 40


def _keyed_store(n, rng):
    """``lo_key`` as GPU-RFOR runs of customer keys, ``lo_val`` and
    ``lo_w`` as GPU-FOR, and a ``CUSTOMERS``-row customer dimension
    whose ``c_code`` is 1..7."""
    columns = {
        "lo_orderkey": np.arange(n, dtype=np.int64),
        "lo_key": np.repeat(rng.integers(1, CUSTOMERS + 1, n), rng.integers(4, 40, n))[:n],
        "lo_val": rng.integers(0, 10**6, n),
        "lo_w": rng.integers(-(10**6), 10**6, n),
    }
    db = SSBDatabase(scale_factor=0.0)
    db.lineorder = columns
    db.customer = {
        "c_custkey": np.arange(1, CUSTOMERS + 1, dtype=np.int64),
        "c_code": np.arange(CUSTOMERS, dtype=np.int64) % 7 + 1,
    }
    stored = {}
    for name, values in columns.items():
        codec = GpuRFor() if name == "lo_key" else GpuFor()
        enc = codec.encode(values)
        stored[name] = StoredColumn(
            name, "gpu-star", values, enc, enc.nbytes, codec_name=codec.name
        )
    return db, ColumnStore(system="gpu-star", columns=stored)


@pytest.mark.parametrize("workers", (1, 2))
def test_key_runs_beside_gathered_columns(workers, rng):
    """Keys 1..3 of 40 leave about 1 row in 13 live, fewer than
    :data:`~repro.engine.crystal.SPARSE_GATHER_FRACTION`: ``lo_val`` and
    ``lo_w`` are gathered as one-row runs while ``lo_key`` stays runs.
    The join keeps keys 1 and 2 (codes 1 and 2), not 3."""
    n = 200 * TILE + 77
    db, store = _keyed_store(n, rng)
    codes = db.customer["c_code"]
    keep = codes % 3 > 0
    seen = set()

    def fn(engine):
        lookup = engine.build_lookup("customer", "c_custkey", payload=codes, mask=keep)
        p = engine.pipeline("interleaved")
        p.filter_pushdown(Range("lo_key", 1, 3))
        key = p.load("lo_key")
        p.filter_predicate(Range("lo_key", 1, 3), key)
        val = p.load("lo_val")
        payload = p.probe(lookup, key)
        p.filter(val % 4 != 0)
        p.filter_matched(payload)
        w = p.load("lo_w")
        if p.n:  # the plan pass runs on zero rows
            seen.add(tuple("ndarray" if not isinstance(c, RunColumn) else
                           "unit" if c.lengths is None else "runs" for c in (key, val, w)))
        group = np.asarray(p.live(payload), dtype=np.int64) * 4 + p.live(val) % 4
        result = p.group_sum(group, w, 8 * 4)
        p.finish()
        return result

    t = db.lineorder
    live = (t["lo_key"] <= 3) & (t["lo_val"] % 4 != 0) & keep[t["lo_key"] - 1]
    want = _group_oracle(
        codes[t["lo_key"][live] - 1] * 4 + t["lo_val"][live] % 4, t["lo_w"][live], 32, "sum"
    )
    assert len({c // 4 for c in want}) == 2  # both kept keys' payloads
    engine = CrystalEngine(db, store, streaming=True, stream_workers=workers)
    try:
        query = SSBQuery("interleaved", ("lo_key", "lo_val", "lo_w"), fn)
        assert engine.run(query).groups == want
    finally:
        engine.close()
    key_form = "ndarray" if checksums_enabled() else "runs"
    assert seen == {(key_form, "unit", "unit")}
