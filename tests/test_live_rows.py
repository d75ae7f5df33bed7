"""Live-row columns: sparse loads and probe payloads held at the live rows,
as :class:`~repro.engine.runs.RunColumn`s of one-row runs (the form
itself is tested over both run shapes in ``test_run_loads.py``).

* a column at the rows against its expansion: scalar arithmetic and
  operations between columns taken at the same rows stay at the rows,
  anything else sees the span, and rows it was not read at read 0;
* alignment through narrowing — a column loaded through the gather route
  and a probe payload taken under a selection, then read through
  ``live()``, ``group_sum`` and a second probe after ``filter`` and
  ``filter_matched`` narrowed the selection, on the row, run and gather
  routes, at 1, 2 and 4 workers, with checksums on and off, against a
  numpy oracle;
* memory — a sparse load adds no arena buffer, so a morsel's arena holds
  the same bytes whether or not the plan reads a column at few rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.crystal import SPARSE_GATHER_FRACTION, CrystalEngine, SSBQuery
from repro.engine.lookup import MISS
from repro.engine.predicates import Range
from repro.engine.runs import RunColumn
from repro.formats.base import set_checksums
from repro.formats.gpufor import GpuFor
from repro.formats.gpurfor import GpuRFor
from repro.ssb.dbgen import SSBDatabase
from repro.ssb.loader import ColumnStore, StoredColumn


class TestLiveColumn:
    """A column held at the rows it was read at: one-row runs."""

    def test_scalar_ufuncs_stay_at_the_rows(self):
        col = RunColumn(np.array([5, -1, 7]), np.array([1, 4, 6]), 8)
        assert col.lengths is None
        for got, want in (
            (col != MISS, [True, False, True]),
            (col * 2 + 1, [11, -1, 15]),
            (np.maximum(col, 0), [5, 0, 7]),
        ):
            assert isinstance(got, RunColumn) and got.starts is col.starts
            assert got.lengths is None
            assert got.values.tolist() == want
        same = col.with_values(np.array([1, 1, 1]))
        assert (col + same).values.tolist() == [6, 0, 8]

    def test_anything_else_sees_the_span(self):
        col = RunColumn(np.array([5, -1, 7]), np.array([1, 4, 6]), 8)
        assert np.asarray(col).tolist() == [0, 5, 0, 0, -1, 0, 7, 0]
        other = RunColumn(np.array([1, 2]), np.array([1, 6]), 8)
        assert np.asarray(col + other).tolist() == [0, 6, 0, 0, -1, 0, 9, 0]
        assert (col + np.arange(8)).tolist() == [0, 6, 2, 3, 3, 5, 13, 7]
        runs = RunColumn(np.array([1, 2]), np.array([0, 4]), 8, np.array([4, 4]))
        assert np.asarray(col + runs).tolist() == [1, 6, 1, 1, 1, 2, 9, 2]
        assert np.asarray(runs + col).tolist() == [1, 6, 1, 1, 1, 2, 9, 2]


# -- alignment through narrowing -------------------------------------------------

DIM = 40


def _store(n, route, rng):
    """A gpu-star fact table and a ``DIM``-row customer dimension.

    ``lo_key`` (customer keys in runs) is GPU-RFOR on the run route and
    GPU-FOR otherwise; ``lo_val`` and ``lo_w`` are GPU-FOR."""
    keys = np.repeat(rng.integers(1, DIM + 1, n), rng.integers(3, 9, n))[:n]
    columns = {
        "lo_orderkey": np.arange(n, dtype=np.int64),
        "lo_key": keys,
        "lo_val": rng.integers(0, 10**6, n),
        "lo_w": rng.integers(-(10**6), 10**6, n),
    }
    db = SSBDatabase(scale_factor=0.0)
    db.lineorder = columns
    db.customer = {
        "c_custkey": np.arange(1, DIM + 1, dtype=np.int64),
        "c_code": np.arange(DIM, dtype=np.int64) * 7 % 11,
    }
    stored = {}
    for name, values in columns.items():
        codec = GpuRFor() if name == "lo_key" and route == "runs" else GpuFor()
        enc = codec.encode(values)
        stored[name] = StoredColumn(
            name, "gpu-star", values, enc, enc.nbytes, codec_name=codec.name
        )
    return db, ColumnStore(system="gpu-star", columns=stored)


def _dims(db):
    codes = db.customer["c_code"]
    return codes, codes % 4 > 0  # payload and the rows the join keeps


def _form(column):
    """A loaded column's shape: ``"ndarray"``, ``"runs"`` (runs of many
    rows) or ``"unit"`` (one-row runs, at the rows they were read at)."""
    if not isinstance(column, RunColumn):
        return type(column).__name__
    return "unit" if column.lengths is None else "runs"


def _aligned_query(db, key_hi, seen):
    """Load ``lo_key`` dense and ``lo_val`` (sparse once few rows are live),
    probe, narrow twice, then read both at the narrowed selection.

    Inside each morsel the values ``live()`` returns are checked against
    the table at the live rows; ``seen`` records the forms loads took.
    """
    truth = db.lineorder
    payload_of, keep_of = _dims(db)

    def fn(engine):
        lookup = engine.build_lookup(
            "customer", "c_custkey", payload=payload_of, mask=keep_of
        )
        plain = engine.build_lookup("customer", "c_custkey", payload=payload_of)
        p = engine.pipeline("aligned")
        p.filter_pushdown(Range("lo_key", 1, key_hi))
        key = p.load("lo_key")
        p.filter_predicate(Range("lo_key", 1, key_hi), key)
        sparse = p.live_count < p.n * SPARSE_GATHER_FRACTION
        val = p.load("lo_val")
        payload = p.probe(lookup, key)
        if p.n:  # the plan pass runs on zero rows
            seen.add((_form(key), _form(val), _form(payload), sparse))
        p.filter(val % 3 != 0)
        p.filter_matched(payload)
        second = p.probe(plain, key)
        if p.n:  # the plan pass runs on zero rows
            rows = p._morsel.row_lo + p.rows
            assert np.array_equal(p.live(val), truth["lo_val"][rows])
            assert np.array_equal(p.live(key), truth["lo_key"][rows])
            assert np.array_equal(p.live(payload), payload_of[truth["lo_key"][rows] - 1])
            assert np.array_equal(p.live(second), p.live(payload))
            assert np.unique(p.live(payload)).size > 1  # misalignment would show
        codes = np.asarray(p.live(second), dtype=np.int64) * 3 + p.live(val) % 3
        result = p.group_sum(codes, p.load("lo_w"), 11 * 3)
        p.finish()
        return result

    return SSBQuery("aligned", ("lo_key", "lo_val", "lo_w"), fn)


def _aligned_oracle(db, key_hi):
    t = db.lineorder
    payload_of, keep_of = _dims(db)
    keys = t["lo_key"]
    live = (keys <= key_hi) & (t["lo_val"] % 3 != 0) & keep_of[keys - 1]
    codes = payload_of[keys[live] - 1] * 3 + t["lo_val"][live] % 3
    sums = np.zeros(33, dtype=np.int64)
    np.add.at(sums, codes, t["lo_w"][live])
    return {int(c): int(sums[c]) for c in np.flatnonzero(sums)}


@pytest.fixture(params=(False, True), ids=("plain", "checksummed"))
def checksums(request):
    previous = set_checksums(request.param)
    yield request.param
    set_checksums(previous)


@pytest.mark.parametrize("route", ("rows", "runs", "gather"))
def test_live_rows_stay_aligned(route, checksums, rng):
    n = 300 * 512 + 77
    db, store = _store(n, "runs" if route == "runs" else "rows", rng)
    # The gather route keeps 4 keys in 40 after the first filter, fewer
    # rows than SPARSE_GATHER_FRACTION; the others keep half of them.
    key_hi = 4 if route == "gather" else DIM // 2
    oracle = _aligned_oracle(db, key_hi)
    for config in (
        {},
        {"streaming": True, "stream_workers": 1},
        {"streaming": True, "stream_workers": 2},
        {"streaming": True, "stream_workers": 4},
    ):
        seen: set = set()
        engine = CrystalEngine(db, store, **config)
        assert engine.run(_aligned_query(db, key_hi, seen)).groups == oracle, config
        if config.get("stream_workers", 1) > 1:
            assert engine.last_stream_stats["morsels"] == config["stream_workers"]
        engine.close()
        assert len(seen) == 1, seen  # every morsel took the same routes
        ((key_form, val_form, payload_form, sparse),) = seen
        assert payload_form == ("runs" if key_form == "runs" else "unit")
        assert val_form == ("unit" if sparse else "ndarray"), seen
        assert sparse == (route == "gather"), seen
        if route == "runs" and not checksums:
            assert key_form == "runs"


def test_a_sparse_load_adds_no_arena_bytes(rng):
    n = 300 * 512 + 77
    db, store = _store(n, "rows", rng)

    def plan(sparse_load):
        def fn(engine):
            p = engine.pipeline("arena")
            key = p.load("lo_key")
            p.filter(key == 1)  # about 1 row in 40 stays live
            result = p.total_sum(p.load("lo_val") if sparse_load else key)
            p.finish()
            return result

        return SSBQuery("arena", ("lo_key", "lo_val"), fn)

    resident = {}
    for sparse_load in (False, True):
        engine = CrystalEngine(db, store, streaming=True, stream_workers=2)
        engine.run(plan(sparse_load))
        executor = engine._stream_executor
        resident[sparse_load] = executor.peak_decoded_bytes
        assert all("lo_val" not in arena._buffers for arena in executor._arenas)
        engine.close()
    assert resident[True] == resident[False] > 0


def test_probe_payloads_are_four_byte_values(rng):
    db, store = _store(64 * 512, "rows", rng)
    payload_of, keep_of = _dims(db)
    forms = []

    def fn(engine):
        lookup = engine.build_lookup("customer", "c_custkey", payload=payload_of)
        p = engine.pipeline("payload")
        key = p.load("lo_key")
        forms.append(p.probe(lookup, key))
        p.filter(key % 2 == 0)
        forms.append(p.probe(lookup, key))
        p.finish()
        return {}

    CrystalEngine(db, store).run(SSBQuery("payload", ("lo_key",), fn))
    whole, narrowed = forms[-2:]
    assert isinstance(whole, np.ndarray) and whole.dtype == np.int32
    assert _form(narrowed) == "unit" and narrowed.values.dtype == np.int32
