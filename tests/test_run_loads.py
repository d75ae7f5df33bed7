"""Execute on runs: GPU-RFOR columns filtered, probed and gathered unexpanded.

* the run-route differential: every query run with the run load route on,
  and again with it forced off (``GpuRFor.decode_runs_into`` declining,
  so every dense load decodes rows), gives equal answers,
  ``repr(simulated_ms)`` and kernel counts over the hand flights, the
  compiled flights (sorted and unsorted) and the TPC-DS specs, on
  materialized, streaming (1 and 2 workers) and semantic-cache engines;
  the route must really be taken unless checksums are attached;
* :class:`RunColumn` against its expansion, for runs of many rows and
  for one-row runs: scalar arithmetic and operations between columns
  over the same runs stay in form, anything else sees the rows, gaps
  read 0, and a column re-aligns with a selection as it narrows;
* the pipeline's run operators against the row route on a hand-built
  span, including dead runs whose keys no dimension holds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.crystal import CrystalEngine, FactPipeline, SSBQuery
from repro.engine.lookup import MISS
from repro.engine.predicates import Range
from repro.engine.runs import RunColumn
from repro.engine.ssb_queries import QUERIES
from repro.formats.base import TileCodec, checksums_enabled
from repro.formats.gpufor import GpuFor
from repro.formats.gpurfor import GpuRFor
from repro.query.compiler import QueryCompiler
from repro.query.ssb import SSB_SPECS, ssb_model
from repro.query.tpcds import TPCDS_SPECS, tpcds_model
from repro.serving.semcache import SemanticResultCache
from repro.ssb.dbgen import SSBDatabase, generate_tpcds_subset, sort_lineorder_by
from repro.ssb.loader import ColumnStore, StoredColumn, load_lineorder, load_star

# -- the run-route differential ------------------------------------------------


@pytest.fixture(scope="module")
def ssb_stores(ssb_db, gpu_star_store):
    ordered = sort_lineorder_by(ssb_db)
    return {
        "unsorted": (ssb_db, gpu_star_store),
        "sorted": (ordered, load_lineorder(ordered, "gpu-star")),
    }


@pytest.fixture(scope="module")
def tpcds_star():
    sdb = generate_tpcds_subset(scale_factor=0.01, seed=7)
    return sdb, load_star(sdb, "gpu-star")


ENGINES = {
    "materialized": {},
    "stream-1": {"streaming": True, "stream_workers": 1},
    "stream-2": {"streaming": True, "stream_workers": 2},
    "semcache-2": {"streaming": True, "stream_workers": 2, "semcache": True},
}


def _observe(db, store, queries, config, runs_on, monkeypatch):
    """Every query's answer, ``repr(simulated_ms)`` and kernel count, run
    twice over, plus how many loads the run route served."""
    served = [0]
    inner = GpuRFor.decode_runs_into if runs_on else TileCodec.decode_runs_into

    def counted(self, enc, tiles, out):
        runs = inner(self, enc, tiles, out)
        served[0] += runs is not None
        return runs

    monkeypatch.setattr(GpuRFor, "decode_runs_into", counted)
    kwargs = dict(config)
    semcache = kwargs.pop("semcache", False)
    engine = CrystalEngine(db, store, **kwargs)
    if semcache:
        engine.semcache = SemanticResultCache()
    try:
        seen = [
            (q.name, r.groups, repr(r.simulated_ms), r.kernel_count)
            for _ in range(2)
            for q in queries
            for r in (engine.run(q),)
        ]
    finally:
        engine.close()
    return seen, served[0]


def _differential(db, store, queries, config, monkeypatch):
    on, taken = _observe(db, store, queries, config, True, monkeypatch)
    off, never = _observe(db, store, queries, config, False, monkeypatch)
    assert on == off
    assert never == 0
    # Checksummed columns stay on the verified row routes.
    assert (taken == 0) if checksums_enabled() else (taken > 0)


class TestRunRouteDifferential:
    @pytest.mark.parametrize("config", tuple(ENGINES))
    @pytest.mark.parametrize("order", ("unsorted", "sorted"))
    def test_ssb_flights(self, ssb_stores, order, config, monkeypatch):
        db, store = ssb_stores[order]
        compiler = QueryCompiler(ssb_model(), db, store=store)
        queries = list(QUERIES.values()) + [
            compiler.compile(spec) for spec in SSB_SPECS.values()
        ]
        _differential(db, store, queries, ENGINES[config], monkeypatch)

    @pytest.mark.parametrize("config", tuple(ENGINES))
    def test_tpcds_specs(self, tpcds_star, config, monkeypatch):
        sdb, store = tpcds_star
        if not any(col.codec_name == "gpu-rfor" for col in store.columns.values()):
            pytest.skip("no TPC-DS fact column chose GPU-RFOR")
        compiler = QueryCompiler(tpcds_model(), sdb, store=store)
        queries = [compiler.compile(spec) for spec in TPCDS_SPECS.values()]
        _differential(sdb, store, queries, ENGINES[config], monkeypatch)


# -- RunColumn -----------------------------------------------------------------

#: The column's two shapes: runs of many rows, and one-row runs
#: (``lengths is None``: a sparse load or a probe under a selection).
FORMS = ("runs", "unit")


def _column(rng, form, n=2000, gaps=True):
    """Random ascending runs over ``n`` rows in ``form``, some rows left
    uncovered when ``gaps``; returns the column, its expansion and the
    covered rows' mask."""
    if form == "unit":
        starts = np.flatnonzero(rng.random(n) < 0.8) if gaps else np.arange(n)
        lengths = None
    else:
        bounds = np.unique(np.concatenate(([0, n], rng.integers(1, n, 300))))
        starts, lengths = bounds[:-1], np.diff(bounds)
        if gaps:
            keep = rng.random(starts.size) < 0.8
            starts, lengths = starts[keep], lengths[keep]
    values = rng.integers(-50, 50, starts.size)
    runs = RunColumn(values, starts, n, lengths)
    dense = np.zeros(n, dtype=np.int64)
    covered = np.zeros(n, dtype=bool)
    for v, s, m in zip(values, starts, _lengths(runs)):
        dense[s : s + m] = v
        covered[s : s + m] = True
    return runs, dense, covered


def _lengths(runs):
    return np.ones(runs.starts.size, dtype=np.int64) if runs.lengths is None else runs.lengths


def _small(form):
    """Three one-row runs at rows 1, 4 and 6 of 8, in ``form`` (one-row
    runs, or runs whose lengths are spelled out)."""
    lengths = None if form == "unit" else np.ones(3, dtype=np.int64)
    return RunColumn(np.array([5, -1, 7]), np.array([1, 4, 6]), 8, lengths)


class TestRunColumn:
    """Each test runs over both forms (:data:`FORMS`)."""

    @pytest.mark.parametrize("gaps", (False, True))
    def test_matches_its_expansion(self, rng, gaps):
        for form in FORMS:
            runs, dense, covered = _column(rng, form, gaps=gaps)
            assert (runs.lengths is None) == (form == "unit")
            assert runs.shape == dense.shape and len(runs) == dense.size
            assert runs.covers_span is not gaps
            assert runs.covered == np.count_nonzero(covered)
            assert np.array_equal(np.asarray(runs), dense)
            assert np.array_equal(runs.rows_of(), np.flatnonzero(covered))
            for frac in (0.05, 0.6, 1.0):
                chosen = np.flatnonzero(rng.random(runs.values.size) < frac)
                mask = np.zeros(dense.size, dtype=bool)
                for s, m in zip(runs.starts[chosen], _lengths(runs)[chosen]):
                    mask[s : s + m] = True
                assert np.array_equal(runs.rows_of(chosen), np.flatnonzero(mask))
            for frac in (0.0, 0.01, 0.5, 1.0):
                rows = np.flatnonzero(covered & (rng.random(dense.size) < frac))
                assert np.array_equal(runs.values[runs.run_of(rows)], dense[rows])

    def test_scalar_ops_stay_on_runs(self, rng):
        for form in FORMS:
            runs, dense, covered = _column(rng, form)
            for got, want in (
                (runs != MISS, dense != MISS),
                (runs >= 0, dense >= 0),
                (runs * 3 + 1, dense * 3 + 1),
                (np.maximum(runs, 0), np.maximum(dense, 0)),
            ):
                assert isinstance(got, RunColumn) and got.same_runs(runs)
                assert got.lengths is runs.lengths
                assert np.array_equal(np.asarray(got), np.where(covered, want, 0))
            col = _small(form)
            for got, want in (
                (col != MISS, [True, False, True]),
                (col * 2 + 1, [11, -1, 15]),
                (np.maximum(col, 0), [5, 0, 7]),
            ):
                assert isinstance(got, RunColumn) and got.same_runs(col)
                assert got.values.tolist() == want
            # Columns over the same runs combine in form too.
            same = col + col.with_values(np.array([1, 1, 1]))
            assert isinstance(same, RunColumn) and same.same_runs(col)
            assert same.values.tolist() == [6, 0, 8]

    def test_other_ops_see_rows(self, rng):
        for form in FORMS:
            for gaps in (False, True):
                runs, dense, _ = _column(rng, form, gaps=gaps)
                other = rng.integers(0, 9, dense.size)
                assert np.array_equal(runs + other, dense + other)
                assert np.array_equal(
                    np.where(runs >= 0, runs, 0), np.where(dense >= 0, dense, 0)
                )
                assert np.array_equal(
                    np.asarray(runs, dtype=np.float64), dense.astype(np.float64)
                )
            # Rows no run covers read 0, against arrays and other runs.
            col = _small(form)
            assert np.asarray(col).tolist() == [0, 5, 0, 0, -1, 0, 7, 0]
            assert (col + np.arange(8)).tolist() == [0, 6, 2, 3, 3, 5, 13, 7]
            other = RunColumn(np.array([1, 2]), np.array([1, 6]), 8)
            assert np.asarray(col + other).tolist() == [0, 6, 0, 0, -1, 0, 9, 0]
            # One-row and multi-row columns mix through their expansions.
            runs = RunColumn(np.array([1, 2]), np.array([0, 4]), 8, np.array([4, 4]))
            assert np.asarray(col + runs).tolist() == [1, 6, 1, 1, 1, 2, 9, 2]
            assert np.asarray(runs + col).tolist() == [1, 6, 1, 1, 1, 2, 9, 2]
            mine, dense, _ = _column(rng, form)
            for other_form in FORMS:
                other, other_dense = _column(rng, other_form)[:2]
                assert np.array_equal(np.asarray(mine + other), dense + other_dense)
                assert np.array_equal(np.asarray(other + mine), other_dense + dense)

    def test_realigns_after_the_selection_narrows(self, rng):
        n = 3 * 512 + 9
        for form in FORMS:
            runs, dense, covered = _column(rng, form, n=n)
            # Operators on hand-built columns never reach the engine.
            p = FactPipeline(None, "realign", rows=n, tiles=4)
            p.filter(covered)  # rows no run covers are dead
            if form == "unit":
                assert p.live(runs) is runs.values
            assert np.array_equal(p.live(runs), dense[covered])
            for frac in (0.5, 0.05, 0.0):
                p.filter(rng.random(p.live_count) < frac)
                assert np.array_equal(p.live(runs), dense[p.rows])
            assert p.live(runs).size == 0


# -- the pipeline's run operators ----------------------------------------------


def _run_store(columns, d_blocks=1):
    """A gpu-star fact table: ``lo_key`` stored as GPU-RFOR with
    ``d_blocks`` blocks a tile, every other column as GPU-FOR, and a
    ten-row customer dimension keyed 1..10."""
    n = columns["lo_key"].size
    db = SSBDatabase(scale_factor=0.0)
    db.lineorder = {name: np.asarray(v, dtype=np.int64) for name, v in columns.items()}
    db.lineorder.setdefault("lo_orderkey", np.arange(n, dtype=np.int64))
    db.customer = {"c_custkey": np.arange(1, 11, dtype=np.int64)}
    stored = {}
    for name, values in db.lineorder.items():
        codec = GpuRFor(d_blocks=d_blocks) if name == "lo_key" else GpuFor()
        enc = codec.encode(values)
        stored[name] = StoredColumn(
            name, "gpu-star", values, enc, enc.nbytes, codec_name=codec.name
        )
    return db, ColumnStore(system="gpu-star", columns=stored)


def _keyed_query(pushdown, exact):
    """Filter ``lo_key`` (pushdown plus an exact conjunct), join it to
    customer (a filtered payload), and sum ``lo_val`` by payload."""

    def fn(engine):
        lookup = engine.build_lookup(
            "customer", "c_custkey", payload=np.arange(10), mask=np.arange(10) % 3 > 0
        )
        p = engine.pipeline("keyed")
        p.filter_pushdown(pushdown)
        key = p.load("lo_key")
        p.filter_predicate(exact, key)
        payload = p.probe(lookup, key)
        p.filter_matched(payload)
        result = p.group_sum(p.live(payload), p.load("lo_val"), 10)
        p.finish()
        return result

    return SSBQuery("keyed", ("lo_key", "lo_val"), fn)


def _keyed_oracle(keys, vals, exact):
    live = exact.row_mask(keys) & ((keys - 1) % 3 > 0)
    want = np.bincount((keys - 1)[live], weights=vals[live], minlength=10)
    return {int(c): int(want[c]) for c in np.flatnonzero(want)}


ROUTES = ("runs", "rows")
CONFIGS = (
    {},
    {"streaming": True, "stream_workers": 1},
    {"streaming": True, "stream_workers": 2, "morsel_tiles": 3},
    {"streaming": True, "stream_workers": 2, "morsel_tiles": 5},
)


@pytest.mark.parametrize("d_blocks", (1, 4))
def test_runs_clipped_to_morsels(rng, monkeypatch, d_blocks):
    """Codec tiles of 2048 rows overhang morsels of 3 or 5 engine tiles:
    the runs are clipped to each morsel's rows, and pushdown-pruned tiles
    leave gaps; answers and pricing match the row route."""
    n = 40 * 512 + 77
    keys = np.repeat(rng.integers(1, 11, n), rng.integers(1, 9, n))[:n]
    keys[6000:11000] = 4  # one long run across tiles and morsels
    keys[20_000:24_000] = 9  # tiles the pushdown prunes
    vals = rng.integers(0, 1000, n)
    db, store = _run_store({"lo_key": keys, "lo_val": vals}, d_blocks)
    pushdown, exact = Range("lo_key", 1, 8), Range("lo_key", 2, 8)
    query = _keyed_query(pushdown, exact)
    oracle = _keyed_oracle(keys, vals, exact)
    seen = {}
    for route in ROUTES:
        if route == "rows":
            monkeypatch.setattr(GpuRFor, "decode_runs_into", TileCodec.decode_runs_into)
        for i, config in enumerate(CONFIGS):
            result = CrystalEngine(db, store, **config).run(query)
            assert result.groups == oracle, (route, config)
            seen[route, i] = (repr(result.simulated_ms), result.kernel_count)
    assert all(seen["runs", i] == seen["rows", i] for i in range(len(CONFIGS)))


@pytest.mark.parametrize("streaming", (False, True))
def test_dead_runs_never_probed(rng, monkeypatch, streaming):
    """Keys outside the dimension sit only in runs a filter already
    dropped: the probe must not fail on them, on either route."""
    keys = np.repeat(rng.integers(1, 11, 600), 4)
    keys[np.arange(keys.size) % 40 < 4] = 99  # one bad run in every ten
    vals = rng.integers(0, 1000, keys.size)
    db, store = _run_store({"lo_key": keys, "lo_val": vals})
    good = Range("lo_key", 1, 10)
    query = _keyed_query(good, good)
    oracle = _keyed_oracle(keys, vals, good)
    kwargs = {"streaming": True, "stream_workers": 1} if streaming else {}
    assert CrystalEngine(db, store, **kwargs).run(query).groups == oracle
    monkeypatch.setattr(GpuRFor, "decode_runs_into", TileCodec.decode_runs_into)
    assert CrystalEngine(db, store, **kwargs).run(query).groups == oracle
