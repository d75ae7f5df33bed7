"""Predicate pushdown: bounds soundness, pruned decode, bit-identical plans.

Three layers of coverage:

* codec bounds contract — every codec exposing ``tile_bounds`` must
  bound all stored values per tile, across random, sorted, run-heavy,
  skewed, constant, tiny and empty inputs (including a partial last
  tile);
* engine pruning — for every GPU-* codec and selectivities spanning
  0% / ~1% / 50% / 100% / exact bounds-boundary values, the pruned and
  unpruned pipelines must agree bit for bit on filters and aggregates;
* caching — bounds live in the serving pool under ``bounds/``, survive
  eviction of decoded images, and die with ``invalidate_column``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.crystal import TILE, CrystalEngine, SSBQuery
from repro.engine.predicates import And, Equals, InSet, Range
from repro.formats.registry import get_codec
from repro.serving.pool import ColumnPool
from repro.ssb.dbgen import SSBDatabase
from repro.ssb.loader import ColumnStore, StoredColumn

BOUNDED_CODECS = ("gpu-for", "gpu-dfor", "gpu-rfor", "gpu-bp", "gpu-simdbp128", "pfor")
GPU_CODECS = ("gpu-for", "gpu-dfor", "gpu-rfor", "gpu-bp", "gpu-simdbp128")


def _datasets(rng):
    return {
        "random": rng.integers(0, 10_000, 5000),
        "sorted": np.sort(rng.integers(0, 100_000, 4321)),
        "runs": np.repeat(rng.integers(0, 50, 40), rng.integers(1, 200, 40))[:5000],
        "skewed": np.where(
            rng.random(5000) < 0.01,
            rng.integers(0, 2**20, 5000),
            rng.integers(0, 16, 5000),
        ),
        "constant": np.full(3000, 7),
        "partial_tail": rng.integers(0, 1000, 2 * TILE + 17),
        "tiny": np.array([5, 3, 9]),
        "empty": np.zeros(0, dtype=np.int64),
    }


class TestBoundsContract:
    @pytest.mark.parametrize("codec_name", BOUNDED_CODECS)
    def test_bounds_cover_every_tile(self, codec_name, rng):
        codec = get_codec(codec_name)
        for label, data in _datasets(rng).items():
            data = np.asarray(data, dtype=np.int64)
            enc = codec.encode(data)
            mins, maxs = codec.tile_bounds(enc)
            elems = codec.bounds_elements(enc)
            n_tiles = -(-data.size // elems) if data.size else 0
            assert mins.size == n_tiles == maxs.size, label
            if n_tiles:
                assert (mins <= maxs).all(), label
            for t in range(n_tiles):
                chunk = data[t * elems : (t + 1) * elems]
                assert mins[t] <= chunk.min(), (label, t)
                assert maxs[t] >= chunk.max(), (label, t)

    @pytest.mark.parametrize("codec_name", ("gpu-for", "gpu-rfor", "pfor"))
    def test_for_family_min_is_exact(self, codec_name, rng):
        """FOR references are per-block minima, so mins are tight."""
        codec = get_codec(codec_name)
        data = rng.integers(0, 100_000, 4096).astype(np.int64)
        enc = codec.encode(data)
        mins, _ = codec.tile_bounds(enc)
        elems = codec.bounds_elements(enc)
        exact = data.reshape(-1, elems).min(axis=1)
        assert np.array_equal(mins, exact)

    def test_unbounded_codec_raises(self):
        codec = get_codec("gpu-vbyte")
        enc = codec.encode(np.arange(100, dtype=np.int64))
        with pytest.raises(NotImplementedError):
            codec.tile_bounds(enc)


def _make_engine(columns, codec_by_col, pushdown=True, pool=None):
    """A gpu-star engine over hand-built lineorder columns."""
    n = next(iter(columns.values())).size
    db = SSBDatabase(scale_factor=0.0)
    lineorder = {name: np.asarray(v, dtype=np.int64) for name, v in columns.items()}
    lineorder.setdefault("lo_orderkey", np.arange(n, dtype=np.int64))
    db.lineorder = lineorder
    stored = {}
    for name, values in lineorder.items():
        codec_name = codec_by_col.get(name, "gpu-for")
        enc = get_codec(codec_name).encode(values)
        stored[name] = StoredColumn(
            name, "gpu-star", values, enc, enc.nbytes, codec_name=codec_name
        )
    store = ColumnStore(system="gpu-star", columns=stored)
    return CrystalEngine(db, store, pool=pool, pushdown=pushdown)


def _scan(engine, predicate, exact_preds):
    """A minimal pushdown-filter-aggregate plan; returns all observables."""
    seen = {}

    def fn(eng):
        p = eng.pipeline("t")
        seen["pruned"] = p.filter_pushdown(predicate)
        for pred in exact_preds:
            p.filter_predicate(pred, p.load(pred.column))
        weights = p.load("lo_weight")
        codes = p.load("lo_code")
        seen["total"] = p.total_sum(weights)
        seen["by_code"] = p.group_sum(codes, weights, 8)
        seen["rows"] = np.flatnonzero(p.mask)
        p.finish()
        return seen["total"]

    engine.run(SSBQuery("t", (), fn))
    # The last pipeline is the whole-grid morsel, or the plan pass when
    # pushdown pruned every tile (no morsel runs, no row is live).
    rows = seen["rows"]
    return seen["pruned"], seen["total"], seen["by_code"], int(rows.size), rows.tobytes()


@pytest.mark.parametrize("codec_name", GPU_CODECS)
class TestPrunedVsUnprunedIdentical:
    def _columns(self, rng, codec_name):
        # Sorted key => clustered tiles => real pruning; partial last tile.
        n = 5 * TILE + 123
        key = np.sort(rng.integers(0, 20_000, n))
        return {
            "lo_key": key,
            "lo_weight": rng.integers(1, 100, n),
            "lo_code": rng.integers(0, 8, n),
        }, {"lo_key": codec_name, "lo_weight": "gpu-for", "lo_code": "gpu-for"}

    def _selectivity_ranges(self, key):
        lo, hi = int(key.min()), int(key.max())
        mid = int(np.median(key))
        return {
            "0pct": Range("lo_key", hi + 1000, hi + 2000),
            "1pct": Range("lo_key", lo, int(np.quantile(key, 0.01))),
            "50pct": Range("lo_key", lo, mid),
            "100pct": Range("lo_key", lo, hi),
            # Exactly the stored extremes: inclusive bounds must keep both.
            "boundary": Range("lo_key", lo, lo),
        }

    def test_bit_identical_all_selectivities(self, codec_name, rng):
        columns, codecs = self._columns(rng, codec_name)
        key = columns["lo_key"]
        for label, pred in self._selectivity_ranges(key).items():
            on = _make_engine(columns, codecs, pushdown=True)
            off = _make_engine(columns, codecs, pushdown=False)
            r_on = _scan(on, pred, [pred])
            r_off = _scan(off, pred, [pred])
            # pruned counts differ by design; everything else must match.
            assert r_on[1:] == r_off[1:], (codec_name, label)
            assert r_off[0] == 0, label
            # Cross-check the aggregate against plain NumPy.
            mask = (key >= pred.lo) & (key <= pred.hi)
            assert r_on[1] == {0: int(columns["lo_weight"][mask].sum())} or (
                not mask.any() and r_on[1] == {0: 0}
            ), (codec_name, label)

    def test_zero_selectivity_prunes_everything(self, codec_name, rng, run_plan):
        columns, codecs = self._columns(rng, codec_name)
        engine = _make_engine(columns, codecs, pushdown=True)
        # Conservative maxs may overshoot the true column max (bitwidth
        # headroom), so probe strictly above the loosest bound.
        _, maxs = engine.column_tile_bounds("lo_key")
        seen = {}

        def body(p):
            seen["pruned"] = p.filter_pushdown(Range("lo_key", int(maxs.max()) + 1, None))
            return p.total_sum(p.load("lo_weight"))

        result, pipes = run_plan(engine, body)
        assert seen["pruned"] == engine.num_tiles
        (plan,) = pipes  # every tile pruned: no morsel ran
        assert not plan.global_tile_active.any()
        assert not plan.mask.any()
        assert result.groups == {0: 0}


class TestPushdownMechanics:
    def test_conjunction_and_other_predicates(self, rng):
        n = 3 * TILE
        columns = {
            "lo_key": np.sort(rng.integers(0, 3000, n)),
            "lo_flag": np.repeat(np.arange(3), TILE),
            "lo_weight": rng.integers(1, 10, n),
            "lo_code": rng.integers(0, 8, n),
        }
        codecs = dict.fromkeys(columns, "gpu-for")
        pred = And((Equals("lo_flag", 1), InSet("lo_key", (0, 1, 2, 3))))
        on = _make_engine(columns, codecs, pushdown=True)
        off = _make_engine(columns, codecs, pushdown=False)
        exact = [Equals("lo_flag", 1), InSet("lo_key", (0, 1, 2, 3))]
        assert _scan(on, pred, exact)[1:] == _scan(off, pred, exact)[1:]

    def test_pushdown_disabled_is_noop(self, rng, run_plan):
        columns = {"lo_key": np.sort(rng.integers(0, 100, TILE * 2))}
        engine = _make_engine(columns, {"lo_key": "gpu-for"}, pushdown=False)
        pruned = []
        _, pipes = run_plan(
            engine, lambda p: pruned.append(p.filter_pushdown(Range("lo_key", 10_000, None)))
        )
        assert pruned == [0, 0]  # plan pass, then the whole-grid morsel
        assert pipes[-1].tile_active.all()

    def test_pruned_tiles_skip_decode_and_read_bytes(self, rng, run_plan):
        columns = {
            "lo_key": np.arange(8 * TILE, dtype=np.int64),
            "lo_weight": rng.integers(1, 10, 8 * TILE),
        }
        codecs = {"lo_key": "gpu-dfor", "lo_weight": "gpu-for"}
        pred = Range("lo_key", 0, TILE - 1)  # first tile only
        keys = []

        def body(p, pushdown):
            if pushdown:
                p.filter_pushdown(pred)
            keys.append(p.load("lo_key"))

        on = _make_engine(columns, codecs, pushdown=True)
        _, pipes = run_plan(on, lambda p: body(p, True))
        morsel = pipes[-1]
        assert int(morsel.tile_active.sum()) == 1
        key = keys[-1]
        # Late materialization: surviving tile decoded, pruned tiles zero.
        assert np.array_equal(key[:TILE], columns["lo_key"][:TILE])
        assert not key[TILE:].any()
        read_on = morsel._read_bytes

        off = _make_engine(columns, codecs, pushdown=False)
        _, pipes = run_plan(off, lambda p: body(p, False))
        assert read_on < pipes[-1]._read_bytes

    def test_filter_narrows_selection_vector(self, rng, run_plan):
        columns = {"lo_key": rng.integers(0, 50, 2 * TILE + 7)}
        engine = _make_engine(columns, {"lo_key": "gpu-for"})

        def body(p):
            expect = np.ones(p.n, dtype=bool)
            for _ in range(3):
                keep = rng.random(p.n) < 0.3
                p.filter(keep)
                expect &= keep
                assert np.array_equal(p.rows, np.flatnonzero(expect))
                assert np.array_equal(p.mask, expect)
                assert p.live_count == int(expect.sum())
            # A live-row mask narrows the same way as a span-row one.
            p.filter(p.live(np.arange(p.n)) % 2 == 0)
            expect &= np.arange(p.n) % 2 == 0
            assert np.array_equal(p.rows, np.flatnonzero(expect))
            # Tile activity follows the surviving rows.
            touched = np.zeros(p.tile_active.size, dtype=bool)
            touched[np.flatnonzero(expect) // TILE] = True
            assert np.array_equal(p.tile_active, touched)

        _, pipes = run_plan(engine, body)
        assert pipes[-1].n == engine.num_rows

    def test_load_pricing_excludes_padding_rows(self, run_plan):
        n = TILE + 100  # partial last tile
        columns = {"lo_key": np.arange(n, dtype=np.int64)}
        engine = _make_engine(columns, {"lo_key": "gpu-for"})
        charged = []

        def body(p):
            before = p._compute
            p.load("lo_key")
            charged.append(p._compute - before)

        run_plan(engine, body)
        codec = get_codec("gpu-for")
        res = codec.kernel_resources(engine.store["lo_key"].payload)
        expected = int(
            res.compute_ops_per_element * n + res.tile_prologue_ops * 2
        )
        assert charged[-1] == expected


class TestBoundsCaching:
    def test_engine_cache_and_invalidation(self, rng):
        columns = {"lo_key": np.sort(rng.integers(0, 1000, 2 * TILE))}
        engine = _make_engine(columns, {"lo_key": "gpu-for"})
        b1 = engine.column_tile_bounds("lo_key")
        assert engine.column_tile_bounds("lo_key") is b1
        engine.invalidate_column("lo_key")
        b2 = engine.column_tile_bounds("lo_key")
        assert b2 is not b1
        assert np.array_equal(b1[0], b2[0]) and np.array_equal(b1[1], b2[1])

    def test_pool_bounds_survive_decoded_eviction(self, rng):
        columns = {"lo_key": np.sort(rng.integers(0, 1000, 4 * TILE))}
        pool = ColumnPool(budget_bytes=64 * 1024 * 1024)
        engine = _make_engine(columns, {"lo_key": "gpu-for"}, pool=pool)
        engine.column_tile_bounds("lo_key")
        resident = pool.lookup("bounds/lo_key")
        assert resident is not None and resident.kind == "meta"
        engine.column_values("lo_key")
        assert pool.lookup("decoded/lo_key") is not None
        engine.evict_decoded()
        assert pool.lookup("decoded/lo_key") is None
        assert pool.lookup("bounds/lo_key") is not None
        engine.invalidate_column("lo_key")
        assert pool.lookup("bounds/lo_key") is None

    def test_uncompressed_columns_get_exact_bounds(self, rng):
        values = rng.integers(-500, 500, 3 * TILE + 11)
        n = values.size
        db = SSBDatabase(scale_factor=0.0)
        db.lineorder = {
            "lo_orderkey": np.arange(n, dtype=np.int64),
            "lo_key": values.astype(np.int64),
        }
        store = ColumnStore(
            system="none",
            columns={
                name: StoredColumn(name, "none", vals, None, vals.size * 4)
                for name, vals in db.lineorder.items()
            },
        )
        engine = CrystalEngine(db, store)
        mins, maxs = engine.column_tile_bounds("lo_key")
        assert mins.size == engine.num_tiles
        for t in range(engine.num_tiles):
            chunk = values[t * TILE : (t + 1) * TILE]
            assert mins[t] == chunk.min() and maxs[t] == chunk.max()
