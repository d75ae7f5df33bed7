"""Late materialization on the host: row gathers and the selection vector.

* ``TileCodec.gather_rows`` oracle — every registered tile codec, and for
  GPU-FOR every miniblock width 0..32 with negative references, against
  ``decode_range`` over empty, single-row, random and all-row sets that
  reach into the short last tile; checksummed columns keep verifying.
* corruption through a query — a bitwidth byte above 32 and a truncated
  ``data`` array raise :class:`CorruptTileError` on the sparse route.
* the sparse-route differential — the gather threshold forced to "always"
  and "never" gives equal answers, ``simulated_ms`` and kernel counts over
  the hand flights, the compiled flights and the TPC-DS specs, on
  materialized, streaming (1 and 2 workers) and semantic-cache engines,
  sorted and unsorted.
* simulated time does not depend on host cache state or checksums: a cold,
  a warm and a checksummed engine price every compiled flight the same.
* exact group sums for any int64 weights.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import crystal
from repro.engine.crystal import CrystalEngine, SSBQuery
from repro.engine.predicates import Range
from repro.engine.ssb_queries import QUERIES
from repro.formats.base import set_checksums, set_verify_mode
from repro.formats.gpufor import GpuFor, block_metadata
from repro.formats.registry import codec_names, get_codec, is_tile_codec
from repro.formats.validate import CorruptTileError
from repro.query.compiler import QueryCompiler
from repro.query.ssb import SSB_SPECS, ssb_model
from repro.query.tpcds import TPCDS_SPECS, tpcds_model
from repro.serving.semcache import SemanticResultCache
from repro.ssb.dbgen import generate_tpcds_subset, sort_lineorder_by
from repro.ssb.loader import ColumnStore, StoredColumn, load_lineorder, load_star

TILE_CODECS = [name for name in codec_names() if is_tile_codec(name)]


def _row_sets(rng, n):
    """Empty, single-row, random 0.1-50% (sorted and shuffled with
    repeats) and all-row sets; each random set touches the last row."""
    sets = [np.zeros(0, dtype=np.int64), np.array([0]), np.array([n - 1])]
    for frac in (0.001, 0.01, 0.2, 0.5):
        rows = np.sort(rng.choice(n, max(1, int(n * frac)), replace=False))
        sets.append(np.union1d(rows, [n - 1]))
    sets.append(rng.integers(0, n, 300))  # unsorted, with repeats
    sets.append(np.arange(n))
    return sets


def _check_gather(codec, enc, rng):
    truth = codec.decode_range(enc, 0, codec.num_tiles(enc)).astype(np.int64)
    for rows in _row_sets(rng, enc.count):
        got = codec.gather_rows(enc, rows)
        assert got.dtype == np.int64
        assert np.array_equal(got, truth[rows]), rows[:8]


class TestGatherRowsOracle:
    @pytest.mark.parametrize("codec_name", TILE_CODECS)
    def test_every_tile_codec_matches_decode_range(self, codec_name, rng):
        codec = get_codec(codec_name)
        # Runs plus noise (every codec packs it), and a short last tile.
        n = 3 * 4096 + 777
        values = np.repeat(rng.integers(0, 5000, n // 8 + 1), 8)[:n]
        values = values + rng.integers(0, 4, n)
        _check_gather(codec, codec.encode(values), rng)

    @pytest.mark.parametrize("width", range(33))
    def test_gpu_for_every_width_with_negative_references(self, width, rng):
        n = 20 * 128 + 45
        reference = -(2**31) + int(rng.integers(0, 1000)) if width < 32 else -(2**31)
        diffs = rng.integers(0, 2**width, n, dtype=np.int64) if width else np.zeros(n, int)
        diffs[::128] = 0  # every block's reference is the negative base
        diffs[1::32] = 2**width - 1  # every miniblock packs the full width
        codec = GpuFor()
        enc = codec.encode(reference + diffs)
        _, bits = block_metadata(enc.arrays["data"], enc.arrays["block_starts"])
        assert (bits[:-1] == width).all()  # the short last block pads
        _check_gather(codec, enc, rng)

    def test_gpu_for_mixed_widths_in_one_block(self, rng):
        n = 64 * 128 + 3
        widths = rng.integers(0, 33, -(-n // 32)).repeat(32)[:n]
        values = rng.integers(0, 2**32, n, dtype=np.int64) & ((1 << widths) - 1)
        codec = GpuFor()
        _check_gather(codec, codec.encode(values - 2**20), rng)

    def test_rows_out_of_range_refused(self):
        codec = GpuFor()
        enc = codec.encode(np.arange(300))
        with pytest.raises(IndexError):
            codec.gather_rows(enc, np.array([300]))
        with pytest.raises(IndexError):
            codec.gather_rows(enc, np.array([-1]))
        with pytest.raises(ValueError):
            codec.gather_rows(enc, np.array([[1]]))

    def test_checksummed_gather_verifies_tiles(self, rng):
        previous = set_checksums(True)
        try:
            codec = GpuFor()
            values = rng.integers(0, 2**12, 4 * 512 + 9)
            enc = codec.encode(values)
        finally:
            set_checksums(previous)
        _check_gather(codec, enc, rng)
        enc.meta.pop("_crc_seen", None)
        data = enc.arrays["data"]
        data[int(enc.arrays["block_starts"][4]) + 5] ^= 1  # a payload bit of tile 1
        with pytest.raises(CorruptTileError, match="checksum"):
            codec.gather_rows(enc, np.array([512 + 130]))
        mode = set_verify_mode("off")
        try:  # unverified, the row is read straight from the payload
            assert codec.gather_rows(enc, np.array([0]))[0] == values[0]
        finally:
            set_verify_mode(mode)


def _scan_engine(n, rng, corrupt, streaming):
    """A two-column gpu-for fact table and a plan that filters ``lo_key``
    down to about 1% of rows and then loads ``lo_val`` (the sparse route)."""
    from repro.ssb.dbgen import generate

    db = generate(scale_factor=0.001, seed=1)
    cols = {"lo_key": rng.integers(0, 1000, n), "lo_val": rng.integers(0, 2**20, n)}
    db.lineorder = {"lo_orderkey": np.arange(n), **cols}
    stored = {}
    for name, values in cols.items():
        enc = get_codec("gpu-for").encode(values)
        stored[name] = StoredColumn(
            name, "gpu-star", values, enc, enc.nbytes, codec_name="gpu-for"
        )
    corrupt(stored["lo_val"].payload)
    engine = CrystalEngine(
        db, ColumnStore(system="gpu-star", columns=stored), streaming=streaming,
        stream_workers=1,
    )

    def fn(eng):
        p = eng.pipeline("t")
        p.filter_predicate(Range("lo_key", 0, 9), p.load("lo_key"))
        result = p.total_sum(p.load("lo_val"))
        p.finish()
        return result

    return engine, SSBQuery("t", ("lo_key", "lo_val"), fn), cols


def _bitwidth_above_32(enc):
    data = enc.arrays["data"]
    data[int(enc.arrays["block_starts"][3]) + 1] = 40  # miniblock 0 of block 3


def _truncate_data(enc):
    enc.arrays["data"] = enc.arrays["data"][:-3].copy()


class TestCorruptionThroughSparseLoads:
    @pytest.mark.parametrize("streaming", (False, True))
    def test_clean_payload_answers(self, rng, monkeypatch, streaming):
        gathered = []
        real = GpuFor.gather_rows
        monkeypatch.setattr(
            GpuFor, "gather_rows",
            lambda self, enc, rows: gathered.append(rows.size) or real(self, enc, rows),
        )
        engine, query, cols = _scan_engine(50_000, rng, lambda enc: None, streaming)
        live = (cols["lo_key"] >= 0) & (cols["lo_key"] <= 9)
        assert engine.run(query).groups == {0: int(cols["lo_val"][live].sum())}
        assert gathered and sum(gathered) == int(live.sum())
        engine.close()

    @pytest.mark.parametrize("streaming", (False, True))
    @pytest.mark.parametrize("corrupt", (_bitwidth_above_32, _truncate_data))
    def test_corrupt_payload_raises(self, rng, corrupt, streaming):
        engine, query, _ = _scan_engine(50_000, rng, corrupt, streaming)
        with pytest.raises(CorruptTileError):
            engine.run(query)
        engine.close()


# -- the sparse-route differential ------------------------------------------


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


def _observe(db, store, queries, config, fraction, monkeypatch):
    """Every query's answer, ``repr(simulated_ms)`` and kernel count, run
    twice over (warm caches and semantic-cache hits on the second pass)."""
    monkeypatch.setattr(crystal, "SPARSE_GATHER_FRACTION", fraction)
    kwargs = dict(config)
    semcache = kwargs.pop("semcache", False)
    engine = CrystalEngine(db, store, **kwargs)
    if semcache:
        engine.semcache = SemanticResultCache()
    try:
        return [
            (q.name, r.groups, repr(r.simulated_ms), r.kernel_count)
            for _ in range(2)
            for q in queries
            for r in (engine.run(q),)
        ]
    finally:
        engine.close()


ALWAYS, NEVER = 2.0, 0.0


class TestSparseRouteDifferential:
    @pytest.mark.parametrize("config", tuple(ENGINES))
    @pytest.mark.parametrize("order", ("unsorted", "sorted"))
    def test_ssb_flights(self, ssb_stores, order, config, monkeypatch):
        db, store = ssb_stores[order]
        compiler = QueryCompiler(ssb_model(), db, store=store)
        queries = list(QUERIES.values()) + [
            compiler.compile(spec) for spec in SSB_SPECS.values()
        ]
        always = _observe(db, store, queries, ENGINES[config], ALWAYS, monkeypatch)
        never = _observe(db, store, queries, ENGINES[config], NEVER, monkeypatch)
        assert always == never

    @pytest.mark.parametrize("config", tuple(ENGINES))
    def test_tpcds_specs(self, tpcds_star, config, monkeypatch):
        sdb, store = tpcds_star
        compiler = QueryCompiler(tpcds_model(), sdb, store=store)
        queries = [compiler.compile(spec) for spec in TPCDS_SPECS.values()]
        always = _observe(sdb, store, queries, ENGINES[config], ALWAYS, monkeypatch)
        never = _observe(sdb, store, queries, ENGINES[config], NEVER, monkeypatch)
        assert always == never


# -- simulated time vs host cache state -------------------------------------


@pytest.fixture(scope="module")
def checksummed_store(ssb_db):
    previous = set_checksums(True)
    try:
        return load_lineorder(ssb_db, "gpu-star")
    finally:
        set_checksums(previous)


@pytest.mark.parametrize("name", tuple(SSB_SPECS))
def test_simulated_ms_ignores_cache_state_and_checksums(
    ssb_db, gpu_star_store, checksummed_store, name
):
    """A kept-join reduction narrows the selection on every inline load
    route, so cold, warm and checksummed engines price the same rows."""
    query = QueryCompiler(ssb_model(), ssb_db, store=gpu_star_store).compile(
        SSB_SPECS[name]
    )
    cold = CrystalEngine(ssb_db, gpu_star_store).run(query)
    warm_engine = CrystalEngine(ssb_db, gpu_star_store)
    for column in query.columns:
        warm_engine.column_values(column)  # every decoded image cached
    warm = warm_engine.run(query)
    crc = CrystalEngine(ssb_db, checksummed_store).run(query)
    streamed = CrystalEngine(ssb_db, checksummed_store, streaming=True, stream_workers=1)
    crc_stream = streamed.run(query)
    streamed.close()
    assert cold.groups == warm.groups == crc.groups == crc_stream.groups
    assert (
        repr(cold.simulated_ms)
        == repr(warm.simulated_ms)
        == repr(crc.simulated_ms)
        == repr(crc_stream.simulated_ms)
    )
    assert cold.kernel_count == warm.kernel_count == crc.kernel_count


# -- exact group sums ---------------------------------------------------------


class TestExactGroupSums:
    @pytest.mark.parametrize(
        "weights, expected",
        [
            ([2**53 + 1, 2**53 + 1, 1], 18014398509481987),
            ([2**62, 2**62, 2**62, 2**62], 2**64),  # past int64
            ([2**62, -(2**62), 2**62 + 5], 2**62 + 5),
            ([-(2**63), -(2**63), 7], -(2**64) + 7),
            ([3, 4, 5], 12),
        ],
    )
    def test_group_sum_exact_for_any_int64(
        self, ssb_db, none_store, run_plan, weights, expected
    ):
        engine = CrystalEngine(ssb_db, none_store)

        def body(p):
            k = min(len(weights), p.n)
            w = np.zeros(p.n, dtype=np.int64)
            w[:k] = np.array(weights, dtype=np.int64)[:k]
            p.filter(np.arange(p.n) < len(weights))
            return p.group_sum(np.zeros(p.n, dtype=np.int64), w, 4)

        result, _ = run_plan(engine, body)
        assert result.groups == {0: expected}

    def test_exact_path_keeps_groups_apart(self):
        codes = np.array([2, 0, 2, 1, 0, 2])
        weights = np.array([2**60, 5, 2**60, -3, -5, 2**60], dtype=np.int64)
        sums = crystal.group_sums(codes, weights, 4)
        assert [int(s) for s in sums] == [0, -3, 3 * 2**60, 0]
        small = crystal.group_sums(codes, weights // 2**40, 4)
        assert small.dtype == np.float64
        assert [int(s) for s in small] == [-1, -1, 3 * 2**20, 0]  # floor: -5 -> -1
