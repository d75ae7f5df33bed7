"""Engine mechanics: lookups, pipeline semantics, traffic accounting."""

import numpy as np
import pytest

from repro.engine.crystal import CrystalEngine
from repro.engine.lookup import MISS, make_lookup
from repro.engine.ssb_queries import QUERIES
from repro.gpusim import GPUDevice
from repro.ssb.loader import load_lineorder


class TestLookup:
    def test_basic_probe(self):
        lu = make_lookup("t", np.array([10, 11, 12]), np.array([5, 6, 7]))
        assert list(lu.probe(np.array([12, 10]))) == [7, 5]

    def test_mask_marks_miss(self):
        lu = make_lookup(
            "t", np.array([1, 2, 3]), np.array([9, 9, 9]),
            mask=np.array([True, False, True]),
        )
        assert list(lu.probe(np.array([1, 2, 3]))) == [9, MISS, 9]

    def test_sparse_keys_leave_holes(self):
        lu = make_lookup("t", np.array([1, 5]))
        assert lu.probe(np.array([3]))[0] == MISS

    def test_default_payload_is_existence(self):
        lu = make_lookup("t", np.array([4]))
        assert lu.probe(np.array([4]))[0] == 0

    def test_out_of_range_probe(self):
        lu = make_lookup("t", np.array([1, 2]))
        with pytest.raises(IndexError):
            lu.probe(np.array([99]))

    def test_empty_dimension_rejected(self):
        with pytest.raises(ValueError):
            make_lookup("t", np.array([], dtype=np.int64))

    def test_payload_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_lookup("t", np.array([1, 2]), np.array([1]))


class TestPipeline:
    def test_load_returns_values(self, ssb_db, none_store, run_plan):
        engine = CrystalEngine(ssb_db, none_store, GPUDevice())
        out = []
        run_plan(engine, lambda p: out.append(p.load("lo_quantity")))
        assert np.array_equal(out[-1], ssb_db.lineorder["lo_quantity"])

    def test_fused_pipeline_outside_run_raises(self, ssb_db, none_store):
        engine = CrystalEngine(ssb_db, none_store, GPUDevice())
        with pytest.raises(RuntimeError, match="engine.run"):
            engine.pipeline("t")

    def test_filter_narrows_live_count(self, ssb_db, none_store, run_plan):
        engine = CrystalEngine(ssb_db, none_store, GPUDevice())
        counts = []

        def body(p):
            q = p.load("lo_quantity")
            before = p.live_count
            p.filter(q < 10)
            counts.append((before, p.live_count))

        run_plan(engine, body)
        before, after = counts[-1]
        assert after < before

    def test_filter_requires_full_mask(self, ssb_db, none_store, run_plan):
        engine = CrystalEngine(ssb_db, none_store, GPUDevice())
        with pytest.raises(ValueError, match="every fact row"):
            run_plan(engine, lambda p: p.filter(np.array([True])))

    def test_tile_skipping_reduces_traffic(self, ssb_db, none_store, run_plan):
        cutoff = np.quantile(ssb_db.lineorder["lo_orderkey"], 0.01)

        def run(with_filter):
            engine = CrystalEngine(ssb_db, none_store, GPUDevice())

            def body(p):
                keys = p.load("lo_orderkey")
                if with_filter:
                    # lo_orderkey is sorted: the filter deactivates most tiles.
                    p.filter(keys < cutoff)
                p.load("lo_quantity")

            _, pipes = run_plan(engine, body)
            if with_filter:
                assert pipes[-1].tile_active.sum() < engine.num_tiles // 10
            return engine.device.global_bytes_moved

        assert run(True) < run(False) * 0.7

    def test_unclustered_filter_keeps_tiles_active(self, ssb_db, none_store, run_plan):
        # The paper's point: selective filters on unclustered columns do
        # not reduce tile reads (bit-packed data lacks random access).
        engine = CrystalEngine(ssb_db, none_store, GPUDevice())

        def body(p):
            q = p.load("lo_quantity")
            p.filter(q == 7)  # ~2% selectivity, spread uniformly

        _, pipes = run_plan(engine, body)
        assert pipes[-1].tile_active.size == engine.num_tiles
        assert pipes[-1].tile_active.all()

    def test_group_sum_respects_mask(self, ssb_db, none_store, run_plan):
        engine = CrystalEngine(ssb_db, none_store, GPUDevice())

        def body(p):
            q = p.load("lo_quantity")
            p.filter(q == 1)
            return p.group_sum(np.zeros(p.n, dtype=np.int64), q, 1)

        result, _ = run_plan(engine, body)
        q = ssb_db.lineorder["lo_quantity"]
        assert result.groups[0] == int(q[q == 1].sum())

    def test_group_sum_code_range_checked(self, ssb_db, none_store, run_plan):
        engine = CrystalEngine(ssb_db, none_store, GPUDevice())

        def body(p):
            codes = np.full(p.n, 5, dtype=np.int64)
            return p.group_sum(codes, codes, 3)

        with pytest.raises(ValueError, match="range"):
            run_plan(engine, body)

    def test_finish_only_once(self, ssb_db, none_store, run_plan):
        engine = CrystalEngine(ssb_db, none_store, GPUDevice())

        def twice(p):
            p.finish()
            p.finish()

        def load_after(p):
            p.finish()
            p.load("lo_quantity")

        with pytest.raises(RuntimeError):
            run_plan(engine, twice)
        with pytest.raises(RuntimeError):
            run_plan(engine, load_after)

    def test_fused_pipeline_is_one_kernel(self, ssb_db, none_store, run_plan):
        engine = CrystalEngine(ssb_db, none_store, GPUDevice())

        def body(p):
            p.load("lo_quantity")
            p.load("lo_discount")

        run_plan(engine, body)
        assert engine.device.kernel_count == 1

    def test_staged_pipeline_is_kernel_per_op(self, ssb_db):
        store = load_lineorder(ssb_db, "omnisci")
        engine = CrystalEngine(ssb_db, store, GPUDevice())
        p = engine.pipeline("t")
        q = p.load("lo_quantity")
        p.filter(q < 10)
        p.load("lo_discount")
        p.finish()
        assert engine.device.kernel_count == 3


class TestEngineAccounting:
    def test_compressed_scan_reads_fewer_bytes(
        self, ssb_db, none_store, gpu_star_store, run_plan
    ):
        def scan_bytes(store):
            engine = CrystalEngine(ssb_db, store, GPUDevice())
            run_plan(engine, lambda p: p.load("lo_discount"))  # 4.75 bits/int under GPU-*
            return engine.device.global_bytes_moved

        assert scan_bytes(gpu_star_store) < scan_bytes(none_store) / 3

    def test_inline_decode_charges_compute(self, ssb_db, gpu_star_store, run_plan):
        engine = CrystalEngine(ssb_db, gpu_star_store, GPUDevice())
        run_plan(engine, lambda p: p.load("lo_orderdate"))  # GPU-RFOR: heavy decode
        assert engine.device.launches[-1].traffic.compute_ops > engine.num_rows * 10

    def test_query_result_bookkeeping(self, ssb_db, none_store):
        engine = CrystalEngine(ssb_db, none_store, GPUDevice())
        result = engine.run(QUERIES["q1.1"])
        assert result.name == "q1.1"
        assert result.system == "none"
        # One fused fact kernel: the flight-1 date join is expressed as
        # an exact datekey range, so no dimension build kernel runs.
        assert result.kernel_count == 1
        assert result.simulated_ms > 0
        assert result.scaled_ms(1.0) == pytest.approx(result.simulated_ms)

    def test_decompress_first_adds_kernels(self, ssb_db):
        store = load_lineorder(ssb_db, "nvcomp")
        engine = CrystalEngine(ssb_db, store, GPUDevice())
        result = engine.run(QUERIES["q1.1"])
        assert result.kernel_count > 5  # per-column cascades + build + fact

    def test_total_property(self, ssb_db, none_store):
        engine = CrystalEngine(ssb_db, none_store, GPUDevice())
        result = engine.run(QUERIES["q2.1"])
        assert result.total == sum(result.groups.values())

    def test_tile_read_bytes_cached(self, ssb_db, none_store):
        engine = CrystalEngine(ssb_db, none_store, GPUDevice())
        a = engine.tile_read_bytes("lo_quantity")
        b = engine.tile_read_bytes("lo_quantity")
        assert a is b

    def test_tile_read_bytes_cover_column(self, ssb_db, gpu_star_store):
        engine = CrystalEngine(ssb_db, gpu_star_store, GPUDevice())
        per_tile = engine.tile_read_bytes("lo_quantity")
        assert per_tile.size == engine.num_tiles
        enc = gpu_star_store["lo_quantity"].payload
        assert int(per_tile.sum()) >= enc.arrays["data"].nbytes
