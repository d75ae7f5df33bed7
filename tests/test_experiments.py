"""Experiment drivers: every figure/table runs and reproduces its shape.

These are the reproduction's acceptance tests: each assertion encodes a
qualitative claim from the paper's evaluation (who wins, by roughly what
factor, where the knees fall).  Runs use reduced element counts / scale
factors and project to paper scale.
"""

import pytest

from repro.experiments import (
    ablation_miniblocks,
    ablation_vertical,
    compression_speed,
    fig5_blocks_per_tb,
    fig7_bitwidths,
    fig8_distributions,
    fig9_ssb_compression,
    fig10_decompression,
    fig11_ssb_queries,
    fig12_coprocessor,
    opt_ladder,
    random_access,
)
from repro.experiments.common import format_table, geomean
from repro.ssb.dbgen import generate

_N = 400_000


@pytest.fixture(scope="module")
def small_db():
    return generate(scale_factor=0.01, seed=7)


class TestCommon:
    def test_geomean(self):
        assert geomean([1, 100]) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            geomean([])

    def test_format_table(self):
        out = format_table([{"a": 1, "b": 2.5}])
        assert "a" in out and "2.500" in out
        assert format_table([]) == "(no rows)"


class TestOptLadder:
    def test_monotone_and_close_to_paper(self):
        rows = opt_ladder.run(n=_N)
        times = [r["simulated_ms"] for r in rows[:4]]
        assert times[0] > times[1] > times[2] > times[3]
        # Base algorithm ~18 ms, final below the uncompressed read.
        assert 14 < times[0] < 23
        assert times[3] < rows[4]["simulated_ms"] * 1.05


class TestFig5:
    def test_u_shape(self):
        rows = fig5_blocks_per_tb.run(n=_N)
        by_d = {r["D"]: r["simulated_ms"] for r in rows}
        assert by_d[1] > by_d[4] > by_d[16]
        assert by_d[32] > 2 * by_d[16]  # the collapse

    def test_collapse_is_resource_driven(self):
        rows = fig5_blocks_per_tb.run(n=_N)
        d32 = next(r for r in rows if r["D"] == 32)
        assert d32["occupancy"] < 0.5
        assert d32["spilled_regs"] > 0


class TestFig7:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig7_bitwidths.run(n=_N, bitwidths=(4, 16, 28))

    def test_rates_linear_with_overhead(self, rows):
        for r in rows:
            assert abs(r["rate GPU-FOR"] - (r["bitwidth"] + 0.75)) < 0.4
            assert r["rate None"] == 32.0

    def test_nsf_staircase(self, rows):
        by_bits = {r["bitwidth"]: r["rate NSF"] for r in rows}
        assert by_bits[4] == 8.0 and by_bits[16] == 16.0 and by_bits[28] == 32.0

    def test_tile_beats_cascade(self, rows):
        for r in rows:
            assert r["time FOR+BitPack"] > 2.0 * r["time GPU-FOR"]
            assert r["time Delta+FOR+BitPack"] > 3.0 * r["time GPU-DFOR"]
            assert r["time RLE+FOR+BitPack"] > 6.0 * r["time GPU-RFOR"]

    def test_gpu_for_within_15pct_of_nsf(self, rows):
        # Section 9.2: worst-case gap vs NSF is ~15%.
        for r in rows:
            assert r["time GPU-FOR"] < 1.25 * r["time NSF"] + 0.2

    def test_projection_helpers(self, rows):
        assert set(fig7_bitwidths.time_rows(rows)[0]) == {
            "bitwidth", *fig7_bitwidths.TIME_SERIES
        }
        assert set(fig7_bitwidths.rate_rows(rows)[0]) == {
            "bitwidth", *fig7_bitwidths.RATE_SERIES
        }


class TestFig8:
    def test_d1_dfor_wins_at_high_cardinality(self):
        rows = fig8_distributions.run_d1(n=_N, unique_counts=(2**5, 2**18))
        high = rows[-1]
        assert high["rate GPU-DFOR"] < high["rate GPU-FOR"] / 2
        low = rows[0]
        assert low["rate GPU-RFOR"] < low["rate GPU-FOR"]

    def test_d1_rfor_beats_plain_rle_decode(self):
        rows = fig8_distributions.run_d1(n=_N, unique_counts=(2**5,))
        assert rows[0]["time RLE"] > 1.8 * rows[0]["time GPU-RFOR"]

    def test_d2_for_absorbs_mean(self):
        rows = fig8_distributions.run_d2(n=_N, means=(2**24,))
        r = rows[0]
        assert r["rate GPU-FOR"] < 12  # sigma 20 -> ~8 bits + overhead
        assert r["rate NSF"] == 32.0

    def test_d3_bit_aligned_beats_nsv(self):
        rows = fig8_distributions.run_d3(n=_N, alphas=(2.0,))
        r = rows[0]
        assert r["rate GPU-FOR"] < r["rate NSV"]
        assert r["time NSV"] > 2 * r["time GPU-FOR"]

    def test_sorted_keys_headline(self):
        bits = fig8_distributions.run_sorted_keys(n=_N)
        assert bits["GPU-DFOR"] < 2.0
        assert 6.0 < bits["GPU-FOR"] < 8.5
        assert 7.0 < bits["GPU-RFOR"] < 10.0


class TestFig9:
    def test_footprint_ratios(self, small_db):
        rows = fig9_ssb_compression.run(db=small_db)
        s = fig9_ssb_compression.summary(rows)
        assert 2.4 < s["none_over_gpu_star"] < 3.6  # paper 2.8x
        assert 1.2 < s["gpu_bp_over_gpu_star"] < 1.8  # paper ~1.5x
        assert 1.1 < s["planner_over_gpu_star"] < 1.6  # paper ~1.4x
        assert 0.98 < s["nvcomp_over_gpu_star"] < 1.15  # paper ~1.02x

    def test_gpu_star_wins_every_column(self, small_db):
        # GPU-* beats the planner everywhere; vs GPU-BP it wins big on the
        # run-length and date columns the paper highlights and is within a
        # whisker elsewhere (GPU-BP's 8-byte block header vs GPU-FOR's 12
        # when FOR saves nothing on a small-domain column).
        rows = fig9_ssb_compression.run(db=small_db)
        for r in rows:
            if r["column"] == "mean":
                continue
            assert r["gpu-star"] <= r["planner"] + 1e-9, r["column"]
            assert r["gpu-star"] <= r["gpu-bp"] * 1.08, r["column"]
        by_col = {r["column"]: r for r in rows}
        for column in ("lo_orderkey", "lo_orderdate", "lo_custkey", "lo_commitdate"):
            assert by_col[column]["gpu-bp"] > 1.3 * by_col[column]["gpu-star"], column


class TestFig10:
    @pytest.fixture(scope="class")
    def rows(self, small_db):
        return fig10_decompression.run(db=small_db)

    def test_cascade_ratios(self, rows):
        for r in fig10_decompression.cascade_ratios(rows):
            assert 1.4 < r["nvcomp_over_gpu_star"] < 4.5, r

    def test_geomean_ordering(self, rows):
        g = fig10_decompression.geomeans(rows)
        assert g["gpu-star"] < g["gpu-bp"] < g["nvcomp"]
        assert g["gpu-star"] < g["planner"]


class TestFig11:
    @pytest.fixture(scope="class")
    def rows(self, small_db):
        return fig11_ssb_queries.run(db=small_db)

    def test_answers_cross_checked(self, small_db):
        # run() raises if any system disagrees; reaching here is the test.
        fig11_ssb_queries.run(
            db=small_db, systems=("none", "gpu-star"), check_answers=True
        )

    def test_geomean_ratios(self, rows):
        ratios = {r["system"]: r["vs_gpu_star"] for r in fig11_ssb_queries.ratios(rows)}
        assert 0.6 < ratios["none"] < 0.95  # paper 0.74
        assert 2.0 < ratios["nvcomp"] < 5.0  # paper 2.6
        assert 3.0 < ratios["planner"] < 8.0  # paper 4
        assert 2.0 < ratios["gpu-bp"] < 4.5  # paper 2.4
        assert 8.0 < ratios["omnisci"] < 16.0  # paper 12

    def test_all_queries_present(self, rows):
        assert {r["query"] for r in rows} == {
            "q1.1", "q1.2", "q1.3", "q2.1", "q2.2", "q2.3",
            "q3.1", "q3.2", "q3.3", "q3.4", "q4.1", "q4.2", "q4.3", "geomean",
        }


class TestFig12:
    def test_compression_speeds_up_coprocessor(self, small_db):
        rows = fig12_coprocessor.run(db=small_db)
        geo = next(r for r in rows if r["query"] == "geomean")
        assert 1.8 < geo["speedup"] < 3.2  # paper 2.3x

    def test_transfer_dominates(self, small_db):
        rows = fig12_coprocessor.run(db=small_db)
        for r in rows[:-1]:
            assert r["none transfer"] > 0.5 * r["none"]


class TestRandomAccess:
    def test_plateaus(self):
        rows = random_access.run(n=_N)
        comp = [r["compressed_ms"] for r in rows]
        unc = [r["uncompressed_ms"] for r in rows]
        # Both plateau; compressed plateau is lower (the Section 8 claim).
        assert comp[-1] == pytest.approx(comp[-3], rel=0.02)
        assert unc[-1] == pytest.approx(unc[-3], rel=0.02)
        assert comp[-1] < unc[-1]

    def test_compressed_knee_earlier(self):
        rows = random_access.run(n=_N)
        by_sel = {r["selectivity"]: r for r in rows}
        # At 1e-3 the compressed side is already near its plateau while
        # the uncompressed side is still cheap.
        assert by_sel[1e-3]["compressed_ms"] > 2 * by_sel[1e-3]["uncompressed_ms"]


class TestCompressionSpeed:
    def test_rfor_slowest_on_random(self):
        rows = compression_speed.run(n=150_000)
        times = {r["scheme"]: r["encode_s"] for r in rows}
        assert times["gpu-rfor"] > times["gpu-for"]


class TestAblations:
    def test_vertical_decode_slower(self):
        rows = ablation_vertical.run_decode(n=_N)
        ratio = rows[-1]["simulated_ms"]
        assert 1.8 < ratio < 4.0  # paper 2.7x

    def test_vertical_query_catastrophic(self, small_db):
        # Paper reports 14x; our resource model overshoots but the
        # direction (order-of-magnitude collapse) is the claim under test.
        rows = ablation_vertical.run_query(sf=0.01)
        assert rows[-1]["q1.1_ms"] > 8

    def test_miniblocks_near_free_on_uniform(self):
        rows = ablation_miniblocks.run(n=_N)
        four, single = rows
        assert abs(four["bits_per_int"] - single["bits_per_int"]) < 0.01
        assert 1.0 < four["decode_ms"] / single["decode_ms"] < 1.25

    def test_miniblocks_win_under_skew(self):
        rows = ablation_miniblocks.run(n=_N, skewed=True)
        four, single = rows
        assert single["bits_per_int"] > four["bits_per_int"] + 2

