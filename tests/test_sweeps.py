"""Extension sweeps: Figure 12 per link generation, sensitivity experiment."""

import pytest

from repro.experiments import fig12_coprocessor, sensitivity_gpu
from repro.ssb.dbgen import generate


@pytest.fixture(scope="module")
def small_db():
    return generate(scale_factor=0.01, seed=7)


class TestInterconnectSweep:
    @pytest.fixture(scope="class")
    def rows(self, small_db):
        return fig12_coprocessor.run_link_sweep(db=small_db)

    def test_pcie3_matches_fig12(self, rows, small_db):
        # Same link, projection and queries: the PCIe3 row is Figure 12's
        # geomean speedup bit for bit.
        pcie3 = next(r for r in rows if r["link"] == "PCIe3 x16")
        fig12 = fig12_coprocessor.run(db=small_db)
        geo = next(r for r in fig12 if r["query"] == "geomean")
        assert pcie3["speedup"] == geo["speedup"]
        assert 1.8 < pcie3["speedup"] < 3.2  # Figure 12's 2.3x

    def test_speedup_decays_with_bandwidth(self, rows):
        speedups = [r["speedup"] for r in rows]
        assert speedups == sorted(speedups, reverse=True)

    def test_fast_links_erode_the_win(self, rows):
        nvlink4 = next(r for r in rows if r["link"] == "NVLink4")
        pcie3 = next(r for r in rows if r["link"] == "PCIe3 x16")
        assert nvlink4["speedup"] < pcie3["speedup"] / 1.5

    def test_all_links_present(self, rows):
        assert {r["link"] for r in rows} == set(fig12_coprocessor.LINKS)


class TestSensitivity:
    def test_a100_sustains_d32(self):
        rows = sensitivity_gpu.run_d_sweep(n=300_000)
        by_d = {r["D"]: r for r in rows}
        assert by_d[32]["V100"] > 2 * by_d[16]["V100"]  # V100 collapses
        assert by_d[32]["A100"] < 1.5 * by_d[16]["A100"]  # A100 doesn't

    def test_tile_advantage_on_both_devices(self):
        rows = sensitivity_gpu.run_tile_vs_cascade(n=300_000)
        for r in rows:
            assert r["V100 ratio"] > 1.5 and r["A100 ratio"] > 1.5

    def test_tuner_rows(self):
        rows = sensitivity_gpu.run_tuner()
        by_key = {(r["device"], r["output_columns"]): r["best_D"] for r in rows}
        assert by_key[("V100", 4)] == 4
        assert by_key[("A100", 1)] >= by_key[("V100", 1)]


class TestLightweightVsEntropy:
    def test_capture_is_high(self, small_db):
        from repro.experiments import lightweight_vs_entropy

        rows = lightweight_vs_entropy.run(db=small_db)
        mean = next(r for r in rows if r["column"] == "mean")
        # The §2.2 claim: lightweight schemes capture most of the gains.
        assert mean["savings_capture"] > 0.8

    def test_structure_beats_entropy_on_run_columns(self, small_db):
        from repro.experiments import lightweight_vs_entropy

        rows = lightweight_vs_entropy.run(db=small_db)
        by_col = {r["column"]: r for r in rows}
        for column in ("lo_orderkey", "lo_orderdate", "lo_custkey"):
            r = by_col[column]
            assert r["gpu_star_bits"] < r["entropy_bits"], column
            assert r["savings_capture"] == 1.0, column
