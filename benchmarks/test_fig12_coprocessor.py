"""E13 bench — Figure 12: GPU-as-coprocessor (paper speedup: 2.3x), and
the same queries re-priced per link generation."""

from conftest import run_once

from repro.experiments import fig12_coprocessor
from repro.experiments.common import print_experiment


def test_fig12_coprocessor(benchmark, bench_db):
    rows = run_once(benchmark, fig12_coprocessor.run, db=bench_db)
    print_experiment(
        "E13: Figure 12 — coprocessor model (ms at SF=20)",
        rows,
        columns=["query", "none", "gpu-star", "speedup"],
    )
    geo = next(r for r in rows if r["query"] == "geomean")
    assert 1.8 < geo["speedup"] < 3.2

    sweep = fig12_coprocessor.run_link_sweep(db=bench_db)
    print_experiment("Figure 12 per link generation", sweep)
    speedups = [r["speedup"] for r in sweep]
    assert speedups == sorted(speedups, reverse=True)
    assert speedups[0] == geo["speedup"]  # the PCIe3 row is Figure 12
