"""Extension bench: multi-GPU scaling."""

from conftest import BENCH_N, run_once

from repro.experiments import multigpu_scaling
from repro.experiments.common import print_experiment


def test_multigpu_scaling(benchmark):
    rows = run_once(benchmark, multigpu_scaling.run, n=BENCH_N)
    print_experiment(
        "Extension — multi-GPU sharded decompression (500M-projected)", rows
    )
    by_devices = {r["devices"]: r for r in rows}
    assert by_devices[4]["speedup"] > 3.0
    assert by_devices[8]["speedup"] > 5.5
