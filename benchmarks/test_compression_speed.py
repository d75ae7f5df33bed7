"""E15 bench — Section 8: encode speed (genuine wall-clock measurement)."""

import statistics
import time

import numpy as np
from conftest import BENCH_N

from repro.core.hybrid import choose_gpu_star
from repro.experiments import compression_speed
from repro.experiments.common import print_experiment
from repro.formats.registry import get_codec
from repro.workloads.synthetic import uniform_bitwidth


def test_compression_speed_table(benchmark):
    rows = benchmark.pedantic(
        compression_speed.run,
        kwargs={"n": min(BENCH_N, 500_000)},
        iterations=1,
        rounds=1,
    )
    print_experiment(
        "E15: Section 8 — compression speed (paper: 1.2 / 1.3 / 2.2 s per 250M)",
        rows,
    )
    times = {r["scheme"]: r["encode_s"] for r in rows}
    assert times["gpu-rfor"] > times["gpu-for"]  # RFOR slowest on random data


def test_encode_gpu_for(benchmark):
    data = uniform_bitwidth(16, min(BENCH_N, 500_000))
    codec = get_codec("gpu-for")
    benchmark(codec.encode, data)


def test_encode_gpu_dfor(benchmark):
    data = uniform_bitwidth(16, min(BENCH_N, 500_000))
    codec = get_codec("gpu-dfor")
    benchmark(codec.encode, data)


def test_encode_gpu_rfor(benchmark):
    data = uniform_bitwidth(16, min(BENCH_N, 500_000))
    codec = get_codec("gpu-rfor")
    benchmark(codec.encode, data)


def test_choose_gpu_star(benchmark):
    """GPU-*: lay out all three schemes, pack only the smallest."""
    data = uniform_bitwidth(16, min(BENCH_N, 500_000))
    choice = benchmark(choose_gpu_star, data)
    assert choice.encoded.nbytes == min(choice.candidate_bytes.values())


def test_flush_600_rows(benchmark):
    """A 600-row flush: GPU-* re-lays out and re-packs only the dirty units.

    Records the full choice's time beside the incremental one and checks
    that both produce the same bytes.
    """
    data = uniform_bitwidth(16, min(BENCH_N, 500_000))
    rng = np.random.default_rng(600)
    rows = rng.choice(data.size, 600, replace=False)
    updated = data.copy()
    updated[rows] = data[rng.integers(0, data.size, rows.size)]
    previous = choose_gpu_star(data)
    choice = benchmark(choose_gpu_star, updated, previous=previous, dirty_rows=rows)

    full_s = []
    for _ in range(5):
        start = time.perf_counter()
        full = choose_gpu_star(updated)
        full_s.append(time.perf_counter() - start)
    benchmark.extra_info["full_choose_ms"] = 1e3 * statistics.median(full_s)
    assert choice.codec_name == full.codec_name
    assert choice.candidate_bytes == full.candidate_bytes
    assert list(choice.encoded.arrays) == list(full.encoded.arrays)
    for key, arr in full.encoded.arrays.items():
        assert choice.encoded.arrays[key].tobytes() == arr.tobytes(), key


def test_decode_gpu_for(benchmark):
    data = uniform_bitwidth(16, min(BENCH_N, 500_000))
    codec = get_codec("gpu-for")
    enc = codec.encode(data)
    benchmark(codec.decode, enc)


def test_decode_gpu_dfor(benchmark):
    data = uniform_bitwidth(16, min(BENCH_N, 500_000))
    codec = get_codec("gpu-dfor")
    enc = codec.encode(data)
    benchmark(codec.decode, enc)


def test_decode_gpu_rfor(benchmark):
    data = uniform_bitwidth(16, min(BENCH_N, 500_000))
    codec = get_codec("gpu-rfor")
    enc = codec.encode(data)
    benchmark(codec.decode, enc)
