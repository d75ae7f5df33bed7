"""Kernel backend speedups: shift-table decode vs the pre-backend path.

The kernel backend layer contributes two things to single-column decode:
the precompiled shift-table backend (phase plans and dtype-view fast
paths built once at import, replacing the per-call gcd/phase-loop in
``bitio.unpack_bits``), and the regular-geometry strided fast path in
``gpu-for`` / ``gpu-bp`` (one contiguous unpack for a uniform-bitwidth
column instead of a per-block/per-miniblock word gather).

This bench pins the combined win against a faithful inline reproduction
of the pre-backend decode loop — per-unique-bitwidth fancy-index gather
plus the reference NumPy phase-loop unpack, exactly what
``_decode_block_indices`` / ``unpack_block_indices`` did before the
backend layer existed — and re-runs the streaming headline with fused
decode+filter engaged, emitting ``BENCH_kernels.json``.

Environment knobs:
    REPRO_KERNEL_N      — single-column element count (default 4_000_000)
    REPRO_KERNEL_REPS   — timing repetitions per cell (default 5)
    REPRO_KERNEL_SF     — SSB scale factor for the headline (default 0.1)
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from conftest import run_once
from repro.engine.crystal import CrystalEngine
from repro.engine.ssb_queries import QUERIES
from repro.formats import kernels
from repro.formats.gpufor import block_metadata
from repro.formats.kernels.numpy_ref import NumpyBackend
from repro.formats.kernels.shift_table import ShiftTableBackend
from repro.formats.registry import get_codec
from repro.serving.metrics import MetricsRegistry
from repro.ssb.dbgen import generate, sort_lineorder_by
from repro.ssb.loader import load_lineorder

KERNEL_N = int(os.environ.get("REPRO_KERNEL_N", "4000000"))
REPS = int(os.environ.get("REPRO_KERNEL_REPS", "9"))
KERNEL_SF = float(os.environ.get("REPRO_KERNEL_SF", "0.1"))
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

MIN_SPEEDUP = 5.0
#: Floor of the shift-table unpack kernel over the numpy oracle's at the
#: unaligned widths.  The whole-codec ratio is lower: the reference add
#: and the int64 output writes cost both backends the same.
MIN_UNALIGNED_SPEEDUP = 2.0

#: The widths SSB ``lineorder`` packs to (lo_linenumber 3, lo_quantity 6,
#: lo_partkey 15, lo_revenue 23): no dtype-view fast path applies.
UNALIGNED_CELLS = (
    ("gpu-for", 3),
    ("gpu-for", 6),
    ("gpu-for", 15),
    ("gpu-for", 23),
)

DECODE_CELLS = (
    ("gpu-bp", 4),
    ("gpu-bp", 8),
    ("gpu-bp", 16),
    ("gpu-for", 8),
    ("gpu-for", 16),
) + UNALIGNED_CELLS

_ORACLE = NumpyBackend()


def _column(rng, bits: int) -> np.ndarray:
    # Pin both extremes into every 32-value window so each block and
    # miniblock is exactly ``bits`` wide regardless of block granularity
    # — the geometry the regular-geometry strided path targets.
    vals = rng.integers(0, 2**bits, KERNEL_N, dtype=np.int64)
    vals[::32] = 2**bits - 1
    vals[1::32] = 0
    return vals


def _best_of(*fns):
    """Best-of-``REPS`` for each fn, interleaved round-robin.

    Interleaving means transient load (1-CPU CI runners) degrades every
    contender in the same round instead of biasing whichever happened to
    run during the spike; taking the per-fn minimum then compares the
    unloaded floors.
    """
    best = [float("inf")] * len(fns)
    results = [None] * len(fns)
    for _ in range(REPS):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            results[i] = fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best, results


def _pre_backend_decoder(codec_name: str, enc):
    """The decode loop as it stood before the kernel backend layer.

    Per-unique-bitwidth fancy-index word gather + one reference NumPy
    phase-loop unpack per width — ``gpu-bp`` gathered 128-value block
    payloads, ``gpu-for`` gathered 32-value miniblock payloads and then
    added the per-block FOR reference.
    """
    data = enc.arrays["data"]
    bstarts = enc.arrays["block_starts"].astype(np.int64)
    starts = bstarts[:-1]
    nb = starts.size

    if codec_name == "gpu-bp":
        block = 128
        hdr_bits = data[starts].astype(np.int64)

        def decode():
            decoded = np.empty((nb, block), dtype=np.int64)
            for b in np.unique(hdr_bits):
                sel = np.flatnonzero(hdr_bits == b)
                if b == 0:
                    decoded[sel] = 0
                    continue
                src = (starts[sel] + 1)[:, None] + np.arange(int(b) * block // 32)
                words = data[src.reshape(-1)]
                vals = _ORACLE.unpack(words, sel.size * block, int(b))
                decoded[sel] = vals.reshape(sel.size, block).astype(np.int64)
            return decoded.reshape(-1)[: enc.count]

        return decode

    references, bits = block_metadata(data, bstarts)
    mini = 32
    minis_per_block = bits.shape[1]
    block = mini * minis_per_block
    mini_words = np.concatenate(
        [np.zeros((nb, 1), dtype=np.int64), np.cumsum(bits[:, :-1], axis=1)],
        axis=1,
    )
    flat_offsets = (starts[:, None] + 2 + mini_words).reshape(-1)
    flat_bits = bits.reshape(-1)

    def decode():
        minis = np.empty((nb * minis_per_block, mini), dtype=np.int64)
        for b in np.unique(flat_bits):
            sel = np.flatnonzero(flat_bits == b)
            if b == 0:
                minis[sel] = 0
                continue
            src = flat_offsets[sel][:, None] + np.arange(int(b))
            words = data[src.reshape(-1)]
            vals = _ORACLE.unpack(words, sel.size * mini, int(b))
            minis[sel] = vals.reshape(sel.size, mini)
        decoded = minis.reshape(nb, block) + references[:, None]
        return decoded.reshape(-1)[: enc.count]

    return decode


def _unpack_cell(values: np.ndarray, bits: int) -> dict:
    """The unpack kernel alone: numpy oracle vs shift-table ``unpack_into``
    on the cell's column, into one int64 buffer."""
    packed = _ORACLE.pack(values.astype(np.uint64), bits)
    fast = ShiftTableBackend()
    outs = [np.empty(values.size, dtype=np.int64) for _ in range(2)]
    (ref_s, fast_s), _ = _best_of(
        lambda: _ORACLE.unpack_into(packed, values.size, bits, outs[0]),
        lambda: fast.unpack_into(packed, values.size, bits, outs[1]),
    )
    assert np.array_equal(outs[0], values) and np.array_equal(outs[1], values), bits
    return {
        "unpack_numpy_ms": ref_s * 1e3,
        "unpack_shift_table_ms": fast_s * 1e3,
        "unpack_speedup": ref_s / fast_s,
    }


def _decode_cell(codec_name: str, bits: int, rng) -> dict:
    codec = get_codec(codec_name)
    values = _column(rng, bits)
    enc = codec.encode(values)
    nt = codec.num_tiles(enc)

    def full_decode():
        return np.asarray(codec.decode_range(enc, 0, nt), dtype=np.int64)

    pre = _pre_backend_decoder(codec_name, enc)

    def numpy_decode():
        kernels.set_backend("numpy")
        return full_decode()

    def fast_decode():
        kernels.set_backend("shift-table")
        return full_decode()

    previous = kernels.backend_name()
    try:
        (pre_s, ref_s, fast_s), (pre_out, ref_out, fast_out) = _best_of(
            pre, numpy_decode, fast_decode
        )
    finally:
        kernels.set_backend(previous)

    assert np.array_equal(pre_out, values), (codec_name, bits, "pre-backend")
    assert np.array_equal(ref_out, values), (codec_name, bits, "numpy")
    assert np.array_equal(fast_out, values), (codec_name, bits, "shift-table")
    kernel = _unpack_cell(values, bits) if (codec_name, bits) in UNALIGNED_CELLS else {}
    return kernel | {
        "codec": codec_name,
        "bits": bits,
        "elements": int(values.size),
        "pre_backend_ms": pre_s * 1e3,
        "numpy_ms": ref_s * 1e3,
        "shift_table_ms": fast_s * 1e3,
        "speedup": pre_s / fast_s,
        "backend_only_speedup": ref_s / fast_s,
        "shift_table_gops": values.size / fast_s / 1e9,
    }


def _headline_run(db, store, streaming: bool) -> dict:
    engine = CrystalEngine(
        db, store, streaming=streaming, stream_workers=4 if streaming else 1
    )
    engine.metrics = MetricsRegistry()
    query = QUERIES["q1.3"]
    best = None
    for _ in range(REPS):
        engine.evict_decoded()
        t0 = time.perf_counter()
        result = engine.run(query)
        wall_ms = (time.perf_counter() - t0) * 1e3
        if best is None or wall_ms < best["wall_ms"]:
            best = {"wall_ms": wall_ms, "groups": result.groups}
    best["fused_kernels"] = engine.metrics.counter("fused_decode_filter_kernels")
    best["fused_rows"] = engine.metrics.counter("fused_decode_filter_rows")
    return best


def _bench_kernels():
    rng = np.random.default_rng(7)
    cells = [_decode_cell(name, bits, rng) for name, bits in DECODE_CELLS]

    db = sort_lineorder_by(generate(scale_factor=KERNEL_SF, seed=7))
    store = load_lineorder(db, "gpu-star")
    headline = {
        "query": "q1.3",
        "materialized": _headline_run(db, store, streaming=False),
        "streaming_4w": _headline_run(db, store, streaming=True),
    }
    return cells, headline


def _check_unaligned_floor(cells) -> None:
    for c in cells:
        if "unpack_speedup" in c:
            assert c["unpack_speedup"] >= MIN_UNALIGNED_SPEEDUP, c


def test_unaligned_widths_speedup():
    """Shift-table vs the numpy oracle unpack at the widths SSB uses."""
    rng = np.random.default_rng(7)
    cells = [
        {"bits": bits} | _unpack_cell(_column(rng, bits), bits)
        for _, bits in UNALIGNED_CELLS
    ]
    print("\nunaligned unpack: " + "; ".join(
        f"b{c['bits']}: {c['unpack_numpy_ms']:.1f} -> {c['unpack_shift_table_ms']:.1f} ms"
        for c in cells
    ))
    _check_unaligned_floor(cells)


def test_kernel_backend_speedup(benchmark):
    cells, headline = run_once(benchmark, _bench_kernels)

    mat, stream = headline["materialized"], headline["streaming_4w"]
    assert stream["groups"] == mat["groups"]

    summary = {
        "kernel_backend": kernels.backend_name(),
        "elements": KERNEL_N,
        "decode_cells": cells,
        "best_speedup": max(c["speedup"] for c in cells),
        "streaming_headline": {
            "query": headline["query"],
            "wall_ms_materialized": mat["wall_ms"],
            "wall_ms_streaming_4w": stream["wall_ms"],
            "wall_speedup": mat["wall_ms"] / stream["wall_ms"],
            "fused_kernels_materialized": mat["fused_kernels"],
            "fused_kernels_streaming_4w": stream["fused_kernels"],
            "fused_rows_streaming_4w": stream["fused_rows"],
            "identical_results": True,
        },
    }
    OUTPUT_PATH.write_text(json.dumps(summary, indent=2) + "\n")

    lines = [
        f"{c['codec']}/b{c['bits']}: {c['speedup']:.2f}x "
        f"({c['pre_backend_ms']:.1f} -> {c['shift_table_ms']:.1f} ms)"
        for c in cells
    ]
    print("\nkernels: " + "; ".join(lines) + f" -> {OUTPUT_PATH.name}")

    # Acceptance: >=5x single-column decode on at least one codec x
    # bitwidth vs the pre-backend NumPy loop, >=2x over the numpy oracle
    # at every unaligned width, every cell bit-identical, and fused
    # kernels engaged in the streaming headline re-run.
    assert summary["best_speedup"] >= MIN_SPEEDUP, summary["decode_cells"]
    _check_unaligned_floor(cells)
    assert stream["fused_kernels"] > 0, stream
