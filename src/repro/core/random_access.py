"""Random access into tile-compressed columns (paper Section 8).

On the modeled GPU, bit-packed data has no per-element addressability:
a thread block touching any element loads and decodes its whole tile,
and this module prices it that way.  (The host emulation can do better
for GPU-FOR: a block header locates any value in two or three word reads,
which is what :meth:`~repro.formats.base.TileCodec.gather_rows` does for
the engine's sparse loads — but that is host wall time, not the §8
kernel.)  The redeeming structure is the ``block_starts`` index — a
tile's compressed bytes are locatable without decoding anything else, so
a *sparse* access pattern only pays for the tiles it intersects.  Section 8 shows the consequences: below a
selectivity of ``1/TILE`` compressed access is nearly free, above it the
cost plateaus at one full decompression — which still undercuts
uncompressed random access, whose 128-byte line granularity makes it read
the whole column beyond selectivity ``1/32``.

This module is the executable form of that argument:
:func:`gather` fetches arbitrary row indices, :func:`filtered_scan`
applies a predicate bitvector — both decode only the tiles they must.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.base import EncodedColumn, TileCodec
from repro.formats.registry import get_codec
from repro.gpusim.executor import GPUDevice
from repro.gpusim.memory import linear_bytes

#: Cache-line granularity of uncompressed random access (Section 8).
CACHE_LINE_BYTES = 128


@dataclass
class RandomAccessReport:
    """Outcome of a sparse access into a compressed column."""

    values: np.ndarray
    simulated_ms: float
    tiles_touched: int
    tiles_total: int

    @property
    def tile_fraction(self) -> float:
        """Fraction of the column's tiles that had to be decoded."""
        if self.tiles_total == 0:
            return 0.0
        return self.tiles_touched / self.tiles_total


def _resolve(enc: EncodedColumn, codec: TileCodec | None) -> TileCodec:
    if codec is None:
        codec = get_codec(enc.codec)
    if not isinstance(codec, TileCodec):
        raise TypeError(f"codec {enc.codec!r} is not tile-decodable")
    return codec


def coalesce_tile_runs(tile_ids: np.ndarray) -> list[tuple[int, int]]:
    """Group sorted tile ids into maximal ``[first, last)`` runs.

    Adjacent requested tiles decode in one batched ``decode_range`` call
    instead of one Python-level ``decode_tile`` call each — the same
    amortization the paper's thread-block grid gets for free.
    """
    tile_ids = np.asarray(tile_ids, dtype=np.int64)
    if tile_ids.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(tile_ids) > 1)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [tile_ids.size - 1]])
    return [
        (int(tile_ids[s]), int(tile_ids[e]) + 1) for s, e in zip(starts, ends)
    ]


def _per_tile_bytes(codec: TileCodec, enc: EncodedColumn, tx: int) -> np.ndarray:
    """Aligned read bytes per tile, from the codec's segment map."""
    starts, lengths = codec.tile_segments(enc)
    starts = starts.astype(np.int64)
    lengths = lengths.astype(np.int64)
    seg_bytes = np.zeros(starts.size, dtype=np.int64)
    nz = lengths > 0
    seg_bytes[nz] = ((starts[nz] + lengths[nz] - 1) // tx - starts[nz] // tx + 1) * tx
    n_tiles = codec.num_tiles(enc)
    return seg_bytes.reshape(-1, n_tiles).sum(axis=0)


def _touch_tiles(
    enc: EncodedColumn,
    codec: TileCodec,
    device: GPUDevice,
    active: np.ndarray,
    extra_read_bytes: int = 0,
) -> float:
    """Price one kernel that loads and decodes the active tiles."""
    before = device.elapsed_ms
    res = codec.kernel_resources(enc)
    per_tile = _per_tile_bytes(codec, enc, device.spec.transaction_bytes)
    tile_elems = codec.tile_elements(enc)
    touched = int(active.sum())
    with device.launch(
        f"random-access-{enc.codec}",
        grid_blocks=max(1, touched),
        block_threads=128,
        registers_per_thread=res.registers_per_thread,
        shared_mem_per_block=res.shared_mem_per_block,
    ) as k:
        k.traffic.read_bytes += int(per_tile[active].sum())
        if extra_read_bytes:
            k.read_linear(extra_read_bytes)
        k.compute(
            int(res.compute_ops_per_element * touched * tile_elems
                + res.tile_prologue_ops * touched)
        )
        k.shared(int(res.shared_bytes_per_element * touched * tile_elems))
    return device.elapsed_ms - before


def gather(
    enc: EncodedColumn,
    indices: np.ndarray,
    device: GPUDevice,
    codec: TileCodec | None = None,
) -> RandomAccessReport:
    """Fetch arbitrary row indices from a compressed column.

    Only tiles containing at least one requested index are read from
    global memory and decoded; the requested elements are then extracted
    from the decoded tiles.

    Args:
        enc: the compressed column.
        indices: row positions to fetch (any order, duplicates allowed).
        device: simulated GPU to account the kernel on.
        codec: codec instance; resolved from the registry when omitted.

    Returns:
        A :class:`RandomAccessReport` whose ``values[i]`` is the column
        value at ``indices[i]``.
    """
    codec = _resolve(enc, codec)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= enc.count):
        raise IndexError("gather index out of range")

    tile_elems = codec.tile_elements(enc)
    n_tiles = codec.num_tiles(enc)
    active = np.zeros(n_tiles, dtype=bool)
    tile_of = indices // tile_elems
    active[np.unique(tile_of)] = True

    ms = _touch_tiles(enc, codec, device, active, extra_read_bytes=indices.size * 8)

    values = np.empty(indices.size, dtype=enc.dtype)
    for t0, t1 in coalesce_tile_runs(np.flatnonzero(active)):
        sel = (tile_of >= t0) & (tile_of < t1)
        run_values = codec.decode_range(enc, t0, t1)
        values[sel] = run_values[indices[sel] - t0 * tile_elems]
    return RandomAccessReport(
        values=values,
        simulated_ms=ms,
        tiles_touched=int(active.sum()),
        tiles_total=n_tiles,
    )


def filtered_scan(
    enc: EncodedColumn,
    mask: np.ndarray,
    device: GPUDevice,
    codec: TileCodec | None = None,
) -> RandomAccessReport:
    """Return the selected elements of a compressed column.

    The Section 8 experiment's access pattern: a predicate bitvector marks
    the rows to materialize; tiles with no selected row are skipped
    entirely.

    Args:
        enc: the compressed column.
        mask: boolean selection vector of length ``enc.count``.
        device: simulated GPU to account the kernel on.
        codec: codec instance; resolved from the registry when omitted.

    Returns:
        A report whose ``values`` are the selected elements in row order.
    """
    codec = _resolve(enc, codec)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (enc.count,):
        raise ValueError("mask must cover every row of the column")

    tile_elems = codec.tile_elements(enc)
    n_tiles = codec.num_tiles(enc)
    padded = np.zeros(n_tiles * tile_elems, dtype=bool)
    padded[: enc.count] = mask
    active = padded.reshape(n_tiles, tile_elems).any(axis=1)

    # The bitvector itself is read once (1 bit per row).
    ms = _touch_tiles(enc, codec, device, active, extra_read_bytes=enc.count // 8)

    parts = []
    for t0, t1 in coalesce_tile_runs(np.flatnonzero(active)):
        run_values = codec.decode_range(enc, t0, t1)
        run_mask = padded[t0 * tile_elems : t0 * tile_elems + run_values.size]
        parts.append(run_values[run_mask])
    values = (
        np.concatenate(parts) if parts else np.zeros(0, dtype=enc.dtype)
    )
    return RandomAccessReport(
        values=values,
        simulated_ms=ms,
        tiles_touched=int(active.sum()),
        tiles_total=n_tiles,
    )


def uncompressed_filtered_scan_ms(
    count: int, selected: int, device: GPUDevice
) -> float:
    """Cost of the same filtered scan on an *uncompressed* column.

    Each selected row pulls a 128-byte cache line; beyond selectivity
    ~1/32 that touches every line, so the cost is capped at one full
    column sweep (Section 8).
    """
    if selected < 0 or selected > count:
        raise ValueError("selected must be in [0, count]")
    before = device.elapsed_ms
    with device.launch(
        "random-access-uncompressed", grid_blocks=max(1, count // 512)
    ) as k:
        k.traffic.read_bytes += min(
            selected * CACHE_LINE_BYTES,
            linear_bytes(count * 4, CACHE_LINE_BYTES),
        )
        k.read_linear(count // 8)
        k.compute(selected)
    return device.elapsed_ms - before
