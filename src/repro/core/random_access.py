"""Random access into tile-compressed columns (paper Section 8).

On the modeled GPU, bit-packed data has no per-element addressability:
a thread block touching any element loads and decodes its whole tile,
and this module prices every access that way (:func:`_touch_tiles`).
The redeeming structure is the ``block_starts`` index — a tile's
compressed bytes are locatable without decoding anything else, so a
*sparse* access pattern only pays for the tiles it intersects.  Section 8
shows the consequences: below a selectivity of ``1/TILE`` compressed
access is nearly free, above it the cost plateaus at one full
decompression — which still undercuts uncompressed random access, whose
128-byte line granularity makes it read the whole column beyond
selectivity ``1/32``.

The host reads values through the codec's own routes, one call each:
:func:`gather` fetches arbitrary row indices with
:meth:`~repro.formats.base.TileCodec.gather_rows` (the row read the
engine's sparse loads use: GPU-FOR locates each value from its block
header, the other codecs decode the tiles the rows fall in), and
:func:`filtered_scan` applies a predicate bitvector after one
:meth:`~repro.formats.base.TileCodec.decode_tiles` over the touched
tiles.  Both verify tile checksums where verification is on.
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
    per_tile = codec.tile_read_bytes(enc, device.spec.transaction_bytes)
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

    Priced as one kernel loading and decoding every tile that holds a
    requested index; the values come from one
    :meth:`~repro.formats.base.TileCodec.gather_rows` call.

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
    # Raises IndexError for a row outside the column before anything is priced.
    values = codec.gather_rows(enc, indices).astype(enc.dtype, copy=False)
    n_tiles = codec.num_tiles(enc)
    active = np.zeros(n_tiles, dtype=bool)
    active[indices // codec.tile_elements(enc)] = True
    ms = _touch_tiles(enc, codec, device, active, extra_read_bytes=indices.size * 8)
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

    # Only the column's last tile is short, and it is decoded last.
    decoded = codec.decode_tiles(enc, np.flatnonzero(active))
    values = decoded[padded.reshape(n_tiles, tile_elems)[active].reshape(-1)[: decoded.size]]
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
