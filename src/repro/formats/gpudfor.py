"""GPU-DFOR: delta + frame-of-reference + bit-packing (paper Section 5).

Delta encoding an entire array serializes decoding, so GPU-DFOR restarts
the delta chain at every **tile** (a set of ``D`` blocks of 128 integers,
Figure 6): each tile stores its first value separately and delta-encodes
the rest, padding with zero deltas so every block holds 128 entries.  The
deltas are then packed with the GPU-FOR block format
(:func:`repro.formats.gpufor.layout_blocks`), whose per-block FOR reference
absorbs negative deltas without zigzag tricks.

Decoding a tile is bit-unpacking followed by a block-wide inclusive prefix
sum — both on the tile in shared memory, which is what makes the scheme
tile-decompressible (Section 5.2).

Overhead is 0.75 bits/int (GPU-FOR) + one first-value word per tile of
``D * 128`` values = 0.81 bits/int at D=4, matching Section 9.2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats import gpufor
from repro.formats.base import (
    CascadePass,
    EncodedColumn,
    KernelResources,
    TileCodec,
    compact_tile_chunks_inplace,
    predicate_interval,
    require_mask_buffer,
    require_out_buffer,
    splice_block_stream,
)
from repro.formats.gpufor import (
    BLOCK,
    MINIBLOCK,
    MINIBLOCKS_PER_BLOCK,
    BlockLayout,
    block_metadata,
    layout_blocks,
    mean_block_bits,
    unpack_block_indices,
)


@dataclass
class DForLayout:
    """A GPU-DFOR encoding sized exactly, before any data word is written."""

    header: np.ndarray
    #: Each tile's first value (int32, as stored).
    first_values: np.ndarray
    #: Layout of the per-tile delta stream.
    blocks: BlockLayout

    @property
    def nbytes(self) -> int:
        """The encoded column's :attr:`~EncodedColumn.nbytes`."""
        return self.header.nbytes + self.first_values.nbytes + self.blocks.nbytes


class GpuDFor(TileCodec):
    """The paper's GPU-DFOR scheme (Section 5)."""

    name = "gpu-dfor"
    block_elements = BLOCK

    def __init__(self, d_blocks: int = 4):
        if d_blocks < 1:
            raise ValueError(f"d_blocks must be >= 1, got {d_blocks}")
        self._d_blocks = d_blocks

    # -- ColumnCodec --------------------------------------------------------

    def layout(self, values: np.ndarray) -> DForLayout:
        """Validate ``values`` and size their encoding without packing it."""
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("encode expects a 1-D integer array")
        v = values.astype(np.int64, copy=False)
        tile = self._d_blocks * BLOCK
        n = v.size

        if n:
            pad = (-n) % tile
            if pad:
                # Padding with the last value yields zero deltas.
                v = np.concatenate([v, np.full(pad, v[-1], dtype=np.int64)])
            first_values = v[::tile].copy()
            deltas = np.empty_like(v)
            deltas[0] = 0
            np.subtract(v[1:], v[:-1], out=deltas[1:])
            deltas[::tile] = 0  # restart the chain at each tile
        else:
            first_values = np.zeros(0, dtype=np.int64)
            deltas = v

        blocks = layout_blocks(deltas)
        if first_values.size and (
            first_values.max() >= 2**31 or first_values.min() < -(2**31)
        ):
            raise ValueError("first values do not fit in int32")
        return DForLayout(
            header=np.array([n, BLOCK, gpufor.MINIBLOCKS_PER_BLOCK], dtype=np.uint32),
            first_values=first_values.astype(np.int32),
            blocks=blocks,
        )

    def encode(self, values: np.ndarray, layout: DForLayout | None = None) -> EncodedColumn:
        """Pack ``values``; ``layout`` must be ``self.layout(values)`` if given."""
        values = np.asarray(values)
        if layout is None:
            layout = self.layout(values)
        blocks = layout.blocks
        enc = EncodedColumn(
            codec=self.name,
            count=values.size,
            arrays={
                "header": layout.header,
                "block_starts": blocks.block_starts,
                "first_values": layout.first_values,
                "data": blocks.pack(),
            },
            meta={"d_blocks": self._d_blocks, "mean_bits": blocks.mean_bits},
            dtype=values.dtype,
        )
        self.attach_tile_checksums(enc, values.astype(np.int64, copy=False))
        return enc

    # -- re-encoding part of a column ---------------------------------------

    @property
    def unit_elements(self) -> int:
        """Values per independently encoded unit: a tile, where the delta
        chain restarts."""
        return self._d_blocks * BLOCK

    def unit_bytes(self, layout: DForLayout) -> np.ndarray:
        """Packed bytes of each tile of ``layout``."""
        tile_starts = layout.blocks.block_starts.astype(np.int64)[:: self._d_blocks]
        return 4 * np.diff(tile_starts)

    def splice(
        self, enc: EncodedColumn, values: np.ndarray, units: np.ndarray, layout: DForLayout
    ) -> EncodedColumn:
        """``encode(values)``, re-packing only the tiles ``units``.

        ``enc`` encodes a column equal to ``values`` outside ``units``
        (sorted tile indices); ``layout`` is :meth:`layout` of just those
        tiles' values, in order.  Every other tile's words and first value
        are copied from ``enc``, which is left as it is.
        """
        d = self._d_blocks
        blocks = layout.blocks
        data, block_starts = splice_block_stream(
            enc.arrays["data"], enc.arrays["block_starts"],
            (units[:, None] * d + np.arange(d)).reshape(-1),
            blocks.pack(), blocks.block_starts,
        )
        first_values = enc.arrays["first_values"].copy()
        first_values[units] = layout.first_values
        out = EncodedColumn(
            codec=self.name,
            count=values.size,
            arrays={
                "header": enc.arrays["header"].copy(),
                "block_starts": block_starts,
                "first_values": first_values,
                "data": data,
            },
            meta={
                "d_blocks": d,
                "mean_bits": mean_block_bits(data.size, block_starts.size - 1),
            },
            dtype=values.dtype,
        )
        self.attach_tile_checksums(out, values.astype(np.int64, copy=False), enc, units)
        return out

    def cascade_passes(self, enc: EncodedColumn) -> list[CascadePass]:
        decoded_bytes = enc.count * 4
        starts, lengths = self.tile_segments(enc)
        n_blocks = enc.arrays["block_starts"].size - 1
        return [
            CascadePass(
                name="unpack-bits",
                read_bytes=0,
                write_bytes=decoded_bytes,
                compute_ops=int(enc.count * 7),
                read_segments=(starts, lengths),
            ),
            CascadePass(
                name="add-reference",
                read_bytes=decoded_bytes,
                write_bytes=decoded_bytes,
                compute_ops=int(enc.count * 2),
                gathers=(n_blocks, 4),
            ),
            # Device-wide inclusive scan (decoupled-lookback style): the
            # input is read roughly twice (partials + final pass).
            CascadePass(
                name="prefix-sum",
                read_bytes=2 * decoded_bytes,
                write_bytes=decoded_bytes,
                compute_ops=int(enc.count * 4),
            ),
        ]

    # -- TileCodec ----------------------------------------------------------

    def decode_tiles_into(
        self, enc: EncodedColumn, tile_indices: np.ndarray, out: np.ndarray
    ) -> int:
        tiles = self._validate_tile_indices(enc, tile_indices)
        d = self.d_blocks(enc)
        tile = d * BLOCK
        require_out_buffer(out, tiles.size * tile)
        if tiles.size == 0:
            return 0
        self.validate_for_decode(enc)
        self._decode_values(enc, tiles, out)
        keep = np.minimum((tiles + 1) * tile, enc.count) - tiles * tile
        written = compact_tile_chunks_inplace(
            out, np.full(tiles.size, tile, dtype=np.int64), keep
        )
        self.verify_decoded_tiles(enc, tiles, out[:written])
        return written

    def decode_filter_tiles_into(
        self,
        enc: EncodedColumn,
        tile_indices: np.ndarray,
        predicate,
        out: np.ndarray,
        mask: np.ndarray,
    ) -> int:
        """Fused decode+filter for GPU-DFOR.

        Deltas are not in the value domain, so the interval cannot be
        tested before the prefix sum; instead the predicate is evaluated
        in the same pass, on the padded tile matrix right after the scan
        and first-value add — one sweep while the tile is hot, no second
        full-column pass.  Values are always fully materialized, so
        checksum verification is preserved.
        """
        tiles = self._validate_tile_indices(enc, tile_indices)
        d = self.d_blocks(enc)
        tile = d * BLOCK
        require_out_buffer(out, tiles.size * tile)
        require_mask_buffer(mask, tiles.size * tile)
        if tiles.size == 0:
            return 0
        self.validate_for_decode(enc)
        padded = self._decode_values(enc, tiles, out)
        m2 = mask[: tiles.size * tile]
        interval = predicate_interval(predicate)
        if interval is None:
            m2[:] = predicate.row_mask(padded)
        else:
            # Python-int bounds compare exactly in the buffer's dtype.
            lo, hi = interval
            np.greater_equal(padded, lo, out=m2)
            m2 &= padded <= hi
        chunk = np.full(tiles.size, tile, dtype=np.int64)
        keep = np.minimum((tiles + 1) * tile, enc.count) - tiles * tile
        written = compact_tile_chunks_inplace(out, chunk, keep)
        compact_tile_chunks_inplace(mask, chunk, keep)
        self.verify_decoded_tiles(enc, tiles, out[:written])
        return written

    def _decode_values(
        self, enc: EncodedColumn, tiles: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Decode whole ``tiles`` into ``out``; returns the padded values.

        The encoder pads to whole tiles, so every tile holds exactly ``d``
        blocks and the delta chains restart at tile boundaries: one
        batched unpack plus a row-wise scan decodes the lot, in place in
        the caller's scratch (deltas, inclusive scan, + first value).  In
        an int32 buffer the scan wraps modulo ``2**32``, exact for values
        that fit.
        """
        d = self.d_blocks(enc)
        blocks = (tiles[:, None] * d + np.arange(d)).reshape(-1)
        deltas = unpack_block_indices(
            enc.arrays["data"], enc.arrays["block_starts"], blocks, out=out
        ).reshape(tiles.size, d * BLOCK)
        np.cumsum(deltas, axis=1, dtype=deltas.dtype, out=deltas)
        deltas += enc.arrays["first_values"][tiles].astype(deltas.dtype)[:, None]
        return deltas.reshape(-1)

    def tile_bounds(self, enc: EncodedColumn) -> tuple[np.ndarray, np.ndarray]:
        """Zero-decode bounds by bounding the tile's delta prefix sums.

        Every delta of miniblock ``k`` lies in ``[lo_k, hi_k]`` where
        ``lo_k`` is the block's FOR reference and ``hi_k = lo_k +
        2**bits_k - 1``.  A value at position ``p`` inside miniblock
        ``k`` is ``first + (full prior miniblocks) + (1..32 deltas of
        k)``, so per miniblock the reachable minimum is the exclusive
        prefix of ``32*lo`` plus ``min(lo, 32*lo)`` (and symmetrically
        for the maximum) — conservative, but metadata-only.
        """
        if enc.count == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy()
        d = self.d_blocks(enc)
        references, bits = block_metadata(
            enc.arrays["data"], enc.arrays["block_starts"]
        )
        # Per-miniblock delta bounds, grouped per tile (the encoder pads
        # to whole tiles, so every tile holds exactly d blocks).
        minis_per_tile = d * MINIBLOCKS_PER_BLOCK
        lo = np.repeat(references, MINIBLOCKS_PER_BLOCK).reshape(-1, minis_per_tile)
        hi = (references[:, None] + (np.int64(1) << bits) - 1).reshape(
            -1, minis_per_tile
        )
        full_lo = lo * MINIBLOCK
        full_hi = hi * MINIBLOCK
        prefix_lo = np.cumsum(full_lo, axis=1) - full_lo  # exclusive prefix
        prefix_hi = np.cumsum(full_hi, axis=1) - full_hi
        reach_lo = (prefix_lo + np.minimum(lo, full_lo)).min(axis=1)
        reach_hi = (prefix_hi + np.maximum(hi, full_hi)).max(axis=1)
        first_values = enc.arrays["first_values"].astype(np.int64)
        return first_values + reach_lo, first_values + reach_hi

    def tile_segments(self, enc: EncodedColumn) -> tuple[np.ndarray, np.ndarray]:
        d = self.d_blocks(enc)
        starts_arr = enc.arrays["block_starts"].astype(np.int64)
        n_blocks = starts_arr.size - 1
        tile_first = np.arange(0, n_blocks, d, dtype=np.int64)
        tile_last = np.minimum(tile_first + d, n_blocks)
        data_start = starts_arr[tile_first] * 4
        data_len = (starts_arr[tile_last] - starts_arr[tile_first]) * 4
        base = int(starts_arr[-1]) * 4
        bs_start = base + tile_first * 4
        bs_len = (tile_last - tile_first + 1) * 4
        # One first-value word per tile, adjacent to the block_starts reads.
        fv_base = base + (n_blocks + 1) * 4
        fv_start = fv_base + np.arange(tile_first.size, dtype=np.int64) * 4
        fv_len = np.full(tile_first.size, 4, dtype=np.int64)
        return (
            np.concatenate([data_start, bs_start, fv_start]),
            np.concatenate([data_len, bs_len, fv_len]),
        )

    def kernel_resources(self, enc: EncodedColumn) -> KernelResources:
        d = self.d_blocks(enc)
        return KernelResources(
            registers_per_thread=14 + 2 * d,
            shared_mem_per_block=d * BLOCK * 4 + 256,
            compute_ops_per_element=11.0,
            tile_prologue_ops=5500.0,
            # unpack write + block-wide Blelloch scan reads/writes make
            # GPU-DFOR shared-memory bound (Section 9.3).
            shared_bytes_per_element=24.0,
        )
