"""GPU-BP: single-layer horizontal bit-packing (Mallia et al. [33]).

The Figure 9/10/11 baseline: bit-packs blocks of 128 values with a
per-block bitwidth, but — unlike GPU-FOR — applies **no frame of
reference** (and no delta or RLE layer), so the bitwidth is set by the
raw magnitude of the block maximum.  That is why it compresses date
columns and run-heavy columns poorly (Section 9.4).

The decoder is one pass but lacks the Section 4.2 optimizations
(single block per thread block, redundant per-thread offset loop), which
the kernel resources reflect.
"""

from __future__ import annotations

import numpy as np

from repro.formats import bitio
from repro.formats.base import (
    CascadePass,
    EncodedColumn,
    KernelResources,
    TileCodec,
    clamp_interval,
    compact_tile_chunks_inplace,
    exact_tile_bounds,
    predicate_interval,
    ragged_arange,
    require_mask_buffer,
    require_out_buffer,
    shifted_interval_mask,
)
from repro.formats.gpufor import BLOCK, bit_length

#: Words of per-block metadata (just the bitwidth word).
_HEADER_WORDS = 1


class GpuBp(TileCodec):
    """Bit-packing without FOR, per 128-value block."""

    name = "gpu-bp"
    block_elements = BLOCK

    def __init__(self, d_blocks: int = 1):
        if d_blocks < 1:
            raise ValueError(f"d_blocks must be >= 1, got {d_blocks}")
        self._d_blocks = d_blocks

    def encode(self, values: np.ndarray) -> EncodedColumn:
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("encode expects a 1-D integer array")
        v = values.astype(np.int64)
        if v.size and (v.min() < 0 or v.max() >= 2**32):
            raise ValueError("GPU-BP requires values in [0, 2**32)")
        n = v.size
        pad = (-n) % BLOCK
        if pad and n:
            v = np.concatenate([v, np.full(pad, v[-1], dtype=np.int64)])
        n_blocks = v.size // BLOCK

        blocks = v.reshape(n_blocks, BLOCK)
        bits = bit_length(blocks.max(axis=1)) if n_blocks else np.zeros(0, np.int64)
        bits = bits.astype(np.int64)
        block_words = _HEADER_WORDS + bits * BLOCK // 32
        block_starts = np.zeros(n_blocks + 1, dtype=np.int64)
        np.cumsum(block_words, out=block_starts[1:])

        data = np.zeros(int(block_starts[-1]), dtype=np.uint32)
        data[block_starts[:-1]] = bits.astype(np.uint32)
        for b in np.unique(bits):
            if b == 0:
                continue
            sel = np.flatnonzero(bits == b)
            packed = bitio.pack_bits(
                blocks[sel].reshape(-1).astype(np.uint64), int(b)
            ).reshape(sel.size, -1)
            dest = (block_starts[sel] + _HEADER_WORDS)[:, None] + np.arange(
                packed.shape[1]
            )
            data[dest.reshape(-1)] = packed.reshape(-1)

        # GPU-BP stores no reference, so its headers only bound values by
        # [0, 2**bits - 1]; cache exact per-tile bounds at encode time
        # instead (host-side zone-map metadata, not compressed bytes).
        tile_mins, tile_maxs = exact_tile_bounds(
            values.astype(np.int64), self._d_blocks * BLOCK
        )
        enc = EncodedColumn(
            codec=self.name,
            count=n,
            arrays={
                "header": np.array([n, BLOCK], dtype=np.uint32),
                "block_starts": block_starts.astype(np.uint32),
                "data": data,
            },
            meta={
                "d_blocks": self._d_blocks,
                "tile_mins": tile_mins,
                "tile_maxs": tile_maxs,
            },
            dtype=values.dtype,
        )
        self.attach_tile_checksums(enc, v[:n])
        return enc

    def cascade_passes(self, enc: EncodedColumn) -> list[CascadePass]:
        starts, lengths = self.tile_segments(enc)
        return [
            CascadePass(
                name="unpack-bits",
                read_bytes=0,
                write_bytes=enc.count * 4,
                compute_ops=enc.count * 7,
                read_segments=(starts, lengths),
            )
        ]

    # -- TileCodec ----------------------------------------------------------

    def decode_tiles_into(
        self, enc: EncodedColumn, tile_indices: np.ndarray, out: np.ndarray
    ) -> int:
        tiles = self._validate_tile_indices(enc, tile_indices)
        d = self.d_blocks(enc)
        require_out_buffer(out, tiles.size * d * BLOCK)
        if tiles.size == 0:
            return 0
        self.validate_for_decode(enc)
        n_blocks = enc.arrays["block_starts"].size - 1
        first = tiles * d
        nb = np.minimum(first + d, n_blocks) - first
        blocks = np.repeat(first, nb) + ragged_arange(nb)
        self._decode_block_indices(enc, blocks, out)
        keep = np.minimum((tiles + 1) * d * BLOCK, enc.count) - tiles * d * BLOCK
        written = compact_tile_chunks_inplace(out, nb * BLOCK, keep)
        self.verify_decoded_tiles(enc, tiles, out[:written])
        return written

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
        return (
            np.concatenate([data_start, bs_start]),
            np.concatenate([data_len, bs_len]),
        )

    def kernel_resources(self, enc: EncodedColumn) -> KernelResources:
        d = self.d_blocks(enc)
        # No multi-block processing, no offset precomputation: the
        # per-thread compute matches the paper's unoptimized kernel.
        return KernelResources(
            registers_per_thread=12 + 2 * d,
            shared_mem_per_block=d * BLOCK * 4 + 256,
            compute_ops_per_element=11.0,
            tile_prologue_ops=5500.0,
            shared_bytes_per_element=8.0,
        )

    # -- helpers ------------------------------------------------------------

    def _decode_block_indices(
        self, enc: EncodedColumn, blocks: np.ndarray, out: np.ndarray
    ) -> None:
        """Decode a non-empty batch of blocks into ``out``, one pass per
        bitwidth (``out`` holds at least ``blocks.size * 128`` values)."""
        n = blocks.size
        bstarts = enc.arrays["block_starts"].astype(np.int64)[blocks]
        data = enc.arrays["data"]
        bits = data[bstarts].astype(np.int64)
        decoded = out[: n * BLOCK].reshape(n, BLOCK)
        # Regular-geometry fast path: one shared bitwidth over physically
        # consecutive blocks means equal payloads at a constant stride —
        # one contiguous unpack instead of a per-block word gather.
        b0 = int(bits[0])
        if b0 and bool((bits == b0).all()):
            payload = b0 * BLOCK // 32
            stride = payload + _HEADER_WORDS
            if n == 1 or bool((np.diff(bstarts) == stride).all()):
                bitio.unpack_bits_strided_into(
                    data, int(bstarts[0]) + _HEADER_WORDS, n,
                    payload, stride, BLOCK, b0, out,
                )
                return
        _unpack_by_width(data, bstarts, bits, np.arange(n), decoded)

    def _decode_filter_block_indices(
        self,
        enc: EncodedColumn,
        blocks: np.ndarray,
        lo: int,
        hi: int,
        out: np.ndarray,
        mask: np.ndarray,
    ) -> np.ndarray:
        """Fused decode+filter core: interval test during unpack.

        GPU-BP stores raw magnitudes (no reference), so the interval is
        tested directly; blocks whose header bitwidth already proves
        ``[0, 2**b - 1]`` misses ``[lo, hi]`` are skipped (zero-filled,
        mask False).  Returns the per-block active flags.
        """
        blocks = np.asarray(blocks, dtype=np.int64)
        n = blocks.size
        if n == 0:
            return np.ones(0, dtype=bool)
        bstarts = enc.arrays["block_starts"].astype(np.int64)[blocks]
        data = enc.arrays["data"]
        bits = data[bstarts].astype(np.int64)
        block_hi = (np.int64(1) << bits) - np.int64(1)
        active = (block_hi >= lo) & (hi >= 0)
        decoded = out[: n * BLOCK].reshape(n, BLOCK)
        if bool(active.all()):
            self._decode_block_indices(enc, blocks, out)
        else:
            decoded[np.flatnonzero(~active)] = 0
            _unpack_by_width(data, bstarts, bits, np.flatnonzero(active), decoded)
        # Raw magnitudes are diffs from a zero reference.
        shifted_interval_mask(
            decoded, np.zeros(n, dtype=np.int64), active, lo, hi,
            mask[: n * BLOCK].reshape(n, BLOCK),
        )
        return active

    def decode_filter_tiles_into(
        self,
        enc: EncodedColumn,
        tile_indices: np.ndarray,
        predicate,
        out: np.ndarray,
        mask: np.ndarray,
    ) -> int:
        interval = predicate_interval(predicate)
        if interval is None:
            return super().decode_filter_tiles_into(
                enc, tile_indices, predicate, out, mask
            )
        tiles = self._validate_tile_indices(enc, tile_indices)
        d = self.d_blocks(enc)
        require_out_buffer(out, tiles.size * d * BLOCK)
        require_mask_buffer(mask, tiles.size * d * BLOCK)
        if tiles.size == 0:
            return 0
        self.validate_for_decode(enc)
        n_blocks = enc.arrays["block_starts"].size - 1
        first = tiles * d
        nb = np.minimum(first + d, n_blocks) - first
        blocks = np.repeat(first, nb) + ragged_arange(nb)
        lo, hi = clamp_interval(*interval)
        active = self._decode_filter_block_indices(enc, blocks, lo, hi, out, mask)
        keep = np.minimum((tiles + 1) * d * BLOCK, enc.count) - tiles * d * BLOCK
        written = compact_tile_chunks_inplace(out, nb * BLOCK, keep)
        compact_tile_chunks_inplace(mask, nb * BLOCK, keep)
        if bool(active.all()):
            self.verify_decoded_tiles(enc, tiles, out[:written])
        return written


def _unpack_by_width(
    data: np.ndarray,
    bstarts: np.ndarray,
    bits: np.ndarray,
    blocks: np.ndarray,
    decoded: np.ndarray,
) -> None:
    """Unpack rows ``blocks`` of a batch into ``decoded``, one pass per width.

    Row ``i`` of the batch is the block whose first word is ``bstarts[i]``
    and whose width is ``bits[i]``; ``decoded`` is ``(batch, 128)``.
    """
    widths = bits[blocks]
    for b in np.unique(widths):
        sel = blocks[widths == b]
        if b == 0:
            decoded[sel] = 0
            continue
        words_per = int(b) * BLOCK // 32
        src = (bstarts[sel] + _HEADER_WORDS)[:, None] + np.arange(words_per)
        words = data[src.reshape(-1)]
        vals = bitio.unpack_bits(words, sel.size * BLOCK, int(b))
        decoded[sel] = vals.reshape(sel.size, BLOCK)
