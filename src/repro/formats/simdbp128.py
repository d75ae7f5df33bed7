"""GPU-SIMDBP128: vertical-layout bit-packing (the Section 4.3 ablation).

Translating SIMD-BP128's vertical (striped) layout to the GPU maps each of
a warp's 32 threads to one lane; for every thread's lane to end on a
32-bit word boundary each lane must hold 32 values, so with a 128-thread
block the block size balloons to 32 * 128 = **4096 values** encoded with a
single bitwidth (one skewed value inflates the whole block — the
compression downside the paper notes).

Decoding needs 32 packed words plus 32 outputs live per thread, far past
the register budget: occupancy collapses and registers spill, which is
why GPU-SIMDBP128 decodes 2.7x slower than GPU-FOR and runs SSB q1.1 14x
slower.  The kernel resources below encode exactly that pressure.
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
    predicate_interval,
    require_mask_buffer,
    require_out_buffer,
    shifted_interval_mask,
)
from repro.formats.gpufor import bit_length

#: Values per vertical block: 32 lanes x 128 values... laid out for a
#: 128-thread block where each thread owns a 32-value lane.
VBLOCK = 4096
#: Vertical lanes (warp width).
LANES = 32
#: Words of per-block metadata (reference + bitwidth).
_HEADER_WORDS = 2


class GpuSimdBp128(TileCodec):
    """Vertical-layout FOR + bit-packing with 4096-value blocks."""

    name = "gpu-simdbp128"
    block_elements = VBLOCK

    def __init__(self, d_blocks: int = 1):
        if d_blocks != 1:
            raise ValueError("GPU-SIMDBP128 processes one 4096-value block per tile")
        self._d_blocks = 1

    def encode(self, values: np.ndarray) -> EncodedColumn:
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("encode expects a 1-D integer array")
        v = values.astype(np.int64)
        n = v.size
        pad = (-n) % VBLOCK
        if pad and n:
            v = np.concatenate([v, np.full(pad, v[-1], dtype=np.int64)])
        n_blocks = v.size // VBLOCK

        blocks = v.reshape(n_blocks, VBLOCK) if n_blocks else v.reshape(0, VBLOCK)
        references = blocks.min(axis=1) if n_blocks else np.zeros(0, np.int64)
        if n_blocks and not (
            -(2**31) <= int(references.min()) <= int(references.max()) < 2**31
        ):
            # One 32-bit reference word per block; wider would wrap on astype.
            raise ValueError("block references do not fit in int32")
        diffs = blocks - references[:, None] if n_blocks else blocks
        if n_blocks and int(diffs.max()) >= 2**32:
            raise ValueError("per-block value range exceeds 32 bits; cannot bit-pack")
        bits = bit_length(diffs.max(axis=1)) if n_blocks else np.zeros(0, np.int64)
        bits = bits.astype(np.int64)

        block_words = _HEADER_WORDS + bits * VBLOCK // 32
        block_starts = np.zeros(n_blocks + 1, dtype=np.int64)
        np.cumsum(block_words, out=block_starts[1:])
        data = np.zeros(int(block_starts[-1]), dtype=np.uint32)
        data[block_starts[:-1]] = references.astype(np.int32).view(np.uint32)
        data[block_starts[:-1] + 1] = bits.astype(np.uint32)
        for i in range(n_blocks):
            b = int(bits[i])
            if b == 0:
                continue
            packed = bitio.pack_vertical(diffs[i].astype(np.uint64), b, LANES)
            start = int(block_starts[i]) + _HEADER_WORDS
            data[start : start + packed.size] = packed

        enc = EncodedColumn(
            codec=self.name,
            count=n,
            arrays={
                "header": np.array([n, VBLOCK], dtype=np.uint32),
                "block_starts": block_starts.astype(np.uint32),
                "data": data,
            },
            meta={"d_blocks": 1},
            dtype=values.dtype,
        )
        self.attach_tile_checksums(enc, v[:n])
        return enc

    def cascade_passes(self, enc: EncodedColumn) -> list[CascadePass]:
        starts, lengths = self.tile_segments(enc)
        return [
            CascadePass(
                name="unpack-vertical",
                read_bytes=0,
                write_bytes=enc.count * 4,
                compute_ops=enc.count * 9,
                read_segments=(starts, lengths),
            ),
            CascadePass(
                name="add-reference",
                read_bytes=enc.count * 4,
                write_bytes=enc.count * 4,
                compute_ops=enc.count * 2,
                gathers=(enc.arrays["block_starts"].size - 1, 4),
            ),
        ]

    # -- TileCodec ----------------------------------------------------------

    def decode_tiles_into(
        self, enc: EncodedColumn, tile_indices: np.ndarray, out: np.ndarray
    ) -> int:
        tiles = self._validate_tile_indices(enc, tile_indices)
        require_out_buffer(out, tiles.size * VBLOCK)
        if tiles.size == 0:
            return 0
        self.validate_for_decode(enc)
        data = enc.arrays["data"]
        bstarts = enc.arrays["block_starts"].astype(np.int64)[tiles]
        references = data[bstarts].view(np.int32).astype(np.int64)
        bits = data[bstarts + 1].astype(np.int64)
        decoded = out[: tiles.size * VBLOCK].reshape(tiles.size, VBLOCK)
        _unpack_by_width(data, bstarts, bits, np.arange(tiles.size), decoded)
        decoded += references.astype(decoded.dtype)[:, None]
        keep = np.minimum((tiles + 1) * VBLOCK, enc.count) - tiles * VBLOCK
        written = compact_tile_chunks_inplace(
            out, np.full(tiles.size, VBLOCK, dtype=np.int64), keep
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
        """Fused decode+filter: shifted-domain compare at 4096 granularity.

        Like GPU-FOR's fused core but per vertical block: the interval is
        tested against ``lo - reference`` / ``hi - reference`` before the
        reference add, and blocks whose ``[reference, reference +
        2**bits - 1]`` header bound misses the interval skip the whole
        de-interleave+unpack (zero-filled values, mask False).
        """
        interval = predicate_interval(predicate)
        if interval is None:
            return super().decode_filter_tiles_into(
                enc, tile_indices, predicate, out, mask
            )
        tiles = self._validate_tile_indices(enc, tile_indices)
        require_out_buffer(out, tiles.size * VBLOCK)
        require_mask_buffer(mask, tiles.size * VBLOCK)
        if tiles.size == 0:
            return 0
        self.validate_for_decode(enc)
        data = enc.arrays["data"]
        bstarts = enc.arrays["block_starts"].astype(np.int64)[tiles]
        references = data[bstarts].view(np.int32).astype(np.int64)
        bits = data[bstarts + 1].astype(np.int64)
        lo, hi = clamp_interval(*interval)
        block_hi = references + (np.int64(1) << bits) - np.int64(1)
        active = (block_hi >= lo) & (references <= hi)

        decoded = out[: tiles.size * VBLOCK].reshape(tiles.size, VBLOCK)
        decoded[np.flatnonzero(~active)] = 0
        _unpack_by_width(data, bstarts, bits, np.flatnonzero(active), decoded)
        shifted_interval_mask(
            decoded, references, active, lo, hi,
            mask[: tiles.size * VBLOCK].reshape(tiles.size, VBLOCK),
        )
        decoded += references.astype(decoded.dtype)[:, None]
        chunk = np.full(tiles.size, VBLOCK, dtype=np.int64)
        keep = np.minimum((tiles + 1) * VBLOCK, enc.count) - tiles * VBLOCK
        written = compact_tile_chunks_inplace(out, chunk, keep)
        compact_tile_chunks_inplace(mask, chunk, keep)
        if bool(active.all()):
            self.verify_decoded_tiles(enc, tiles, out[:written])
        return written

    def tile_bounds(self, enc: EncodedColumn) -> tuple[np.ndarray, np.ndarray]:
        """Zero-decode bounds from each block's reference + bitwidth pair.

        The single per-block bitwidth makes this the loosest bound of the
        GPU-* family (one skewed value widens the whole 4096-value
        block), mirroring its compression downside.
        """
        starts = enc.arrays["block_starts"].astype(np.int64)
        n_blocks = starts.size - 1
        if n_blocks == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy()
        data = enc.arrays["data"]
        references = data[starts[:-1]].view(np.int32).astype(np.int64)
        bits = data[starts[:-1] + 1].astype(np.int64)
        return references, references + (np.int64(1) << bits) - 1

    def tile_segments(self, enc: EncodedColumn) -> tuple[np.ndarray, np.ndarray]:
        starts_arr = enc.arrays["block_starts"].astype(np.int64)
        n_blocks = starts_arr.size - 1
        first = np.arange(n_blocks, dtype=np.int64)
        data_start = starts_arr[first] * 4
        data_len = (starts_arr[first + 1] - starts_arr[first]) * 4
        base = int(starts_arr[-1]) * 4
        bs_start = base + first * 4
        bs_len = np.full(n_blocks, 8, dtype=np.int64)
        return (
            np.concatenate([data_start, bs_start]),
            np.concatenate([data_len, bs_len]),
        )

    def kernel_resources(self, enc: EncodedColumn) -> KernelResources:
        # 32 packed words + decode state per thread: roughly 56
        # registers over the baseline decoder state; far beyond the
        # 64-register cap, so most of it spills (Section 4.3).
        return KernelResources(
            registers_per_thread=12 + 56,
            shared_mem_per_block=VBLOCK * 4 + 256,
            compute_ops_per_element=9.0,
            tile_prologue_ops=5500.0,
            shared_bytes_per_element=8.0,
        )


def _unpack_by_width(
    data: np.ndarray,
    bstarts: np.ndarray,
    bits: np.ndarray,
    blocks: np.ndarray,
    decoded: np.ndarray,
) -> None:
    """Unpack rows ``blocks`` of a batch into ``decoded``, one pass per width.

    Row ``i`` of the batch is the vertical block whose first word is
    ``bstarts[i]`` and whose width is ``bits[i]``; ``decoded`` is
    ``(batch, 4096)`` and receives reference-relative values.  Each width
    gathers its blocks' words, de-interleaves the lanes and unpacks them
    in one call.
    """
    per_lane = VBLOCK // LANES
    widths = bits[blocks]
    for b in np.unique(widths):
        sel = blocks[widths == b]
        if b == 0:
            decoded[sel] = 0
            continue
        words_per_block = int(b) * VBLOCK // 32
        words_per_lane = words_per_block // LANES
        src = (bstarts[sel] + _HEADER_WORDS)[:, None] + np.arange(words_per_block)
        words = data[src.reshape(-1)].reshape(sel.size, words_per_lane, LANES)
        lane_stream = np.ascontiguousarray(words.transpose(0, 2, 1)).reshape(-1)
        vals = bitio.unpack_bits(lane_stream, sel.size * VBLOCK, int(b))
        decoded[sel] = (
            vals.reshape(sel.size, LANES, per_lane)
            .transpose(0, 2, 1)
            .reshape(sel.size, VBLOCK)
        )
