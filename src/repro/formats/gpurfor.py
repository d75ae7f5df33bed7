"""GPU-RFOR: run-length encoding + FOR + bit-packing (paper Section 6).

The column is partitioned into **blocks of 512 logical integers** and RLE
is applied to each block independently, producing a values array and a
run-lengths array per block.  Both arrays are FOR + miniblock-bit-packed
(the ragged generalization of the GPU-FOR block format) and stored as two
separate streams; the run count of each block is extra per-block metadata.

Because every block's runs and lengths decode independently, one thread
block can load both compressed blocks into shared memory, bit-unpack them,
and expand the runs with two scatters and two block-wide prefix sums
(the four steps of Fang et al. [18]) — a single global-memory pass.

GPU-RFOR needs twice the shared memory and registers of GPU-DFOR (two
input streams), which the kernel resources below reflect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.base import (
    CascadePass,
    EncodedColumn,
    KernelResources,
    TileCodec,
    ragged_arange,
    require_mask_buffer,
    require_out_buffer,
    trim_tile_chunks,
)
from repro.formats.ragged import (
    RaggedLayout,
    RaggedPacked,
    layout_ragged,
    miniblock_bits,
    unpack_ragged_blocks,
)

#: Logical values per RFOR block (Section 6).
RFOR_BLOCK = 512


def run_length_encode(values: np.ndarray, block: int = RFOR_BLOCK):
    """Split ``values`` into runs that never cross block boundaries.

    Returns:
        ``(run_values, run_lengths, runs_per_block)`` covering the input
        exactly; ``values.size`` must be a multiple of ``block``.
    """
    values = np.asarray(values, dtype=np.int64)
    n = values.size
    if n % block:
        raise ValueError(f"run_length_encode needs a multiple of {block} values")
    if n == 0:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(values[1:], values[:-1], out=is_start[1:])
    is_start[::block] = True
    starts = np.flatnonzero(is_start)
    run_values = values[starts]
    run_lengths = np.diff(np.append(starts, n))
    runs_per_block = np.bincount(starts // block, minlength=n // block)
    return run_values, run_lengths, runs_per_block


@dataclass
class RForLayout:
    """A GPU-RFOR encoding sized exactly, before any data word is written."""

    header: np.ndarray
    #: Runs per block (uint32, as stored).
    run_counts: np.ndarray
    run_values: RaggedLayout
    run_lengths: RaggedLayout

    @property
    def nbytes(self) -> int:
        """The encoded column's :attr:`~EncodedColumn.nbytes`."""
        return (
            self.header.nbytes
            + self.run_counts.nbytes
            + self.run_values.nbytes
            + self.run_lengths.nbytes
        )


class GpuRFor(TileCodec):
    """The paper's GPU-RFOR scheme (Section 6)."""

    name = "gpu-rfor"
    block_elements = RFOR_BLOCK

    def __init__(self, d_blocks: int = 1):
        if d_blocks < 1:
            raise ValueError(f"d_blocks must be >= 1, got {d_blocks}")
        self._d_blocks = d_blocks

    # -- ColumnCodec --------------------------------------------------------

    def layout(self, values: np.ndarray) -> RForLayout:
        """Validate ``values`` and size their encoding without packing it."""
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("encode expects a 1-D integer array")
        v = values.astype(np.int64, copy=False)
        n = v.size
        if n:
            pad = (-n) % RFOR_BLOCK
            if pad:
                # Padding with the last value merely extends the final run.
                v = np.concatenate([v, np.full(pad, v[-1], dtype=np.int64)])
        run_values, run_lengths, runs_per_block = run_length_encode(v)
        return RForLayout(
            header=np.array([n, RFOR_BLOCK], dtype=np.uint32),
            run_counts=runs_per_block.astype(np.uint32),
            run_values=layout_ragged(run_values, runs_per_block),
            run_lengths=layout_ragged(run_lengths, runs_per_block),
        )

    def encode(self, values: np.ndarray, layout: RForLayout | None = None) -> EncodedColumn:
        """Pack ``values``; ``layout`` must be ``self.layout(values)`` if given."""
        values = np.asarray(values)
        if layout is None:
            layout = self.layout(values)
        vals_packed = layout.run_values.pack()
        lens_packed = layout.run_lengths.pack()
        n = values.size
        enc = EncodedColumn(
            codec=self.name,
            count=n,
            arrays={
                "header": layout.header,
                "run_counts": layout.run_counts,
                "values_starts": vals_packed.block_starts,
                "values_data": vals_packed.data,
                "lengths_starts": lens_packed.block_starts,
                "lengths_data": lens_packed.data,
            },
            meta={
                "d_blocks": self._d_blocks,
                "avg_run_length": float(n / max(1, layout.run_values.values.size)),
            },
            dtype=values.dtype,
        )
        self.attach_tile_checksums(enc, values.astype(np.int64, copy=False))
        return enc

    def _check_run_sum(
        self, enc: EncodedColumn, run_lengths: np.ndarray, n_blocks: int, tile_id: int
    ) -> None:
        """Reject corrupt run lengths *before* expansion allocates output.

        Each block's run lengths must sum to exactly ``RFOR_BLOCK``; a
        flipped bit in the packed lengths stream would otherwise make
        ``np.repeat`` allocate an arbitrarily large (or misaligned)
        expansion.
        """
        expected = n_blocks * RFOR_BLOCK
        total = int(run_lengths.sum()) if run_lengths.size else 0
        if total != expected or (run_lengths.size and int(run_lengths.min()) < 1):
            from repro.formats.validate import CorruptTileError

            raise CorruptTileError(
                enc.column_name, tile_id,
                f"run lengths sum to {total}, expected {expected}",
            )

    def decode(self, enc: EncodedColumn) -> np.ndarray:
        if enc.count == 0:
            return np.zeros(0, dtype=enc.dtype)
        self.validate_for_decode(enc)
        n_blocks = self._num_blocks(enc)
        run_values, run_lengths = self._decode_runs(enc, np.arange(n_blocks))
        self._check_run_sum(enc, run_lengths, n_blocks, -1)
        out = np.repeat(run_values, run_lengths)
        vals = out[: enc.count]
        self.verify_decoded_tiles(enc, np.arange(self.num_tiles(enc)), vals)
        return vals.astype(enc.dtype)

    def cascade_passes(self, enc: EncodedColumn) -> list[CascadePass]:
        """Eight kernel passes (Section 9.2): FOR+BitPack for both streams,
        then the four RLE expansion steps of Fang et al."""
        n_runs = int(enc.arrays["run_counts"].astype(np.int64).sum())
        runs_bytes = n_runs * 4
        decoded_bytes = enc.count * 4
        n_blocks = self._num_blocks(enc)
        vstarts, vlens = self._stream_segments(enc, "values")
        lstarts, llens = self._stream_segments(enc, "lengths")
        passes = []
        for stream, (starts, lengths) in (
            ("values", (vstarts, vlens)),
            ("lengths", (lstarts, llens)),
        ):
            passes.append(
                CascadePass(
                    name=f"unpack-{stream}",
                    read_bytes=0,
                    write_bytes=runs_bytes,
                    compute_ops=n_runs * 7,
                    read_segments=(starts, lengths),
                )
            )
            passes.append(
                CascadePass(
                    name=f"add-reference-{stream}",
                    read_bytes=runs_bytes,
                    write_bytes=runs_bytes,
                    compute_ops=n_runs * 2,
                    gathers=(n_blocks, 4),
                )
            )
        passes.extend(
            [
                CascadePass(
                    name="scan-lengths",
                    read_bytes=2 * runs_bytes,
                    write_bytes=runs_bytes,
                    compute_ops=n_runs * 4,
                ),
                CascadePass(
                    name="scatter-flags",
                    read_bytes=runs_bytes,
                    write_bytes=decoded_bytes,
                    compute_ops=n_runs * 2,
                    scatters=(n_runs, 4, decoded_bytes),
                ),
                CascadePass(
                    name="scan-flags",
                    read_bytes=2 * decoded_bytes,
                    write_bytes=decoded_bytes,
                    compute_ops=enc.count * 4,
                ),
                CascadePass(
                    name="gather-values",
                    read_bytes=decoded_bytes,
                    write_bytes=decoded_bytes,
                    compute_ops=enc.count * 2,
                    gathers=(n_runs, 4, runs_bytes),
                ),
            ]
        )
        return passes

    # -- TileCodec ----------------------------------------------------------

    def decode_tile(self, enc: EncodedColumn, tile_idx: int) -> np.ndarray:
        self.check_tile_index(enc, tile_idx)
        self.validate_for_decode(enc)
        d = self.d_blocks(enc)
        n_blocks = self._num_blocks(enc)
        first = tile_idx * d
        last = min(first + d, n_blocks)
        run_values, run_lengths = self._decode_runs(enc, np.arange(first, last))
        self._check_run_sum(enc, run_lengths, last - first, tile_idx)
        # The device function's expansion: Fang et al.'s four block-wide
        # steps (scan, scatter, max-scan, gather) in shared memory.
        from repro.engine.primitives import block_rle_expand

        out = block_rle_expand(run_values, run_lengths)
        end = min((first + d) * RFOR_BLOCK, enc.count) - first * RFOR_BLOCK
        out = out[:end]
        self.verify_decoded_tiles(enc, np.array([tile_idx]), out)
        return out.astype(enc.dtype)

    def decode_tiles(self, enc: EncodedColumn, tile_indices: np.ndarray) -> np.ndarray:
        tiles = self._validate_tile_indices(enc, tile_indices)
        if tiles.size == 0:
            return np.zeros(0, dtype=enc.dtype)
        self.validate_for_decode(enc)
        run_values, run_lengths, chunks, keep = self._tile_runs(enc, tiles)
        vals = trim_tile_chunks(np.repeat(run_values, run_lengths), chunks, keep)
        self.verify_decoded_tiles(enc, tiles, vals)
        return vals.astype(enc.dtype, copy=False)

    def decode_tiles_into(
        self, enc: EncodedColumn, tile_indices: np.ndarray, out: np.ndarray
    ) -> int:
        # RLE expansion's np.repeat has no out-parameter, so the run
        # streams and the expanded runs stay transient; only the trimmed
        # logical values are copied into the caller's scratch.  The
        # transients are run-sized (tiny for run-heavy columns), so the
        # arena still bounds the dominant decoded footprint.
        tiles = self._validate_tile_indices(enc, tile_indices)
        d = self.d_blocks(enc)
        require_out_buffer(out, tiles.size * d * RFOR_BLOCK)
        if tiles.size == 0:
            return 0
        values = self.decode_tiles(enc, tiles)
        out[: values.size] = values
        return int(values.size)

    def decode_filter_tiles_into(
        self,
        enc: EncodedColumn,
        tile_indices: np.ndarray,
        predicate,
        out: np.ndarray,
        mask: np.ndarray,
    ) -> int:
        """Fused decode+filter for GPU-RFOR: evaluate on runs, not rows.

        The predicate is applied to the *run values* before expansion —
        ``n_runs`` comparisons instead of one per logical row — and the
        run mask expands with the same ``np.repeat`` as the values.  Any
        predicate shape works (runs are plain value-domain integers), and
        values are fully materialized so checksum coverage is preserved.
        """
        tiles = self._validate_tile_indices(enc, tile_indices)
        d = self.d_blocks(enc)
        require_out_buffer(out, tiles.size * d * RFOR_BLOCK)
        require_mask_buffer(mask, tiles.size * d * RFOR_BLOCK)
        if tiles.size == 0:
            return 0
        self.validate_for_decode(enc)
        run_values, run_lengths, chunks, keep = self._tile_runs(enc, tiles)
        run_mask = predicate.row_mask(run_values)
        vals = trim_tile_chunks(np.repeat(run_values, run_lengths), chunks, keep)
        kept_mask = trim_tile_chunks(np.repeat(run_mask, run_lengths), chunks, keep)
        self.verify_decoded_tiles(enc, tiles, vals)
        out[: vals.size] = vals
        mask[: vals.size] = kept_mask
        return int(vals.size)

    def tile_bounds(self, enc: EncodedColumn) -> tuple[np.ndarray, np.ndarray]:
        """Zero-decode bounds from the run-values stream's metadata.

        Run lengths never change a block's value set, so only the values
        stream matters: its ragged-FOR reference is the exact minimum of
        the block's run values (= the block minimum), and ``reference +
        2**widest_miniblock - 1`` bounds every run value from the stored
        bitwidth bytes alone.
        """
        counts = enc.arrays["run_counts"].astype(np.int64)
        n_blocks = counts.size
        if n_blocks == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy()
        data = enc.arrays["values_data"]
        bstarts = enc.arrays["values_starts"].astype(np.int64)[:-1]
        references = data[bstarts].view(np.int32).astype(np.int64)
        # The bitwidth bytes alone: no payload word is touched.
        bits, _, within = miniblock_bits(data, bstarts, counts)
        widest = np.maximum.reduceat(bits, np.flatnonzero(within == 0))

        block_max = references + (np.int64(1) << widest) - 1
        edges = np.arange(0, n_blocks, self.d_blocks(enc), dtype=np.int64)
        return (
            np.minimum.reduceat(references, edges),
            np.maximum.reduceat(block_max, edges),
        )

    def tile_segments(self, enc: EncodedColumn) -> tuple[np.ndarray, np.ndarray]:
        d = self.d_blocks(enc)
        vstarts_arr = enc.arrays["values_starts"].astype(np.int64)
        lstarts_arr = enc.arrays["lengths_starts"].astype(np.int64)
        n_blocks = vstarts_arr.size - 1
        tile_first = np.arange(0, n_blocks, d, dtype=np.int64)
        tile_last = np.minimum(tile_first + d, n_blocks)

        # Lay the four physical arrays out back to back so segments from
        # different arrays never alias.
        v_bytes = int(vstarts_arr[-1]) * 4
        l_base = v_bytes
        l_bytes = int(lstarts_arr[-1]) * 4
        meta_base = l_base + l_bytes

        segs = [
            (vstarts_arr[tile_first] * 4, (vstarts_arr[tile_last] - vstarts_arr[tile_first]) * 4),
            (l_base + lstarts_arr[tile_first] * 4, (lstarts_arr[tile_last] - lstarts_arr[tile_first]) * 4),
            # block starts (both streams) + run counts, read per tile.
            (meta_base + tile_first * 4, (tile_last - tile_first + 1) * 4),
            (meta_base + (n_blocks + 1) * 4 + tile_first * 4, (tile_last - tile_first + 1) * 4),
            (meta_base + 2 * (n_blocks + 1) * 4 + tile_first * 4, (tile_last - tile_first) * 4),
        ]
        return (
            np.concatenate([s for s, _ in segs]),
            np.concatenate([l for _, l in segs]),
        )

    def kernel_resources(self, enc: EncodedColumn) -> KernelResources:
        d = self.d_blocks(enc)
        # Two compressed streams staged plus the 512-entry decode buffer:
        # twice GPU-DFOR's footprint (Section 6).
        return KernelResources(
            registers_per_thread=18 + 4 * d,
            shared_mem_per_block=d * RFOR_BLOCK * 4 * 2 + 512,
            compute_ops_per_element=25.0,
            tile_prologue_ops=8000.0,
            shared_bytes_per_element=48.0,
        )

    # -- helpers ------------------------------------------------------------

    def _decode_runs(
        self, enc: EncodedColumn, blocks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run values and run lengths of ``blocks``, in order."""
        counts = enc.arrays["run_counts"]
        run_values, run_lengths = (
            unpack_ragged_blocks(
                RaggedPacked(enc.arrays[f"{s}_data"], enc.arrays[f"{s}_starts"], counts),
                blocks,
            )[0]
            for s in ("values", "lengths")
        )
        return run_values, run_lengths

    def _tile_runs(
        self, enc: EncodedColumn, tiles: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The checked runs of whole tiles, plus each tile's padded and
        kept lengths for :func:`trim_tile_chunks`.

        Runs never cross block boundaries and each block's lengths sum to
        exactly ``RFOR_BLOCK``, so one ``np.repeat`` expands the batch.
        """
        d = self.d_blocks(enc)
        first = tiles * d
        nb = np.minimum(first + d, self._num_blocks(enc)) - first
        run_values, run_lengths = self._decode_runs(
            enc, np.repeat(first, nb) + ragged_arange(nb)
        )
        self._check_run_sum(enc, run_lengths, int(nb.sum()), int(tiles[0]))
        keep = np.minimum((tiles + 1) * d * RFOR_BLOCK, enc.count) - first * RFOR_BLOCK
        return run_values, run_lengths, nb * RFOR_BLOCK, keep

    def _num_blocks(self, enc: EncodedColumn) -> int:
        return enc.arrays["run_counts"].size

    def _stream_segments(self, enc: EncodedColumn, stream: str):
        starts_arr = enc.arrays[f"{stream}_starts"].astype(np.int64)
        n_blocks = starts_arr.size - 1
        first = np.arange(n_blocks, dtype=np.int64)
        return starts_arr[first] * 4, (starts_arr[first + 1] - starts_arr[first]) * 4
