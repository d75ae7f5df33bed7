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
    compact_tile_chunks_inplace,
    ragged_arange,
    require_out_buffer,
    splice_block_stream,
    verify_mode,
)
from repro.formats.gpufor import read_packed
from repro.formats.ragged import (
    RaggedLayout,
    RaggedPacked,
    layout_ragged,
    miniblock_bits,
    miniblock_offsets,
    unpack_ragged_blocks,
)

#: Logical values per RFOR block (Section 6).
RFOR_BLOCK = 512
#: Blocks whose runs one ``np.repeat`` expands.  ``np.repeat`` has no
#: ``out`` parameter, so each expansion is a transient copied into the
#: caller's buffer; slabs bound it at 512 KiB of int64 (256 KiB of
#: int32) instead of the whole batch (as fast as one repeat, and far
#: below scatter+cumsum expansion's memory).
_EXPAND_BLOCKS = 128


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
    stores_runs = True

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

    # -- re-encoding part of a column ---------------------------------------

    #: Values per independently encoded unit: a block, the span of its RLE.
    unit_elements = RFOR_BLOCK

    def unit_bytes(self, layout: RForLayout) -> np.ndarray:
        """Packed bytes of each block of ``layout``, both run streams."""
        return 4 * (
            np.diff(layout.run_values.block_starts.astype(np.int64))
            + np.diff(layout.run_lengths.block_starts.astype(np.int64))
        )

    def splice(
        self, enc: EncodedColumn, values: np.ndarray, units: np.ndarray, layout: RForLayout
    ) -> EncodedColumn:
        """``encode(values)``, re-packing only the blocks ``units``.

        ``enc`` encodes a column equal to ``values`` outside ``units``
        (sorted block indices); ``layout`` is :meth:`layout` of just those
        blocks' values, in order.  Every other block's runs are copied
        from ``enc``, which is left as it is.
        """
        def spliced(stream: str, ragged: RaggedLayout) -> tuple[np.ndarray, np.ndarray]:
            packed = ragged.pack()
            return splice_block_stream(
                enc.arrays[f"{stream}_data"], enc.arrays[f"{stream}_starts"], units,
                packed.data, packed.block_starts,
            )

        values_data, values_starts = spliced("values", layout.run_values)
        lengths_data, lengths_starts = spliced("lengths", layout.run_lengths)
        run_counts = enc.arrays["run_counts"].copy()
        run_counts[units] = layout.run_counts
        n = values.size
        out = EncodedColumn(
            codec=self.name,
            count=n,
            arrays={
                "header": enc.arrays["header"].copy(),
                "run_counts": run_counts,
                "values_starts": values_starts,
                "values_data": values_data,
                "lengths_starts": lengths_starts,
                "lengths_data": lengths_data,
            },
            meta={
                "d_blocks": self._d_blocks,
                "avg_run_length": float(n / max(1, int(run_counts.sum(dtype=np.int64)))),
            },
            dtype=values.dtype,
        )
        self.attach_tile_checksums(
            out, values.astype(np.int64, copy=False), enc, np.unique(units // self._d_blocks)
        )
        return out

    def _check_run_sum(
        self, enc: EncodedColumn, run_lengths: np.ndarray, run_ends: np.ndarray,
        blocks: np.ndarray,
    ) -> None:
        """Reject corrupt run lengths *before* expansion writes output.

        Each block's run lengths (the runs of ``blocks[i]`` end at
        ``run_ends[i]``) must be positive and sum to exactly
        ``RFOR_BLOCK``; a flipped bit in the packed lengths stream would
        otherwise make ``np.repeat`` overrun (or fall short of) the
        block's slots.  The error names the tile of the first bad block
        and that block's own sum.
        """
        firsts = np.concatenate(([0], run_ends[:-1]))
        sums = np.add.reduceat(run_lengths, firsts)
        bad = sums != RFOR_BLOCK
        if int(run_lengths.min()) < 1:
            bad |= np.minimum.reduceat(run_lengths, firsts) < 1
        if bool(bad.any()):
            from repro.formats.validate import CorruptTileError

            i = int(np.argmax(bad))
            block = int(blocks[i])
            raise CorruptTileError(
                enc.column_name, block // self.d_blocks(enc),
                f"block {block}'s {int(run_ends[i] - firsts[i])} run lengths "
                f"sum to {int(sums[i])}, expected {RFOR_BLOCK} per block, "
                f"each at least 1",
            )

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

    def decode_tiles_into(
        self, enc: EncodedColumn, tile_indices: np.ndarray, out: np.ndarray
    ) -> int:
        tiles = self._validate_tile_indices(enc, tile_indices)
        require_out_buffer(out, tiles.size * self.tile_elements(enc))
        if tiles.size == 0:
            return 0
        self.validate_for_decode(enc)
        run_values, run_lengths, run_ends, chunks, keep = self._tile_runs(enc, tiles)
        self._expand_runs(run_values, run_lengths, run_ends, out)
        written = compact_tile_chunks_inplace(out, chunks, keep)
        self.verify_decoded_tiles(enc, tiles, out[:written])
        return written

    def decode_runs_into(
        self, enc: EncodedColumn, tile_indices: np.ndarray, out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The tiles' runs as stored, with no expansion.

        Unpacks both run streams of the tiles' blocks and checks every
        block's lengths, like :meth:`decode_tiles_into`, but skips the
        four expansion steps of Fang et al.: ``out`` receives the run
        values, the run lengths and each run's first row, one after the
        other.  Those three arrays fit in the rows' buffer only while a
        run averages at least three rows; below that the rows are as
        compact as the runs, so this returns ``None`` and the caller
        decodes rows.
        """
        tiles = self._validate_tile_indices(enc, tile_indices)
        needed = tiles.size * self.tile_elements(enc)
        require_out_buffer(out, needed)
        if tiles.size == 0:
            return out[:0], out[:0], out[:0]
        self.validate_for_decode(enc)
        blocks, _ = self._tile_blocks(enc, tiles)
        counts = enc.arrays["run_counts"].astype(np.int64)[blocks]
        n_runs = int(counts.sum())
        if 3 * n_runs > needed:
            return None
        values, lengths, starts = (out[i * n_runs : (i + 1) * n_runs] for i in range(3))
        run_values, run_lengths = self._decode_runs(enc, blocks)
        run_ends = np.cumsum(counts)
        self._check_run_sum(enc, run_lengths, run_ends, blocks)
        values[:] = run_values
        lengths[:] = run_lengths
        # Checked blocks fill exactly RFOR_BLOCK rows each, so block i of
        # the batch starts at i * RFOR_BLOCK of the lengths' running sum.
        np.cumsum(lengths, out=starts)
        starts -= lengths
        shift = (blocks - np.arange(blocks.size)) * RFOR_BLOCK
        if bool((shift == shift[0]).all()):
            starts += shift[0]
        else:
            starts += np.repeat(shift, counts)
        if enc.count % RFOR_BLOCK and int(blocks.max()) == self._num_blocks(enc) - 1:
            # The short last block's padding extends its final runs.
            np.minimum(lengths, enc.count - starts, out=lengths)
            keep = lengths > 0
            if not bool(keep.all()):
                n_runs = int(keep.sum())
                kept = [a[keep] for a in (values, lengths, starts)]
                values, lengths, starts = (
                    out[i * n_runs : (i + 1) * n_runs] for i in range(3)
                )
                for dst, src in zip((values, lengths, starts), kept):
                    dst[:] = src
        return values, lengths, starts

    def gather_rows(self, enc: EncodedColumn, rows: np.ndarray) -> np.ndarray:
        """Read each row's run, expanding nothing.

        Only the lengths stream of the blocks the rows fall in is
        unpacked (and checked, as on decode); a search of its running sum
        finds each row's run, and that run's value is read straight from
        the values stream, located by the block's reference and bitwidth
        bytes.  A column carrying a checksum table under active
        verification takes the base route instead: a CRC covers a whole
        tile, so only a whole-tile decode can verify it.
        """
        if verify_mode() != "off" and "tile_crcs" in enc.meta:
            return super().gather_rows(enc, rows)
        rows = self._validate_rows(enc, rows)
        if rows.size == 0:
            return np.zeros(0, dtype=np.int64)
        self.validate_for_decode(enc)
        blocks, slot = np.unique(rows // RFOR_BLOCK, return_inverse=True)
        counts = enc.arrays["run_counts"].astype(np.int64)[blocks]
        run_lengths = unpack_ragged_blocks(self._stream(enc, "lengths"), blocks)[0]
        run_ends = np.cumsum(counts)
        self._check_run_sum(enc, run_lengths, run_ends, blocks)
        # Block i's runs fill slots [i * RFOR_BLOCK, (i + 1) * RFOR_BLOCK)
        # of the lengths' running sum.
        run = np.searchsorted(
            np.cumsum(run_lengths), slot * RFOR_BLOCK + rows % RFOR_BLOCK, side="right"
        )
        return self._run_values_at(enc, blocks, counts, slot, run - (run_ends - counts)[slot])

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

    def _stream(self, enc: EncodedColumn, stream: str) -> RaggedPacked:
        """The ``values`` or ``lengths`` stream as a :class:`RaggedPacked`."""
        return RaggedPacked(
            enc.arrays[f"{stream}_data"], enc.arrays[f"{stream}_starts"],
            enc.arrays["run_counts"],
        )

    def _decode_runs(
        self, enc: EncodedColumn, blocks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run values and run lengths of ``blocks``, in order."""
        run_values, run_lengths = (
            unpack_ragged_blocks(self._stream(enc, s), blocks)[0]
            for s in ("values", "lengths")
        )
        return run_values, run_lengths

    def _tile_blocks(
        self, enc: EncodedColumn, tiles: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The blocks of ``tiles`` in batch order, and each tile's block count."""
        d = self.d_blocks(enc)
        first = tiles * d
        nb = np.minimum(first + d, self._num_blocks(enc)) - first
        return np.repeat(first, nb) + ragged_arange(nb), nb

    def _tile_runs(
        self, enc: EncodedColumn, tiles: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The checked runs of whole tiles: run values, run lengths and
        where each block's runs end, plus each tile's padded and kept
        lengths for :func:`compact_tile_chunks_inplace`."""
        d = self.d_blocks(enc)
        blocks, nb = self._tile_blocks(enc, tiles)
        run_values, run_lengths = self._decode_runs(enc, blocks)
        run_ends = np.cumsum(enc.arrays["run_counts"].astype(np.int64)[blocks])
        self._check_run_sum(enc, run_lengths, run_ends, blocks)
        keep = np.minimum((tiles + 1) * d * RFOR_BLOCK, enc.count) - tiles * d * RFOR_BLOCK
        return run_values, run_lengths, run_ends, nb * RFOR_BLOCK, keep

    def _run_values_at(
        self,
        enc: EncodedColumn,
        blocks: np.ndarray,
        counts: np.ndarray,
        slot: np.ndarray,
        run: np.ndarray,
    ) -> np.ndarray:
        """Value ``run[i]`` of block ``blocks[slot[i]]``, read from the
        values stream without unpacking a miniblock."""
        data = enc.arrays["values_data"]
        bstarts = enc.arrays["values_starts"].astype(np.int64)[blocks]
        references = data[bstarts].view(np.int32).astype(np.int64)
        bits, block_of, within = miniblock_bits(data, bstarts, counts)
        if int(bits.max()) > 32:
            from repro.formats.validate import CorruptTileError

            block = int(blocks[block_of[int(np.argmax(bits))]])
            raise CorruptTileError(
                enc.column_name, block // self.d_blocks(enc),
                f"block {block} has a run-value bitwidth over 32",
            )
        offsets = miniblock_offsets(bits, block_of, within, bstarts, counts)
        mini = np.flatnonzero(within == 0)[slot] + (run >> 5)
        width = bits[mini]
        bit = (run & 31) * width
        return references[slot] + read_packed(data, offsets[mini] + (bit >> 5), bit & 31, width)

    @staticmethod
    def _expand_runs(
        runs: np.ndarray, run_lengths: np.ndarray, run_ends: np.ndarray, out: np.ndarray
    ) -> None:
        """Expand the runs of consecutive blocks into ``out``.

        Runs never cross block boundaries and each block's lengths sum to
        exactly ``RFOR_BLOCK`` (:meth:`_check_run_sum`), so block ``i``
        fills ``out[i * RFOR_BLOCK : (i + 1) * RFOR_BLOCK]`` and any
        :data:`_EXPAND_BLOCKS` of them expand with one ``np.repeat``.
        """
        runs = runs.astype(out.dtype, copy=False)
        for b in range(0, run_ends.size, _EXPAND_BLOCKS):
            last = min(b + _EXPAND_BLOCKS, run_ends.size)
            r = slice(int(run_ends[b - 1]) if b else 0, int(run_ends[last - 1]))
            out[b * RFOR_BLOCK : last * RFOR_BLOCK] = np.repeat(runs[r], run_lengths[r])

    def _num_blocks(self, enc: EncodedColumn) -> int:
        return enc.arrays["run_counts"].size

    def _stream_segments(self, enc: EncodedColumn, stream: str):
        starts_arr = enc.arrays[f"{stream}_starts"].astype(np.int64)
        n_blocks = starts_arr.size - 1
        first = np.arange(n_blocks, dtype=np.int64)
        return starts_arr[first] * 4, (starts_arr[first + 1] - starts_arr[first]) * 4
