"""GPU-FOR: frame-of-reference + bit-packing (paper Section 4).

Data format (Figures 3 and 4):

* the column is split into **blocks of 128 integers**;
* each block stores a 32-bit **reference** (the block minimum) followed by
  one 32-bit **bitwidth word** holding four bitwidths (one byte each) for
  the block's four **miniblocks of 32 integers**;
* each miniblock is bit-packed horizontally with its own bitwidth, so a
  miniblock of width ``b`` occupies exactly ``b`` 32-bit words (the
  32-value miniblock size guarantees word alignment for any ``b``);
* a separate ``block_starts`` array holds each block's word offset into
  the data array so blocks decode in parallel;
* a 3-word header stores total count, block size, and miniblock count.

Overhead is 12 bytes per 128 values = 0.75 bits/int, matching Section 9.2.

The tile used by the tile-based decompression model is ``D`` consecutive
blocks (``d_blocks``, the paper's only hyperparameter, default 4).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    ragged_arange,
    require_mask_buffer,
    require_out_buffer,
    shifted_interval_mask,
    splice_block_stream,
    verify_mode,
)

#: Values per block.
BLOCK = 128
#: Values per miniblock.
MINIBLOCK = 32
#: Miniblocks per block.
MINIBLOCKS_PER_BLOCK = BLOCK // MINIBLOCK
#: Words of per-block metadata (reference + bitwidth word).
BLOCK_HEADER_WORDS = 2

#: Exclusive upper bounds for bit_length: value m needs
#: ``searchsorted(_BIT_BOUNDS, m, 'right')`` bits.  Covers the full
#: uint63 range so wide-value codecs (Simple-8b's 60-bit payloads) get
#: exact widths too.
_BIT_BOUNDS = (2 ** np.arange(63, dtype=np.uint64)).astype(np.uint64)
#: Largest value `bit_length` supports: 63 bits, i.e. values < 2**63.
_MAX_BIT_LENGTH_VALUE = np.uint64(2**63 - 1)


def bit_length(values: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` for non-negative integers (exact).

    Supports the full 63-bit range ``[0, 2**63)``.  Values at or beyond
    ``2**63`` (including negative inputs, which would wrap under the
    uint64 view) raise :class:`ValueError` rather than silently
    reporting 63 bits and mis-packing downstream.
    """
    v = np.asarray(values, dtype=np.uint64)
    if v.size and int(v.max()) > int(_MAX_BIT_LENGTH_VALUE):
        raise ValueError(
            f"bit_length supports values in [0, 2**63), got max {int(v.max())}"
        )
    return np.searchsorted(_BIT_BOUNDS, v, side="right")


def _pad_to_blocks(values: np.ndarray, block: int = BLOCK) -> np.ndarray:
    """Pad to a whole number of blocks, repeating the last value.

    Repeating an existing value of the final block never widens that
    block's [min, max] range, so padding costs no extra bits.
    """
    n = values.size
    if n == 0:
        return values.reshape(0)
    pad = (-n) % block
    if pad == 0:
        return values
    return np.concatenate([values, np.full(pad, values[-1], dtype=values.dtype)])


@dataclass
class BlockLayout:
    """A :func:`pack_blocks` stream sized exactly, before any word is written.

    :func:`layout_blocks` computes it from the miniblock minima and maxima
    alone; :meth:`pack` then writes the words into exactly
    :attr:`data_words` words, so :attr:`nbytes` is the size the packed
    arrays will have.
    """

    #: The padded int64 stream to pack (a multiple of 128 values).
    values: np.ndarray
    #: Per-block FOR references (the block minima).
    references: np.ndarray
    #: Per-miniblock bitwidths, ``(n_blocks, 4)``.
    bits: np.ndarray
    #: Per-block word offsets with end sentinel, as stored (uint32).
    block_starts: np.ndarray

    @property
    def data_words(self) -> int:
        return int(self.block_starts[-1])

    @property
    def nbytes(self) -> int:
        """Bytes of the packed ``data`` plus the ``block_starts`` array."""
        return 4 * self.data_words + self.block_starts.nbytes

    @property
    def mean_bits(self) -> float:
        return mean_block_bits(self.data_words, self.bits.shape[0])

    def pack(self) -> np.ndarray:
        """Write the data words: per block the reference, the bitwidth
        word, then each miniblock's reference-relative values."""
        data = np.zeros(self.data_words, dtype=np.uint32)
        n_blocks = self.bits.shape[0]
        if n_blocks == 0:
            return data
        bits = self.bits
        starts = self.block_starts[:-1].astype(np.int64)
        data[starts] = self.references.astype(np.int32).view(np.uint32)
        bw_words = (
            bits[:, 0] | (bits[:, 1] << 8) | (bits[:, 2] << 16) | (bits[:, 3] << 24)
        )
        data[starts + 1] = bw_words.astype(np.uint32)

        # Word offset of each miniblock inside the data array.
        mini_words = np.concatenate(
            [
                np.zeros((n_blocks, 1), dtype=np.int64),
                np.cumsum(bits[:, :-1], axis=1),
            ],
            axis=1,
        )
        flat_offsets = (starts[:, None] + BLOCK_HEADER_WORDS + mini_words).reshape(-1)
        diffs = self.values.reshape(n_blocks, BLOCK) - self.references[:, None]
        flat_minis = diffs.reshape(-1, MINIBLOCK).astype(np.uint64)
        flat_bits = bits.reshape(-1)
        for b in np.unique(flat_bits):
            if b == 0:
                continue
            sel = np.flatnonzero(flat_bits == b)
            packed = bitio.pack_bits(flat_minis[sel].reshape(-1), int(b))
            dest = flat_offsets[sel][:, None] + np.arange(int(b))
            data[dest.reshape(-1)] = packed
        return data


def layout_blocks(values: np.ndarray) -> BlockLayout:
    """Validate and size a FOR + miniblock bit-pack of ``values``.

    ``values`` must already be padded to whole blocks.  Raises
    :class:`ValueError` when a reference does not fit in int32, a block's
    value range exceeds 32 bits, or the block offsets exceed 32 bits.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size % BLOCK:
        raise ValueError(f"pack_blocks needs a multiple of {BLOCK} values")
    n_blocks = values.size // BLOCK
    if n_blocks == 0:
        return BlockLayout(
            values=values,
            references=np.zeros(0, dtype=np.int64),
            bits=np.zeros((0, MINIBLOCKS_PER_BLOCK), dtype=np.int64),
            block_starts=np.zeros(1, dtype=np.uint32),
        )

    minis = values.reshape(n_blocks, MINIBLOCKS_PER_BLOCK, MINIBLOCK)
    mini_max = minis.max(axis=2)
    references = minis.min(axis=2).min(axis=1)
    if not -(2**31) <= int(references.min()) <= int(references.max()) < 2**31:
        # The format stores one 32-bit reference word per block (Figure 3);
        # a wider reference would silently wrap on the astype in pack().
        raise ValueError("block references do not fit in int32")
    # reference + 2**32 cannot overflow, unlike mini_max - reference.
    if bool((mini_max >= references[:, None] + 2**32).any()):
        raise ValueError("per-block value range exceeds 32 bits; cannot bit-pack")
    bits = bit_length(mini_max - references[:, None])  # (n_blocks, 4)

    block_starts = np.zeros(n_blocks + 1, dtype=np.int64)
    np.cumsum(BLOCK_HEADER_WORDS + bits.sum(axis=1), out=block_starts[1:])
    if int(block_starts[-1]) >= 2**32:
        raise ValueError("column too large: block start offsets exceed 32 bits")
    return BlockLayout(values, references, bits, block_starts.astype(np.uint32))


def mean_block_bits(data_words: int, n_blocks: int) -> float:
    """:attr:`BlockLayout.mean_bits` of a packed stream, from its size.

    A block takes its two header words plus one word per miniblock bit,
    so the words alone give the exact bitwidth sum.
    """
    if n_blocks == 0:
        return 0.0
    return (data_words - BLOCK_HEADER_WORDS * n_blocks) / (MINIBLOCKS_PER_BLOCK * n_blocks)


def pack_blocks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FOR + miniblock bit-pack ``values`` (already padded to blocks).

    This is the shared encoder core: GPU-FOR uses it on raw values,
    GPU-DFOR on per-tile deltas (both through :func:`layout_blocks` and
    :meth:`BlockLayout.pack`, so the size is known before packing).

    Returns:
        ``(data, block_starts, bits)`` — the packed uint32 data array, the
        per-block word offsets (with an end sentinel, ``n_blocks + 1``
        entries), and the per-miniblock bitwidths ``(n_blocks, 4)``.
    """
    layout = layout_blocks(values)
    return layout.pack(), layout.block_starts, layout.bits


def block_metadata(
    data: np.ndarray, block_starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-block ``(references, miniblock_bitwidths)`` without unpacking.

    Reads only the two header words of each block packed by
    :func:`pack_blocks` — the metadata a zone-map/pushdown pass needs:
    the FOR reference is the exact block minimum, and
    ``reference + 2**bits - 1`` bounds every value of a miniblock.

    Returns:
        ``(references, bits)`` — int64 arrays of shapes ``(n_blocks,)``
        and ``(n_blocks, 4)``.
    """
    return _block_headers(data, np.asarray(block_starts, dtype=np.int64)[:-1])


def _block_headers(data: np.ndarray, bstarts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(references, bits)`` of the blocks whose first words are ``bstarts``."""
    references = data[bstarts].view(np.int32).astype(np.int64)
    bw_bytes = data[bstarts + 1].astype("<u4").view(np.uint8)
    return references, bw_bytes.reshape(-1, MINIBLOCKS_PER_BLOCK).astype(np.int64)


def unpack_miniblocks(
    data: np.ndarray, offsets: np.ndarray, bits: np.ndarray, minis: np.ndarray
) -> None:
    """Unpack 32-value miniblocks into the rows of ``minis``.

    The one miniblock decode core of GPU-FOR, GPU-DFOR and GPU-RFOR:
    miniblock ``i`` is ``bits[i]`` words starting at word ``offsets[i]``
    of ``data``.  Each distinct width costs one word gather and one
    unpack for all of its miniblocks, so the NumPy dispatch is paid per
    width rather than per block; zero-width rows come back zero.
    """
    for b in np.flatnonzero(np.bincount(bits)):
        sel = np.flatnonzero(bits == b)
        if b == 0:
            minis[sel] = 0
            continue
        # Row w of this view is words [w, w + b): one row gather per
        # miniblock instead of one index per word.
        rows = np.lib.stride_tricks.as_strided(
            data, shape=(max(data.size - b + 1, 0), b),
            strides=(data.strides[0],) * 2, writeable=False,
        )
        words = rows[offsets[sel]].reshape(-1)
        minis[sel] = bitio.unpack_bits(words, sel.size * MINIBLOCK, int(b)).reshape(
            sel.size, MINIBLOCK
        )


def read_packed(
    data: np.ndarray, word: np.ndarray, shift: np.ndarray, bits: np.ndarray
) -> np.ndarray:
    """Single packed values, each read from at most two words.

    Value ``i`` is the ``bits[i]``-bit field starting ``shift[i]`` bits
    into word ``word[i]`` of ``data`` (``0 <= shift < 32``,
    ``bits <= 32``); the row gathers of the block codecs locate a value
    from its block header and read it with this.  Returns int64.
    """
    # The clamp only bites where the second word is masked away (a
    # zero-width or word-final value).
    last = data.size - 1
    lo = data.take(np.minimum(word, last)).astype(np.uint64)
    hi = data.take(np.minimum(word + 1, last)).astype(np.uint64)
    pair = (lo | (hi << np.uint64(32))) >> shift.astype(np.uint64)
    diff = pair & ((np.uint64(1) << bits.astype(np.uint64)) - np.uint64(1))
    return diff.astype(np.int64)


def _unpack_diffs(
    data: np.ndarray, bstarts: np.ndarray, bits: np.ndarray, decoded: np.ndarray
) -> None:
    """Reference-relative values of the blocks at ``bstarts`` into ``decoded``.

    ``decoded`` is ``(n_blocks, 128)``; a block whose ``bits`` row is all
    zero decodes to zeros without touching its payload.
    """
    n = bstarts.size
    flat_bits = bits.reshape(-1)
    # Regular-geometry fast path: when every miniblock in the batch shares
    # one bitwidth and the selected blocks are physically consecutive,
    # the payloads are equal word-aligned chunks at a constant stride and
    # the whole batch unpacks as one contiguous stream — no per-miniblock
    # word gather (which otherwise dominates the decode profile).
    b0 = int(flat_bits[0])
    if b0 and bool((flat_bits == b0).all()):
        payload = MINIBLOCKS_PER_BLOCK * b0
        stride = payload + BLOCK_HEADER_WORDS
        if n == 1 or bool((np.diff(bstarts) == stride).all()):
            bitio.unpack_bits_strided_into(
                data, int(bstarts[0]) + BLOCK_HEADER_WORDS, n,
                payload, stride, BLOCK, b0, decoded.reshape(-1),
            )
            return
    offsets = (bstarts + BLOCK_HEADER_WORDS)[:, None] + np.cumsum(bits, axis=1) - bits
    unpack_miniblocks(
        data, offsets.reshape(-1), flat_bits, decoded.reshape(-1, MINIBLOCK)
    )


def unpack_block_indices(
    data: np.ndarray,
    block_starts: np.ndarray,
    blocks: np.ndarray,
    add_reference: bool = True,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Decode an arbitrary batch of blocks packed by :func:`pack_blocks`.

    The batched decoder core: all selected blocks' miniblocks are
    unpacked by :func:`unpack_miniblocks`, so the cost of the NumPy
    dispatch is paid once per distinct bitwidth rather than once per
    block (or worse, once per tile).

    Args:
        blocks: block indices to decode, in output order (may repeat).
        add_reference: when False, return the raw packed diffs (used by
            the cascading baseline, which adds references in a later
            kernel pass).
        out: optional 1-D int32 or int64 scratch of at least
            ``blocks.size * 128`` elements; decoded values land in its
            prefix (the allocation-free path behind ``decode_tiles_into``).
            In int32 the reference add wraps modulo ``2**32``, exact for
            values that fit.

    Returns:
        ``blocks.size * 128`` values: a view into ``out`` when one is
        given, else a fresh int64 array.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    n = blocks.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    bstarts = np.asarray(block_starts, dtype=np.int64)[blocks]
    references, bits = _block_headers(data, bstarts)
    if out is None:
        decoded = np.empty((n, BLOCK), dtype=np.int64)
    else:
        require_out_buffer(out, n * BLOCK)
        decoded = out[: n * BLOCK].reshape(n, BLOCK)
    _unpack_diffs(data, bstarts, bits, decoded)
    if add_reference:
        decoded += references.astype(decoded.dtype)[:, None]
    return decoded.reshape(-1)


def unpack_blocks(
    data: np.ndarray,
    block_starts: np.ndarray,
    first_block: int,
    last_block: int,
    add_reference: bool = True,
) -> np.ndarray:
    """Decode blocks ``[first_block, last_block)`` packed by :func:`pack_blocks`.

    The contiguous-range convenience over :func:`unpack_block_indices`.

    Returns:
        int64 array of ``(last_block - first_block) * 128`` values.
    """
    if last_block - first_block <= 0:
        return np.zeros(0, dtype=np.int64)
    return unpack_block_indices(
        data, block_starts, np.arange(first_block, last_block), add_reference
    )


def unpack_block_indices_filtered(
    data: np.ndarray,
    block_starts: np.ndarray,
    blocks: np.ndarray,
    lo: int,
    hi: int,
    out: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Fused decode+filter core for :func:`pack_blocks` streams.

    Decodes ``blocks`` into ``out`` (int32 or int64) and writes the
    interval test ``lo <= value <= hi`` into ``mask``, evaluating it in
    the *shifted* domain (:func:`~repro.formats.base.shifted_interval_mask`)
    before the frame-of-reference is added back.  Blocks whose header bounds
    (``[reference, reference + 2**widest - 1]``) miss the interval are
    never unpacked — their values are zero-filled and their mask False.
    ``lo``/``hi`` must be pre-clamped (:func:`~repro.formats.base.clamp_interval`)
    so the shifted thresholds cannot overflow int64.

    Returns:
        Per-block bool array: False marks blocks skipped via headers
        (callers use ``active.all()`` to decide checksum coverage).
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    n = blocks.size
    if n == 0:
        return np.ones(0, dtype=bool)
    bstarts = np.asarray(block_starts, dtype=np.int64)[blocks]
    references, bits = _block_headers(data, bstarts)
    # Block short-circuit from the header bounds: the FOR reference is the
    # exact block minimum, and reference + 2**widest - 1 caps the maximum.
    block_hi = references + (np.int64(1) << bits.max(axis=1)) - np.int64(1)
    active = (block_hi >= lo) & (references <= hi)
    decoded = out[: n * BLOCK].reshape(n, BLOCK)
    # A skipped block decodes as zero-width: zero diffs, payload untouched.
    _unpack_diffs(data, bstarts, bits * active[:, None], decoded)

    shifted_interval_mask(
        decoded, references, active, lo, hi, mask[: n * BLOCK].reshape(n, BLOCK)
    )
    decoded += references.astype(decoded.dtype)[:, None]
    return active


@dataclass
class ForLayout:
    """A GPU-FOR encoding sized exactly, before any data word is written."""

    header: np.ndarray
    blocks: BlockLayout

    @property
    def nbytes(self) -> int:
        """The encoded column's :attr:`~EncodedColumn.nbytes`."""
        return self.header.nbytes + self.blocks.nbytes


class GpuFor(TileCodec):
    """The paper's GPU-FOR scheme (Section 4)."""

    name = "gpu-for"
    block_elements = BLOCK

    def __init__(self, d_blocks: int = 4):
        if d_blocks < 1:
            raise ValueError(f"d_blocks must be >= 1, got {d_blocks}")
        self._d_blocks = d_blocks

    # -- ColumnCodec --------------------------------------------------------

    def layout(self, values: np.ndarray) -> ForLayout:
        """Validate ``values`` and size their encoding without packing it."""
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("encode expects a 1-D integer array")
        return ForLayout(
            header=np.array([values.size, BLOCK, MINIBLOCKS_PER_BLOCK], dtype=np.uint32),
            blocks=layout_blocks(_pad_to_blocks(values.astype(np.int64, copy=False))),
        )

    def encode(self, values: np.ndarray, layout: ForLayout | None = None) -> EncodedColumn:
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
                "data": blocks.pack(),
            },
            meta={"d_blocks": self._d_blocks, "mean_bits": blocks.mean_bits},
            dtype=values.dtype,
        )
        self.attach_tile_checksums(enc, blocks.values[: values.size])
        return enc

    # -- re-encoding part of a column ---------------------------------------

    #: Values per independently encoded unit: a block.
    unit_elements = BLOCK

    def unit_bytes(self, layout: ForLayout) -> np.ndarray:
        """Packed bytes of each block of ``layout``."""
        return 4 * np.diff(layout.blocks.block_starts.astype(np.int64))

    def splice(
        self, enc: EncodedColumn, values: np.ndarray, units: np.ndarray, layout: ForLayout
    ) -> EncodedColumn:
        """``encode(values)``, re-packing only the blocks ``units``.

        ``enc`` encodes a column equal to ``values`` outside ``units``
        (sorted block indices); ``layout`` is :meth:`layout` of just those
        blocks' values, in order.  Every other block's words are copied
        from ``enc``, which is left as it is.
        """
        blocks = layout.blocks
        data, block_starts = splice_block_stream(
            enc.arrays["data"], enc.arrays["block_starts"], units,
            blocks.pack(), blocks.block_starts,
        )
        out = EncodedColumn(
            codec=self.name,
            count=values.size,
            arrays={
                "header": enc.arrays["header"].copy(),
                "block_starts": block_starts,
                "data": data,
            },
            meta={
                "d_blocks": self._d_blocks,
                "mean_bits": mean_block_bits(data.size, block_starts.size - 1),
            },
            dtype=values.dtype,
        )
        self.attach_tile_checksums(
            out, values.astype(np.int64, copy=False), enc, np.unique(units // self._d_blocks)
        )
        return out

    def cascade_passes(self, enc: EncodedColumn) -> list[CascadePass]:
        decoded_bytes = enc.count * 4
        starts, lengths = self.tile_segments(enc)
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
                gathers=(self._num_blocks(enc), 4),
            ),
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
        unpack_block_indices(
            enc.arrays["data"], enc.arrays["block_starts"], blocks, out=out
        )
        keep = np.minimum((tiles + 1) * d * BLOCK, enc.count) - tiles * d * BLOCK
        written = compact_tile_chunks_inplace(out, nb * BLOCK, keep)
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
        active = unpack_block_indices_filtered(
            enc.arrays["data"], enc.arrays["block_starts"], blocks, lo, hi, out, mask
        )
        keep = np.minimum((tiles + 1) * d * BLOCK, enc.count) - tiles * d * BLOCK
        written = compact_tile_chunks_inplace(out, nb * BLOCK, keep)
        compact_tile_chunks_inplace(mask, nb * BLOCK, keep)
        if bool(active.all()):
            # No blocks were skipped, so the values are fully
            # materialized and checksum coverage is preserved.
            self.verify_decoded_tiles(enc, tiles, out[:written])
        return written

    def gather_rows(self, enc: EncodedColumn, rows: np.ndarray) -> np.ndarray:
        """Read each row straight from the payload, no tile decode.

        A block's header (reference word plus one bitwidth byte per
        miniblock) locates any of its values: the miniblock's words start
        after the widths of the miniblocks before it, and value ``j`` of
        a ``b``-bit miniblock sits at bit ``j * b``.  So each row costs
        three word reads (block start, reference, bitwidth word) and one
        or two payload words.  A column carrying a checksum table under
        active verification takes the base route instead: a CRC covers a
        whole tile, so only a whole-tile decode can verify it.
        """
        if verify_mode() != "off" and "tile_crcs" in enc.meta:
            return super().gather_rows(enc, rows)
        rows = self._validate_rows(enc, rows)
        if rows.size == 0:
            return np.zeros(0, dtype=np.int64)
        self.validate_for_decode(enc)
        data = enc.arrays["data"]
        # Shifts and masks, not division: BLOCK is 2**7, MINIBLOCK 2**5.
        bstart = enc.arrays["block_starts"].take(rows >> 7).astype(np.int64)
        reference = data.take(bstart).view(np.int32).astype(np.int64)
        widths = data.take(bstart + 1).astype(np.int64)
        mini = ((rows >> 5) & 3) << 3  # bit offset of the miniblock's width byte
        bits = (widths >> mini) & 0xFF
        # Byte m of (widths << 8) * 0x01010101 is the sum of bytes below m:
        # each width is at most 32, so no byte carries into the next.
        before = ((((widths << 8) * 0x01010101) & 0xFFFFFFFF) >> mini) & 0xFF
        bit = (rows & 31) * bits
        word = bstart + BLOCK_HEADER_WORDS + before + (bit >> 5)
        return reference + read_packed(data, word, bit & 31, bits)

    def tile_bounds(self, enc: EncodedColumn) -> tuple[np.ndarray, np.ndarray]:
        """Zero-decode bounds from the block headers.

        The FOR reference *is* each block's minimum, so the mins are
        exact; the maxs are ``reference + 2**widest_miniblock - 1``, the
        tightest bound the stored bitwidths give without unpacking.
        """
        n_blocks = enc.arrays["block_starts"].size - 1
        if n_blocks == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy()
        references, bits = block_metadata(
            enc.arrays["data"], enc.arrays["block_starts"]
        )
        block_max = references + (np.int64(1) << bits.max(axis=1)) - 1
        edges = np.arange(0, n_blocks, self.d_blocks(enc), dtype=np.int64)
        return (
            np.minimum.reduceat(references, edges),
            np.maximum.reduceat(block_max, edges),
        )

    def tile_segments(self, enc: EncodedColumn) -> tuple[np.ndarray, np.ndarray]:
        d = self.d_blocks(enc)
        starts_arr = enc.arrays["block_starts"].astype(np.int64)
        n_blocks = starts_arr.size - 1
        tile_first = np.arange(0, n_blocks, d, dtype=np.int64)
        tile_last = np.minimum(tile_first + d, n_blocks)
        data_start = starts_arr[tile_first] * 4
        data_len = (starts_arr[tile_last] - starts_arr[tile_first]) * 4
        # Each tile also reads D+1 block_starts entries; model the
        # block_starts array as living after the data array so segments
        # do not alias.
        base = int(starts_arr[-1]) * 4
        bs_start = base + tile_first * 4
        bs_len = (tile_last - tile_first + 1) * 4
        return (
            np.concatenate([data_start, bs_start]),
            np.concatenate([data_len, bs_len]),
        )

    def kernel_resources(self, enc: EncodedColumn) -> KernelResources:
        d = self.d_blocks(enc)
        return KernelResources(
            registers_per_thread=12 + 2 * d,
            shared_mem_per_block=d * BLOCK * 4 + 256,
            compute_ops_per_element=7.0,
            tile_prologue_ops=5500.0,
            shared_bytes_per_element=8.0,
        )

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _num_blocks(enc: EncodedColumn) -> int:
        return enc.arrays["block_starts"].size - 1
