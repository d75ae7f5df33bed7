"""FOR + miniblock bit-packing for *ragged* blocks.

GPU-RFOR compresses a variable number of runs per 512-value block, so its
physical layout is the GPU-FOR block format generalized to a variable
miniblock count: per block a reference word, ``ceil(miniblocks/4)``
bitwidth words (one byte per miniblock), then the packed miniblocks of 32
values each.  This module implements that generalized packer/unpacker,
fully vectorized across blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats import bitio
from repro.formats.base import ragged_arange
from repro.formats.gpufor import MINIBLOCK, bit_length, unpack_miniblocks


@dataclass
class RaggedPacked:
    """Result of :func:`pack_ragged`."""

    #: Packed words: per block [reference][bw words][miniblock words...].
    data: np.ndarray
    #: Word offset of each block (with end sentinel, ``n_blocks + 1``).
    block_starts: np.ndarray
    #: Real (unpadded) value count per block.
    counts: np.ndarray


def _pad_counts(counts: np.ndarray) -> np.ndarray:
    """Padded per-block count: round up to whole miniblocks (min one)."""
    return np.maximum(-(-counts // MINIBLOCK), 1) * MINIBLOCK


@dataclass
class RaggedLayout:
    """A :func:`pack_ragged` stream sized exactly, before any word is written.

    :func:`layout_ragged` computes it from per-miniblock maxima without
    building the padded stream; :meth:`pack` writes exactly
    :attr:`data_words` words, so :attr:`nbytes` is the packed size.
    """

    #: All blocks' values concatenated (int64, unpadded).
    values: np.ndarray
    #: Real value count per block (int64).
    counts: np.ndarray
    #: Per-block FOR references (the block minima).
    references: np.ndarray
    #: Per-miniblock bitwidths, every block's miniblocks concatenated.
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

    def pack(self) -> RaggedPacked:
        """Write the data words: per block the reference, the bitwidth
        words, then each miniblock's reference-relative values."""
        counts, bits, references = self.counts, self.bits, self.references
        n_blocks = counts.size
        data = np.zeros(self.data_words, dtype=np.uint32)
        packed_counts = counts.astype(np.uint32)
        if n_blocks == 0:
            return RaggedPacked(data, self.block_starts, packed_counts)
        block_starts = self.block_starts.astype(np.int64)
        data[block_starts[:-1]] = references.astype(np.int32).view(np.uint32)

        # The padded flat array: each block rounded up to miniblocks,
        # padding with the block's own first value (never widens the range).
        padded_counts = _pad_counts(counts)
        padded_offsets = np.zeros(n_blocks + 1, dtype=np.int64)
        np.cumsum(padded_counts, out=padded_offsets[1:])
        value_offsets = np.zeros(n_blocks + 1, dtype=np.int64)
        np.cumsum(counts, out=value_offsets[1:])
        values = self.values
        padded = np.repeat(values[value_offsets[:-1]], padded_counts)
        dest = np.repeat(padded_offsets[:-1] - value_offsets[:-1], counts) + np.arange(
            values.size
        )
        padded[dest] = values
        padded -= np.repeat(references, padded_counts)
        minis = padded.reshape(-1, MINIBLOCK)

        minis_per_block = padded_counts // MINIBLOCK
        mini_offsets = np.zeros(n_blocks + 1, dtype=np.int64)
        np.cumsum(minis_per_block, out=mini_offsets[1:])
        bw_words_per_block = -(-minis_per_block // 4)

        # Bitwidth bytes, one per miniblock, padded to whole words per block.
        bw_byte_offsets = np.zeros(n_blocks + 1, dtype=np.int64)
        np.cumsum(bw_words_per_block * 4, out=bw_byte_offsets[1:])
        bw_bytes = np.zeros(int(bw_byte_offsets[-1]), dtype=np.uint8)
        mini_block_of = np.repeat(np.arange(n_blocks), minis_per_block)
        within = np.arange(bits.size) - mini_offsets[mini_block_of]
        bw_bytes[bw_byte_offsets[mini_block_of] + within] = bits
        bw_as_words = bw_bytes.view("<u4").astype(np.uint32)
        # Scatter the bw words right after each reference word.
        bw_word_idx = np.repeat(
            block_starts[:-1] + 1, bw_words_per_block
        ) + (
            np.arange(bw_as_words.size)
            - np.repeat(bw_byte_offsets[:-1] // 4, bw_words_per_block)
        )
        data[bw_word_idx] = bw_as_words

        # Word offset of each miniblock: block payload start + prior minis' bits.
        c = np.cumsum(bits)
        prior_bits = c - bits
        block_prior = prior_bits[mini_offsets[:-1]]
        mini_word_off = (
            np.repeat(block_starts[:-1] + 1 + bw_words_per_block, minis_per_block)
            + prior_bits
            - np.repeat(block_prior, minis_per_block)
        )

        flat = minis.astype(np.uint64)
        for b in np.unique(bits):
            if b == 0:
                continue
            sel = np.flatnonzero(bits == b)
            packed = bitio.pack_bits(flat[sel].reshape(-1), int(b))
            dest_idx = mini_word_off[sel][:, None] + np.arange(int(b))
            data[dest_idx.reshape(-1)] = packed
        return RaggedPacked(data, self.block_starts, packed_counts)


def layout_ragged(values: np.ndarray, counts: np.ndarray) -> RaggedLayout:
    """Validate and size a FOR + bit-pack of per-block value groups.

    Args:
        values: all blocks' values concatenated (int64, any sign).
        counts: number of values in each block; ``sum(counts) == len(values)``.
            Every count must be at least 1.

    Raises:
        ValueError: on a bad count, a reference outside int32, a block
            value range over 32 bits, or block offsets over 32 bits.
    """
    values = np.asarray(values, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size and counts.min() < 1:
        raise ValueError("every block must contain at least one value")
    if int(counts.sum()) != values.size:
        raise ValueError("counts do not sum to len(values)")
    n_blocks = counts.size
    if n_blocks == 0:
        return RaggedLayout(
            values=values,
            counts=counts,
            references=np.zeros(0, dtype=np.int64),
            bits=np.zeros(0, dtype=np.int64),
            block_starts=np.zeros(1, dtype=np.uint32),
        )

    value_offsets = np.zeros(n_blocks + 1, dtype=np.int64)
    np.cumsum(counts, out=value_offsets[1:])
    references = np.minimum.reduceat(values, value_offsets[:-1])
    if not -(2**31) <= int(references.min()) <= int(references.max()) < 2**31:
        # One 32-bit reference word per block; wider would wrap on astype.
        raise ValueError("block references do not fit in int32")

    # Each miniblock's maximum over its real values; every miniblock holds
    # at least one, since a block has ceil(count / 32) of them.
    minis_per_block = _pad_counts(counts) // MINIBLOCK
    mini_offsets = np.zeros(n_blocks + 1, dtype=np.int64)
    np.cumsum(minis_per_block, out=mini_offsets[1:])
    mini_block_of = np.repeat(np.arange(n_blocks), minis_per_block)
    within = np.arange(mini_offsets[-1]) - mini_offsets[mini_block_of]
    mini_max = np.maximum.reduceat(values, value_offsets[mini_block_of] + MINIBLOCK * within)
    # A block's last, partial miniblock is padded with the block's first
    # value (see pack), and that padding can widen the miniblock.
    partial = counts % MINIBLOCK != 0
    last = mini_offsets[1:][partial] - 1
    mini_max[last] = np.maximum(mini_max[last], values[value_offsets[:-1][partial]])

    mini_ref = references[mini_block_of]
    # reference + 2**32 cannot overflow, unlike mini_max - reference.
    if bool((mini_max >= mini_ref + 2**32).any()):
        raise ValueError("per-block value range exceeds 32 bits; cannot bit-pack")
    bits = bit_length(mini_max - mini_ref).astype(np.int64)

    block_words = 1 + -(-minis_per_block // 4) + np.add.reduceat(bits, mini_offsets[:-1])
    block_starts = np.zeros(n_blocks + 1, dtype=np.int64)
    np.cumsum(block_words, out=block_starts[1:])
    if int(block_starts[-1]) >= 2**32:
        raise ValueError("column too large: block start offsets exceed 32 bits")
    return RaggedLayout(values, counts, references, bits, block_starts.astype(np.uint32))


def pack_ragged(values: np.ndarray, counts: np.ndarray) -> RaggedPacked:
    """FOR + bit-pack per-block value groups of varying size.

    :func:`layout_ragged` followed by :meth:`RaggedLayout.pack`; see
    :func:`layout_ragged` for the arguments.

    Returns:
        A :class:`RaggedPacked` with the block-structured stream.
    """
    return layout_ragged(values, counts).pack()


def unpack_ragged(
    packed: RaggedPacked, first_block: int = 0, last_block: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Decode blocks ``[first_block, last_block)`` of a ragged stream.

    Returns:
        ``(values, counts)`` — the decoded values of those blocks
        concatenated, and the per-block counts (real, unpadded).
    """
    n_total = packed.counts.size
    if last_block is None:
        last_block = n_total
    if not 0 <= first_block <= last_block <= n_total:
        raise IndexError(f"block range [{first_block}, {last_block}) out of bounds")
    return unpack_ragged_blocks(packed, np.arange(first_block, last_block))


def unpack_ragged_blocks(
    packed: RaggedPacked, blocks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decode an arbitrary batch of blocks of a ragged stream.

    The batched decoder core behind :func:`unpack_ragged` and
    GPU-RFOR's ``decode_tiles_into``: every selected block's miniblocks are
    unpacked by :func:`~repro.formats.gpufor.unpack_miniblocks` in one
    sweep over the distinct widths.

    Args:
        blocks: block indices to decode, in output order (may repeat).

    Returns:
        ``(values, counts)`` — the decoded values of those blocks
        concatenated, and the per-block counts (real, unpadded).
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    counts = packed.counts.astype(np.int64)[blocks]
    n_blocks = counts.size
    if n_blocks == 0:
        return np.zeros(0, dtype=np.int64), counts

    bstarts = packed.block_starts.astype(np.int64)[blocks]
    data = packed.data
    references = data[bstarts].view(np.int32).astype(np.int64)
    bits, block_of, within = miniblock_bits(data, bstarts, counts)
    offsets = miniblock_offsets(bits, block_of, within, bstarts, counts)
    minis = np.empty((bits.size, MINIBLOCK), dtype=np.int64)
    unpack_miniblocks(data, offsets, bits, minis)

    minis += references[block_of][:, None]
    # Each row keeps its block's values still left at the row's start;
    # only a block's last miniblock holds padding.
    left = counts[block_of] - MINIBLOCK * within
    return minis[np.arange(MINIBLOCK) < left[:, None]], counts


def miniblock_bits(
    data: np.ndarray, bstarts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read the bitwidth byte of every miniblock of the blocks at ``bstarts``.

    Args:
        bstarts: word offset of each block in ``data``.
        counts: real value count of each block.

    Returns:
        ``(bits, block_of, within)`` — per miniblock its width, its block
        (an index into ``bstarts``) and its position in that block.
    """
    minis_per_block = _pad_counts(counts) // MINIBLOCK
    block_of = np.repeat(np.arange(counts.size), minis_per_block)
    within = ragged_arange(minis_per_block)
    bw_words = data[bstarts[block_of] + 1 + within // 4]
    return ((bw_words >> ((within % 4) * 8)) & 0xFF).astype(np.int64), block_of, within


def miniblock_offsets(
    bits: np.ndarray,
    block_of: np.ndarray,
    within: np.ndarray,
    bstarts: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Payload word offset of every miniblock :func:`miniblock_bits` listed.

    A miniblock's words start after its block's reference and bitwidth
    words, plus the widths of the block's earlier miniblocks.
    """
    prior = np.cumsum(bits) - bits
    payload = bstarts + 1 - (-_pad_counts(counts) // (4 * MINIBLOCK))
    return payload[block_of] + prior - prior[np.arange(bits.size) - within]
