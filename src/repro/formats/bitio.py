"""Bit-level packing primitives (horizontal layout).

Bit-packing writes each integer in ``[0, 2**b)`` with exactly ``b`` bits,
concatenating the bit strings into 32-bit words with no padding between
values (Figure 4 of the paper).  The layout is *horizontal*: subsequent
values occupy subsequent bit positions, LSB-first within each word, exactly
like the CUDA implementation's ``(word >> start_bit) & mask`` extraction.

These functions are the shared foundation of GPU-FOR, GPU-DFOR,
GPU-RFOR, GPU-BP and GPU-SIMDBP128.  They validate arguments and then
dispatch to the active :mod:`repro.formats.kernels` backend (reference
NumPy or precompiled shift-table) — both are bit-identical by contract.
"""

from __future__ import annotations

import numpy as np

from repro.formats import kernels

#: Word size of the packed stream, in bits.
WORD_BITS = 32
#: Maximum supported bitwidth for one packed value.
MAX_BITS = 32


def required_bits(values: np.ndarray, max_bits: int | None = MAX_BITS) -> int:
    """Minimum bitwidth ``b`` so every value fits in ``[0, 2**b)``.

    An empty array needs 0 bits.  Raises on negative input — callers apply
    frame-of-reference first, which makes values non-negative.  Values too
    wide to pack raise here, naming the offending value, instead of
    surfacing later as an opaque ``pack_bits`` bitwidth error far from the
    cause; pass ``max_bits=None`` (or a larger cap) to get the raw width.
    """
    values = np.asarray(values)
    if values.size == 0:
        return 0
    lo = int(values.min())
    if lo < 0:
        raise ValueError(f"bit-packing needs non-negative values, got min {lo}")
    hi = int(values.max())
    width = hi.bit_length()
    if max_bits is not None and width > max_bits:
        raise ValueError(
            f"value {hi} needs {width} bits, above the packable maximum "
            f"of {max_bits}"
        )
    return width


def words_needed(count: int, bits: int) -> int:
    """Number of 32-bit words that ``count`` values of ``bits`` bits occupy."""
    if count < 0 or not 0 <= bits <= MAX_BITS:
        raise ValueError(f"invalid count={count} or bits={bits}")
    return -(-count * bits // WORD_BITS)


def pack_bits(values: np.ndarray, bits: int) -> np.ndarray:
    """Pack ``values`` (each ``< 2**bits``) into a dense uint32 stream.

    Value ``i`` occupies bit positions ``[i*bits, (i+1)*bits)`` of the
    stream; bit ``p`` of the stream is bit ``p % 32`` of word ``p // 32``.

    Args:
        values: non-negative integers, any integer dtype.
        bits: bitwidth per value, 0..32.  ``bits == 0`` packs to nothing.

    Returns:
        uint32 array of :func:`words_needed` words (trailing bits zero).
    """
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if not 0 <= bits <= MAX_BITS:
        raise ValueError(f"bits must be in [0, {MAX_BITS}], got {bits}")
    n = values.size
    if bits == 0:
        # A zero-width stream can only represent zeros; reject anything
        # else instead of silently packing it to nothing.
        if n and np.any(values):
            raise ValueError("values do not fit in 0 bits")
        return np.zeros(words_needed(n, bits), dtype=np.uint32)
    if n == 0:
        return np.zeros(words_needed(n, bits), dtype=np.uint32)
    # bits is in [1, 32] here, so the uint64 shift is always well-defined
    # (the old `bits < 64` guard skipped validation paths it never needed
    # to and sat one step from undefined behaviour at width 63).
    if np.any(values >> np.uint64(bits)):
        raise ValueError(f"values do not fit in {bits} bits")
    # The packing algorithm lives in the kernel backend (the reference
    # phase-loop implementation is kernels/numpy_ref.py); arguments are
    # fully validated above, so backends skip re-checking.
    return kernels.get_backend().pack(values, bits)


def unpack_bits(words: np.ndarray, count: int, bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: extract ``count`` values of ``bits`` bits.

    Args:
        words: uint32 stream holding at least ``count * bits`` bits.
        count: number of values to extract.
        bits: bitwidth per value, 0..32.

    Returns:
        uint32 array of ``count`` values.
    """
    if count < 0 or not 0 <= bits <= MAX_BITS:
        raise ValueError(f"invalid count={count} or bits={bits}")
    if count == 0:
        return np.zeros(0, dtype=np.uint32)
    if bits == 0:
        return np.zeros(count, dtype=np.uint32)
    words = np.ascontiguousarray(words, dtype=np.uint32)
    needed = words_needed(count, bits)
    if words.size < needed:
        raise ValueError(f"stream has {words.size} words, need {needed}")
    # The extraction algorithm lives in the kernel backend; the stream is
    # contiguous uint32 and large enough by the checks above.
    return kernels.get_backend().unpack(words, count, bits)


def unpack_bits_strided(
    data: np.ndarray,
    first_word: int,
    n_blocks: int,
    payload_words: int,
    stride_words: int,
    count_per_block: int,
    bits: int,
) -> np.ndarray:
    """Unpack ``n_blocks`` equal word-aligned payloads at a fixed stride.

    The regular-geometry decode path of the block codecs: payload ``i``
    starts at word ``first_word + i*stride_words`` of ``data`` and holds
    ``count_per_block`` values of ``bits`` bits in exactly
    ``payload_words`` words (``count_per_block * bits`` must be a
    multiple of 32, true for every block geometry here).  Replaces the
    per-block fancy-indexed word gather with one contiguous unpack.
    """
    data = _validate_strided(
        data, first_word, n_blocks, payload_words, stride_words, count_per_block, bits
    )
    return kernels.get_backend().unpack_strided(
        data, first_word, n_blocks, payload_words, stride_words, count_per_block, bits
    )


def unpack_bits_strided_into(
    data: np.ndarray,
    first_word: int,
    n_blocks: int,
    payload_words: int,
    stride_words: int,
    count_per_block: int,
    bits: int,
    out: np.ndarray,
) -> None:
    """:func:`unpack_bits_strided` writing straight into ``out``.

    ``out`` is a 1-D integer buffer of at least ``n_blocks *
    count_per_block`` elements (the block codecs pass their int32 or
    int64 decode scratch; an int32 keeps a 32-bit value's bit pattern);
    skipping the intermediate uint32 array halves the memory traffic at
    byte-aligned widths.
    """
    data = _validate_strided(
        data, first_word, n_blocks, payload_words, stride_words, count_per_block, bits
    )
    total = n_blocks * count_per_block
    if out.ndim != 1 or out.size < total or out.dtype.kind not in "iu":
        raise ValueError(
            f"out must be a 1-D integer buffer of >= {total} elements, "
            f"got shape {out.shape} dtype {out.dtype}"
        )
    kernels.get_backend().unpack_strided_into(
        data,
        first_word,
        n_blocks,
        payload_words,
        stride_words,
        count_per_block,
        bits,
        out,
    )


def _validate_strided(
    data: np.ndarray,
    first_word: int,
    n_blocks: int,
    payload_words: int,
    stride_words: int,
    count_per_block: int,
    bits: int,
) -> np.ndarray:
    if not 1 <= bits <= MAX_BITS:
        raise ValueError(f"bits must be in [1, {MAX_BITS}], got {bits}")
    if payload_words != words_needed(count_per_block, bits) or (
        count_per_block * bits
    ) % WORD_BITS:
        raise ValueError(
            f"payload of {payload_words} words does not hold exactly "
            f"{count_per_block} word-aligned values of {bits} bits"
        )
    if n_blocks < 0 or stride_words < payload_words:
        raise ValueError(f"invalid n_blocks={n_blocks} or stride={stride_words}")
    if n_blocks and (
        first_word < 0
        or first_word + (n_blocks - 1) * stride_words + payload_words > data.size
    ):
        raise ValueError("strided payloads overrun the data array")
    return np.asarray(data, dtype=np.uint32)


def pack_vertical(values: np.ndarray, bits: int, lanes: int) -> np.ndarray:
    """Pack in the *vertical* (striped) layout of SIMD-BP128 (Figure 1).

    Values are distributed round-robin across ``lanes`` lanes; each lane is
    then bit-packed horizontally and the lane streams are interleaved word
    by word, so lane ``l`` of word-group ``g`` sits at word ``g*lanes + l``.
    ``values.size`` must be a multiple of ``lanes * 32`` so every lane ends
    on a word boundary (the property SIMD-BP128's layout is built around).

    Args:
        values: non-negative integers.
        bits: bitwidth per value.
        lanes: number of vertical lanes (4 on SSE, 32 on a GPU warp).

    Returns:
        uint32 array of ``values.size * bits / 32`` words.
    """
    values = np.asarray(values, dtype=np.uint64)
    n = values.size
    if lanes < 1:
        raise ValueError(f"lanes must be >= 1, got {lanes}")
    if n % (lanes * WORD_BITS):
        raise ValueError(
            f"vertical packing needs size a multiple of lanes*32 "
            f"({lanes * WORD_BITS}), got {n}"
        )
    if n == 0 or bits == 0:
        return np.zeros(words_needed(n, bits), dtype=np.uint32)
    per_lane = n // lanes
    # Lane l holds values l, l+lanes, l+2*lanes, ...
    lanes_matrix = values.reshape(per_lane, lanes).T
    packed_lanes = np.stack(
        [pack_bits(lane, bits) for lane in lanes_matrix]
    )  # (lanes, words_per_lane)
    return packed_lanes.T.reshape(-1).astype(np.uint32)


def unpack_vertical(words: np.ndarray, count: int, bits: int, lanes: int) -> np.ndarray:
    """Inverse of :func:`pack_vertical`."""
    if count % (lanes * WORD_BITS):
        raise ValueError(
            f"vertical unpacking needs count a multiple of lanes*32, got {count}"
        )
    if count == 0:
        return np.zeros(0, dtype=np.uint32)
    if bits == 0:
        return np.zeros(count, dtype=np.uint32)
    words = np.asarray(words, dtype=np.uint32)
    per_lane = count // lanes
    words_per_lane = words_needed(per_lane, bits)
    lane_words = words[: words_per_lane * lanes].reshape(words_per_lane, lanes).T
    out = np.empty((per_lane, lanes), dtype=np.uint32)
    for l in range(lanes):
        out[:, l] = unpack_bits(lane_words[l], per_lane, bits)
    return out.reshape(-1)
