"""Pluggable bit-packing kernel backends.

:mod:`repro.formats.bitio` validates arguments and then dispatches the
actual pack/unpack work to one of the backends registered here:

* ``numpy`` — the original phase-loop implementation, kept verbatim as
  the bit-identity oracle (:mod:`repro.formats.kernels.numpy_ref`).
* ``shift-table`` — the default: every width unpacks as one phase
  matrix (one fancy index plus a broadcast shift and mask over 8-value
  byte groups, plans for all 32 bitwidths precomputed at import, in
  bounded slabs), and byte-aligned widths (1/2/4/8/16/32 on
  little-endian hosts) take dtype-view fast paths that skip the window
  machinery entirely (:mod:`repro.formats.kernels.shift_table`).

Selection: :func:`set_backend` at runtime; the choice is process-global
(the backends hold precomputed per-bitwidth plans, not per-engine
state).  Every backend is bit-identical to the oracle by contract; the
test suite enforces it across the full bitwidth matrix.
"""

from __future__ import annotations

import numpy as np

#: Canonical backend names, in oracle-first order.
BACKEND_NAMES = ("numpy", "shift-table")

_DEFAULT_BACKEND = "shift-table"


class KernelBackend:
    """Interface of one pack/unpack implementation.

    Inputs are pre-validated by :mod:`repro.formats.bitio`: ``values``
    arrives as a contiguous uint64 array that fits ``bits``; ``words``
    arrives as a contiguous uint32 stream of at least
    ``words_needed(count, bits)`` words; ``bits`` is in ``[1, 32]`` and
    ``count``/``n`` are positive (the 0-bit and 0-count cases never
    reach a backend).
    """

    name = "abstract"

    def pack(self, values: np.ndarray, bits: int) -> np.ndarray:
        raise NotImplementedError

    def unpack(self, words: np.ndarray, count: int, bits: int) -> np.ndarray:
        raise NotImplementedError

    def unpack_into(
        self, words: np.ndarray, count: int, bits: int, out: np.ndarray
    ) -> None:
        """Unpack directly into ``out[:count]`` (any integer dtype).

        The allocation-free sibling of :meth:`unpack`: block codecs
        decode into int32 or int64 scratch buffers, and writing them
        during extraction skips the intermediate uint32 array plus the
        widening copy that otherwise dominate at byte-aligned widths.
        """
        out[:count] = self.unpack(words, count, bits)

    def unpack_strided(
        self,
        data: np.ndarray,
        first_word: int,
        n_blocks: int,
        payload_words: int,
        stride_words: int,
        count_per_block: int,
        bits: int,
    ) -> np.ndarray:
        """Unpack ``n_blocks`` equal word-aligned payloads at a fixed stride.

        The regular-geometry path of the block codecs: when every
        selected block shares one bitwidth, payload ``i`` occupies words
        ``[first_word + i*stride_words, ... + payload_words)`` of
        ``data`` (the gap being the per-block header), and the whole
        selection unpacks as one contiguous stream — replacing the
        per-block fancy-indexed gather that dominates decode profiles.
        ``count_per_block * bits`` must be a multiple of 32 (true for
        every block geometry in the repo), so payloads concatenate
        without bit slack.
        """
        if n_blocks <= 0:
            return np.zeros(0, dtype=np.uint32)
        stream = _strided_stream(
            data, first_word, n_blocks, payload_words, stride_words
        )
        return self.unpack(stream, n_blocks * count_per_block, bits)

    def unpack_strided_into(
        self,
        data: np.ndarray,
        first_word: int,
        n_blocks: int,
        payload_words: int,
        stride_words: int,
        count_per_block: int,
        bits: int,
        out: np.ndarray,
    ) -> None:
        """:meth:`unpack_strided` writing straight into ``out``."""
        if n_blocks <= 0:
            return
        stream = _strided_stream(
            data, first_word, n_blocks, payload_words, stride_words
        )
        self.unpack_into(stream, n_blocks * count_per_block, bits, out)


def _strided_stream(
    data: np.ndarray,
    first_word: int,
    n_blocks: int,
    payload_words: int,
    stride_words: int,
) -> np.ndarray:
    """Concatenate equal-stride payloads into one contiguous word stream."""
    if stride_words == payload_words:
        return data[first_word : first_word + n_blocks * payload_words]
    window = data[first_word:]
    step = window.strides[0]
    view = np.lib.stride_tricks.as_strided(
        window,
        shape=(n_blocks, payload_words),
        strides=(step * stride_words, step),
    )
    return np.ascontiguousarray(view).reshape(-1)


def _make_numpy() -> KernelBackend:
    from repro.formats.kernels.numpy_ref import NumpyBackend

    return NumpyBackend()


def _make_shift_table() -> KernelBackend:
    from repro.formats.kernels.shift_table import ShiftTableBackend

    return ShiftTableBackend()


_FACTORIES = {
    "numpy": _make_numpy,
    "shift-table": _make_shift_table,
}

_active: KernelBackend | None = None


def set_backend(name: str) -> KernelBackend:
    """Activate a backend by name and return it."""
    global _active
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    _active = _FACTORIES[name]()
    return _active


def get_backend() -> KernelBackend:
    """The active backend (the default on first use)."""
    if _active is None:
        return set_backend(_DEFAULT_BACKEND)
    return _active


def backend_name() -> str:
    """Name of the active backend."""
    return get_backend().name
