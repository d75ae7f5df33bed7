"""Shift-table backend: precompiled group plans plus aligned fast paths.

Two ideas over the reference backend:

* **Phase matrix.**  Every 8 values of width ``b`` span exactly ``b``
  bytes, and value ``p`` of such a group starts in byte ``col[p] =
  p*b >> 3`` at bit ``p*b & 7``.  Viewing the stream as a ``(groups,
  b)`` strided matrix of overlapping windows (row ``g`` starts at byte
  ``g*b``; the window is the narrowest of uint16/uint32/uint64 that
  holds ``b + 7`` bits), one fancy index over the columns ``col`` plus
  one broadcast ``>> shift`` and ``& mask`` unpack every group at once
  — the same fixed shift/mask pattern for every group of a width, with
  no per-phase loop.  The plans of all 32 widths are built at import,
  the matrix is processed in fixed-size slabs so temporaries stay
  bounded, and the last few groups (plus small batches) reuse a cached
  position/shift gather table.

* **Byte-aligned fast paths.**  Widths 8/16/32 are plain dtype
  reinterpretations of the stream (little-endian hosts), and widths
  1/2/4 split bytes with a handful of uint8 shifts — no window
  construction at all.  Bit-identical to the reference unpack by the
  oracle matrix in ``tests/test_kernels.py``.
"""

from __future__ import annotations

import numpy as np

from repro.formats.kernels import KernelBackend

_WORD_BITS = 32
_LITTLE_ENDIAN = bool(np.little_endian)
#: Small-batch threshold below which one fancy gather beats the phase matrix.
_GATHER_MAX = 4096
#: Values per phase-matrix slab: bounds the window temporaries to 512 KiB.
_SLAB = 1 << 16


def _words_needed(count: int, bits: int) -> int:
    return -(-count * bits // _WORD_BITS)


class _Plan:
    """The layout of one bitwidth, fixed at import.

    Packing walks word phases: values repeat their word layout every
    ``period = 32/gcd(b, 32)`` values, spanning ``stride`` words, and
    value ``p`` of a period starts in word ``word0[p]`` at bit
    ``shift[p]``.  Unpacking reads 8-value byte groups (see the module
    docstring) through ``window``-typed reads at bytes ``col``.
    """

    __slots__ = ("period", "stride", "word0", "shift", "window", "col", "col_shift", "mask")

    def __init__(self, bits: int):
        g = int(np.gcd(bits, _WORD_BITS))
        self.period = _WORD_BITS // g
        self.stride = bits // g
        pos = np.arange(self.period, dtype=np.intp) * bits
        self.word0 = pos >> 5
        self.shift = (pos & 31).astype(np.uint64)
        self.window = np.dtype(
            np.uint16 if bits <= 9 else np.uint32 if bits <= 25 else np.uint64
        )
        pos = np.arange(8, dtype=np.intp) * bits
        self.col = pos >> 3
        self.col_shift = (pos & 7).astype(self.window)
        self.mask = self.window.type((1 << bits) - 1)


_PLANS = {bits: _Plan(bits) for bits in range(1, _WORD_BITS + 1)}

#: Lazy per-bitwidth gather tables for the small-batch path:
#: (window index, shift) for the first _GATHER_MAX values.
_GATHER_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gather_table(bits: int) -> tuple[np.ndarray, np.ndarray]:
    table = _GATHER_TABLES.get(bits)
    if table is None:
        pos = np.arange(_GATHER_MAX, dtype=np.int64) * bits
        table = (pos >> 5, (pos & 31).astype(np.uint64))
        _GATHER_TABLES[bits] = table
    return table


def _unpack_phases(words: np.ndarray, count: int, bits: int, dest: np.ndarray) -> None:
    """Unpack ``count`` values into the 1-D integer ``dest[:count]``.

    Whole groups are read straight from ``words`` through the window
    matrix; only groups whose windows stay inside the stream qualify,
    and they are taken four at a time so the rest starts on a word.  The
    input is therefore never copied or written.  The rest (a few groups,
    or the whole of a small batch) goes through the gather table over a
    sentinel-padded copy of its few words.
    """
    plan = _PLANS[bits]
    groups = 0
    if count >= _GATHER_MAX:
        reach = int(plan.col[-1]) + plan.window.itemsize  # bytes one group reads
        groups = min(count // 8, (words.nbytes - reach) // bits + 1)
        groups -= groups % 4
    if groups:
        matrix = np.ndarray(
            shape=(groups, int(plan.col[-1]) + 1), dtype=plan.window, buffer=words,
            strides=(bits, 1),
        )
        rows = dest[: 8 * groups].reshape(groups, 8)
        if rows.dtype.kind == "i":  # same bits below 2**32, cheaper cast
            rows = rows.view(np.dtype(f"u{rows.dtype.itemsize}"))
        step = _SLAB // 8
        for g in range(0, groups, step):
            win = matrix[g : g + step, plan.col]
            win >>= plan.col_shift
            np.bitwise_and(win, plan.mask, out=rows[g : g + step], casting="unsafe")
    done = 8 * groups
    if done < count:
        tail = count - done
        first = groups * bits // 4
        needed = _words_needed(tail, bits)
        w = np.zeros(needed + 1, dtype=np.uint32)  # high-word sentinel
        w[:needed] = words[first : first + needed]
        windows = np.ndarray(shape=(needed,), dtype=np.uint64, buffer=w, strides=(4,))
        win_idx, shift = _gather_table(bits)
        np.bitwise_and(
            windows[win_idx[:tail]] >> shift[:tail], plan.mask,
            out=dest[done:count], casting="unsafe",
        )


class ShiftTableBackend(KernelBackend):
    """Plan-driven pack/unpack with dtype-view fast paths."""

    name = "shift-table"

    # -- unpack ------------------------------------------------------------

    def unpack(self, words: np.ndarray, count: int, bits: int) -> np.ndarray:
        if _LITTLE_ENDIAN:
            if bits == 32:
                return words[:count].copy()
            if bits == 16:
                return words.view(np.uint16)[:count].astype(np.uint32)
            if bits == 8:
                return words.view(np.uint8)[:count].astype(np.uint32)
            if bits in (1, 2, 4):
                return _unpack_bytes(words, count, bits).astype(np.uint32)
        out = np.empty(count, dtype=np.uint32)
        _unpack_phases(words, count, bits, out)
        return out

    def unpack_into(
        self, words: np.ndarray, count: int, bits: int, out: np.ndarray
    ) -> None:
        dest = out[:count]
        if _LITTLE_ENDIAN and bits in (8, 16, 32):
            # One widening pass from the dtype view straight into the
            # caller's (typically int64) buffer — no uint32 intermediate.
            dest[:] = words.view(np.dtype(f"<u{bits // 8}"))[:count]
        elif _LITTLE_ENDIAN and bits in (1, 2, 4):
            dest[:] = _unpack_bytes(words, count, bits)
        else:
            _unpack_phases(words, count, bits, dest)

    # -- pack --------------------------------------------------------------

    def pack(self, values: np.ndarray, bits: int) -> np.ndarray:
        n = values.size
        nwords = _words_needed(n, bits)
        if _LITTLE_ENDIAN:
            if bits == 32:
                return values.astype(np.uint32)
            if bits == 16:
                out = np.zeros(nwords, dtype=np.uint32)
                out.view(np.uint16)[:n] = values.astype(np.uint16)
                return out
            if bits == 8:
                out = np.zeros(nwords, dtype=np.uint32)
                out.view(np.uint8)[:n] = values.astype(np.uint8)
                return out
            if bits in (1, 2, 4):
                per = 8 // bits
                nbytes = -(-n // per)
                padded = np.zeros(per * nbytes, dtype=np.uint8)
                padded[:n] = values.astype(np.uint8)
                acc = padded[0::per].copy()
                for s in range(1, per):
                    acc |= padded[s::per] << np.uint8(s * bits)
                out = np.zeros(nwords, dtype=np.uint32)
                out.view(np.uint8)[:nbytes] = acc
                return out
        plan = _PLANS[bits]
        acc = np.zeros(nwords, dtype=np.uint64)
        for p in range(min(plan.period, n)):
            n_p = -(-(n - p) // plan.period)  # values in phase p
            acc[plan.word0[p] :: plan.stride][:n_p] |= (
                values[p :: plan.period] << plan.shift[p]
            )
        out = acc.astype(np.uint32)  # truncation keeps the low word
        out[1:] |= (acc[:-1] >> np.uint64(32)).astype(np.uint32)
        return out


def _unpack_bytes(words: np.ndarray, count: int, bits: int) -> np.ndarray:
    """Widths 1/2/4 as uint8: strided byte stores are cheap, wide ones are not."""
    per = 8 // bits  # values per byte
    nbytes = -(-count // per)
    stream = words.view(np.uint8)[:nbytes]
    mask8 = np.uint8((1 << bits) - 1)
    out = np.empty(per * nbytes, dtype=np.uint8)
    for s in range(per):
        out[s::per] = (stream >> np.uint8(s * bits)) & mask8
    return out[:count]
