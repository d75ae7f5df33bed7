"""Column updates and recompression (paper Section 8, "Compression Speed").

Compression is a one-time host-side activity — until data changes.  On an
update the paper's flow is: patch the host copy, recompress the column on
the CPU, ship the new compressed bytes over PCIe to replace the old ones.
:class:`UpdatableColumn` implements that lifecycle and accounts both the
real encode wall-time and the simulated transfer cost, so the examples
and benches can show what an update actually costs end to end.

Point updates are buffered: the compressed image plus a sparse overlay
stays queryable (reads consult the overlay), and :meth:`flush` folds the
overlay into a fresh encoding when the engine decides to pay for it.

A flush re-runs GPU-* (:func:`~repro.core.hybrid.choose_gpu_star`) on
the patched column, passing it the previous choice and the rows the
flush wrote.  Every scheme encodes independent units (GPU-FOR and
GPU-RFOR blocks, GPU-DFOR tiles), so only the units those rows fall in
are laid out again under all three schemes.  When the smallest scheme
holds, only its dirty units are re-packed and spliced into a copy of the
old image; when it changes, the new winner is encoded in full.  The
result is byte-identical to choosing over the whole column.  A 600-row
flush of a 590,000-row SSB column went from about 32 ms to about 12 ms
(median flush of the ``update-flush`` benchmark on a 2-vCPU host).

A flush is atomic: it patches a copy of the values and commits it only
once encoding succeeds, so if encoding raises, the column's values, its
pending overlay and its encoding are left as they were and the error
propagates.  The committed array is never written again, so a flush hook
can publish it without a copy of its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.hybrid import HybridChoice, choose_gpu_star
from repro.formats.base import EncodedColumn
from repro.formats.registry import get_codec
from repro.gpusim.executor import GPUDevice


@dataclass
class FlushReport:
    """Cost record of one recompression + re-upload."""

    encode_seconds: float
    transfer_ms: float
    compressed_bytes: int
    codec_name: str
    updates_applied: int


@dataclass
class UpdatableColumn:
    """A compressed, device-resident column that accepts point updates."""

    values: np.ndarray
    encoded: EncodedColumn = field(init=False)
    codec_name: str = field(init=False)
    _choice: HybridChoice = field(init=False)
    _pending: dict[int, int] = field(init=False, default_factory=dict)
    _invalidation_hooks: list[Callable[["UpdatableColumn"], None]] = field(
        init=False, default_factory=list
    )

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.int64).copy()
        self._commit(choose_gpu_star(self.values))

    def add_invalidation_hook(
        self, hook: Callable[["UpdatableColumn"], None]
    ) -> None:
        """Call ``hook(self)`` after every flush re-encodes the column.

        Anything holding a derivative of the old encoding — an engine's
        decoded cache, a serving pool's residents — must re-read through
        a hook, or it keeps serving the pre-update bytes.
        """
        self._invalidation_hooks.append(hook)

    def _commit(self, choice: HybridChoice) -> None:
        self._choice = choice
        self.encoded = choice.encoded
        self.codec_name = choice.codec_name

    # -- reads ---------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def pending_updates(self) -> int:
        return len(self._pending)

    def read(self, index: int) -> int:
        """Current value at ``index`` (overlay wins over the encoding)."""
        if not 0 <= index < self.values.size:
            raise IndexError(f"index {index} out of range")
        if index in self._pending:
            return self._pending[index]
        return int(self.values[index])

    def snapshot(self) -> np.ndarray:
        """The column as a query would see it (encoding + overlay)."""
        out = get_codec(self.codec_name).decode(self.encoded).astype(np.int64)
        if self._pending:
            idx = np.fromiter(self._pending.keys(), dtype=np.int64)
            val = np.fromiter(self._pending.values(), dtype=np.int64)
            out[idx] = val
        return out

    # -- writes ----------------------------------------------------------------

    def update(self, index: int, value: int) -> None:
        """Buffer a point update (visible immediately, compressed later)."""
        if not 0 <= index < self.values.size:
            raise IndexError(f"index {index} out of range")
        self._pending[int(index)] = int(value)

    def update_many(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Buffer a batch of point updates."""
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if indices.shape != values.shape:
            raise ValueError("indices and values must align")
        if indices.size and (indices.min() < 0 or indices.max() >= self.values.size):
            raise IndexError("update index out of range")
        for i, v in zip(indices.tolist(), values.tolist()):
            self._pending[i] = v

    def flush(self, device: GPUDevice) -> FlushReport:
        """Fold pending updates in: recompress on the CPU, re-ship to GPU.

        Only the units the pending rows fall in are laid out and re-packed
        (see the module docstring).  If encoding raises, the values, the
        overlay and the encoding are left as they were.

        Returns a :class:`FlushReport` with the measured encode time and
        the simulated PCIe transfer of the new compressed image.
        """
        applied = len(self._pending)
        idx = np.fromiter(self._pending.keys(), dtype=np.int64, count=applied)
        val = np.fromiter(self._pending.values(), dtype=np.int64, count=applied)
        # The chooser reads a patched copy, which becomes the column's
        # values only once encoding succeeds.  ``values`` is never written
        # in place, so hooks may publish it without copying: an array a
        # reader holds keeps its bytes through every later flush.
        values = self.values
        if applied:
            values = values.copy()
            values[idx] = val
        start = time.perf_counter()
        choice = choose_gpu_star(values, previous=self._choice, dirty_rows=idx)
        encode_seconds = time.perf_counter() - start
        self.values = values
        self._commit(choice)
        self._pending.clear()

        transfer_ms = device.transfer_to_device(self.encoded.nbytes)
        for hook in self._invalidation_hooks:
            hook(self)
        return FlushReport(
            encode_seconds=encode_seconds,
            transfer_ms=transfer_ms,
            compressed_bytes=self.encoded.nbytes,
            codec_name=self.codec_name,
            updates_applied=applied,
        )
