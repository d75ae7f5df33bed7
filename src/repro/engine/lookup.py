"""Dimension-table lookups for star joins.

SSB dimension keys are dense (1..N), so Crystal-style engines join the
fact table against **direct-address arrays**: ``payload[key - base]`` is
either the join payload or ``MISS``.  A filtered dimension simply stores
``MISS`` for rows that fail its predicate, folding selection into the
join, which is how the SSB queries below express e.g. ``s_region =
'ASIA'``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Payload value marking a key that is absent or filtered out.
MISS = -1


@dataclass
class Lookup:
    """A dense key -> payload table resident in simulated global memory."""

    name: str
    key_base: int
    payload: np.ndarray  # int32; MISS where absent

    @property
    def nbytes(self) -> int:
        return self.payload.nbytes

    def covers(self, keys: np.ndarray) -> bool:
        """Whether every key lies in the table's key range."""
        keys = np.asarray(keys)
        return not keys.size or (
            int(keys.min()) >= self.key_base
            and int(keys.max()) < self.key_base + self.payload.size
        )

    def probe(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized probe; keys must lie in the table's key range.

        Returns the payloads as stored, 4-byte ints: callers widen before
        group-code arithmetic.
        """
        if not self.covers(keys):
            raise IndexError(f"probe key out of range for lookup {self.name!r}")
        # One intp index array: numpy would convert any other index to it.
        return self.payload.take(np.subtract(keys, self.key_base, dtype=np.intp))


def make_lookup(
    name: str,
    keys: np.ndarray,
    payload: np.ndarray | None = None,
    mask: np.ndarray | None = None,
) -> Lookup:
    """Build a dense lookup from dimension rows.

    Args:
        name: label for kernel accounting.
        keys: dimension key column (dense but not necessarily contiguous
            from 0; the minimum becomes the base).
        payload: per-row payload; defaults to all-zeros (a pure existence
            filter).
        mask: rows failing this predicate store :data:`MISS`.

    Returns:
        The populated :class:`Lookup`.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        raise ValueError("cannot build a lookup from an empty dimension")
    if payload is None:
        payload = np.zeros(keys.size, dtype=np.int64)
    payload = np.asarray(payload, dtype=np.int64)
    if payload.shape != keys.shape:
        raise ValueError("payload must align with keys")
    if mask is not None:
        payload = np.where(np.asarray(mask, dtype=bool), payload, MISS)

    base = int(keys.min())
    span = int(keys.max()) - base + 1
    table = np.full(span, MISS, dtype=np.int32)
    table[keys - base] = payload.astype(np.int32)
    return Lookup(name=name, key_base=base, payload=table)
