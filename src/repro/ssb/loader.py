"""Column-store loading: compress SSB columns under each system's scheme.

This is the Figure 9 machinery: every lineorder column is compressed with
each competing system's best configuration —

* ``none`` / ``omnisci``: raw 4-byte integers (OmniSci's only compression
  is the dictionary encoding already applied to strings at generation);
* ``gpu-star``: per-column best of GPU-FOR / GPU-DFOR / GPU-RFOR;
* ``gpu-bp``: single-layer bit-packing (Mallia et al.);
* ``planner``: the Fang et al. cascade planner;
* ``nvcomp``: nvCOMP's cascade auto-selector.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.hybrid import choose_gpu_star
from repro.core.nvcomp import encode_nvcomp
from repro.core.planner import plan_column
from repro.formats.registry import get_codec
from repro.ssb.dbgen import SSBDatabase, StarDatabase
from repro.ssb.schema import LINEORDER_COLUMNS

#: Systems Figure 9 / Figure 11 compare.
SYSTEMS = ("none", "planner", "gpu-bp", "nvcomp", "gpu-star", "omnisci")


@dataclass
class StoredColumn:
    """One lineorder column as stored by one system."""

    name: str
    system: str
    #: Decoded values (the engine's correctness path).
    values: np.ndarray
    #: System-specific compressed representation (None for raw storage).
    payload: Any
    #: Compressed footprint in bytes.
    nbytes: int
    #: Codec name for tile-decodable payloads ("" otherwise).
    codec_name: str = ""
    #: Codec tier ("hot" / "warm" / "cold") the tiering manager maintains.
    tier: str = "warm"
    #: Monotone publish epoch: bumped by every atomic swap and flush, so
    #: an off-path re-encode can detect that a flush won the race.
    epoch: int = 0
    #: On-disk container path for cold columns spilled out of memory.
    spill_path: Any = None


@dataclass
class ColumnStore:
    """All lineorder columns under one system's compression."""

    system: str
    columns: dict[str, StoredColumn]
    #: Serializes atomic column swaps (readers stay lock-free: they take
    #: one object snapshot via ``store[name]`` and never see a torn mix).
    _swap_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def total_bytes(self) -> int:
        return sum(c.nbytes for c in self.columns.values())

    def __getitem__(self, name: str) -> StoredColumn:
        return self.columns[name]

    def swap_column(
        self, name: str, new: StoredColumn, expected_epoch: int | None = None
    ) -> StoredColumn | None:
        """Atomically publish ``new`` as the stored image of ``name``.

        The whole :class:`StoredColumn` object is replaced in one dict
        store, so a concurrent reader holding the old object keeps a
        self-consistent (values, payload, codec_name) triple and a reader
        fetching after the swap sees only the new one — never a torn mix.

        Args:
            name: column to replace (must already exist).
            new: replacement image; its ``epoch`` is assigned here.
            expected_epoch: if given, the swap aborts (returns ``None``)
                unless the current epoch still matches — the compare-and-
                swap a background re-encode uses so a racing flush wins.

        Returns:
            The previous :class:`StoredColumn`, or ``None`` if the epoch
            check failed.
        """
        with self._swap_lock:
            old = self.columns[name]
            if expected_epoch is not None and old.epoch != expected_epoch:
                return None
            new.epoch = old.epoch + 1
            self.columns[name] = new
            return old

    def ensure_payload(self, name: str):
        """Reload a spilled column's payload from its on-disk container.

        Cold columns spilled by the tiering manager keep only a
        ``spill_path``; the first touch after a demotion reads the
        versioned container back and re-wraps the nvCOMP layering
        recorded in its metadata.  The reloaded payload is cached on the
        stored column, so repeat touches are free.
        """
        col = self.columns[name]
        if col.payload is not None or col.spill_path is None:
            return col.payload
        from repro.core.nvcomp import NvCompColumn
        from repro.formats.container import load_container

        inner = load_container(col.spill_path, column=name)
        scheme = inner.meta.get("nvcomp_scheme")
        if scheme:
            payload = NvCompColumn(
                scheme=scheme,
                inner=inner,
                chunk_metadata_bytes=int(inner.meta.get("nvcomp_chunk_meta", 0)),
            )
        else:
            payload = inner
        col.payload = payload
        return payload


def compress_column(name: str, values: np.ndarray, system: str) -> StoredColumn:
    """Compress one column the way ``system`` would store it."""
    values = np.asarray(values, dtype=np.int64)
    if system in ("none", "omnisci"):
        return StoredColumn(name, system, values, None, values.size * 4)
    if system == "gpu-star":
        choice = choose_gpu_star(values)
        # Corruption reports carry the logical column name.
        choice.encoded.meta.setdefault("column", name)
        return StoredColumn(
            name,
            system,
            values,
            choice.encoded,
            choice.encoded.nbytes,
            codec_name=choice.codec_name,
        )
    if system == "gpu-bp":
        enc = get_codec("gpu-bp").encode(values)
        enc.meta.setdefault("column", name)
        return StoredColumn(name, system, values, enc, enc.nbytes, codec_name="gpu-bp")
    if system == "planner":
        planned = plan_column(values)
        return StoredColumn(name, system, values, planned, planned.nbytes)
    if system == "nvcomp":
        col = encode_nvcomp(values)
        return StoredColumn(name, system, values, col, col.nbytes)
    raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")


def load_lineorder(db: SSBDatabase, system: str) -> ColumnStore:
    """Compress every lineorder column under ``system``."""
    columns = {
        name: compress_column(name, db.lineorder[name], system)
        for name in LINEORDER_COLUMNS
    }
    return ColumnStore(system=system, columns=columns)


def load_star(db: StarDatabase, system: str) -> ColumnStore:
    """Compress every fact column of a generic star under ``system``."""
    columns = {
        name: compress_column(name, values, system)
        for name, values in db.fact.items()
    }
    return ColumnStore(system=system, columns=columns)
