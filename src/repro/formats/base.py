"""Codec interfaces and the encoded-column container.

Every compression scheme in the reproduction — the paper's GPU-FOR /
GPU-DFOR / GPU-RFOR, the ablation GPU-SIMDBP128, and all baselines — is a
:class:`ColumnCodec`.  Schemes that satisfy the paper's two tile properties
(Section 3: tile-granularity data format, tile-based decompression routine)
additionally implement :class:`TileCodec`, which is what the tile-based
decompression executor and the Crystal engine integration consume.

The split mirrors the paper's architecture: the *format* (this package)
defines layout and bit-exact encode/decode, while the *execution models*
(:mod:`repro.core.tile_decompress`, :mod:`repro.core.cascade`) decide how
many kernel passes decoding costs on the simulated GPU.
"""

from __future__ import annotations

import abc
import contextlib
import os
import threading
import zlib
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

# -- integrity knobs ---------------------------------------------------------
#
# The hardened container attaches per-tile CRC32 checksums at encode time
# and verifies them on decode.  Both halves are controlled independently:
# REPRO_CHECKSUMS=1 (or ``set_checksums(True)``) makes *every* encode
# attach checksums — ``encode_with_checksums`` always does regardless —
# and REPRO_VERIFY picks the verification mode — "lazy" (default: each
# tile verified once per decoded image, tracked in a runtime bitmap),
# "always" (every decode re-verifies, for paranoid tests), or "off".

_VERIFY_MODES = ("off", "lazy", "always")
_FALSY = ("0", "off", "false", "no")

_checksums_enabled = os.environ.get("REPRO_CHECKSUMS", "0").lower() not in _FALSY
_verify_mode = os.environ.get("REPRO_VERIFY", "lazy").lower()
if _verify_mode not in _VERIFY_MODES:
    _verify_mode = "lazy"


def checksums_enabled() -> bool:
    """Whether plain ``encode`` attaches per-tile CRC32 checksums.

    Off by default so raw codec output is byte-for-byte what it was
    before the integrity layer existed; the hardened entry point
    ``encode_with_checksums`` always attaches them.
    """
    return _checksums_enabled


def set_checksums(enabled: bool) -> bool:
    """Toggle checksum attachment at encode; returns the previous setting."""
    global _checksums_enabled
    previous = _checksums_enabled
    _checksums_enabled = bool(enabled)
    return previous


def verify_mode() -> str:
    """Current decode verification mode: ``off``, ``lazy``, or ``always``."""
    return _verify_mode


def set_verify_mode(mode: str) -> str:
    """Set the decode verification mode; returns the previous mode."""
    if mode not in _VERIFY_MODES:
        raise ValueError(f"verify mode must be one of {_VERIFY_MODES}, got {mode!r}")
    global _verify_mode
    previous = _verify_mode
    _verify_mode = mode
    return previous


def crc32_values(values: np.ndarray) -> int:
    """CRC32 of logical values in canonical form (little-endian int64).

    Every checksum in the container uses this basis so digests agree no
    matter which decode path produced the values (``decode`` in the
    column's dtype, ``decode_tiles_into`` in int64 scratch).
    """
    v = np.ascontiguousarray(np.asarray(values), dtype="<i8")
    return zlib.crc32(v)


@contextlib.contextmanager
def corruption_guard(column: str, tile_id: int = -1, what: str = "decode"):
    """Convert raw decode faults into a structured :class:`CorruptTileError`.

    Wrapped around decode entry points so a mangled payload that slips
    past validation (numpy fancy-index misses, shape mismatches, overflow
    in derived offsets, allocation bombs) surfaces as a corruption report
    instead of an anonymous exception deep inside a worker thread.
    Existing :class:`CorruptTileError` reports pass through untouched.
    """
    from repro.formats.validate import CorruptTileError

    try:
        yield
    except CorruptTileError:
        raise
    except (
        IndexError,
        KeyError,
        ValueError,
        TypeError,
        OverflowError,
        ZeroDivisionError,
        MemoryError,
    ) as exc:
        raise CorruptTileError(
            column, tile_id, f"{what} fault: {type(exc).__name__}: {exc}"
        ) from exc


@dataclass
class EncodedColumn:
    """A compressed column: named physical arrays plus scheme metadata.

    Attributes:
        codec: registry name of the codec that produced this column.
        count: logical number of elements.
        arrays: the physical buffers as they would sit in GPU global
            memory (e.g. ``data``, ``block_starts``, ``first_values``).
        meta: scheme parameters needed to decode (block size, D, ...).
        dtype: dtype of the original column.
    """

    codec: str
    count: int
    arrays: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)
    dtype: np.dtype = np.dtype(np.int32)

    @property
    def nbytes(self) -> int:
        """Total compressed footprint in bytes (all physical arrays)."""
        return sum(a.nbytes for a in self.arrays.values())

    @property
    def column_name(self) -> str:
        """Logical column name for error reports (``<unnamed>`` if unset)."""
        return str(self.meta.get("column", "<unnamed>"))

    @property
    def bits_per_int(self) -> float:
        """Compressed bits per logical element (the paper's y-axis metric)."""
        if self.count == 0:
            return 0.0
        return self.nbytes * 8 / self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EncodedColumn(codec={self.codec!r}, count={self.count}, "
            f"nbytes={self.nbytes}, bits_per_int={self.bits_per_int:.2f})"
        )


@dataclass(frozen=True)
class KernelResources:
    """Per-kernel resource footprint of a codec's tile decoder.

    These drive the occupancy calculation (Figure 5's D sweep and the
    Section 4.3 vertical-layout ablation both fall out of them).

    Attributes:
        registers_per_thread: registers the decode device function needs.
        shared_mem_per_block: bytes of shared memory per thread block.
        compute_ops_per_element: scalar ops to decode one element.
        tile_prologue_ops: fixed per-tile work (block start resolution,
            offset precomputation, barriers).
        shared_bytes_per_element: shared-memory traffic per element.
    """

    registers_per_thread: int
    shared_mem_per_block: int
    compute_ops_per_element: float
    tile_prologue_ops: float = 0.0
    shared_bytes_per_element: float = 8.0


@dataclass(frozen=True)
class CascadePass:
    """One kernel pass of the cascading decompression baseline (Figure 2
    left): what it reads, what it writes, and how much it computes.

    ``read_segment_key`` optionally names an encoded array whose per-block
    segments are read instead of a linear sweep (the first unpack pass
    reads scattered compressed blocks; later passes sweep dense
    intermediates).
    """

    name: str
    read_bytes: int
    write_bytes: int
    compute_ops: int = 0
    #: (starts, lengths) byte segments read in addition to read_bytes.
    read_segments: tuple[np.ndarray, np.ndarray] | None = None
    #: Uncoalesced accesses: (count, element_bytes[, region_bytes]) —
    #: the optional region bound caps dense gathers/scatters at one full
    #: sweep of the touched array.
    gathers: tuple[int, ...] | None = None
    scatters: tuple[int, ...] | None = None


class ColumnCodec(abc.ABC):
    """A lossless integer column compression scheme."""

    #: Registry name ("gpu-for", "nsf", ...); set by each subclass.
    name: ClassVar[str]

    @abc.abstractmethod
    def encode(self, values: np.ndarray) -> EncodedColumn:
        """Compress ``values`` (any integer dtype) into an encoded column."""

    @abc.abstractmethod
    def decode(self, enc: EncodedColumn) -> np.ndarray:
        """Decompress the full column (bit-exact inverse of :meth:`encode`)."""

    def check_roundtrip(self, values: np.ndarray) -> EncodedColumn:
        """Encode, verify decode reproduces the input, return the encoding.

        A convenience used by examples and the hybrid chooser's paranoid
        mode; raises ``ValueError`` on any mismatch.
        """
        values = np.asarray(values)
        enc = self.encode(values)
        out = self.decode(enc)
        if out.shape != values.shape or not np.array_equal(
            out.astype(np.int64), values.astype(np.int64)
        ):
            raise ValueError(f"codec {self.name} failed round-trip")
        return enc

    @abc.abstractmethod
    def cascade_passes(self, enc: EncodedColumn) -> list[CascadePass]:
        """Kernel passes a layer-at-a-time decompressor needs (Figure 2 left)."""

    # -- pushdown metadata ---------------------------------------------------

    def bounds_elements(self, enc: EncodedColumn) -> int:
        """Logical elements covered by one :meth:`tile_bounds` entry."""
        raise NotImplementedError(f"codec {self.name} exposes no tile bounds")

    def tile_bounds(self, enc: EncodedColumn) -> tuple[np.ndarray, np.ndarray]:
        """Per-tile inclusive value bounds for predicate pushdown.

        Returns ``(mins, maxs)`` int64 arrays with one entry per group of
        :meth:`bounds_elements` logical values, satisfying the **bounds
        contract**: every logical value ``v`` of tile ``t`` obeys
        ``mins[t] <= v <= maxs[t]``.  Bounds may be conservative (not
        attained) but must never exclude a stored value — a query may
        skip decoding any tile whose bounds rule out its predicate.

        The block formats derive these for free from the metadata they
        already store (FOR references and miniblock bitwidths); codecs
        without bounding metadata cache exact bounds at encode time.
        """
        raise NotImplementedError(f"codec {self.name} exposes no tile bounds")


def exact_tile_bounds(
    values: np.ndarray, tile_elements: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-tile ``[min, max]`` of ``values`` in tiles of ``tile_elements``.

    The encode-time fallback for codecs whose physical metadata does not
    bound their values: computed once from the raw column while it is
    still in hand, then carried in ``EncodedColumn.meta`` (host-side
    zone-map metadata, not part of the compressed device footprint).

    Returns:
        ``(mins, maxs)`` int64 arrays of ``ceil(len(values)/tile_elements)``
        entries; the last tile may cover fewer than ``tile_elements``.
    """
    if tile_elements < 1:
        raise ValueError(f"tile_elements must be >= 1, got {tile_elements}")
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    edges = np.arange(0, values.size, tile_elements, dtype=np.int64)
    return (
        np.minimum.reduceat(values, edges),
        np.maximum.reduceat(values, edges),
    )


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``[0..counts[0]), [0..counts[1]), ...`` concatenated (vectorized)."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return np.arange(total) - np.repeat(offsets, counts)


def splice_block_stream(
    data: np.ndarray,
    block_starts: np.ndarray,
    blocks: np.ndarray,
    new_data: np.ndarray,
    new_starts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """A block word stream with some blocks' words replaced.

    ``data`` holds each block's words back to back at the offsets
    ``block_starts`` (with end sentinel), as GPU-FOR and GPU-DFOR store
    ``data`` and GPU-RFOR its two run streams.  ``new_data``/``new_starts``
    is a stream of the same kind holding exactly ``blocks`` (sorted,
    unique) in that order.  Returns new ``(data, block_starts)`` arrays:
    every other block's words copied, the offsets rebuilt by cumsum.
    The inputs are not modified.

    Raises:
        ValueError: when the spliced offsets exceed 32 bits.
    """
    old_starts = np.asarray(block_starts, dtype=np.int64)
    sub_starts = np.asarray(new_starts, dtype=np.int64)
    words = np.diff(old_starts)
    words[blocks] = np.diff(sub_starts)
    # Each block's first word in ``old words ++ new words``.
    source = old_starts[:-1].copy()
    source[blocks] = data.size + sub_starts[:-1]
    starts = np.zeros(words.size + 1, dtype=np.int64)
    np.cumsum(words, out=starts[1:])
    total = int(starts[-1])
    if total >= 2**32:
        raise ValueError("column too large: block start offsets exceed 32 bits")
    index = np.repeat(source - starts[:-1], words)
    index += np.arange(total)
    return np.concatenate([data, new_data]).take(index), starts.astype(np.uint32)


def require_out_buffer(out: np.ndarray, needed: int) -> None:
    """Validate a caller-provided decode scratch buffer.

    Out-buffer decode (:meth:`TileCodec.decode_tiles_into`) writes values
    directly into caller memory, so the buffer must be a 1-D contiguous
    int32 or int64 array with room for the whole *padded* batch
    (``n_tiles * tile_elements``), not just the logical values.  Every
    tile codec stores ``int32 reference + uint32 diff``, so a value may
    need 33 bits: an int32 buffer holds exact values only when every
    value of the decoded tiles fits in int32 (decoders compute modulo
    ``2**32`` there), which the caller decides from the column's bounds,
    as the paper's 4-byte columns always do.
    """
    if (
        not isinstance(out, np.ndarray)
        or out.dtype not in (np.int32, np.int64)
        or out.ndim != 1
    ):
        raise ValueError("out buffer must be a 1-D int32 or int64 ndarray")
    if not out.flags.c_contiguous:
        raise ValueError("out buffer must be C-contiguous")
    if out.size < needed:
        raise ValueError(
            f"out buffer holds {out.size} elements, need {needed}"
        )


def require_mask_buffer(mask: np.ndarray, needed: int) -> None:
    """Validate a caller-provided fused-filter mask buffer.

    Fused decode+filter (:meth:`TileCodec.decode_filter_tiles_into`)
    writes one bool per decoded element, with the same padded-batch
    capacity contract as :func:`require_out_buffer`.
    """
    if not isinstance(mask, np.ndarray) or mask.dtype != np.bool_ or mask.ndim != 1:
        raise ValueError("mask buffer must be a 1-D bool ndarray")
    if not mask.flags.c_contiguous:
        raise ValueError("mask buffer must be C-contiguous")
    if mask.size < needed:
        raise ValueError(
            f"mask buffer holds {mask.size} elements, need {needed}"
        )


def predicate_interval(predicate) -> tuple[int, int] | None:
    """``predicate.as_interval()`` via duck typing (codecs cannot import
    the engine's predicate IR); ``None`` when the predicate is not a
    single inclusive interval."""
    fn = getattr(predicate, "as_interval", None)
    if fn is None:
        return None
    return fn()


def clamp_interval(lo: int, hi: int, bound: int = 2**34) -> tuple[int, int]:
    """Clamp query bounds into a codec's comparable value domain.

    Every tile codec stores values as ``int32 reference + uint32 diff``,
    so decodable values lie strictly inside ``(-2**33, 2**33)``; clamping
    ``[lo, hi]`` to ``[-bound, bound]`` preserves every comparison while
    keeping the shifted-domain thresholds ``lo - reference`` /
    ``hi - reference`` free of int64 overflow (``Range`` encodes open
    bounds as the full int64 extremes).
    """
    return max(int(lo), -bound), min(int(hi), bound)


def shifted_interval_mask(
    diffs: np.ndarray,
    references: np.ndarray,
    active: np.ndarray,
    lo: int,
    hi: int,
    mask: np.ndarray,
) -> None:
    """``mask = lo <= reference + diff <= hi``, tested before the reference add.

    The fused decode+filter compare of the FOR-style codecs: ``diffs`` is
    ``(blocks, k)`` block-relative values in ``[0, 2**32)``, held in an
    int32 or int64 decode buffer (an int32 holds a diff of ``2**31`` or
    more as its two's-complement bit pattern), so the test runs on the
    buffer's unsigned view against each block's thresholds ``lo -
    reference`` and ``hi - reference`` clipped to ``[0, 2**32 - 1]``.
    Blocks not ``active`` (skipped from their headers, zero diffs) get
    an empty interval, so their mask is False.  ``lo``/``hi`` must be
    pre-clamped (:func:`clamp_interval`); ``mask`` is ``diffs``-shaped.
    """
    unsigned = diffs.view(np.dtype(f"u{diffs.dtype.itemsize}"))
    top = 2**32 - 1
    t_lo = np.where(active, np.clip(lo - references, 0, top), 1).astype(unsigned.dtype)
    t_hi = np.where(active, np.clip(hi - references, 0, top), 0).astype(unsigned.dtype)
    np.greater_equal(unsigned, t_lo[:, None], out=mask)
    mask &= unsigned <= t_hi[:, None]


def compact_tile_chunks_inplace(
    out: np.ndarray, chunk_lens: np.ndarray, keep_lens: np.ndarray
) -> int:
    """Drop the block padding from a batch decoded into ``out``.

    ``out[:sum(chunk_lens)]`` holds concatenated block-padded tile chunks;
    on return ``out[:kept]`` holds each tile's first ``keep_lens[i]``
    elements, where ``kept`` (the return value) is ``sum(keep_lens)``.
    The common cases are free: full chunks need nothing, and when only the
    *final* chunk is padded (any contiguous tile range — only the column's
    last tile is ever short) the logical values are already a prefix.
    """
    chunk_lens = np.asarray(chunk_lens, dtype=np.int64)
    keep_lens = np.asarray(keep_lens, dtype=np.int64)
    total = int(chunk_lens.sum())
    kept = int(keep_lens.sum())
    if kept == total:
        return kept
    if np.array_equal(chunk_lens[:-1], keep_lens[:-1]):
        return kept  # padding only in the tail chunk: values are a prefix
    within = ragged_arange(chunk_lens)
    mask = within < np.repeat(keep_lens, chunk_lens)
    out[:kept] = out[:total][mask]
    return kept


class DecodeArena:
    """Reusable decode scratch — one buffer per key.

    The decode path's backing store: a morsel worker asks for
    ``scratch(key, capacity, dtype)`` (the streaming executor keys a
    morsel's k-th dense load ``rows/k``) and gets the same buffer back on
    every later request (grown monotonically to the largest one), so the
    morsels of a query allocate no decode buffer twice.  One arena serves
    one worker thread; only :meth:`trim` may be called from another
    thread (the pool's eviction hook), so the buffer map itself is
    lock-protected — a trimmed-away buffer still borrowed by its worker
    stays valid (NumPy refcounting) and is simply re-allocated on the
    next request.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._map_lock = threading.Lock()

    def scratch(self, key: str, elements: int, dtype=np.int64) -> np.ndarray:
        """A reusable ``dtype`` buffer of at least ``elements`` for ``key``."""
        if elements < 0:
            raise ValueError(f"elements must be non-negative, got {elements}")
        dtype = np.dtype(dtype)
        with self._map_lock:
            buf = self._buffers.get(key)
            if buf is None or buf.size < elements or buf.dtype != dtype:
                buf = np.empty(max(elements, 1), dtype=dtype)
                self._buffers[key] = buf
            return buf

    @property
    def resident_bytes(self) -> int:
        """Bytes currently held across every scratch buffer."""
        with self._map_lock:
            return sum(b.nbytes for b in self._buffers.values())

    def trim(self, max_bytes: int = 0) -> int:
        """Release scratch until at most ``max_bytes`` remain resident.

        The idle-release hook for long-running servers (per-worker arenas
        otherwise pin their peak scratch forever).  Largest buffers go
        first; returns the number of bytes released.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
        released = 0
        with self._map_lock:
            if max_bytes == 0:
                released = sum(b.nbytes for b in self._buffers.values())
                self._buffers.clear()
                return released
            resident = sum(b.nbytes for b in self._buffers.values())
            by_size = sorted(
                self._buffers, key=lambda k: self._buffers[k].nbytes, reverse=True
            )
            for key in by_size:
                if resident <= max_bytes:
                    break
                nbytes = self._buffers.pop(key).nbytes
                resident -= nbytes
                released += nbytes
        return released

    def clear(self) -> None:
        self.trim(0)


class TileCodec(ColumnCodec):
    """A codec with the two tile properties of Section 3.

    Tiles are groups of ``d_blocks`` format blocks; a tile is decoded
    entirely in shared memory by one thread block, optionally inline with
    query execution.

    Each codec implements exactly one value decoder,
    :meth:`decode_tiles_into` (the paper's per-scheme tile device
    function, run over a batch of tiles into caller scratch); ``decode``,
    ``decode_tile``, ``decode_tiles``, ``decode_range`` and
    ``decode_range_into`` all derive from it here, so bounds checks,
    metadata validation, checksum verification and the output dtype are
    the same on every route.  ``decode_filter_tiles_into`` (fused
    decode+filter, which may skip blocks), ``decode_runs_into`` (runs
    without expansion) and ``gather_rows`` are the other decode-side
    operations a codec may override.

    **Empty-column contract:** an empty column encodes to zero tiles
    (``num_tiles == 0``), decodes back to an empty array of the original
    dtype, yields empty ``tile_segments``, and ``decode_tile`` /
    ``decode_tiles`` / ``decode_range`` raise :class:`IndexError` for any
    requested tile — iterating ``range(num_tiles(enc))`` therefore
    round-trips every column, including the empty one.
    """

    #: Elements per format block (128 for *FOR/DFOR, 512 for RFOR).
    block_elements: ClassVar[int]
    #: Whether the format stores runs that :meth:`decode_runs_into` can
    #: return unexpanded (GPU-RFOR); other codecs never offer them.
    stores_runs: ClassVar[bool] = False

    def tile_elements(self, enc: EncodedColumn) -> int:
        """Logical elements one thread block decodes (D blocks' worth)."""
        return self.block_elements * self.d_blocks(enc)

    def d_blocks(self, enc: EncodedColumn) -> int:
        """Blocks processed per thread block (the paper's D, default 4)."""
        return int(enc.meta.get("d_blocks", 4))

    def num_tiles(self, enc: EncodedColumn) -> int:
        """Number of tiles covering the column."""
        per_tile = self.tile_elements(enc)
        return -(-enc.count // per_tile)

    def check_tile_index(self, enc: EncodedColumn, tile_idx: int) -> None:
        """Raise :class:`IndexError` unless ``0 <= tile_idx < num_tiles``.

        The shared bounds check of the tile contract: every codec raises
        the same error for out-of-range tiles, and an empty column
        (zero tiles) rejects *every* index instead of crashing somewhere
        deeper in the decoder.
        """
        n_tiles = self.num_tiles(enc)
        if not 0 <= tile_idx < n_tiles:
            raise IndexError(
                f"tile {tile_idx} out of range for column with {n_tiles} tiles"
            )

    def _validate_tile_indices(
        self, enc: EncodedColumn, tile_indices: np.ndarray
    ) -> np.ndarray:
        """Normalize and bounds-check a batch of tile indices."""
        tiles = np.atleast_1d(np.asarray(tile_indices, dtype=np.int64))
        if tiles.ndim != 1:
            raise ValueError("tile_indices must be one-dimensional")
        if tiles.size:
            n_tiles = self.num_tiles(enc)
            lo, hi = int(tiles.min()), int(tiles.max())
            if lo < 0 or hi >= n_tiles:
                bad = lo if lo < 0 else hi
                raise IndexError(
                    f"tile {bad} out of range for column with {n_tiles} tiles"
                )
        return tiles

    # -- integrity ----------------------------------------------------------

    def attach_tile_checksums(
        self,
        enc: EncodedColumn,
        values: np.ndarray,
        previous: EncodedColumn | None = None,
        tiles: np.ndarray | None = None,
    ) -> None:
        """Compute the per-tile CRC32 table for ``enc`` at encode time.

        Stores ``tile_crcs`` (uint32, one entry per decode tile) and
        ``column_crc`` in ``enc.meta`` over the *logical* values in
        canonical form (:func:`crc32_values` basis), so any decode path
        can verify against them.  No-op when checksums are disabled.

        When ``previous`` (this codec's encoding, same tiling, of a column
        that differs from ``values`` only inside ``tiles``) carries a CRC
        table, a copy of it is kept and only ``tiles`` are recomputed.
        The column CRC is always one pass over ``values``.
        """
        if not checksums_enabled():
            return
        v = np.ascontiguousarray(np.asarray(values), dtype="<i8")
        per_tile = self.tile_elements(enc)
        crcs = None if previous is None else previous.meta.get("tile_crcs")
        if crcs is None:
            crcs = np.empty(self.num_tiles(enc), dtype=np.uint32)
            tiles = range(crcs.size)
        else:
            crcs = np.array(crcs, dtype=np.uint32)
            tiles = np.asarray(tiles).tolist()
        for t in tiles:
            crcs[t] = zlib.crc32(v[t * per_tile : (t + 1) * per_tile])
        enc.meta["tile_crcs"] = crcs
        enc.meta["column_crc"] = zlib.crc32(v)

    def validate_for_decode(self, enc: EncodedColumn) -> None:
        """Strict metadata validation before any unpack (cached per column).

        Runs :func:`repro.formats.validate.validate_decode_safety` once
        per encoded column (tracked with a runtime ``_validated`` mark
        that is never serialized); ``always`` verify mode re-validates on
        every decode.
        """
        if verify_mode() != "always" and enc.meta.get("_validated"):
            return
        from repro.formats.validate import validate_decode_safety

        validate_decode_safety(enc, enc.column_name)
        enc.meta["_validated"] = True

    def verify_decoded_tiles(
        self, enc: EncodedColumn, tile_indices: np.ndarray, values: np.ndarray
    ) -> None:
        """Check decoded tile chunks against the per-tile CRC32 table.

        ``values`` holds the tiles' *logical* values concatenated in
        ``tile_indices`` order (any integer dtype).  In ``lazy`` mode each
        tile is verified the first time it is decoded (a runtime
        ``_crc_seen`` bitmap, reset whenever the payload mutates); in
        ``always`` mode every decode re-verifies.  Columns without a
        checksum table pass through (checksums are optional).
        """
        if verify_mode() == "off":
            return
        crcs = enc.meta.get("tile_crcs")
        if crcs is None:
            return
        tiles = np.atleast_1d(np.asarray(tile_indices, dtype=np.int64))
        if tiles.size == 0:
            return
        column = enc.column_name
        n_tiles = self.num_tiles(enc)
        crcs = np.asarray(crcs)
        if crcs.size != n_tiles:
            from repro.formats.validate import CorruptTileError

            raise CorruptTileError(
                column, -1,
                f"checksum table has {crcs.size} entries for {n_tiles} tiles",
            )
        seen = None
        if verify_mode() == "lazy":
            seen = enc.meta.get("_crc_seen")
            if seen is None:
                seen = np.zeros(n_tiles, dtype=bool)
                enc.meta["_crc_seen"] = seen
            if bool(seen[tiles].all()):
                return
        v = np.ascontiguousarray(np.asarray(values), dtype="<i8")
        per_tile = self.tile_elements(enc)
        count = enc.count
        # Full-column fast path: a whole-column decode (the scan case)
        # verifies with ONE CRC pass over the buffer instead of a
        # per-tile Python loop; the loop below only runs to localize the
        # failing tile when the single pass disagrees.
        column_crc = enc.meta.get("column_crc")
        if (
            column_crc is not None
            and tiles.size == n_tiles
            and v.size == count
            and bool(np.array_equal(tiles, np.arange(n_tiles)))
        ):
            if zlib.crc32(v) == int(column_crc):
                if seen is not None:
                    seen[:] = True
                return
        pos = 0
        for t in tiles.tolist():
            length = min((t + 1) * per_tile, count) - t * per_tile
            chunk = v[pos : pos + length]
            pos += length
            if seen is not None and seen[t]:
                continue
            if zlib.crc32(chunk) != int(crcs[t]):
                from repro.formats.validate import CorruptTileError

                raise CorruptTileError(column, int(t), "tile checksum mismatch (CRC32)")
            if seen is not None:
                seen[t] = True

    @abc.abstractmethod
    def decode_tiles_into(
        self, enc: EncodedColumn, tile_indices: np.ndarray, out: np.ndarray
    ) -> int:
        """Decode a batch of tiles into a caller-provided scratch buffer.

        The codec's one value decoder — the device function one thread
        block runs per tile, launched over the whole batch — from which
        every other decode entry point derives.  Values land in ``out``
        (int32 or int64, one code path parameterised by the buffer's
        dtype) and the codec allocates no output of its own.  ``out`` must
        be a 1-D contiguous buffer with capacity for the *padded* batch,
        ``tile_indices.size * tile_elements(enc)`` — decoders write whole
        block-padded tiles before compacting in place.  Implementations
        bounds-check the batch (:meth:`_validate_tile_indices`), validate
        the metadata (:meth:`validate_for_decode`) and verify the result
        (:meth:`verify_decoded_tiles`).

        Args:
            enc: the compressed column.
            tile_indices: tile numbers to decode, each in ``[0, num_tiles)``,
                in any order, repeats allowed.
            out: scratch buffer (see :func:`require_out_buffer`).

        Returns:
            Number of logical values written; ``out[:written]`` holds the
            tiles' values concatenated in the order given.
        """

    def decode_tiles(self, enc: EncodedColumn, tile_indices: np.ndarray) -> np.ndarray:
        """Decode a batch of tiles and concatenate their values.

        Runs :meth:`decode_tiles_into` on a fresh buffer; the tiles'
        values come back in the order given and in the column's dtype.
        An empty batch decodes to an empty array.
        """
        tiles = self._validate_tile_indices(enc, tile_indices)
        out = np.empty(tiles.size * self.tile_elements(enc), dtype=np.int64)
        written = self.decode_tiles_into(enc, tiles, out)
        return out[:written].astype(enc.dtype, copy=False)

    def decode_tile(self, enc: EncodedColumn, tile_idx: int) -> np.ndarray:
        """Decode one tile's values; the last tile may be short."""
        self.check_tile_index(enc, tile_idx)
        return self.decode_tiles(enc, np.array([tile_idx]))

    def decode(self, enc: EncodedColumn) -> np.ndarray:
        """Decode the whole column: every tile, in order."""
        return self.decode_tiles(enc, np.arange(self.num_tiles(enc)))

    def decode_range(
        self, enc: EncodedColumn, first_tile: int, last_tile: int
    ) -> np.ndarray:
        """Decode the contiguous tile range ``[first_tile, last_tile)``.

        Args:
            enc: the compressed column.
            first_tile: first tile to decode (inclusive).
            last_tile: one past the last tile to decode; must satisfy
                ``0 <= first_tile <= last_tile <= num_tiles``.

        Returns:
            The range's values concatenated, in the column's dtype.
        """
        self._check_tile_range(enc, first_tile, last_tile)
        return self.decode_tiles(enc, np.arange(first_tile, last_tile))

    def decode_range_into(
        self, enc: EncodedColumn, first_tile: int, last_tile: int, out: np.ndarray
    ) -> int:
        """Decode tiles ``[first_tile, last_tile)`` into ``out``.

        Range counterpart of :meth:`decode_tiles_into`, with the same
        buffer contract; returns the number of values written.
        """
        self._check_tile_range(enc, first_tile, last_tile)
        return self.decode_tiles_into(
            enc, np.arange(first_tile, last_tile), out
        )

    def _check_tile_range(
        self, enc: EncodedColumn, first_tile: int, last_tile: int
    ) -> None:
        n_tiles = self.num_tiles(enc)
        if not 0 <= first_tile <= last_tile <= n_tiles:
            raise IndexError(
                f"tile range [{first_tile}, {last_tile}) out of range for "
                f"column with {n_tiles} tiles"
            )

    def decode_filter_tiles_into(
        self,
        enc: EncodedColumn,
        tile_indices: np.ndarray,
        predicate,
        out: np.ndarray,
        mask: np.ndarray,
    ) -> int:
        """Fused decode+filter: unpack tiles and evaluate one predicate.

        Writes the tiles' values into ``out`` and the predicate's row
        mask into ``mask`` (same compaction, same return value as
        :meth:`decode_tiles_into`).  ``predicate`` is any object with a
        ``row_mask(values)`` method — the engine's single-column
        predicate IR; when it also exposes ``as_interval()`` the codec
        overrides evaluate the test *during* unpack, in the shifted
        (reference-relative) domain where the format allows, and may
        skip unpacking blocks whose header bounds already fail.

        **Contract:** ``out[i]`` is only meaningful where
        ``mask[i]`` is True — skipped blocks leave unspecified
        (zero-filled) values — and checksum verification only covers
        fully-materialized decodes, so engines route columns that carry
        checksum tables through the plain decode path unless
        verification is off.  This base implementation fully decodes and
        then evaluates ``row_mask``, making it the oracle the fused
        overrides are tested against.
        """
        tiles = self._validate_tile_indices(enc, tile_indices)
        needed = tiles.size * self.tile_elements(enc)
        require_out_buffer(out, needed)
        require_mask_buffer(mask, needed)
        if tiles.size == 0:
            return 0
        written = self.decode_tiles_into(enc, tiles, out)
        mask[:written] = predicate.row_mask(out[:written])
        return written

    def decode_runs_into(
        self, enc: EncodedColumn, tile_indices: np.ndarray, out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The run-level load: a batch of tiles as runs, none expanded.

        A codec that stores runs (GPU-RFOR, :attr:`stores_runs`) returns
        ``(values, lengths, starts)``: each run's value, its length and its first logical
        row, all views of ``out`` in its dtype (same buffer contract as
        :meth:`decode_tiles_into`), in tile order and clipped to the
        column's ``count``.  Engines filter, probe and select on the runs
        and expand values only at the rows an operator needs.  It returns
        ``None`` when the codec keeps no runs, or when its runs are no
        more compact than the rows themselves, and the caller decodes
        rows instead.  Like the fused filter, the result is never checked
        against the per-tile CRCs (they cover expanded rows), so engines
        take this route only where fused decode is allowed.
        """
        return None

    def gather_rows(self, enc: EncodedColumn, rows: np.ndarray) -> np.ndarray:
        """The values at logical ``rows``, as int64 in the order given.

        The host's late-materialization load: an engine whose selection
        has thinned to a few rows per tile asks for just those rows.
        This base implementation decodes every tile a row falls in
        (through :meth:`decode_tiles_into`, so checksums are verified
        where verification is on) and takes the rows; codecs whose headers
        locate a single value override it to read each row straight
        from the payload.  Rows may repeat and need not be sorted.

        Raises:
            IndexError: a row outside ``[0, count)``.
        """
        rows = self._validate_rows(enc, rows)
        if rows.size == 0:
            return np.zeros(0, dtype=np.int64)
        elems = self.tile_elements(enc)
        tiles, slot = np.unique(rows // elems, return_inverse=True)
        # Only the column's last tile can be short, and it sorts last, so
        # tile ``slot`` starts at ``slot * elems`` of the concatenation.
        decoded = np.empty(tiles.size * elems, dtype=np.int64)
        self.decode_tiles_into(enc, tiles, decoded)
        return decoded.take(slot * elems + rows % elems)

    @staticmethod
    def _validate_rows(enc: EncodedColumn, rows: np.ndarray) -> np.ndarray:
        """Normalize ``rows`` to 1-D int64 and bounds-check them."""
        rows = np.asarray(rows)
        if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
            raise ValueError("rows must be a one-dimensional integer array")
        rows = rows.astype(np.int64, copy=False)
        if rows.size and (int(rows.min()) < 0 or int(rows.max()) >= enc.count):
            raise IndexError(f"row out of range for column of {enc.count} values")
        return rows

    def bounds_elements(self, enc: EncodedColumn) -> int:
        """Bounds granularity: one entry per decode tile."""
        return self.tile_elements(enc)

    def tile_bounds(self, enc: EncodedColumn) -> tuple[np.ndarray, np.ndarray]:
        """Per-decode-tile value bounds (see :meth:`ColumnCodec.tile_bounds`).

        The base implementation serves encode-time exact bounds cached in
        ``enc.meta`` (``tile_mins`` / ``tile_maxs``) when present, and
        otherwise falls back to one batched decode — exact, but paying
        the decode cost the metadata-derived overrides avoid.
        """
        mins = enc.meta.get("tile_mins")
        maxs = enc.meta.get("tile_maxs")
        if mins is not None and maxs is not None:
            return (
                np.asarray(mins, dtype=np.int64),
                np.asarray(maxs, dtype=np.int64),
            )
        n_tiles = self.num_tiles(enc)
        if n_tiles == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy()
        values = self.decode_range(enc, 0, n_tiles).astype(np.int64)
        return exact_tile_bounds(values, self.tile_elements(enc))

    @abc.abstractmethod
    def tile_segments(self, enc: EncodedColumn) -> tuple[np.ndarray, np.ndarray]:
        """Compressed byte segments each tile reads from global memory.

        Returns:
            ``(starts, lengths)`` arrays, one entry per tile, covering
            every physical byte a tile's thread block loads (data blocks,
            block starts, per-tile metadata).
        """

    def tile_read_bytes(self, enc: EncodedColumn, transaction_bytes: int) -> np.ndarray:
        """Global-memory bytes each tile reads, in whole ``transaction_bytes``
        transactions (the sum over its :meth:`tile_segments`)."""
        starts, lengths = self.tile_segments(enc)
        starts = starts.astype(np.int64)
        lengths = lengths.astype(np.int64)
        tx = transaction_bytes
        seg_bytes = np.zeros(starts.size, dtype=np.int64)
        nz = lengths > 0
        seg_bytes[nz] = ((starts[nz] + lengths[nz] - 1) // tx - starts[nz] // tx + 1) * tx
        return seg_bytes.reshape(-1, self.num_tiles(enc)).sum(axis=0)

    @abc.abstractmethod
    def kernel_resources(self, enc: EncodedColumn) -> KernelResources:
        """Resource footprint of the tile decode device function."""
