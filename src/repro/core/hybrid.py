"""GPU-*: the per-column hybrid of GPU-FOR / GPU-DFOR / GPU-RFOR.

Section 8's rule of thumb: because tile-based decompression makes all
three schemes decode at similar (near-bandwidth) speed, there is no
compression-ratio/speed trade-off left to plan around — simply pick, per
column, the scheme with the smallest footprint.  This module implements
both that exact chooser and the stats-only heuristic the section
describes (sorted & high-NDV -> DFOR, low-NDV or long runs -> RFOR,
otherwise FOR).

The exact chooser never packs a losing scheme.  A scheme's footprint is
fixed by its layout (block references, per-miniblock bitwidths and, for
GPU-RFOR, run counts) before any word is written, so the three codecs'
``layout`` methods size the candidates exactly and only the winner's
``encode`` packs and checksums it.  That halves what every load and
tiering re-encode pays.

A flush changes a few rows of a column it has chosen for before, and
every scheme encodes independent units: GPU-FOR 128-value blocks,
GPU-DFOR tiles of ``d_blocks`` blocks (its deltas restart at each tile)
and GPU-RFOR 512-value blocks.  So :class:`HybridChoice` keeps each
candidate's bytes per unit, and a choice given the previous one and the
dirty rows lays out only the dirty units, updates the three exact totals
and, when the winner holds, re-packs and splices just those units
(:func:`~repro.formats.base.splice_block_stream`).  The result is
byte-identical to choosing over the whole column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.stats import ColumnStats
from repro.formats.base import EncodedColumn, TileCodec
from repro.formats.registry import get_codec

#: The schemes GPU-* chooses among.
GPU_STAR_SCHEMES: tuple[str, ...] = ("gpu-for", "gpu-dfor", "gpu-rfor")


@dataclass
class HybridChoice:
    """Outcome of GPU-* scheme selection for one column."""

    codec_name: str
    encoded: EncodedColumn
    #: Footprints of every candidate, for reporting.
    candidate_bytes: dict[str, int]
    #: Each candidate's packed bytes per independently encoded unit (a
    #: GPU-FOR or GPU-RFOR block, a GPU-DFOR tile): what a later choice
    #: over the same column with a few rows changed starts from.
    unit_bytes: dict[str, np.ndarray]
    #: The ``d_blocks`` the candidates were encoded with.
    d_blocks: int

    @property
    def codec(self) -> TileCodec:
        codec = get_codec(self.codec_name)
        assert isinstance(codec, TileCodec)
        return codec


def _unit_values(values: np.ndarray, units: np.ndarray, size: int) -> np.ndarray:
    """The values of the ``size``-row units ``units`` (sorted), in order.

    Only the column's last unit may be short; when it is among ``units``
    it stays last, so a codec pads it exactly as it pads the whole column.
    """
    n_full = values.size // size
    full = units[units < n_full]
    out = values[: n_full * size].reshape(n_full, size)[full].reshape(-1)
    if full.size < units.size:
        out = np.concatenate([out, values[n_full * size :]])
    return out


def _dirty_rows(
    values: np.ndarray, d_blocks: int, previous: HybridChoice, dirty_rows
) -> np.ndarray:
    """Validate an incremental choice's inputs; the sorted unique dirty rows."""
    if dirty_rows is None:
        raise ValueError("choose_gpu_star needs dirty_rows with a previous choice")
    if previous.d_blocks != d_blocks:
        raise ValueError(
            f"previous choice used d_blocks={previous.d_blocks}, not {d_blocks}"
        )
    if values.shape != (previous.encoded.count,):
        raise ValueError(
            f"previous choice encodes {previous.encoded.count} values, "
            f"got an array of shape {values.shape}"
        )
    rows = np.unique(np.asarray(dirty_rows, dtype=np.int64))
    if rows.size and (rows[0] < 0 or rows[-1] >= values.size):
        raise IndexError(f"dirty rows must lie in [0, {values.size})")
    return rows


def choose_gpu_star(
    values: np.ndarray,
    d_blocks: int = 4,
    previous: HybridChoice | None = None,
    dirty_rows: np.ndarray | None = None,
) -> HybridChoice:
    """Keep the scheme with the smallest footprint (Section 8).

    Each candidate's exact size is fixed by its layout (references,
    miniblock bitwidths, run counts) before any word is packed, so the
    candidates are laid out in turn and only the winner is packed and
    checksummed, through its codec's ``encode``.  Ties go to the earlier
    scheme in :data:`GPU_STAR_SCHEMES`.

    With ``previous`` — this function's choice for a column that differs
    from ``values`` only at ``dirty_rows`` — only the units those rows
    fall in are laid out, and each candidate's size is updated from
    ``previous.unit_bytes``.  If the winner holds, its codec's ``splice``
    re-packs just those units into a new column, copying the rest of
    ``previous.encoded``, which is never modified; if it changes, the new
    winner is encoded in full.  Either way the result is byte-identical to
    ``choose_gpu_star(values, d_blocks)``; with no dirty rows it is
    ``previous`` itself.
    """
    values = np.asarray(values)
    dirty = None
    if previous is not None:
        dirty = _dirty_rows(values, d_blocks, previous, dirty_rows)
        if dirty.size == 0:
            return previous
    elif dirty_rows is not None:
        raise ValueError("choose_gpu_star needs the previous choice with dirty_rows")
    candidate_bytes: dict[str, int] = {}
    unit_bytes: dict[str, np.ndarray] = {}
    best = None
    for name in GPU_STAR_SCHEMES:
        kwargs = {"d_blocks": d_blocks} if name != "gpu-rfor" else {}
        codec = get_codec(name, **kwargs)
        if dirty is None:
            units = None
            layout = codec.layout(values)
            unit_bytes[name] = codec.unit_bytes(layout)
            candidate_bytes[name] = layout.nbytes
        else:
            units = np.unique(dirty // codec.unit_elements)
            layout = codec.layout(_unit_values(values, units, codec.unit_elements))
            sizes = previous.unit_bytes[name].copy()
            fresh = codec.unit_bytes(layout)
            candidate_bytes[name] = previous.candidate_bytes[name] + int(
                fresh.sum() - sizes[units].sum()
            )
            sizes[units] = fresh
            unit_bytes[name] = sizes
        if best is None or candidate_bytes[name] < candidate_bytes[best[0].name]:
            best = (codec, layout, units)
        # Free a losing layout's O(n) arrays before the next is built.
        del layout
    codec, layout, units = best
    if units is None:
        encoded = codec.encode(values, layout)
    elif codec.name == previous.codec_name:
        encoded = codec.splice(previous.encoded, values, units, layout)
    else:
        encoded = codec.encode(values)
    return HybridChoice(
        codec_name=codec.name,
        encoded=encoded,
        candidate_bytes=candidate_bytes,
        unit_bytes=unit_bytes,
        d_blocks=d_blocks,
    )


def heuristic_scheme(stats: ColumnStats) -> str:
    """Section 8's stats-only rule of thumb (no trial encoding).

    GPU-DFOR for sorted/semi-sorted high-cardinality columns, GPU-RFOR for
    low-cardinality or high-average-run-length columns, GPU-FOR otherwise.
    """
    if stats.count == 0:
        return "gpu-for"
    if stats.avg_run_length >= 4.0:
        return "gpu-rfor"
    if stats.distinct_count and stats.count / stats.distinct_count >= 64:
        return "gpu-rfor"
    if stats.is_sorted and stats.distinct_count > stats.count // 64:
        return "gpu-dfor"
    return "gpu-for"
