"""Structural validation of encoded columns.

A production column store must detect corrupt compressed data before
decoding walks off an array, so every format gets a structural checker:
:func:`validate_encoded` verifies the invariants the decoders rely on
(monotone block starts, headers consistent with payload sizes, run counts
covering blocks, ...) and raises :class:`CorruptColumnError` with a
description of the first violation.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import EncodedColumn
from repro.formats.gpufor import BLOCK, MINIBLOCKS_PER_BLOCK
from repro.formats.gpurfor import RFOR_BLOCK


class CorruptColumnError(ValueError):
    """An encoded column violates its format's structural invariants."""


class CorruptTileError(CorruptColumnError):
    """Structured corruption report: which column, which tile, and why.

    Raised by the hardened decode paths (strict pre-decode validation,
    per-tile CRC verification, the framed container, and the corruption
    guard that converts raw decode faults).  ``tile_id`` is ``-1`` when
    the fault is column-wide (metadata, framing) rather than tied to one
    decode tile.
    """

    def __init__(self, column: str, tile_id: int, reason: str):
        self.column = column
        self.tile_id = int(tile_id)
        self.reason = reason
        where = f"tile {self.tile_id}" if self.tile_id >= 0 else "metadata"
        super().__init__(f"corrupt column {column!r} ({where}): {reason}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CorruptColumnError(message)


def _check_starts(starts: np.ndarray, data_words: int, label: str) -> None:
    s = starts.astype(np.int64)
    _require(s.size >= 1, f"{label}: empty block-starts array")
    _require(bool(s[0] == 0), f"{label}: first block start must be 0")
    _require(bool(np.all(np.diff(s) >= 0)), f"{label}: block starts not monotone")
    _require(
        int(s[-1]) <= data_words,
        f"{label}: block starts point past the data array",
    )


def _check_gpufor_blocks(
    data: np.ndarray, starts: np.ndarray, label: str
) -> None:
    s = starts.astype(np.int64)
    n_blocks = s.size - 1
    if n_blocks == 0:
        return
    bw_words = data[s[:-1] + 1]
    widths = np.stack(
        [(bw_words >> (8 * j)) & 0xFF for j in range(MINIBLOCKS_PER_BLOCK)], axis=1
    ).astype(np.int64)
    _require(bool(widths.max() <= 32), f"{label}: miniblock bitwidth exceeds 32")
    expected = 2 + widths.sum(axis=1)
    actual = np.diff(s)
    _require(
        bool(np.array_equal(expected, actual)),
        f"{label}: block sizes disagree with bitwidth words",
    )


def validate_encoded(enc: EncodedColumn) -> None:
    """Check ``enc``'s structural invariants; raises on the first violation.

    Supported formats: gpu-for, gpu-dfor, gpu-rfor, gpu-bp, gpu-simdbp128,
    gpu-vbyte, pfor, nsf, nsv, rle, simple8b, delta, dict.  Unknown codecs
    only get generic checks (non-negative count, arrays present).
    """
    _require(enc.count >= 0, "negative element count")
    _require(bool(enc.arrays), "no physical arrays")

    if enc.codec in ("gpu-for", "gpu-dfor"):
        data = enc.arrays["data"]
        starts = enc.arrays["block_starts"]
        _check_starts(starts, data.size, enc.codec)
        n_blocks = starts.size - 1
        _require(
            n_blocks * BLOCK >= enc.count,
            f"{enc.codec}: blocks cover fewer than count elements",
        )
        _check_gpufor_blocks(data, starts, enc.codec)
        if enc.codec == "gpu-dfor":
            d = int(enc.meta.get("d_blocks", 4))
            tiles = -(-n_blocks // d)
            _require(
                enc.arrays["first_values"].size == tiles,
                "gpu-dfor: first_values count disagrees with tile count",
            )

    elif enc.codec == "gpu-rfor":
        counts = enc.arrays["run_counts"].astype(np.int64)
        _require(bool(np.all(counts >= 1)) or counts.size == 0,
                 "gpu-rfor: block with zero runs")
        _require(bool(np.all(counts <= RFOR_BLOCK)),
                 "gpu-rfor: more runs than block positions")
        _require(
            counts.size * RFOR_BLOCK >= enc.count,
            "gpu-rfor: blocks cover fewer than count elements",
        )
        for stream in ("values", "lengths"):
            _check_starts(
                enc.arrays[f"{stream}_starts"],
                enc.arrays[f"{stream}_data"].size,
                f"gpu-rfor/{stream}",
            )
            _require(
                enc.arrays[f"{stream}_starts"].size - 1 == counts.size,
                f"gpu-rfor/{stream}: stream blocks disagree with run counts",
            )

    elif enc.codec == "gpu-bp":
        data = enc.arrays["data"]
        starts = enc.arrays["block_starts"]
        _check_starts(starts, data.size, "gpu-bp")
        s = starts.astype(np.int64)
        _require(
            (s.size - 1) * BLOCK >= enc.count,
            "gpu-bp: blocks cover fewer than count elements",
        )
        if s.size > 1:
            widths = data[s[:-1]].astype(np.int64)
            _require(bool(widths.max(initial=0) <= 32), "gpu-bp: bitwidth exceeds 32")
            expected = 1 + widths * BLOCK // 32
            _require(
                bool(np.array_equal(expected, np.diff(s))),
                "gpu-bp: block sizes disagree with bitwidths",
            )

    elif enc.codec == "nsf":
        width = int(enc.meta.get("width", 0))
        _require(width in (1, 2, 4), "nsf: invalid width")
        _require(
            enc.arrays["data"].size == enc.count,
            "nsf: data length disagrees with count",
        )

    elif enc.codec == "nsv":
        length_bytes = enc.arrays["lengths"]
        _require(
            length_bytes.size * 4 >= enc.count,
            "nsv: length stream too short",
        )
        quads = np.stack(
            [(length_bytes >> (2 * j)) & 0b11 for j in range(4)], axis=1
        ).reshape(-1)[: enc.count]
        widths = quads.astype(np.int64) + 1
        _require(
            int(widths.sum()) == enc.arrays["data"].size,
            "nsv: value widths do not cover the byte stream",
        )

    elif enc.codec == "rle":
        lengths = enc.arrays["lengths"].astype(np.int64)
        _require(bool(np.all(lengths >= 1)) or lengths.size == 0,
                 "rle: non-positive run length")
        _require(
            int(lengths.sum()) == enc.count,
            "rle: run lengths do not sum to count",
        )
        _require(
            enc.arrays["values"].size == lengths.size,
            "rle: values/lengths misaligned",
        )

    elif enc.codec == "gpu-simdbp128":
        data = enc.arrays["data"]
        starts = enc.arrays["block_starts"]
        _check_starts(starts, data.size, "gpu-simdbp128")
        s = starts.astype(np.int64)
        n_blocks = s.size - 1
        _require(
            n_blocks * 4096 >= enc.count,
            "gpu-simdbp128: blocks cover fewer than count elements",
        )
        if n_blocks:
            bits = data[s[:-1] + 1].astype(np.int64)
            _require(bool(bits.max() <= 32), "gpu-simdbp128: bitwidth exceeds 32")
            expected = 2 + bits * (4096 // 32)
            _require(
                bool(np.array_equal(expected, np.diff(s))),
                "gpu-simdbp128: block sizes disagree with bitwidth words",
            )

    elif enc.codec == "pfor":
        data = enc.arrays["data"]
        starts = enc.arrays["block_starts"]
        _check_starts(starts, data.size, "pfor")
        s = starts.astype(np.int64)
        n_blocks = s.size - 1
        _require(
            n_blocks * BLOCK >= enc.count,
            "pfor: blocks cover fewer than count elements",
        )
        if n_blocks:
            header = data[s[:-1] + 1].astype(np.int64)
            bits = header & 0xFF
            exc = header >> 8
            _require(bool(bits.max() <= 32), "pfor: bitwidth exceeds 32")
            _require(bool(exc.max() <= BLOCK), "pfor: exception count exceeds block")
            expected = 2 + 4 * bits + -(-exc // 4) + exc
            _require(
                bool(np.array_equal(expected, np.diff(s))),
                "pfor: block sizes disagree with headers",
            )

    elif enc.codec == "gpu-vbyte":
        starts = enc.arrays["block_starts"]
        _check_starts(starts, enc.arrays["data"].size, "gpu-vbyte")
        _require(
            int(starts[-1]) == enc.arrays["data"].size,
            "gpu-vbyte: block starts do not cover the byte stream",
        )

    elif enc.codec == "simple8b":
        _require(
            enc.arrays["data"].dtype == np.uint64,
            "simple8b: payload words must be uint64",
        )

    elif enc.codec == "delta":
        _require(
            enc.arrays["deltas"].size == enc.count,
            "delta: delta stream length disagrees with count",
        )

    elif enc.codec == "dict":
        width = int(enc.meta.get("width", 0))
        _require(width in (1, 2, 4), "dict: invalid code width")
        codes = enc.arrays["codes"]
        dictionary = enc.arrays["dictionary"]
        _require(codes.size == enc.count, "dict: code count disagrees with count")
        _require(
            int(enc.meta.get("cardinality", dictionary.size)) == dictionary.size,
            "dict: cardinality disagrees with dictionary size",
        )
        if codes.size:
            _require(
                int(codes.max()) < dictionary.size,
                "dict: code points past the dictionary",
            )


def validate_decode_safety(enc: EncodedColumn, column: str | None = None) -> None:
    """Strict pre-decode validation, reported as :class:`CorruptTileError`.

    The hardened decode entry point: every invariant a decoder trusts
    (bitwidths, offsets, run counts, stream lengths) is checked *before*
    any unpack touches the payload, so corrupt metadata surfaces as a
    structured error instead of garbage output or a raw numpy fault.
    """
    if column is None:
        column = str(enc.meta.get("column", "<unnamed>"))
    try:
        validate_encoded(enc)
    except CorruptTileError:
        raise
    except CorruptColumnError as exc:
        raise CorruptTileError(column, -1, str(exc)) from exc
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        # A mangled container can be missing arrays entirely or hold
        # arrays too short for the validator's own reads.
        raise CorruptTileError(
            column, -1, f"unreadable metadata: {type(exc).__name__}: {exc}"
        ) from exc

    crcs = enc.meta.get("tile_crcs")
    if crcs is not None and np.asarray(crcs).ndim != 1:
        raise CorruptTileError(column, -1, "checksum table is not one-dimensional")
