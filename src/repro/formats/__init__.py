"""Compression formats: the paper's schemes and every baseline.

Bit-exact NumPy implementations of GPU-FOR, GPU-DFOR, GPU-RFOR (paper
Sections 4-6), the vertical-layout ablation GPU-SIMDBP128 (Section 4.3),
GPU-BP (Mallia et al.), and the classic lightweight baselines NSF, NSV,
RLE, Delta, and Dict used throughout the evaluation.
"""

from repro.formats.base import (
    CascadePass,
    ColumnCodec,
    EncodedColumn,
    KernelResources,
    TileCodec,
    checksums_enabled,
    corruption_guard,
    crc32_values,
    set_checksums,
    set_verify_mode,
    verify_mode,
)
from repro.formats.container import (
    checked_decode,
    encode_with_checksums,
    load_container,
    save_container,
)
from repro.formats.decimal import (
    EncodedDecimalColumn,
    decode_decimals,
    encode_decimals,
)
from repro.formats.delta import Delta
from repro.formats.dictionary import Dict
from repro.formats.gpubp import GpuBp
from repro.formats.gpudfor import GpuDFor
from repro.formats.gpufor import GpuFor
from repro.formats.gpurfor import GpuRFor
from repro.formats.nsf import Nsf
from repro.formats.nsv import Nsv
from repro.formats.io import load_encoded, save_encoded
from repro.formats.kernels import (
    BACKEND_NAMES,
    backend_name,
    get_backend,
    set_backend,
)
from repro.formats.registry import codec_names, get_codec, is_tile_codec
from repro.formats.strings import (
    EncodedStringColumn,
    decode_strings,
    encode_strings,
)
from repro.formats.pfor import Pfor
from repro.formats.rle import Rle
from repro.formats.simple8b import Simple8b
from repro.formats.validate import (
    CorruptColumnError,
    CorruptTileError,
    validate_decode_safety,
    validate_encoded,
)
from repro.formats.vbyte import GpuVByte
from repro.formats.simdbp128 import GpuSimdBp128

__all__ = [
    "BACKEND_NAMES",
    "CascadePass",
    "ColumnCodec",
    "backend_name",
    "get_backend",
    "set_backend",
    "Delta",
    "Dict",
    "EncodedColumn",
    "EncodedDecimalColumn",
    "EncodedStringColumn",
    "decode_decimals",
    "decode_strings",
    "encode_decimals",
    "encode_strings",
    "load_encoded",
    "save_encoded",
    "checked_decode",
    "checksums_enabled",
    "corruption_guard",
    "crc32_values",
    "encode_with_checksums",
    "load_container",
    "save_container",
    "set_checksums",
    "set_verify_mode",
    "validate_decode_safety",
    "verify_mode",
    "CorruptColumnError",
    "CorruptTileError",
    "GpuBp",
    "GpuDFor",
    "GpuVByte",
    "Pfor",
    "Simple8b",
    "validate_encoded",
    "GpuFor",
    "GpuRFor",
    "GpuSimdBp128",
    "KernelResources",
    "Nsf",
    "Nsv",
    "Rle",
    "TileCodec",
    "codec_names",
    "get_codec",
    "is_tile_codec",
]
