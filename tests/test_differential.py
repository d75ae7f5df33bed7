"""Differential tests: every codec against every distribution, and every
read path against every other read path.

The invariants:

1. decode(encode(x)) == x for every codec/distribution pair;
2. concatenated tile decodes == full decode (tile codecs);
3. save -> load -> decode == decode (serializable codecs);
4. gather(indices) == decode()[indices] (tile codecs);
5. validate_encoded accepts every fresh encoding.
"""

import io

import numpy as np
import pytest

from repro.core.random_access import gather
from repro.formats import get_codec, load_encoded, save_encoded
from repro.formats.base import TileCodec
from repro.formats.validate import validate_encoded
from repro.gpusim import GPUDevice
from repro.workloads.synthetic import (
    d1_sorted,
    d2_normal,
    d3_zipf,
    runs,
    uniform_bitwidth,
)

_N = 8_192

DISTRIBUTIONS = {
    "uniform4": lambda: uniform_bitwidth(4, _N, 1),
    "uniform20": lambda: uniform_bitwidth(20, _N, 2),
    "sorted-dense": lambda: d1_sorted(_N // 2, _N, 3),
    "sorted-sparse": lambda: d1_sorted(2**27, _N, 4),
    "normal": lambda: d2_normal(2**20, _N, seed=5),
    "zipf": lambda: d3_zipf(1.5, _N, seed=6),
    "runs": lambda: runs(16, _N, distinct=100, seed=7),
    "constant": lambda: np.full(_N, 12345, dtype=np.int64),
    "ramp": lambda: np.arange(_N, dtype=np.int64),
}

#: Codecs that accept any distribution above (non-negative, < 2^32 range).
ALL_CODECS = (
    "gpu-for", "gpu-dfor", "gpu-rfor", "gpu-bp", "gpu-simdbp128",
    "gpu-vbyte", "nsf", "nsv", "pfor", "rle", "simple8b", "delta", "dict",
)
VALIDATABLE = ("gpu-for", "gpu-dfor", "gpu-rfor", "gpu-bp", "nsf", "nsv", "rle")


@pytest.mark.parametrize("dist", list(DISTRIBUTIONS))
@pytest.mark.parametrize("codec_name", ALL_CODECS)
def test_roundtrip_everywhere(codec_name, dist):
    values = DISTRIBUTIONS[dist]()
    codec = get_codec(codec_name)
    enc = codec.encode(values)
    out = codec.decode(enc)
    assert np.array_equal(out.astype(np.int64), values.astype(np.int64)), (
        codec_name, dist,
    )


@pytest.mark.parametrize("dist", ["uniform20", "sorted-dense", "runs", "constant"])
@pytest.mark.parametrize(
    "codec_name", ["gpu-for", "gpu-dfor", "gpu-rfor", "gpu-bp", "gpu-simdbp128"]
)
def test_tiles_equal_full_decode(codec_name, dist):
    values = DISTRIBUTIONS[dist]()
    codec = get_codec(codec_name)
    assert isinstance(codec, TileCodec)
    enc = codec.encode(values)
    elems = codec.tile_elements(enc)
    for t in range(codec.num_tiles(enc)):
        assert np.array_equal(
            codec.decode_tile(enc, t), values[t * elems : (t + 1) * elems]
        ), t


@pytest.mark.parametrize("dist", ["uniform20", "runs", "zipf"])
@pytest.mark.parametrize("codec_name", ALL_CODECS)
def test_save_load_equals_original(codec_name, dist, tmp_path):
    values = DISTRIBUTIONS[dist]()
    codec = get_codec(codec_name)
    enc = codec.encode(values)
    buf = io.BytesIO()
    save_encoded(enc, buf)
    buf.seek(0)
    loaded = load_encoded(buf)
    assert np.array_equal(
        codec.decode(loaded).astype(np.int64), values.astype(np.int64)
    ), (codec_name, dist)


@pytest.mark.parametrize("dist", ["uniform20", "sorted-dense", "runs"])
@pytest.mark.parametrize("codec_name", ["gpu-for", "gpu-dfor", "gpu-rfor"])
def test_gather_equals_decode_subscript(codec_name, dist):
    values = DISTRIBUTIONS[dist]()
    codec = get_codec(codec_name)
    enc = codec.encode(values)
    rng = np.random.default_rng(9)
    idx = rng.integers(0, values.size, 300)
    report = gather(enc, idx, GPUDevice())
    assert np.array_equal(
        report.values.astype(np.int64), codec.decode(enc).astype(np.int64)[idx]
    )


@pytest.mark.parametrize("dist", list(DISTRIBUTIONS))
@pytest.mark.parametrize("codec_name", VALIDATABLE)
def test_fresh_encodings_always_validate(codec_name, dist):
    enc = get_codec(codec_name).encode(DISTRIBUTIONS[dist]())
    validate_encoded(enc)
