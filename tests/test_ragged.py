"""Ragged FOR+bit-packing (GPU-RFOR's physical layer)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import bitio
from repro.formats.base import ragged_arange
from repro.formats.ragged import pack_ragged, unpack_ragged, unpack_ragged_blocks


def _roundtrip(values, counts):
    packed = pack_ragged(
        np.asarray(values, dtype=np.int64), np.asarray(counts, dtype=np.int64)
    )
    out, out_counts = unpack_ragged(packed)
    return packed, out, out_counts


class TestPackRagged:
    def test_single_block(self):
        packed, out, counts = _roundtrip([5, 9, 7], [3])
        assert np.array_equal(out, [5, 9, 7])
        assert list(counts) == [3]

    def test_varying_block_sizes(self, rng):
        counts = rng.integers(1, 200, 50)
        values = rng.integers(-1000, 1000, int(counts.sum()))
        _, out, _ = _roundtrip(values, counts)
        assert np.array_equal(out, values)

    def test_blocks_padded_to_miniblocks(self):
        # One value still allocates a whole 32-value miniblock, but padding
        # uses the block's own value so it costs 0 bits.
        packed, _, _ = _roundtrip([7], [1])
        # reference + 1 bw word + 0 payload (all-equal after FOR).
        assert packed.data.size == 2

    def test_per_block_references(self):
        values = np.array([100, 101, -50, -49], dtype=np.int64)
        packed = pack_ragged(values, np.array([2, 2]))
        refs = packed.data[packed.block_starts[:-1].astype(np.int64)].view(np.int32)
        assert list(refs) == [100, -50]

    def test_empty(self):
        packed = pack_ragged(np.zeros(0, np.int64), np.zeros(0, np.int64))
        out, counts = unpack_ragged(packed)
        assert out.size == 0 and counts.size == 0

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            pack_ragged(np.array([1]), np.array([1, 0]))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            pack_ragged(np.array([1, 2]), np.array([3]))

    def test_wide_range_rejected(self):
        with pytest.raises(ValueError, match="exceeds 32 bits"):
            pack_ragged(np.array([0, 2**33]), np.array([2]))

    def test_block_range_decode(self, rng):
        counts = rng.integers(1, 100, 20)
        values = rng.integers(0, 10**6, int(counts.sum()))
        packed = pack_ragged(values, counts)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        out, c = unpack_ragged(packed, 5, 12)
        assert np.array_equal(out, values[offsets[5] : offsets[12]])
        assert np.array_equal(c, counts[5:12])

    def test_bad_block_range(self, rng):
        packed = pack_ragged(np.array([1, 2]), np.array([2]))
        with pytest.raises(IndexError):
            unpack_ragged(packed, 0, 5)

    @given(st.lists(st.integers(1, 90), min_size=1, max_size=30), st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, counts, seed):
        counts = np.array(counts, dtype=np.int64)
        rng = np.random.default_rng(seed)
        values = rng.integers(-(2**30), 2**30, int(counts.sum()))
        _, out, _ = _roundtrip(values, counts)
        assert np.array_equal(out, values)


def _repeat_gather_decode(packed, blocks):
    """Ragged decode by the per-block repeat/gather formula.

    Every block's padded miniblocks are unpacked one by one, the
    references are added with a full-length ``np.repeat`` over the padded
    counts, and the padding is dropped with a ``keep`` index gather.
    """
    counts = packed.counts.astype(np.int64)[blocks]
    if counts.size == 0:
        return np.zeros(0, dtype=np.int64)
    padded_counts = np.maximum(-(-counts // 32), 1) * 32
    diffs, references = [], []
    for block in blocks:
        start = int(packed.block_starts[block])
        references.append(int(packed.data[start : start + 1].view(np.int32)[0]))
        minis = max(-(-int(packed.counts[block]) // 32), 1)
        bw_words = -(-minis // 4)
        bw = packed.data[start + 1 : start + 1 + bw_words].view(np.uint8)[:minis]
        word = start + 1 + bw_words
        for b in bw.astype(int):
            diffs.append(bitio.unpack_bits(packed.data[word : word + b], 32, b))
            word += b
    padded = np.concatenate(diffs).astype(np.int64) + np.repeat(
        np.array(references, dtype=np.int64), padded_counts
    )
    padded_offsets = np.concatenate([[0], np.cumsum(padded_counts)])
    keep = np.repeat(padded_offsets[:-1], counts) + ragged_arange(counts)
    return padded[keep]


class TestUnpackRaggedBlocks:
    """The live-mask batch decode against the repeat/gather formula."""

    @pytest.mark.parametrize("n_blocks", [0, 1, 31, 32, 33, 511, 512])
    def test_batch_sizes(self, rng, n_blocks):
        counts = rng.choice([1, 2, 31, 32, 33, 63, 64, 65, 200], size=max(n_blocks, 1))
        values = rng.integers(-(2**20), 2**20, int(counts.sum()))
        packed = pack_ragged(values, counts)
        blocks = rng.integers(0, counts.size, n_blocks)  # repeats, any order
        got, got_counts = unpack_ragged_blocks(packed, blocks)
        assert np.array_equal(got, _repeat_gather_decode(packed, blocks))
        assert np.array_equal(got_counts, counts[blocks])

    @pytest.mark.parametrize("count", [1, 31, 32, 33, 511, 512])
    def test_block_counts(self, rng, count):
        # Every block holds ``count`` values: full, partial and single
        # miniblocks, up to a whole 512-value RFOR block of runs.
        counts = np.full(9, count)
        values = rng.integers(0, 2**17, int(counts.sum()))
        values[::7] = 5  # mixed miniblock widths
        packed = pack_ragged(values, counts)
        blocks = np.array([8, 0, 3, 3, 1])
        got, _ = unpack_ragged_blocks(packed, blocks)
        assert np.array_equal(got, _repeat_gather_decode(packed, blocks))
        offsets = np.concatenate([[0], np.cumsum(counts)])
        expect = np.concatenate([values[offsets[b] : offsets[b + 1]] for b in blocks])
        assert np.array_equal(got, expect)
