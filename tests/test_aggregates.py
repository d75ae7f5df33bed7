"""Grouped aggregates beyond SUM (engine extension)."""

import numpy as np
import pytest

from repro.engine.crystal import CrystalEngine
from repro.gpusim import GPUDevice


@pytest.fixture
def pipeline(ssb_db, none_store):
    engine = CrystalEngine(ssb_db, none_store, GPUDevice())
    return engine.pipeline("agg-test"), ssb_db


class TestGroupAggregate:
    def test_count_per_group(self, pipeline):
        p, db = pipeline
        quantity = p.load("lo_quantity")
        codes = quantity % 5
        result = p.group_aggregate(codes, None, 5, how="count")
        expected = {int(c): int(n) for c, n in zip(*np.unique(codes, return_counts=True))}
        assert result == expected

    def test_min_max_match_numpy(self, pipeline):
        p, db = pipeline
        quantity = p.load("lo_quantity")
        price = p.load("lo_extendedprice")
        codes = quantity % 7
        got_min = p.group_aggregate(codes, price, 7, how="min")
        got_max = p.group_aggregate(codes, price, 7, how="max")
        for g in range(7):
            sel = codes == g
            if not sel.any():
                continue
            assert got_min[g] == int(price[sel].min())
            assert got_max[g] == int(price[sel].max())

    def test_avg_is_floor_of_mean(self, pipeline):
        p, db = pipeline
        quantity = p.load("lo_quantity")
        codes = np.zeros(quantity.size, dtype=np.int64)
        got = p.group_aggregate(codes, quantity, 1, how="avg")
        assert got[0] == int(quantity.sum()) // quantity.size

    def test_respects_filters(self, pipeline):
        p, db = pipeline
        quantity = p.load("lo_quantity")
        p.filter(quantity > 25)
        codes = np.zeros(quantity.size, dtype=np.int64)
        got = p.group_aggregate(codes, quantity, 1, how="min")
        assert got[0] == 26

    def test_sum_delegates(self, pipeline):
        p, db = pipeline
        quantity = p.load("lo_quantity")
        codes = np.zeros(quantity.size, dtype=np.int64)
        assert (
            p.group_aggregate(codes, quantity, 1, how="sum")
            == p.group_sum(codes, quantity, 1)
        )

    @pytest.mark.parametrize("live_discount", (0, None))  # sparse, dense path
    def test_group_sum_over_huge_domain_matches_dense_bincount(
        self, pipeline, live_discount
    ):
        p, db = pipeline
        num_groups = 1_750_000  # q4.3's group domain
        if live_discount is not None:
            p.filter(p.load("lo_discount") == live_discount)  # ~5,500 live rows
        # 40 codes spread over the domain, tens of rows each: sums past
        # 2**53 round in float64, so addition order shows.
        codes = np.random.default_rng(3).integers(0, 40, p.n) * 43_749
        weights = np.asarray(p.load("lo_extendedprice"), np.int64) * 1_000_000_007
        weights[codes == 0] = 0  # a zero-sum group, which is dropped
        dense = np.bincount(
            codes[p.mask], weights=weights[p.mask].astype(np.float64),
            minlength=num_groups,
        )
        expected = {int(c): int(dense[c]) for c in np.flatnonzero(dense)}
        assert 0 < len(expected) < p.live_count
        assert p.group_sum(codes, weights, num_groups) == expected

    def test_empty_selection(self, pipeline):
        p, db = pipeline
        quantity = p.load("lo_quantity")
        p.filter(quantity > 10**9)
        got = p.group_aggregate(np.zeros(quantity.size, np.int64), quantity, 1, "max")
        assert got == {}

    def test_validation(self, pipeline):
        p, db = pipeline
        quantity = p.load("lo_quantity")
        codes = np.zeros(quantity.size, dtype=np.int64)
        with pytest.raises(ValueError, match="unknown aggregate"):
            p.group_aggregate(codes, quantity, 1, how="median")
        for how in ("sum", "avg", "min", "max"):
            with pytest.raises(ValueError, match="needs a values"):
                p.group_aggregate(codes, None, 1, how=how)
        with pytest.raises(ValueError, match="range"):
            p.group_aggregate(codes + 9, quantity, 3, how="min")
        p.filter(quantity == 1)  # few live rows: the sparse group_sum path
        for bad in (-1, 1_750_000):
            with pytest.raises(ValueError, match="range"):
                p.group_sum(codes + bad, quantity, 1_750_000)

    def test_charged_to_fused_kernel(self, ssb_db, none_store):
        engine = CrystalEngine(ssb_db, none_store, GPUDevice())
        p = engine.pipeline("t")
        q = p.load("lo_quantity")
        p.group_aggregate(np.zeros(q.size, np.int64), q, 1, how="max")
        p.finish()
        assert engine.device.kernel_count == 1
