"""Grouped aggregates beyond SUM (engine extension)."""

import numpy as np
import pytest

from repro.engine.crystal import CrystalEngine
from repro.gpusim import GPUDevice


@pytest.fixture
def aggregate(ssb_db, none_store, run_plan):
    """Run ``body(p)`` on a fresh uncompressed engine; returns its groups."""

    def run(body):
        engine = CrystalEngine(ssb_db, none_store, GPUDevice())
        return run_plan(engine, body)[0].groups

    return run


def _zeros(p):
    return np.zeros(p.n, dtype=np.int64)


class TestGroupAggregate:
    def test_count_per_group(self, aggregate, ssb_db):
        got = aggregate(
            lambda p: p.group_aggregate(p.load("lo_quantity") % 5, None, 5, how="count")
        )
        codes = ssb_db.lineorder["lo_quantity"] % 5
        expected = {int(c): int(n) for c, n in zip(*np.unique(codes, return_counts=True))}
        assert got == expected

    def test_min_max_match_numpy(self, aggregate, ssb_db):
        def body(how):
            def run(p):
                quantity = p.load("lo_quantity")
                price = p.load("lo_extendedprice")
                return p.group_aggregate(quantity % 7, price, 7, how=how)

            return run

        got_min = aggregate(body("min"))
        got_max = aggregate(body("max"))
        codes = ssb_db.lineorder["lo_quantity"] % 7
        price = ssb_db.lineorder["lo_extendedprice"]
        for g in range(7):
            sel = codes == g
            if not sel.any():
                continue
            assert got_min[g] == int(price[sel].min())
            assert got_max[g] == int(price[sel].max())

    def test_respects_filters(self, aggregate):
        def body(p):
            quantity = p.load("lo_quantity")
            p.filter(quantity > 25)
            return p.group_aggregate(_zeros(p), quantity, 1, how="min")

        assert aggregate(body)[0] == 26

    def test_sum_delegates(self, aggregate):
        def body(how):
            def run(p):
                quantity = p.load("lo_quantity")
                if how is None:
                    return p.group_sum(_zeros(p), quantity, 1)
                return p.group_aggregate(_zeros(p), quantity, 1, how=how)

            return run

        assert aggregate(body("sum")) == aggregate(body(None))

    @pytest.mark.parametrize("live_discount", (0, None))  # sparse, dense path
    def test_group_sum_over_huge_domain_matches_dense_bincount(
        self, aggregate, ssb_db, live_discount
    ):
        num_groups = 1_750_000  # q4.3's group domain

        def body(p):
            if live_discount is not None:
                p.filter(p.load("lo_discount") == live_discount)  # ~5,500 live rows
            # 40 codes spread over the domain, tens of rows each: sums pass
            # 2**53 (and, dense, 2**63), which float64 or int64 would round
            # or wrap.
            codes = np.random.default_rng(3).integers(0, 40, p.n) * 43_749
            weights = np.asarray(p.load("lo_extendedprice"), np.int64) * 1_000_000_007
            weights[codes == 0] = 0  # a zero-sum group, which is dropped
            return p.group_sum(codes, weights, num_groups)

        lo = ssb_db.lineorder
        n = lo["lo_discount"].size
        live = np.ones(n, dtype=bool)
        if live_discount is not None:
            live = lo["lo_discount"] == live_discount
        codes = np.random.default_rng(3).integers(0, 40, n) * 43_749
        weights = np.asarray(lo["lo_extendedprice"], np.int64) * 1_000_000_007
        weights[codes == 0] = 0
        exact: dict[int, int] = {}
        for c, w in zip(codes[live].tolist(), weights[live].tolist()):
            exact[c] = exact.get(c, 0) + w
        expected = {c: s for c, s in exact.items() if s}
        assert 0 < len(expected) < int(live.sum())
        assert aggregate(body) == expected

    @pytest.mark.parametrize("live", (4, None))  # four rows, every row
    @pytest.mark.parametrize(
        "lhs, rhs", ((2**62, None), (2**40, 2**23)), ids=("sum", "sum-product")
    )
    def test_ungrouped_sums_are_exact(self, aggregate, ssb_db, lhs, rhs, live):
        # Both sums pass 2**63 (the product already does per row), where
        # int64 accumulation would wrap.
        def body(p):
            if live is not None:
                p.filter(np.arange(p.n) < live)
            a = np.full(p.n, lhs, dtype=np.int64)
            if rhs is None:
                return p.total_sum(a)
            return p.total_sum_product(a, np.full(p.n, rhs, dtype=np.int64))

        rows = ssb_db.num_lineorder_rows if live is None else live
        assert aggregate(body) == {0: rows * lhs * (rhs or 1)}

    def test_empty_selection(self, aggregate):
        def body(p):
            quantity = p.load("lo_quantity")
            p.filter(quantity > 10**9)
            return p.group_aggregate(_zeros(p), quantity, 1, "max")

        assert aggregate(body) == {}

    def test_validation(self, aggregate):
        def body(how, values=True, offset=0, num_groups=1):
            def run(p):
                quantity = p.load("lo_quantity")
                return p.group_aggregate(
                    _zeros(p) + offset, quantity if values else None, num_groups, how=how
                )

            return run

        for how in ("median", "avg"):
            with pytest.raises(ValueError, match="unknown aggregate"):
                aggregate(body(how))
        for how in ("sum", "min", "max"):
            with pytest.raises(ValueError, match="needs a values"):
                aggregate(body(how, values=False))
        with pytest.raises(ValueError, match="range"):
            aggregate(body("min", offset=9, num_groups=3))
        for bad in (-1, 1_750_000):

            def sparse(p, bad=bad):
                quantity = p.load("lo_quantity")
                p.filter(quantity == 1)  # few live rows: the sparse group_sum path
                return p.group_sum(_zeros(p) + bad, quantity, 1_750_000)

            with pytest.raises(ValueError, match="range"):
                aggregate(sparse)

    def test_charged_to_fused_kernel(self, ssb_db, none_store, run_plan):
        engine = CrystalEngine(ssb_db, none_store, GPUDevice())

        def body(p):
            q = p.load("lo_quantity")
            return p.group_aggregate(_zeros(p), q, 1, how="max")

        run_plan(engine, body)
        assert engine.device.kernel_count == 1
