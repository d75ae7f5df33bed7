"""Unit tests for the predicate IR (`repro.engine.predicates`).

The load-bearing property is *consistency*: whenever ``row_mask`` keeps
any row of a tile, ``tile_may_match`` on that tile's exact bounds must
be True — otherwise pushdown would prune rows the query needs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.predicates import (
    And,
    ColumnPredicate,
    Equals,
    InSet,
    Range,
    canonical_key,
    canonical_predicates,
    column_predicates,
)


def _random_predicates(rng):
    return [
        Range("c", 10, 500),
        Range("c", None, 250),
        Range("c", 100, None),
        Range("c", None, None),
        Range("c", 7, 7),
        Equals("c", 42),
        Equals("c", -1),
        InSet("c", (3, 99, 512, 700)),
        InSet("c", ()),
        InSet("c", (1000000,)),
    ]


class TestRowMask:
    def test_range(self):
        v = np.array([0, 5, 10, 15, 20])
        assert Range("c", 5, 15).row_mask(v).tolist() == [False, True, True, True, False]
        assert Range("c", None, 10).row_mask(v).tolist() == [True, True, True, False, False]
        assert Range("c", 10, None).row_mask(v).tolist() == [False, False, True, True, True]
        assert Range("c", None, None).row_mask(v).all()

    def test_equals_and_inset(self):
        v = np.array([1, 2, 3, 2])
        assert Equals("c", 2).row_mask(v).tolist() == [False, True, False, True]
        assert InSet("c", (3, 1)).row_mask(v).tolist() == [True, False, True, False]
        assert not InSet("c", ()).row_mask(v).any()

    @pytest.mark.parametrize(
        "members, values",
        [
            # negative values and members
            ((-7, -3, 0, 2), np.arange(-20, 20)),
            # values far outside the span on both sides, incl. int64 extremes
            (
                (10, 12, 15),
                np.array([-(2**63), -5, 9, 10, 11, 12, 15, 16, 2**40, 2**63 - 1]),
            ),
            # empty set
            ((), np.arange(-5, 5)),
            # a single member
            ((4,), np.array([3, 4, 4, 5, -4])),
            # span larger than the input: the np.isin fallback
            ((1, 1000), np.array([1, 2, 999, 1000, 1001])),
        ],
    )
    def test_inset_lookup_table_matches_isin(self, members, values):
        pred = InSet("c", members)
        expect = np.isin(values, np.asarray(pred.values, dtype=np.int64))
        assert np.array_equal(pred.row_mask(values), expect)
        # Narrower integer inputs take the same table.
        if values.min() >= -(2**31) and values.max() < 2**31:
            assert np.array_equal(pred.row_mask(values.astype(np.int32)), expect)

    def test_inset_lookup_table_random(self, rng):
        values = rng.integers(-300, 300, 5000)
        for k in (1, 2, 10, 50):
            pred = InSet("c", tuple(rng.integers(-200, 200, k).tolist()))
            expect = np.isin(values, np.asarray(pred.values))
            assert np.array_equal(pred.row_mask(values), expect)

    def test_inset_normalizes(self):
        assert InSet("c", (5, 1, 5, 3)).values == (1, 3, 5)


class TestTileMayMatch:
    def test_range_overlap(self):
        mins = np.array([0, 100, 200])
        maxs = np.array([99, 199, 299])
        assert Range("c", 150, 160).tile_may_match(mins, maxs).tolist() == [
            False, True, False,
        ]
        assert Range("c", 99, 100).tile_may_match(mins, maxs).tolist() == [
            True, True, False,
        ]
        assert Range("c", None, None).tile_may_match(mins, maxs).all()

    def test_inset_binary_search(self):
        mins = np.array([0, 100, 200])
        maxs = np.array([99, 199, 299])
        assert InSet("c", (150, 250)).tile_may_match(mins, maxs).tolist() == [
            False, True, True,
        ]
        assert not InSet("c", ()).tile_may_match(mins, maxs).any()
        # Members exactly on the inclusive bounds count.
        assert InSet("c", (99,)).tile_may_match(mins, maxs).tolist() == [
            True, False, False,
        ]

    def test_consistency_with_row_mask(self, rng):
        """A tile with any matching row must never be prunable."""
        for pred in _random_predicates(rng):
            for _ in range(20):
                tile = rng.integers(0, 1000, 64)
                keeps_rows = bool(pred.row_mask(tile).any())
                may = bool(
                    pred.tile_may_match(
                        np.array([tile.min()]), np.array([tile.max()])
                    )[0]
                )
                assert may or not keeps_rows, pred


class TestComposition:
    def test_and_flattens(self):
        a, b, c = Range("x", 1, 2), Equals("y", 3), InSet("z", (4,))
        nested = And((a, And((b, c))))
        assert nested.predicates == (a, b, c)

    def test_column_predicates(self):
        a, b = Range("x", 1, 2), Equals("y", 3)
        assert column_predicates(None) == ()
        assert column_predicates(a) == (a,)
        assert column_predicates(And((a, b))) == (a, b)
        with pytest.raises(TypeError):
            column_predicates("not a predicate")

    def test_base_class_is_abstract(self):
        pred = ColumnPredicate()
        with pytest.raises(NotImplementedError):
            pred.row_mask(np.zeros(1))
        with pytest.raises(NotImplementedError):
            pred.tile_may_match(np.zeros(1), np.zeros(1))
        with pytest.raises(NotImplementedError):
            pred.cache_key()

    def test_base_must_match_defaults_to_false(self):
        # Always sound: "cannot prove every row matches".
        assert not ColumnPredicate().tile_must_match(np.zeros(3), np.ones(3)).any()


class TestTileMustMatch:
    def test_range_containment(self):
        mins = np.array([0, 100, 200])
        maxs = np.array([99, 199, 299])
        assert Range("c", 0, 250).tile_must_match(mins, maxs).tolist() == [
            True, True, False,
        ]
        assert Range("c", None, None).tile_must_match(mins, maxs).all()

    def test_equals_and_inset_need_constant_tiles(self):
        mins = np.array([5, 5, 7])
        maxs = np.array([5, 6, 7])
        assert Equals("c", 5).tile_must_match(mins, maxs).tolist() == [
            True, False, False,
        ]
        assert InSet("c", (5, 7)).tile_must_match(mins, maxs).tolist() == [
            True, False, True,
        ]
        assert not InSet("c", ()).tile_must_match(mins, maxs).any()

    def test_consistency_with_row_mask(self, rng):
        """must_match on a tile's exact bounds implies every row matches."""
        for pred in _random_predicates(rng):
            for _ in range(20):
                tile = rng.integers(0, 1000, 64)
                must = bool(
                    pred.tile_must_match(
                        np.array([tile.min()]), np.array([tile.max()])
                    )[0]
                )
                assert not must or pred.row_mask(tile).all(), pred


class TestCacheKey:
    def test_degenerate_forms_collapse(self):
        # Range(lo == hi), Equals, and a singleton InSet select the same
        # rows, so they must share one key (and one hash).
        keys = {
            Range("c", 42, 42).cache_key(),
            Equals("c", 42).cache_key(),
            InSet("c", (42,)).cache_key(),
        }
        assert keys == {("eq", "c", 42)}

    def test_empty_forms_collapse(self):
        assert Range("c", 10, 5).cache_key() == ("empty", "c")
        assert InSet("c", ()).cache_key() == ("empty", "c")

    def test_distinct_predicates_distinct_keys(self):
        assert Range("c", 1, 9).cache_key() != Range("c", 1, 8).cache_key()
        assert Range("c", 1, 9).cache_key() != Range("d", 1, 9).cache_key()
        assert Equals("c", 1).cache_key() != Equals("c", 2).cache_key()

    def test_keys_are_hashable_and_stable(self):
        preds = [Range("c", 1, 9), Equals("c", 3), InSet("c", (1, 2))]
        for p in preds:
            assert hash(p.cache_key()) == hash(p.cache_key())
            assert p.cache_key() == p.cache_key()

    def test_inset_order_irrelevant(self):
        assert InSet("c", (3, 1, 2)).cache_key() == InSet("c", (1, 2, 3)).cache_key()


class TestCanonicalization:
    def test_equivalent_spellings_share_key(self):
        # The dashboard case: the same filter built with different
        # nesting, conjunct order, and redundant repeats.
        a = And((Range("x", 1, 9), Equals("y", 3)))
        b = And((Equals("y", 3), And((Range("x", 1, 9), Range("x", 1, 9)))))
        c = And((InSet("y", (3,)), Range("x", 1, None), Range("x", None, 9)))
        assert canonical_key(a) == canonical_key(b) == canonical_key(c)
        assert hash(canonical_key(a)) == hash(canonical_key(c))

    def test_intervals_intersect(self):
        pred = And((Range("x", 0, 100), Range("x", 50, 200)))
        assert canonical_predicates(pred) == (Range("x", 50, 100),)

    def test_set_clipped_to_interval(self):
        pred = And((InSet("x", (1, 5, 9)), Range("x", 4, 10)))
        assert canonical_predicates(pred) == (InSet("x", (5, 9)),)

    def test_point_intersection_becomes_equals(self):
        pred = And((Range("x", 0, 7), Range("x", 7, 100)))
        assert canonical_predicates(pred) == (Equals("x", 7),)

    def test_unsatisfiable_is_false(self):
        assert canonical_key(And((Range("x", 10, 20), Range("x", 30, 40)))) == (
            "false",
        )
        assert canonical_key(And((InSet("x", (1,)), Equals("x", 2)))) == ("false",)

    def test_unconstrained_is_true(self):
        assert canonical_key(None) == ("true",)
        assert canonical_key(And(())) == ("true",)
        assert canonical_key(Range("x", None, None)) == ("true",)

    def test_columns_sorted(self):
        a = And((Range("b", 1, 2), Range("a", 3, 4)))
        b = And((Range("a", 3, 4), Range("b", 1, 2)))
        assert canonical_predicates(a) == canonical_predicates(b)
        assert [p.column for p in canonical_predicates(a)] == ["a", "b"]

    def test_canonical_preserves_rows(self, rng):
        """Canonicalization must never change which rows survive."""
        for _ in range(30):
            values = rng.integers(0, 50, 256)
            conjuncts = [
                Range("c", int(rng.integers(0, 25)), int(rng.integers(25, 50))),
                InSet("c", tuple(int(v) for v in rng.integers(0, 50, 5))),
            ]
            rng.shuffle(conjuncts)
            pred = And(tuple(conjuncts))
            mask = np.ones(values.shape, dtype=bool)
            for p in pred.predicates:
                mask &= p.row_mask(values)
            canon = np.ones(values.shape, dtype=bool)
            for p in canonical_predicates(pred):
                canon &= p.row_mask(values)
            assert np.array_equal(mask, canon)

    def test_rejects_unknown_predicate_type(self):
        class Weird(ColumnPredicate):
            column = "c"

        with pytest.raises(TypeError, match="canonicalize"):
            canonical_predicates(And((Weird(),)))
