"""The SSB star as a :class:`~repro.query.model.SemanticModel`.

Declares the lineorder fact, its four FK dimensions, every queryable
attribute with its dictionary-code space, and the benchmark's measures —
then restates all 13 SSB flights as declarative :class:`Query` specs.
The hand-written plans in :mod:`repro.engine.ssb_queries` stay
as the differential-test oracle; :data:`SSB_SPECS` compiled through
:class:`~repro.query.compiler.QueryCompiler` must match them bit for
bit.

The join declaration order (customer, supplier, part, date) is the
hand-written plans' probe order, so compiled plans replay the same
lookup/probe sequence wherever a flight touches the same dimensions.
"""

from __future__ import annotations

from repro.engine import ssb_queries
from repro.engine.predicates import Equals, InSet, Range
from repro.query.model import Attribute, DimensionJoin, Measure, Query, SemanticModel
from repro.ssb import schema


def ssb_model() -> SemanticModel:
    """The SSB semantic model (metadata only — binds to any SSB db)."""
    return SemanticModel(
        name="ssb",
        fact="lineorder",
        fact_columns=tuple(schema.LINEORDER_COLUMNS),
        joins=(
            DimensionJoin("customer", "c_custkey", "lo_custkey"),
            DimensionJoin("supplier", "s_suppkey", "lo_suppkey"),
            DimensionJoin("part", "p_partkey", "lo_partkey"),
            DimensionJoin("date", "d_datekey", "lo_orderdate"),
        ),
        attributes={
            a.name: a
            for a in (
                # date: d_year is the only date attribute SSB groups by.
                Attribute("d_year", "date", "d_year", base=1992,
                          domain=len(schema.DATE_YEARS)),
                Attribute("d_monthnuminyear", "date", "d_monthnuminyear",
                          base=1, domain=12),
                Attribute("d_yearmonthnum", "date", "d_yearmonthnum"),
                Attribute("d_weeknuminyear", "date", "d_weeknuminyear"),
                # customer / supplier geography (dictionary codes).
                Attribute("c_city", "customer", "c_city",
                          domain=schema.NUM_CITIES),
                Attribute("c_nation", "customer", "c_nation",
                          domain=schema.NUM_NATIONS),
                Attribute("c_region", "customer", "c_region",
                          domain=len(schema.REGIONS)),
                Attribute("s_city", "supplier", "s_city",
                          domain=schema.NUM_CITIES),
                Attribute("s_nation", "supplier", "s_nation",
                          domain=schema.NUM_NATIONS),
                Attribute("s_region", "supplier", "s_region",
                          domain=len(schema.REGIONS)),
                # part hierarchy.
                Attribute("p_brand1", "part", "p_brand1",
                          domain=schema.NUM_BRANDS),
                Attribute("p_category", "part", "p_category",
                          domain=schema.NUM_CATEGORIES),
                Attribute("p_mfgr", "part", "p_mfgr",
                          domain=schema.NUM_MFGRS),
                # degenerate (fact-table) attributes, groupable for
                # ad-hoc queries; domains follow dbgen's value ranges.
                Attribute("lo_discount", "lineorder", "lo_discount",
                          domain=11),
                Attribute("lo_quantity", "lineorder", "lo_quantity",
                          base=1, domain=50),
                Attribute("lo_tax", "lineorder", "lo_tax", domain=9),
                Attribute("lo_linenumber", "lineorder", "lo_linenumber",
                          base=1, domain=schema.MAX_LINES_PER_ORDER),
            )
        },
        measures={
            m.name: m
            for m in (
                Measure("revenue_disc", "lo_extendedprice",
                        how="sum", op="mul", other="lo_discount"),
                Measure("revenue", "lo_revenue", how="sum"),
                Measure("profit", "lo_revenue",
                        how="sum", op="sub", other="lo_supplycost"),
                Measure("sum_quantity", "lo_quantity", how="sum"),
                Measure("sum_extendedprice", "lo_extendedprice", how="sum"),
                Measure("count_lines", how="count"),
                Measure("max_revenue", "lo_revenue", how="max"),
                Measure("min_discount", "lo_discount", how="min"),
            )
        },
    )


#: All 13 SSB flights as declarative specs, keyed by flight name.
#: Literals reuse the dictionary codes resolved in ssb_queries.
SSB_SPECS: dict[str, Query] = {
    q.name: q
    for q in (
        Query(
            "q1.1", measures=("revenue_disc",),
            filters=(
                Equals("d_year", 1993),
                Range("lo_discount", 1, 3),
                Range("lo_quantity", 0, 24),
            ),
        ),
        Query(
            "q1.2", measures=("revenue_disc",),
            filters=(
                Equals("d_yearmonthnum", 199401),
                Range("lo_discount", 4, 6),
                Range("lo_quantity", 26, 35),
            ),
        ),
        Query(
            "q1.3", measures=("revenue_disc",),
            filters=(
                Equals("d_weeknuminyear", 6),
                Equals("d_year", 1994),
                Range("lo_discount", 5, 7),
                Range("lo_quantity", 36, 40),
            ),
        ),
        Query(
            "q2.1", measures=("revenue",),
            filters=(
                Equals("p_category", ssb_queries.CATEGORY_MFGR12),
                Equals("s_region", ssb_queries.AMERICA),
            ),
            group_by=("d_year", "p_brand1"),
        ),
        Query(
            "q2.2", measures=("revenue",),
            filters=(
                Range("p_brand1", ssb_queries.BRAND_2221, ssb_queries.BRAND_2228),
                Equals("s_region", ssb_queries.ASIA),
            ),
            group_by=("d_year", "p_brand1"),
        ),
        Query(
            "q2.3", measures=("revenue",),
            filters=(
                Equals("p_brand1", ssb_queries.BRAND_2239),
                Equals("s_region", ssb_queries.EUROPE),
            ),
            group_by=("d_year", "p_brand1"),
        ),
        Query(
            "q3.1", measures=("revenue",),
            filters=(
                Equals("c_region", ssb_queries.ASIA),
                Equals("s_region", ssb_queries.ASIA),
                Range("d_year", 1992, 1997),
            ),
            group_by=("c_nation", "s_nation", "d_year"),
        ),
        Query(
            "q3.2", measures=("revenue",),
            filters=(
                Equals("c_nation", ssb_queries.NATION_US),
                Equals("s_nation", ssb_queries.NATION_US),
                Range("d_year", 1992, 1997),
            ),
            group_by=("c_city", "s_city", "d_year"),
        ),
        Query(
            "q3.3", measures=("revenue",),
            filters=(
                InSet("c_city", (ssb_queries.CITY_UK1, ssb_queries.CITY_UK5)),
                InSet("s_city", (ssb_queries.CITY_UK1, ssb_queries.CITY_UK5)),
                Range("d_year", 1992, 1997),
            ),
            group_by=("c_city", "s_city", "d_year"),
        ),
        Query(
            "q3.4", measures=("revenue",),
            filters=(
                InSet("c_city", (ssb_queries.CITY_UK1, ssb_queries.CITY_UK5)),
                InSet("s_city", (ssb_queries.CITY_UK1, ssb_queries.CITY_UK5)),
                Equals("d_yearmonthnum", 199712),
            ),
            group_by=("c_city", "s_city", "d_year"),
        ),
        Query(
            "q4.1", measures=("profit",),
            filters=(
                Equals("c_region", ssb_queries.AMERICA),
                Equals("s_region", ssb_queries.AMERICA),
                InSet("p_mfgr", (0, 1)),
            ),
            group_by=("d_year", "c_nation"),
        ),
        Query(
            "q4.2", measures=("profit",),
            filters=(
                Equals("c_region", ssb_queries.AMERICA),
                Equals("s_region", ssb_queries.AMERICA),
                InSet("p_mfgr", (0, 1)),
                InSet("d_year", (1997, 1998)),
            ),
            group_by=("d_year", "s_nation", "p_category"),
        ),
        Query(
            "q4.3", measures=("profit",),
            filters=(
                Equals("c_region", ssb_queries.AMERICA),
                Equals("s_nation", ssb_queries.NATION_US),
                Equals("p_category", ssb_queries.CATEGORY_MFGR14),
                InSet("d_year", (1997, 1998)),
            ),
            group_by=("d_year", "s_city", "p_brand1"),
        ),
    )
}
