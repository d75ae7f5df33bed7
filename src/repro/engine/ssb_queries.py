"""The 13 Star Schema Benchmark queries as Crystal-style plans.

Each query is expressed against the :class:`~repro.engine.crystal.FactPipeline`
API: build filtered dimension lookups, sweep the fact table once, probe,
filter, aggregate.  String literals from the SSB spec are pre-resolved to
the dictionary codes :mod:`repro.ssb.dbgen` generates (e.g. region
``'AMERICA'`` is code 1, brand ``'MFGR#2221'`` is code 260).

Because selections and joins fold into the single fused fact kernel, the
only difference between running a query on uncompressed data and on GPU-*
data is which load device function the kernel uses — the paper's
one-line-change claim (Section 7).
"""

from __future__ import annotations

import numpy as np

from repro.engine.crystal import CrystalEngine, SSBQuery
from repro.engine.lookup import MISS
from repro.engine.predicates import And, Range, canonical_predicates

# -- dictionary codes for the SSB literals used by the queries -------------

#: Regions (see repro.ssb.schema.REGIONS).
AFRICA, AMERICA, ASIA, EUROPE, MIDDLE_EAST = range(5)
#: 'UNITED STATES': a nation inside AMERICA (codes 5..9).
NATION_US = 7
#: 'UNITED KI1' and 'UNITED KI5': two cities of nation 7 (codes 70..79).
CITY_UK1 = 71
CITY_UK5 = 75
#: 'MFGR#12': manufacturer 1, category 2 -> category code 0*5 + 1.
CATEGORY_MFGR12 = 1
#: 'MFGR#14': manufacturer 1, category 4.
CATEGORY_MFGR14 = 3
#: 'MFGR#2221'..'MFGR#2228': brands 20..27 of category code 6.
BRAND_2221 = 6 * 40 + 20
BRAND_2228 = 6 * 40 + 27
#: 'MFGR#2239'.
BRAND_2239 = 6 * 40 + 38

#: Group-code strides.
_YEARS = 7
_NATIONS = 25
_CITIES = 250
_BRANDS = 1000
_CATEGORIES = 25


def _year_code(years: np.ndarray) -> np.ndarray:
    return years - 1992


def _group_code(p, payload) -> np.ndarray:
    """A probe's payloads at the pipeline's live rows, widened to int64 for
    group-code arithmetic, with a key that has no dimension row grouping
    as 0."""
    return np.maximum(p.live(payload), 0, dtype=np.int64)


def _datekey_range(db, date_mask: np.ndarray) -> Range:
    """Bound ``lo_orderdate`` by the selected dimension rows' datekeys.

    Semijoin reduction to a range: the dense YYYYMMDD datekeys of the
    qualifying ``date`` rows bound every fact row that can survive the
    date join, letting pushdown skip tiles on date-clustered data.  An
    empty selection yields an unsatisfiable range (prunes everything).
    """
    keys = db.date["d_datekey"][np.asarray(date_mask, dtype=bool)]
    if keys.size == 0:
        return Range("lo_orderdate", 1, 0)
    return Range("lo_orderdate", int(keys.min()), int(keys.max()))


# -- query flight 1: filtered scans ----------------------------------------


def _flight1(engine: CrystalEngine, name: str, date_mask: np.ndarray,
             disc_lo: int, disc_hi: int, qty_lo: int, qty_hi: int) -> dict[int, int]:
    date_lu = engine.build_lookup("date", "d_datekey", mask=date_mask)
    disc = Range("lo_discount", disc_lo, disc_hi)
    qty = Range("lo_quantity", qty_lo, qty_hi)
    p = engine.pipeline(name)
    p.filter_pushdown(And((_datekey_range(engine.db, date_mask), disc, qty)))
    orderdate = p.load("lo_orderdate")
    p.filter(p.probe(date_lu, orderdate) != MISS)
    discount = p.load("lo_discount")
    p.filter_predicate(disc, discount)
    quantity = p.load("lo_quantity")
    p.filter_predicate(qty, quantity)
    extendedprice = p.load("lo_extendedprice")
    result = p.total_sum_product(extendedprice, discount)
    p.finish()
    return result


def q1_1(engine: CrystalEngine) -> dict[int, int]:
    """select sum(lo_extendedprice*lo_discount) as revenue
    where d_year = 1993 and lo_discount between 1 and 3 and lo_quantity < 25"""
    return _flight1(engine, "q1.1", engine.db.date["d_year"] == 1993, 1, 3, 0, 24)


def q1_2(engine: CrystalEngine) -> dict[int, int]:
    """... where d_yearmonthnum = 199401 and lo_discount between 4 and 6
    and lo_quantity between 26 and 35"""
    return _flight1(
        engine, "q1.2", engine.db.date["d_yearmonthnum"] == 199401, 4, 6, 26, 35
    )


def q1_3(engine: CrystalEngine) -> dict[int, int]:
    """... where d_weeknuminyear = 6 and d_year = 1994
    and lo_discount between 5 and 7 and lo_quantity between 36 and 40"""
    d = engine.db.date
    mask = (d["d_weeknuminyear"] == 6) & (d["d_year"] == 1994)
    return _flight1(engine, "q1.3", mask, 5, 7, 36, 40)


#: Fact columns every revenue scan touches, in load order.
_SCAN_COLUMNS = ("lo_orderdate", "lo_discount", "lo_quantity", "lo_extendedprice")


def make_scan(name: str, predicate: "And | Range") -> SSBQuery:
    """A declarative revenue scan: ``sum(extendedprice * discount)``
    under a predicate over the scan columns.

    The predicate is canonicalized up front and declared on the returned
    :class:`SSBQuery` (``plan_key=("scan", "revenue")``), so every scan
    built here shares one plan family: the serving layer coalesces
    semantically identical requests, and the semantic result cache
    transfers per-tile-span partials between scans whose filters
    provably agree on a tile (the year→month drill-down pattern).  All
    four columns load unconditionally — the plan's operator trace is
    identical across the family no matter which columns the predicate
    happens to constrain.
    """
    conjuncts = canonical_predicates(predicate)
    filterable = set(_SCAN_COLUMNS[:-1])
    extra = sorted({p.column for p in conjuncts} - filterable)
    if extra:
        raise ValueError(
            f"scan predicates may constrain only {sorted(filterable)}, got {extra}"
        )
    pred = And(conjuncts)
    by_col = {p.column: p for p in conjuncts}

    def fn(engine: CrystalEngine) -> dict[int, int]:
        p = engine.pipeline(name)
        p.filter_pushdown(pred)
        loaded = {}
        for col in _SCAN_COLUMNS[:-1]:
            loaded[col] = p.load(col)
            cp = by_col.get(col)
            if cp is not None:
                p.filter_predicate(cp, loaded[col])
        extendedprice = p.load("lo_extendedprice")
        result = p.total_sum_product(extendedprice, loaded["lo_discount"])
        p.finish()
        return result

    return SSBQuery(
        name, _SCAN_COLUMNS, fn, plan_key=("scan", "revenue"), predicate=pred
    )


def make_flight1(name: str, date_lo: int, date_hi: int, disc_lo: int,
                 disc_hi: int, qty_lo: int, qty_hi: int) -> SSBQuery:
    """A flight-1 query with its date selection as a datekey range.

    Every ``lo_orderdate`` is a valid ``d_datekey`` (dbgen samples the
    date dimension), so an equality filter on any date attribute that
    selects *contiguous calendar days* — a year, a month, a week — is
    exactly the datekey range ``[first day, last day]``.  Expressing it
    as a :class:`Range` instead of a mask-filtered dimension join keeps
    the whole drill-down family on one plan (no per-query lookup to
    fingerprint), which is what lets the semantic cache reuse partials
    between e.g. the year=1993 scan and its month drill-downs.
    """
    return make_scan(
        name,
        And((
            Range("lo_orderdate", date_lo, date_hi),
            Range("lo_discount", disc_lo, disc_hi),
            Range("lo_quantity", qty_lo, qty_hi),
        )),
    )


# -- query flight 2: part x supplier x date --------------------------------


def _flight2(engine: CrystalEngine, name: str, part_mask: np.ndarray,
             supp_region: int) -> dict[int, int]:
    db = engine.db
    part_lu = engine.build_lookup(
        "part", "p_partkey", payload=db.part["p_brand1"], mask=part_mask
    )
    supp_lu = engine.build_lookup(
        "supplier", "s_suppkey", mask=db.supplier["s_region"] == supp_region
    )
    date_lu = engine.build_lookup(
        "date", "d_datekey", payload=_year_code(db.date["d_year"])
    )
    p = engine.pipeline(name)
    suppkey = p.load("lo_suppkey")
    p.filter(p.probe(supp_lu, suppkey) != MISS)
    partkey = p.load("lo_partkey")
    brand = p.probe(part_lu, partkey)
    p.filter(brand != MISS)
    orderdate = p.load("lo_orderdate")
    year = p.probe(date_lu, orderdate)
    revenue = p.load("lo_revenue")
    codes = _group_code(p, year) * _BRANDS + _group_code(p, brand)
    result = p.group_sum(codes, revenue, _YEARS * _BRANDS)
    p.finish()
    return result


def q2_1(engine: CrystalEngine) -> dict[int, int]:
    """sum(lo_revenue) group by d_year, p_brand1
    where p_category = 'MFGR#12' and s_region = 'AMERICA'"""
    part_mask = engine.db.part["p_category"] == CATEGORY_MFGR12
    return _flight2(engine, "q2.1", part_mask, AMERICA)


def q2_2(engine: CrystalEngine) -> dict[int, int]:
    """... where p_brand1 between 'MFGR#2221' and 'MFGR#2228' and
    s_region = 'ASIA'"""
    brand = engine.db.part["p_brand1"]
    return _flight2(
        engine, "q2.2", (brand >= BRAND_2221) & (brand <= BRAND_2228), ASIA
    )


def q2_3(engine: CrystalEngine) -> dict[int, int]:
    """... where p_brand1 = 'MFGR#2239' and s_region = 'EUROPE'"""
    return _flight2(engine, "q2.3", engine.db.part["p_brand1"] == BRAND_2239, EUROPE)


# -- query flight 3: customer x supplier x date -----------------------------


def _flight3(engine: CrystalEngine, name: str,
             cust_payload: np.ndarray, cust_mask: np.ndarray,
             supp_payload: np.ndarray, supp_mask: np.ndarray,
             date_mask: np.ndarray, stride: int) -> dict[int, int]:
    db = engine.db
    cust_lu = engine.build_lookup(
        "customer", "c_custkey", payload=cust_payload, mask=cust_mask
    )
    supp_lu = engine.build_lookup(
        "supplier", "s_suppkey", payload=supp_payload, mask=supp_mask
    )
    date_lu = engine.build_lookup(
        "date", "d_datekey", payload=_year_code(db.date["d_year"]), mask=date_mask
    )
    p = engine.pipeline(name)
    p.filter_pushdown(_datekey_range(db, date_mask))
    custkey = p.load("lo_custkey")
    cgroup = p.probe(cust_lu, custkey)
    p.filter(cgroup != MISS)
    suppkey = p.load("lo_suppkey")
    sgroup = p.probe(supp_lu, suppkey)
    p.filter(sgroup != MISS)
    orderdate = p.load("lo_orderdate")
    year = p.probe(date_lu, orderdate)
    p.filter(year != MISS)
    revenue = p.load("lo_revenue")
    codes = (
        _group_code(p, cgroup) * stride + _group_code(p, sgroup)
    ) * _YEARS + _group_code(p, year)
    result = p.group_sum(codes, revenue, stride * stride * _YEARS)
    p.finish()
    return result


def q3_1(engine: CrystalEngine) -> dict[int, int]:
    """sum(lo_revenue) group by c_nation, s_nation, d_year
    where c_region = 'ASIA' and s_region = 'ASIA' and d_year in 1992..1997"""
    db = engine.db
    return _flight3(
        engine, "q3.1",
        db.customer["c_nation"], db.customer["c_region"] == ASIA,
        db.supplier["s_nation"], db.supplier["s_region"] == ASIA,
        (db.date["d_year"] >= 1992) & (db.date["d_year"] <= 1997),
        _NATIONS,
    )


def q3_2(engine: CrystalEngine) -> dict[int, int]:
    """group by c_city, s_city, d_year where both nations are
    'UNITED STATES' and d_year in 1992..1997"""
    db = engine.db
    return _flight3(
        engine, "q3.2",
        db.customer["c_city"], db.customer["c_nation"] == NATION_US,
        db.supplier["s_city"], db.supplier["s_nation"] == NATION_US,
        (db.date["d_year"] >= 1992) & (db.date["d_year"] <= 1997),
        _CITIES,
    )


def q3_3(engine: CrystalEngine) -> dict[int, int]:
    """... where both cities are in ('UNITED KI1', 'UNITED KI5')
    and d_year in 1992..1997"""
    db = engine.db
    city_ok_c = np.isin(db.customer["c_city"], (CITY_UK1, CITY_UK5))
    city_ok_s = np.isin(db.supplier["s_city"], (CITY_UK1, CITY_UK5))
    return _flight3(
        engine, "q3.3",
        db.customer["c_city"], city_ok_c,
        db.supplier["s_city"], city_ok_s,
        (db.date["d_year"] >= 1992) & (db.date["d_year"] <= 1997),
        _CITIES,
    )


def q3_4(engine: CrystalEngine) -> dict[int, int]:
    """... where both cities are in ('UNITED KI1', 'UNITED KI5')
    and d_yearmonth = 'Dec1997'"""
    db = engine.db
    city_ok_c = np.isin(db.customer["c_city"], (CITY_UK1, CITY_UK5))
    city_ok_s = np.isin(db.supplier["s_city"], (CITY_UK1, CITY_UK5))
    return _flight3(
        engine, "q3.4",
        db.customer["c_city"], city_ok_c,
        db.supplier["s_city"], city_ok_s,
        db.date["d_yearmonthnum"] == 199712,
        _CITIES,
    )


# -- query flight 4: all four dimensions, profit ----------------------------


def _load_profit(p, date_lu, cust_lu, supp_lu, part_lu):
    """The shared probe prologue of flight 4: returns the four payloads."""
    custkey = p.load("lo_custkey")
    cpay = p.probe(cust_lu, custkey)
    p.filter(cpay != MISS)
    suppkey = p.load("lo_suppkey")
    spay = p.probe(supp_lu, suppkey)
    p.filter(spay != MISS)
    partkey = p.load("lo_partkey")
    ppay = p.probe(part_lu, partkey)
    p.filter(ppay != MISS)
    orderdate = p.load("lo_orderdate")
    year = p.probe(date_lu, orderdate)
    p.filter(year != MISS)
    revenue = p.load("lo_revenue")
    supplycost = p.load("lo_supplycost")
    # Loads may decode into int32: widen before the subtraction.
    profit = p.live(revenue).astype(np.int64) - p.live(supplycost)
    return cpay, spay, ppay, year, profit


def q4_1(engine: CrystalEngine) -> dict[int, int]:
    """sum(lo_revenue - lo_supplycost) group by d_year, c_nation
    where c_region = s_region = 'AMERICA' and p_mfgr in ('MFGR#1','MFGR#2')"""
    db = engine.db
    cust_lu = engine.build_lookup(
        "customer", "c_custkey", payload=db.customer["c_nation"],
        mask=db.customer["c_region"] == AMERICA,
    )
    supp_lu = engine.build_lookup(
        "supplier", "s_suppkey", mask=db.supplier["s_region"] == AMERICA
    )
    part_lu = engine.build_lookup(
        "part", "p_partkey", mask=np.isin(db.part["p_mfgr"], (0, 1))
    )
    date_lu = engine.build_lookup(
        "date", "d_datekey", payload=_year_code(db.date["d_year"])
    )
    p = engine.pipeline("q4.1")
    cnation, _, _, year, profit = _load_profit(p, date_lu, cust_lu, supp_lu, part_lu)
    codes = _group_code(p, year) * _NATIONS + _group_code(p, cnation)
    result = p.group_sum(codes, profit, _YEARS * _NATIONS)
    p.finish()
    return result


def q4_2(engine: CrystalEngine) -> dict[int, int]:
    """group by d_year, s_nation, p_category where both regions are
    'AMERICA', d_year in (1997, 1998), p_mfgr in ('MFGR#1','MFGR#2')"""
    db = engine.db
    cust_lu = engine.build_lookup(
        "customer", "c_custkey", mask=db.customer["c_region"] == AMERICA
    )
    supp_lu = engine.build_lookup(
        "supplier", "s_suppkey", payload=db.supplier["s_nation"],
        mask=db.supplier["s_region"] == AMERICA,
    )
    part_lu = engine.build_lookup(
        "part", "p_partkey", payload=db.part["p_category"],
        mask=np.isin(db.part["p_mfgr"], (0, 1)),
    )
    date_mask = np.isin(db.date["d_year"], (1997, 1998))
    date_lu = engine.build_lookup(
        "date", "d_datekey", payload=_year_code(db.date["d_year"]),
        mask=date_mask,
    )
    p = engine.pipeline("q4.2")
    p.filter_pushdown(_datekey_range(db, date_mask))
    _, snation, category, year, profit = _load_profit(
        p, date_lu, cust_lu, supp_lu, part_lu
    )
    codes = (
        _group_code(p, year) * _NATIONS + _group_code(p, snation)
    ) * _CATEGORIES + _group_code(p, category)
    result = p.group_sum(codes, profit, _YEARS * _NATIONS * _CATEGORIES)
    p.finish()
    return result


def q4_3(engine: CrystalEngine) -> dict[int, int]:
    """group by d_year, s_city, p_brand1 where c_region = 'AMERICA',
    s_nation = 'UNITED STATES', d_year in (1997, 1998),
    p_category = 'MFGR#14'"""
    db = engine.db
    cust_lu = engine.build_lookup(
        "customer", "c_custkey", mask=db.customer["c_region"] == AMERICA
    )
    supp_lu = engine.build_lookup(
        "supplier", "s_suppkey", payload=db.supplier["s_city"],
        mask=db.supplier["s_nation"] == NATION_US,
    )
    part_lu = engine.build_lookup(
        "part", "p_partkey", payload=db.part["p_brand1"],
        mask=db.part["p_category"] == CATEGORY_MFGR14,
    )
    date_mask = np.isin(db.date["d_year"], (1997, 1998))
    date_lu = engine.build_lookup(
        "date", "d_datekey", payload=_year_code(db.date["d_year"]),
        mask=date_mask,
    )
    p = engine.pipeline("q4.3")
    p.filter_pushdown(_datekey_range(db, date_mask))
    _, scity, brand, year, profit = _load_profit(p, date_lu, cust_lu, supp_lu, part_lu)
    codes = (
        _group_code(p, year) * _CITIES + _group_code(p, scity)
    ) * _BRANDS + _group_code(p, brand)
    result = p.group_sum(codes, profit, _YEARS * _CITIES * _BRANDS)
    p.finish()
    return result


#: All 13 queries with the fact columns each touches.
QUERIES: dict[str, SSBQuery] = {
    q.name: q
    for q in (
        # Flight 1 ships as declarative scans (date joins reduced to
        # exact datekey ranges — see make_flight1): same answers, one
        # shared plan family for coalescing and partial reuse.
        # q1.1: d_year = 1993; q1.2: d_yearmonthnum = 199401;
        # q1.3: week 6 of 1994 = Feb 5-11 (day-of-year 36..42).
        make_flight1("q1.1", 19930101, 19931231, 1, 3, 0, 24),
        make_flight1("q1.2", 19940101, 19940131, 4, 6, 26, 35),
        make_flight1("q1.3", 19940205, 19940211, 5, 7, 36, 40),
        SSBQuery("q2.1", ("lo_suppkey", "lo_partkey", "lo_orderdate", "lo_revenue"), q2_1),
        SSBQuery("q2.2", ("lo_suppkey", "lo_partkey", "lo_orderdate", "lo_revenue"), q2_2),
        SSBQuery("q2.3", ("lo_suppkey", "lo_partkey", "lo_orderdate", "lo_revenue"), q2_3),
        SSBQuery("q3.1", ("lo_custkey", "lo_suppkey", "lo_orderdate", "lo_revenue"), q3_1),
        SSBQuery("q3.2", ("lo_custkey", "lo_suppkey", "lo_orderdate", "lo_revenue"), q3_2),
        SSBQuery("q3.3", ("lo_custkey", "lo_suppkey", "lo_orderdate", "lo_revenue"), q3_3),
        SSBQuery("q3.4", ("lo_custkey", "lo_suppkey", "lo_orderdate", "lo_revenue"), q3_4),
        SSBQuery("q4.1", ("lo_custkey", "lo_suppkey", "lo_partkey", "lo_orderdate", "lo_revenue", "lo_supplycost"), q4_1),
        SSBQuery("q4.2", ("lo_custkey", "lo_suppkey", "lo_partkey", "lo_orderdate", "lo_revenue", "lo_supplycost"), q4_2),
        SSBQuery("q4.3", ("lo_custkey", "lo_suppkey", "lo_partkey", "lo_orderdate", "lo_revenue", "lo_supplycost"), q4_3),
    )
}
