"""E13 — Figure 12: GPU as a coprocessor (data shipped over PCIe).

One query per flight (q1.1, q2.1, q3.1, q4.1) with the fact columns
resident on the host: each query first transfers the columns it needs
over the 12.8 GB/s PCIe link, then decompresses/executes on the GPU.
Transfer time dominates, so the speedup of GPU-* over None approaches the
compression ratio of the shipped columns — the paper reports 2.3x.

:func:`run_link_sweep` re-prices the same queries over faster links
(PCIe 4/5, NVLink).  Execution time is link-independent, so only the
transfer term moves: the speedup decays from Figure 12's value at PCIe 3
toward the in-memory ratio (slightly *below* 1, None-vs-GPU-*) as the
link approaches memory bandwidth — compression's win in the coprocessor
regime is a slow-link phenomenon, the paper's framing read in reverse.
"""

from __future__ import annotations

from dataclasses import replace

from repro.engine.crystal import CrystalEngine
from repro.engine.ssb_queries import QUERIES
from repro.experiments.common import DEFAULT_SF, PAPER_SF, geomean, print_experiment
from repro.gpusim.executor import GPUDevice
from repro.gpusim.spec import V100, PCIeSpec
from repro.ssb.dbgen import SSBDatabase, generate
from repro.ssb.loader import load_lineorder

#: One query per SSB flight, as in the paper.
COPROCESSOR_QUERIES = ("q1.1", "q2.1", "q3.1", "q4.1")

#: Link generations the sweep re-prices Figure 12 over (GB/s); the first
#: is Figure 12's own link.
LINKS = {
    "PCIe3 x16": V100.pcie.bandwidth_gbps,
    "PCIe4 x16": 25.0,
    "PCIe5 x16": 50.0,
    "NVLink2": 150.0,
    "NVLink4": 450.0,
}

SYSTEMS = ("none", "gpu-star")


def _query_costs(db: SSBDatabase) -> dict[str, dict[str, tuple[int, float]]]:
    """``{query: {system: (shipped bytes, execution ms)}}`` at SF=20.

    Shipped bytes are projected to SF=20 directly: the PCIe model is
    linear with a fixed per-transfer latency.
    """
    project = PAPER_SF / db.scale_factor
    stores = {system: load_lineorder(db, system) for system in SYSTEMS}
    costs: dict[str, dict[str, tuple[int, float]]] = {}
    for qname in COPROCESSOR_QUERIES:
        query = QUERIES[qname]
        costs[qname] = {}
        for system, store in stores.items():
            shipped = int(sum(store[c].nbytes for c in query.columns) * project)
            result = CrystalEngine(db, store, GPUDevice()).run(query)
            costs[qname][system] = (shipped, result.scaled_ms(project))
    return costs


def _transfer_plus_execute(
    pcie: PCIeSpec, cost: tuple[int, float]
) -> tuple[float, float]:
    """``(total ms, transfer ms)`` of one query shipped over ``pcie``."""
    shipped, exec_ms = cost
    transfer_ms = pcie.transfer_ms(shipped)
    return transfer_ms + exec_ms, transfer_ms


def run(db: SSBDatabase | None = None, sf: float = DEFAULT_SF) -> list[dict]:
    """Transfer + execution time per query for None and GPU-*."""
    if db is None:
        db = generate(scale_factor=sf)
    rows = []
    for qname, by_system in _query_costs(db).items():
        row: dict = {"query": qname}
        for system, cost in by_system.items():
            total_ms, transfer_ms = _transfer_plus_execute(V100.pcie, cost)
            row[system] = total_ms
            row[f"{system} transfer"] = transfer_ms
        row["speedup"] = row["none"] / row["gpu-star"]
        rows.append(row)
    rows.append(
        {
            "query": "geomean",
            "none": geomean(r["none"] for r in rows),
            "gpu-star": geomean(r["gpu-star"] for r in rows),
            "speedup": geomean(r["speedup"] for r in rows),
        }
    )
    return rows


def run_link_sweep(db: SSBDatabase | None = None, sf: float = DEFAULT_SF) -> list[dict]:
    """Geomean coprocessor speedup (None/GPU-*) per link generation."""
    if db is None:
        db = generate(scale_factor=sf)
    costs = _query_costs(db)
    rows = []
    for link, gbps in LINKS.items():
        pcie = replace(V100.pcie, bandwidth_gbps=gbps)
        speedups = []
        for by_system in costs.values():
            none_ms, _ = _transfer_plus_execute(pcie, by_system["none"])
            star_ms, _ = _transfer_plus_execute(pcie, by_system["gpu-star"])
            speedups.append(none_ms / star_ms)
        rows.append({"link": link, "GBps": gbps, "speedup": geomean(speedups)})
    return rows


def main() -> None:
    db = generate(scale_factor=DEFAULT_SF)
    print_experiment(
        "E13: Figure 12 — coprocessor model (ms at SF=20; paper speedup 2.3x)",
        run(db=db),
        columns=["query", "none", "gpu-star", "speedup"],
    )
    print_experiment(
        "Figure 12 per link generation (the PCIe3 row is the geomean above)",
        run_link_sweep(db=db),
    )


if __name__ == "__main__":
    main()
