"""Golden simulated time, kernel count and answer of every SSB flight.

Pins ``repr(simulated_ms)``, ``kernel_count`` and a digest of the sorted
``groups`` for the 13 hand flights on all six storage systems and the 13
compiled specs on GPU-*, on the ``ssb_db`` fixture.  Every fused query
runs through one executor, so this file is the reference any change to
the engine's execution, pricing or load paths is held to: a cost-model or
plan change that moves one simulated bit fails here with the cell named.

Regenerate intentionally with::

    REPRO_UPDATE_SNAPSHOTS=1 PYTHONPATH=src python -m pytest tests/test_ssb_sim_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.engine.crystal import CrystalEngine
from repro.engine.ssb_queries import QUERIES
from repro.query.compiler import QueryCompiler
from repro.query.ssb import SSB_SPECS, ssb_model
from repro.ssb.loader import SYSTEMS, load_lineorder

SNAPSHOT = Path(__file__).parent / "snapshots" / "ssb_sim_golden.json"
UPDATE = os.environ.get("REPRO_UPDATE_SNAPSHOTS") == "1"


def _digest(groups: dict[int, int]) -> str:
    rows = sorted((int(k), int(v)) for k, v in groups.items())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def _cell(result) -> dict:
    return {
        "simulated_ms": repr(result.simulated_ms),
        "kernel_count": result.kernel_count,
        "groups": _digest(result.groups),
    }


@pytest.fixture(scope="module")
def measured(ssb_db) -> dict[str, dict]:
    cells = {}
    for system in SYSTEMS:
        store = load_lineorder(ssb_db, system)
        for name, query in QUERIES.items():
            cells[f"{system}/{name}"] = _cell(CrystalEngine(ssb_db, store).run(query))
        if system == "gpu-star":
            compiler = QueryCompiler(ssb_model(), ssb_db, store=store)
            for name, spec in SSB_SPECS.items():
                query = compiler.compile(spec)
                cells[f"compiled/{name}"] = _cell(CrystalEngine(ssb_db, store).run(query))
    return cells


def test_every_flight_matches_golden(measured):
    rendered = json.dumps(measured, indent=2, sort_keys=True) + "\n"
    if UPDATE or not SNAPSHOT.exists():
        SNAPSHOT.write_text(rendered, encoding="utf-8")
        if not UPDATE:
            pytest.fail(f"{SNAPSHOT.name} did not exist and was created; commit it")
        return
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    assert sorted(measured) == sorted(expected)
    changed = {
        cell: (expected[cell], got)
        for cell, got in measured.items()
        if got != expected[cell]
    }
    assert not changed, f"{len(changed)} cells moved: {changed}"
    assert rendered == SNAPSHOT.read_text(encoding="utf-8")
