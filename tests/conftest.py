"""Shared fixtures: RNG, a small deterministic SSB database, and stores."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.crystal import SSBQuery
from repro.ssb.dbgen import generate
from repro.ssb.loader import load_lineorder


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def ssb_db():
    """A tiny but fully-formed SSB database (≈60k lineorder rows)."""
    return generate(scale_factor=0.01, seed=7)


@pytest.fixture(scope="session")
def gpu_star_store(ssb_db):
    return load_lineorder(ssb_db, "gpu-star")


@pytest.fixture(scope="session")
def none_store(ssb_db):
    return load_lineorder(ssb_db, "none")


@pytest.fixture
def run_plan():
    """Run ``body(p)`` as a one-pipeline query through ``engine.run``.

    Returns ``(result, pipelines)``: the :class:`QueryResult` and every
    pipeline ``body`` saw, in order — the plan pass's first, then the
    morsels' (one spanning the whole grid on a non-streaming engine,
    none when pushdown pruned every tile).  ``body`` runs once per
    pipeline, so it sizes its row arrays by ``p.n``; a dict it returns
    is the query's answer.
    """
    def run(engine, body):
        pipelines = []

        def fn(eng):
            p = eng.pipeline("t")
            pipelines.append(p)
            out = body(p)
            if not p._finished:
                p.finish()
            return out if isinstance(out, dict) else {}

        return engine.run(SSBQuery("t", (), fn)), pipelines

    return run
