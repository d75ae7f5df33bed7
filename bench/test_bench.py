"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench -q

Workloads run in ``--smoke`` mode (SF 0.01, about two seconds each).
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bench import run, workloads
from bench.oracle import Oracle
from bench.trace import Tracer
from repro.serving.scheduler import QueryServer, ServerSaturated
from repro.ssb.dbgen import generate

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_cli(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke_lines() -> dict[tuple[str, int], dict]:
    """The last output line of every workload, untraced and traced."""
    lines = {}
    for workload, trace in itertools.product(workloads.WORKLOADS, (0, 1)):
        proc = run_cli("--workload", workload, "--smoke", "--trace", str(trace))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return lines


def test_every_declared_metric_is_emitted_with_its_unit(smoke_lines):
    for (workload, trace), line in smoke_lines.items():
        declared = SPEC["per_layer" if trace else "end_to_end"]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0, workload
        assert [m["name"] for m in declared] == list(line["metrics"]), workload
        for m in declared:
            emitted = line["metrics"][m["name"]]
            assert emitted["unit"] == m["unit"], (workload, m["name"])
            assert isinstance(emitted["value"], (int, float)), (workload, m["name"])


def test_every_name_and_unit_is_well_formed(smoke_lines):
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    for section in ("end_to_end", "per_layer"):
        names += [m["name"] for m in SPEC[section]]
        assert all(UNIT.fullmatch(m["unit"]) for m in SPEC[section])
    for line in smoke_lines.values():
        names += list(line["metrics"])
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len({w["name"] for w in SPEC["workloads"]}) == len(SPEC["workloads"])


def test_a_wrong_expected_answer_fails_the_run(monkeypatch, capsys):
    answer = Oracle.answer

    def off_by_one(self, spec):
        return {code: value + 1 for code, value in answer(self, spec).items()}

    monkeypatch.setattr(Oracle, "answer", off_by_one)
    code = run.main(["--child", "--workload", "scan-cold", "--smoke"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False


def test_a_refused_submit_counts_in_failed_frac_and_fails_the_run(monkeypatch, capsys):
    submit, calls = QueryServer.submit, itertools.count()

    def flaky(self, request, block_s=None):
        if next(calls) % 5 == 4:
            raise ServerSaturated("refused by the test")
        return submit(self, request, block_s)

    monkeypatch.setattr(QueryServer, "submit", flaky)
    code = run.main(["--child", "--workload", "serve-dashboard", "--smoke"])
    out = capsys.readouterr().out.strip().splitlines()
    record_path = next(line.split()[-1] for line in out if line.startswith("  record: "))
    record = json.loads((REPO / record_path).read_text())
    assert code != 0
    assert record["correct"] is True
    assert record["failed"] > 0
    assert record["metrics"]["failed_frac"]["value"] == pytest.approx(
        record["failed"] / record["attempted"]
    )


def test_a_failed_query_is_not_counted_as_an_op(monkeypatch):
    from repro.engine.crystal import CrystalEngine

    engine_run, calls = CrystalEngine.run, itertools.count()
    setup_queries = len(workloads.SSB_SPECS)

    def flaky(self, query, *args, **kwargs):
        # The smoke set-up runs every flight once; fail only timed queries.
        call = next(calls)
        if call >= setup_queries and call % 3 == 0:
            raise RuntimeError("failed by the test")
        return engine_run(self, query, *args, **kwargs)

    monkeypatch.setattr(CrystalEngine, "run", flaky)
    record = workloads.run_workload("scan-cold", 0, 1.0, False, True)
    queries = record["metrics"]["query_p50_ms"]["samples"]
    assert record["failed"] > 0
    assert record["metrics"]["ops_per_s"]["samples"] == queries


def test_every_seed_gets_the_same_row_count_and_balanced_decks():
    sizes = {workloads.dataset(0.01, seed).num_lineorder_rows for seed in (1, 2, 3)}
    assert sizes == {round(0.01 * workloads.ROWS_PER_SF)}
    picks = workloads.deck(np.random.default_rng(0), 7, 30)
    assert sorted(np.bincount(picks, minlength=7)) == [4] * 5 + [5] * 2


def test_oracle_answers_follow_updates():
    db = generate(0.01, 3)
    spec = workloads.panel_specs()[5]
    flight = workloads.SSB_SPECS["q4.1"]
    updated = Oracle(db)
    before = updated.answer(spec), updated.answer(flight)
    rng = np.random.default_rng(0)
    rows = rng.choice(db.num_lineorder_rows, 2000, replace=False)
    for column in ("lo_extendedprice", "lo_revenue"):
        values = rng.integers(1, 10_000, rows.size)
        updated.apply(column, rows, values)
        db.lineorder[column] = db.lineorder[column].copy()
        db.lineorder[column][rows] = values
    fresh = Oracle(db)
    after = updated.answer(spec), updated.answer(flight)
    assert after == (fresh.answer(spec), fresh.answer(flight))
    assert after != before


def test_tracer_uninstall_restores_every_entry_point():
    from repro.engine.crystal import CrystalEngine, FactPipeline
    from repro.formats import kernels
    from repro.serving import scheduler

    targets = [
        (CrystalEngine, "run"), (FactPipeline, "load"),
        (scheduler, "gather"), (kernels.get_backend(), "unpack"),
    ]
    before = [getattr(owner, attr) for owner, attr in targets]
    tracer = Tracer()
    tracer.install()
    assert all(getattr(o, a) != b for (o, a), b in zip(targets, before))
    tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in targets] == before
    assert "unpack" not in vars(kernels.get_backend())


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_cli("--workload", "scan-cold", "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
