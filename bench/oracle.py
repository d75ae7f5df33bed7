"""Expected answers from the repository's naive numpy oracle.

:func:`tests/query_oracle.evaluate` scans the raw uncompressed arrays with
plain masks and ``np.bincount``; none of the engine's codecs, pushdown,
pipelines or caches are involved.  Every spec is evaluated over the whole
current fact table; answers are cached until the next update.
"""

from __future__ import annotations

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.query.model import Query
from repro.query.ssb import ssb_model
from repro.ssb.dbgen import SSBDatabase

_ORACLE_PATH = Path(__file__).resolve().parent.parent / "tests" / "query_oracle.py"


def _load_evaluate():
    spec = importlib.util.spec_from_file_location("query_oracle", _ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.evaluate


evaluate = _load_evaluate()


class Oracle:
    """Answers specs over the raw fact table, kept in step with every
    update the benchmark applies through :meth:`apply`."""

    def __init__(self, db: SSBDatabase):
        self.model = ssb_model()
        # Columns are copied on their first update, never before.
        self.db = replace(db, lineorder=dict(db.lineorder))
        self._copied: set[str] = set()
        self._answers: dict[tuple, dict[int, int]] = {}

    def column(self, name: str) -> np.ndarray:
        """The current raw values of one fact column (do not mutate)."""
        return self.db.lineorder[name]

    def apply(self, column: str, rows: np.ndarray, values: np.ndarray) -> None:
        """Update ``rows`` of ``column`` to ``values``."""
        fact = self.db.lineorder
        if column not in self._copied:
            fact[column] = fact[column].copy()
            self._copied.add(column)
        fact[column][rows] = values
        self._answers.clear()

    def answer(self, spec: Query) -> dict[int, int]:
        """The engine-convention answer of ``spec`` on the current data."""
        key = spec.spec_key()
        if key not in self._answers:
            self._answers[key] = evaluate(self.model, self.db, spec)
        return self._answers[key]
