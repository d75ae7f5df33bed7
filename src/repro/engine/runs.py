"""Run columns: a fact column over a pipeline's span, held as runs.

This is the one form, besides a per-row array, in which the executor
hands a column to :class:`~repro.engine.crystal.FactPipeline`.

* GPU-RFOR stores each 512-value block as run values plus run lengths
  (paper Section 6), and a dense load of such a column comes back as
  runs of many rows: a filter tests each run once and keeps whole runs,
  a probe looks each run's key up once, and values are expanded only at
  the rows an operator needs (``live()``), in the spirit of Huang et
  al.'s SQL operators on RLE-encoded columns.
* A sparse load, which reads just the selection's rows
  (:meth:`~repro.formats.base.TileCodec.gather_rows`), and a probe under
  a selection come back as runs of one row each (``lengths is None``):
  the values with the sorted selection rows they were read at, so no
  buffer as wide as the span holds them.  This is the host's
  counterpart of the paper's fused kernel, whose work in flight is sized
  by the rows a tile keeps.  Selections only shrink, so the pipeline
  re-aligns such a column with its live rows by one search
  (:meth:`RunColumn.run_of`).

Elementwise arithmetic and comparisons with scalars (or with another
column over the same runs) stay on runs, so ``payload != MISS`` is one
test per run.  Anything else sees the column through ``__array__``: its
value at every row of the span, with rows no run covers reading 0, as
a pruned tile's rows do on the row routes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RunColumn"]


class RunColumn(np.lib.mixins.NDArrayOperatorsMixin):
    """One column over a pipeline's span of ``n`` rows, as runs.

    Run ``i`` holds ``values[i]`` at span rows ``starts[i]`` up to
    ``starts[i] + lengths[i]``; ``lengths=None`` means every run is one
    row, so ``starts`` are the rows the values were read at.  Runs ascend
    and never overlap; rows no run covers are dead in the pipeline's
    selection (their tile was pruned, or they were dead when the column
    was read), so their value is never read.
    """

    __slots__ = ("values", "starts", "n", "lengths", "_covered")

    def __init__(
        self,
        values: np.ndarray,
        starts: np.ndarray,
        n: int,
        lengths: np.ndarray | None = None,
    ):
        self.values = values
        self.starts = starts
        self.n = int(n)
        self.lengths = lengths
        self._covered = starts.size if lengths is None else None

    @property
    def shape(self) -> tuple[int]:
        return (self.n,)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunColumn(runs={self.values.size}, rows={self.n})"

    def with_values(self, values: np.ndarray) -> RunColumn:
        """The same runs holding ``values`` (one per run)."""
        out = RunColumn(values, self.starts, self.n, self.lengths)
        out._covered = self._covered
        return out

    def same_runs(self, other) -> bool:
        """Whether ``other`` is a run column over these very runs."""
        return isinstance(other, RunColumn) and other.starts is self.starts

    @property
    def covered(self) -> int:
        """How many rows of the span the runs cover."""
        if self._covered is None:
            self._covered = int(self.lengths.sum())
        return self._covered

    @property
    def covers_span(self) -> bool:
        """Whether the runs cover every row of the span, with no gap (runs
        never overlap, so covering ``n`` rows is covering them all)."""
        return self.covered == self.n

    def expand(self) -> np.ndarray:
        """The value at every row of the span (0 where no run covers it)."""
        if self.lengths is None:
            values = self.values
        elif self.covers_span:
            return np.repeat(self.values, self.lengths)
        else:
            values = np.repeat(self.values, self.lengths)
        out = np.zeros(self.n, dtype=self.values.dtype)
        out[self.rows_of()] = values
        return out

    def rows_of(self, runs: np.ndarray | None = None) -> np.ndarray:
        """The sorted span rows of ``runs`` (ascending run indices; every
        run when ``None``): each run becomes a range of rows."""
        if self.lengths is None:
            return self.starts if runs is None else self.starts.take(runs)
        starts, lengths = self.starts, self.lengths
        if runs is not None:
            starts, lengths = starts.take(runs), lengths.take(runs)
        if 2 * int(lengths.sum()) <= self.n:
            return _row_ranges(starts, lengths)
        # Most rows are kept: clear the gaps between the runs from a full
        # mask, which costs far less per row than building the ranges.
        gap_starts = np.concatenate(([0], starts + lengths))
        gap_lengths = np.concatenate((starts, [self.n])) - gap_starts
        gaps = np.flatnonzero(gap_lengths)
        mask = np.ones(self.n, dtype=bool)
        mask[_row_ranges(gap_starts.take(gaps), gap_lengths.take(gaps))] = False
        return np.flatnonzero(mask)

    def run_of(self, rows: np.ndarray) -> np.ndarray:
        """The run each of the sorted ``rows`` falls in (every row must be
        covered by a run)."""
        if self.lengths is None:
            return np.searchsorted(self.starts, rows)
        if 8 * rows.size < self.n or not self.covers_span:
            return np.searchsorted(self.starts, rows, side="right") - 1
        return np.repeat(np.arange(self.values.size), self.lengths)[rows]

    # -- the array protocol ------------------------------------------------------

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        values = self.expand()
        return values if dtype is None else values.astype(dtype, copy=False)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if (
            method == "__call__"
            and ufunc.nout == 1
            and not kwargs
            and all(np.isscalar(x) or self.same_runs(x) for x in inputs)
        ):
            return self.with_values(
                ufunc(*(x.values if isinstance(x, RunColumn) else x for x in inputs))
            )
        if any(isinstance(x, RunColumn) for x in kwargs.get("out", ())):
            return NotImplemented
        args = (
            np.asarray(x) if isinstance(x, np.lib.mixins.NDArrayOperatorsMixin) else x
            for x in inputs
        )
        return getattr(ufunc, method)(*args, **kwargs)


def _row_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Rows ``starts[i] .. starts[i] + lengths[i]`` of every range, in
    order (ascending, disjoint ranges of at least one row)."""
    if starts.size == 0:
        return np.zeros(0, dtype=np.int64)
    # Consecutive rows step by one, except at each range's first row,
    # which steps from the previous range's last row to the range's start.
    ends = np.cumsum(lengths)
    step = np.ones(int(ends[-1]), dtype=np.int64)
    step[0] = starts[0]
    step[(ends - lengths)[1:]] = starts[1:] - (starts[:-1] + lengths[:-1]) + 1
    return np.cumsum(step, out=step)
