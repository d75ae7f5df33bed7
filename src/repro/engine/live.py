"""Live-row columns: a column held only at the selection rows it was read at.

Once few rows of a pipeline's span are live, a load reads just those rows
(:meth:`~repro.formats.base.TileCodec.gather_rows`) and a probe looks up
just their keys.  Rather than scatter the values into an array as wide as
the span, the executor hands them back as a :class:`LiveColumn`: the
values together with the sorted selection rows they were taken at.
Selections only shrink, so the pipeline's current live rows are always a
subset of those rows, and :meth:`LiveColumn.at` re-aligns the values with
them by a search, never by a span-wide buffer.  This is the host's
counterpart of the paper's fused kernel, whose work in flight is sized by
the rows a tile keeps, in the spirit of Huang et al.'s operators that run
on a column at the rows they need.

Like :class:`~repro.engine.runs.RunColumn`, elementwise arithmetic and
comparisons with scalars (or with another column taken at the same rows)
stay in this form, so ``payload != MISS`` is one test per saved row.
Anything else sees the column through ``__array__``: its value at every
row of the span, with rows it was not read at reading 0.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LiveColumn"]


class LiveColumn(np.lib.mixins.NDArrayOperatorsMixin):
    """One column over a pipeline's span of ``n`` rows, at ``rows`` only.

    ``values[i]`` is the column's value at span row ``rows[i]``; ``rows``
    is the (sorted) selection the values were read at, kept by identity
    so a pipeline whose selection has not changed since takes the values
    as they are.
    """

    __slots__ = ("values", "rows", "n")

    def __init__(self, values: np.ndarray, rows: np.ndarray, n: int):
        self.values = values
        self.rows = rows
        self.n = int(n)

    @property
    def shape(self) -> tuple[int]:
        return (self.n,)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LiveColumn(live={self.rows.size}, rows={self.n})"

    def with_values(self, values: np.ndarray) -> LiveColumn:
        """The same rows holding ``values`` (one per row)."""
        return LiveColumn(values, self.rows, self.n)

    def same_rows(self, other) -> bool:
        """Whether ``other`` is a live-row column taken at these very rows."""
        return isinstance(other, LiveColumn) and other.rows is self.rows

    def at(self, rows: np.ndarray) -> np.ndarray:
        """The values at ``rows``, sorted span rows all among :attr:`rows`."""
        if rows is self.rows or rows.size == self.rows.size:
            return self.values
        return self.values.take(np.searchsorted(self.rows, rows))

    # -- the array protocol ------------------------------------------------------

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.zeros(self.n, dtype=self.values.dtype if dtype is None else dtype)
        out[self.rows] = self.values
        return out

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if (
            method == "__call__"
            and ufunc.nout == 1
            and not kwargs
            and all(np.isscalar(x) or self.same_rows(x) for x in inputs)
        ):
            return self.with_values(
                ufunc(*(x.values if isinstance(x, LiveColumn) else x for x in inputs))
            )
        if any(isinstance(x, LiveColumn) for x in kwargs.get("out", ())):
            return NotImplemented
        args = (
            np.asarray(x) if isinstance(x, np.lib.mixins.NDArrayOperatorsMixin) else x
            for x in inputs
        )
        return getattr(ufunc, method)(*args, **kwargs)
