"""Pareto frontier (2-D skyline): minimize one column, maximize another.

The multi-objective "best tradeoffs" operator (Börzsönyi et al., ICDE'01
block-nested-loop skyline, re-expressed distributed): a row survives iff
no other row is at least as good on BOTH dimensions and strictly better
on one.  Equal (x, y) twins do not dominate each other — all copies of an
undominated point survive, which keeps the semantics a pure row filter
and the SQL mirror a window-function pass.

Distributed plan — the classic two-level skyline:

  1. per-block LOCAL skyline (vectorized: one lexsort by x, per-x-group
     max of y, exclusive running max across groups; dominated iff a
     strictly-cheaper group reaches y, or the same-price group strictly
     exceeds y).  Dominance is transitive, so a row dominated inside any
     block is never a global answer, and its dominator only falls out of
     the local skyline to a row that also dominates the loser — local
     pruning is lossless.
  2. the survivors (sub-linear in practice: O(log^d n)-ish for
     independent dimensions) repartition(1) and the SAME kernel runs once
     more — the merge never touches the driver and ships only frontier
     candidates, not the table.

No arithmetic is performed on the values (comparisons only), so float
columns mirror bit-exactly in SQL.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.numeric import run_starts

__all__ = ["skyline_pipeline"]


def _local_skyline(t: pa.Table, min_col: str, max_col: str) -> pa.Table:
    if t.num_rows == 0:
        return t
    x = t.column(min_col).to_numpy(zero_copy_only=False)
    y = t.column(max_col).to_numpy(zero_copy_only=False)
    if y.dtype.kind in "mM":  # datetime64/timedelta64: order-preserving view
        y = y.view(np.int64)
    order = np.lexsort((y, x))
    x_s, y_s = x[order], y[order]
    n = x_s.size
    new = run_starts(x_s)
    starts = np.flatnonzero(new)
    seg = np.cumsum(new) - 1
    gmax = np.maximum.reduceat(y_s, starts)
    amax = np.empty_like(gmax)
    if gmax.dtype.kind == "f":
        lowest = -np.inf
    else:
        lowest = np.iinfo(gmax.dtype).min
    amax[0] = lowest
    if gmax.size > 1:
        amax[1:] = np.maximum.accumulate(gmax[:-1])
    dominated = (amax[seg] >= y_s) | (gmax[seg] > y_s)
    keep = np.empty(n, dtype=bool)
    keep[order] = ~dominated
    return t.filter(pa.array(keep))


def skyline_pipeline(ds, *, minimize_col: str, maximize_col: str):
    """-> Dataset of the rows on the Pareto frontier (all columns kept):
    no other row has ``minimize_col`` <= AND ``maximize_col`` >= with one
    strict."""

    local = ds.map_batches(
        lambda t: _local_skyline(t, minimize_col, maximize_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    # frontier candidates only — KB-scale — meet in one partition for the
    # final exact pass (same kernel; never the driver)
    return local.repartition(1).map_batches(
        lambda t: _local_skyline(t, minimize_col, maximize_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
