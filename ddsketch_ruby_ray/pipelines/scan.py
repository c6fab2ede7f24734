"""Global (un-keyed) ordered prefix scan + interval-sweep concurrency.

Every other ordered operator in this engine is per-key (windows.py
partitions by the key, so a partition owns whole keys).  A GLOBAL running
sum — "how many sessions are open right now", backlog over time, inventory
level — has no key to partition by, which is exactly the shape Ray Data's
Dataset API cannot express and a naive implementation serializes on the
driver.  This is the classic two-phase distributed scan (Blelloch):

  1. RANGE-partition by the order column into P = ``fold._PARTITIONS``
     ranges: one exact min/max aggregate, then uniform integer cut points.
     Boundaries only affect balance, never the result, so uniform cuts are
     safe even under time skew (a hot partition costs sort time, not
     correctness).
  2. per-partition totals: a block-level vectorized pre-aggregate so the
     driver sees O(P) scalars, whose exclusive cumsum is the per-partition
     offset (the KB-sized broadcast).
  3. per-partition lexsort + local cumsum + offset — every row's global
     prefix value, no cross-partition row movement beyond the range
     exchange itself.

Tie convention: rows sharing the order value sort by delta DESCENDING
(+1 before -1), the inclusive-interval sweep convention: a session ending
exactly when another starts overlaps it.  Rows identical in (order, delta)
are interchangeable, so the OUTPUT MULTISET is deterministic and the SQL
mirror is ``sum(delta) OVER (ORDER BY o, delta DESC ROWS UNBOUNDED
PRECEDING)``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.numeric import run_starts
from . import fold
from .fold import keyed_exchange, partitioned_group_sum

__all__ = [
    "global_ordered_scan_pipeline",
    "session_intervals_pipeline",
    "concurrency_sweep_pipeline",
]


def global_ordered_scan_pipeline(
    ds,
    *,
    order_col: str,
    delta_col: str,
    out_col: str = "cum",
):
    """-> Dataset[(order_col, delta_col, out_col)] — the global running sum
    of ``delta_col`` in (order ASC, delta DESC) order.  Both columns must be
    int64."""
    from ray.data.aggregate import Max, Min

    stats = ds.aggregate(Min(order_col), Max(order_col))  # two scalars
    lo, hi = stats[f"min({order_col})"], stats[f"max({order_col})"]
    empty = pa.table(
        {
            order_col: pa.array([], pa.int64()),
            delta_col: pa.array([], pa.int64()),
            out_col: pa.array([], pa.int64()),
        }
    )
    if lo is None:
        import ray.data as rd

        return rd.from_arrow(empty)
    span = int(hi) - int(lo) + 1
    P = fold._PARTITIONS
    cuts = np.array([int(lo) + (k * span) // P for k in range(1, P)], dtype=np.int64)

    def range_cut(t: pa.Table) -> pa.Table:
        """Pre-tag ``_part`` by ORDER range (not a key hash): partition p
        holds the p-th slice of the order domain, so offsets chain."""
        v = t.column(order_col).to_numpy(zero_copy_only=False)
        part = np.searchsorted(cuts, v, side="right").astype(np.int32)
        return pa.table(
            {
                "_part": pa.array(part),
                order_col: t.column(order_col).cast(pa.int64()),
                delta_col: t.column(delta_col).cast(pa.int64()),
            }
        )

    parted = ds.map_batches(range_cut, batch_format="pyarrow", zero_copy_batch=True)

    # phase 2: per-partition delta totals — O(P) scalars reach
    # the driver regardless of row count
    ranges = parted.map_batches(
        lambda t: pa.table({"p": t.column("_part"), "d": t.column(delta_col)}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    sums = np.zeros(P, dtype=np.int64)
    for r in partitioned_group_sum(ranges, "p", "d").take_all():  # <= P rows
        sums[r["p"]] = r["sum(d)"]
    offsets = np.concatenate([[0], np.cumsum(sums)[:-1]])

    def per_partition(pt: pa.Table) -> pa.Table:
        part = int(pt.column("_part")[0].as_py())
        v = pt.column(order_col).to_numpy(zero_copy_only=False)
        d = pt.column(delta_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((-d, v))
        cum = np.cumsum(d[order]) + offsets[part]
        return pa.table(
            {
                order_col: pa.array(v[order]),
                delta_col: pa.array(d[order]),
                out_col: pa.array(cum),
            }
        )

    return keyed_exchange(parted, per_partition, num_partitions=P)


def session_intervals_pipeline(
    ds,
    *,
    key_col: str,
    ts_col: str,
    gap_s: int = 1800,
):
    """-> Dataset[(key, start_us, end_us)] — one row per gap-based session
    (same session rule as windows.py::sessionize_pipeline, integer µs)."""
    gap_us = int(gap_s) * 1_000_000

    def project(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({key_col: pa.array(keys), "_us": t.column(ts_col).cast(pa.int64())})

    projected = ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)

    def per_partition(pt: pa.Table) -> pa.Table:
        keys = pt.column(key_col).to_numpy(zero_copy_only=False)
        us = pt.column("_us").to_numpy(zero_copy_only=False)
        if not keys.size:
            return pa.table(
                {
                    key_col: pa.array([], pa.int64()),
                    "start_us": pa.array([], pa.int64()),
                    "end_us": pa.array([], pa.int64()),
                }
            )
        order = np.lexsort((us, keys))
        k_s, u_s = keys[order], us[order]
        n = k_s.size
        new_sess = run_starts(k_s)
        new_sess[1:] |= (u_s[1:] - u_s[:-1]) > gap_us
        starts = np.flatnonzero(new_sess)
        ends = np.append(starts[1:], n) - 1
        return pa.table(
            {
                key_col: pa.array(k_s[starts]),
                "start_us": pa.array(u_s[starts]),
                "end_us": pa.array(u_s[ends]),
            }
        )

    return keyed_exchange(projected, per_partition, keys=key_col)


def concurrency_sweep_pipeline(
    intervals,
    *,
    start_col: str = "start_us",
    end_col: str = "end_us",
):
    """-> Dataset[(us, delta, concurrency)] — the interval-overlap timeline:
    +1 at each start, −1 at each end (inclusive ends: a start ties before an
    end at the same instant), globally scanned."""

    def sweep(t: pa.Table) -> pa.Table:
        s = t.column(start_col).to_numpy(zero_copy_only=False).astype(np.int64)
        e = t.column(end_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "us": pa.array(np.concatenate([s, e])),
                "delta": pa.array(
                    np.concatenate(
                        [np.ones(s.size, np.int64), -np.ones(e.size, np.int64)]
                    )
                ),
            }
        )

    events = intervals.map_batches(sweep, batch_format="pyarrow", zero_copy_batch=True)
    return global_ordered_scan_pipeline(
        events,
        order_col="us",
        delta_col="delta",
        out_col="concurrency",
    )
