"""Pivot (crosstab): long (group, category) counts -> one wide row per group.

The reshape every reporting layer wants after a grouped count: one row per
group with one integer column per category.  The category set must be known
and small (it becomes the output schema — same constraint every SQL PIVOT
has); the GROUP side is unbounded.

Scale shape: counts pre-aggregate per block (each block emits at most
|groups-in-block| x |categories| tiny rows), one groupby-sum shuffle of
those rows, then the widening is a per-partition vectorized scatter — rows
never shuffle, and no per-group Python anywhere.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.numeric import run_starts
from .fold import keyed_exchange, partitioned_group_agg

__all__ = ["pivot_counts_pipeline"]


def pivot_counts_pipeline(
    ds,
    *,
    group_col: str,
    pivot_col: str,
    values,
    num_partitions: int = 16,
):
    """-> Dataset[(group_col, <v>: int64 for v in values)] - counts of each
    category per group.  Rows whose ``pivot_col`` is not in ``values`` are
    ignored (they would have no output column)."""
    values = list(values)
    vsorted = np.array(sorted(values))

    def project(t: pa.Table) -> pa.Table:
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        p = t.column(pivot_col).to_numpy(zero_copy_only=False)
        idx = np.searchsorted(vsorted, p)
        idx_c = np.minimum(idx, len(vsorted) - 1)
        keep = vsorted[idx_c] == p
        return pa.table(
            {
                "g": pa.array(g[keep].astype(str), pa.string()),
                "v": pa.array(idx_c[keep].astype(np.int64)),
            }
        )

    counted = partitioned_group_agg(
        ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
        ["g", "v"],
        [(None, "count")],
    )

    names = [str(v) for v in np.sort(np.array(values))]

    def widen(pt: pa.Table) -> pa.Table:
        g = pt.column("g").to_numpy(zero_copy_only=False)
        if not g.size:
            cols = {group_col: pa.array([], pa.string())}
            for nm in names:
                cols[nm] = pa.array([], pa.int64())
            return pa.table(cols)
        v = pt.column("v").to_numpy(zero_copy_only=False)
        n = pt.column("count()").to_numpy(zero_copy_only=False)
        order = np.argsort(g, kind="stable")
        g_s, v_s, n_s = g[order], v[order], n[order]
        new = run_starts(g_s)
        gid = np.cumsum(new) - 1
        wide = np.zeros((int(gid[-1]) + 1, len(names)), dtype=np.int64)
        wide[gid, v_s] = n_s
        cols = {group_col: pa.array(g_s[new].tolist(), pa.string())}
        for j, nm in enumerate(names):
            cols[nm] = pa.array(wide[:, j])
        return pa.table(cols)

    return keyed_exchange(counted, widen, keys="g", num_partitions=num_partitions)
