"""Exact distribution-shape economics: apportionment + Gini coefficient.

Two curation-adjacent primitives that stay in EXACT integer arithmetic end
to end:

* :func:`largest_remainder_quota_pipeline` — Hamilton/largest-remainder
  apportionment of a fixed sample budget K across groups proportionally
  to their sizes: base_h = (K·n_h) // N, and the K − Σbase leftover seats
  go to the largest remainders (K·n_h mod N, ties → smaller group key).
  The integer-ratio form never touches a float, so quotas are identical
  on every layout — the deterministic version of "sample 1000 docs
  proportionally by language".

* :func:`gini_pipeline` — the Gini inequality coefficient of a
  non-negative integer-valued column via the sorted-rank identity
  G = (2·Σ i·x_(i) − (N+1)·Σx) / (N·Σx) (1-based ranks; tie order does
  not affect the sum, so it is deterministic).  Distributed shape: a
  hash-partitioned distinct-VALUE count fold (the shuffle carries one
  row per distinct value per block), then the KB-ish (value, count)
  table collects and the driver accumulates Σ i·x exactly in python ints
  — i·x overflows int64 at corpus scale, the counts table is
  dimension-sized (distinct values), and one float divide ends it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.numeric import run_starts
from .fold import keyed_exchange, partitioned_group_agg

__all__ = [
    "largest_remainder_quota_pipeline",
    "gini_pipeline",
    "grouped_value_gini_pipeline",
]


def largest_remainder_quota_pipeline(ds, *, group_col: str, budget: int):
    """-> Dataset[(group_col, n, quota)] with Σ quota == budget (when any
    rows exist); quotas proportional to group sizes by Hamilton's method."""
    import ray.data as rd

    # one row per group
    rows = partitioned_group_agg(ds, group_col, [(None, "count")]).take_all()
    groups = sorted(r[group_col] for r in rows)
    n_by_g = {r[group_col]: int(r["count()"]) for r in rows}
    total = sum(n_by_g.values())
    out = {"g": [], "n": [], "quota": []}
    if total:
        base = {g: (budget * n_by_g[g]) // total for g in groups}
        rem = {g: (budget * n_by_g[g]) % total for g in groups}
        left = budget - sum(base.values())
        # leftover seats: largest remainder first, ties to the SMALLER key
        for g in sorted(groups, key=lambda g: (-rem[g], g))[:left]:
            base[g] += 1
        for g in groups:
            out["g"].append(g)
            out["n"].append(n_by_g[g])
            out["quota"].append(base[g])
    return rd.from_arrow(
        pa.table(
            {
                group_col: pa.array(out["g"]),
                "n": pa.array(out["n"], pa.int64()),
                "quota": pa.array(out["quota"], pa.int64()),
            }
        )
    )


def gini_pipeline(ds, *, value_col: str):
    """-> Dataset[(n, total, gini)] — one row; ``value_col`` must be
    non-negative integers (quantize currency upstream)."""
    import ray.data as rd

    def partials(t: pa.Table) -> pa.Table:
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        vals, cnt = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(vals), "c": pa.array(cnt.astype(np.int64))})

    def fold(g: pa.Table) -> pa.Table:
        v = g.column("v").to_numpy(zero_copy_only=False)
        c = g.column("c").to_numpy(zero_copy_only=False)
        order = np.argsort(v, kind="stable")
        v_s, c_s = v[order], c[order]
        new = run_starts(v_s)
        starts = np.flatnonzero(new)
        return pa.table(
            {
                "v": pa.array(v_s[starts]),
                "c": pa.array(np.add.reduceat(c_s, starts)),
            }
        )

    table = keyed_exchange(
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True),
        fold,
        keys="v",
    ).take_all()  # one row per DISTINCT value
    pairs = sorted((int(r["v"]), int(r["c"])) for r in table)
    n = sum(c for _, c in pairs)
    total = sum(v * c for v, c in pairs)
    if n == 0 or total == 0:
        gini = 0.0
    else:
        # Σ i·x_(i) over 1-based ranks, run-length form — python ints: the
        # rank·value products overflow int64 at corpus scale
        s_ix = 0
        cum = 0
        for v, c in pairs:
            # ranks cum+1 .. cum+c all hold value v
            s_ix += v * (c * cum + c * (c + 1) // 2)
            cum += c
        num = 2 * s_ix - (n + 1) * total
        gini = float(num) / float(n * total)
    return rd.from_arrow(
        pa.table(
            {
                "n": pa.array([n], pa.int64()),
                "total": pa.array([total], pa.int64()),
                "gini": pa.array([gini], pa.float64()),
            }
        )
    )


def grouped_value_gini_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
):
    """-> Dataset[(group, n, total, gini)] — the per-GROUP Gini inequality
    coefficient of a non-negative INTEGER value column (the grouped
    sibling of :func:`gini_pipeline`; gini = (2·Σi·x_(i) − (n+1)·Σx) /
    (n·Σx) over 1-based sorted ranks, run-length form).

    Scale shape: per-block (group, value, count) partials → ONE
    hash(group) keyed fold co-locates each group's distinct-value table →
    per-partition vectorized sorted scan; the rank·value products exceed
    int64 at corpus scale, so they ride the umul128 16-bit limb lanes
    (pipelines/stats.py) and reassemble in Python ints per group.  The
    shuffle carries the DISTINCT-value table, not rows.  Splitting a
    value's count across block partials leaves the rank sum invariant
    (within-ties rank assignment is arbitrary), so partials need no
    re-merge.  Gates loudly at group size ≥ 4e9 (uint64 rank weights).
    Both output ints are exact; ``gini`` is one float division, mirrored
    in SQL."""

    def partials(t: pa.Table) -> pa.Table:
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if v.size and int(v.min()) < 0:
            raise ValueError("grouped_value_gini_pipeline: negative values")
        order = np.lexsort((v, g))
        g_s, v_s = g[order], v[order]
        new = run_starts(g_s, v_s)
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, g_s.size)).astype(np.int64)
        return pa.table(
            {
                "g": pa.array(g_s[starts].tolist()),
                "v": pa.array(v_s[starts]),
                "c": pa.array(lens),
            }
        )

    from .stats import _limb_cols, _umul128

    def fold(pt: pa.Table) -> pa.Table:
        g = pt.column("g").to_numpy(zero_copy_only=False)
        v = pt.column("v").to_numpy(zero_copy_only=False)
        c = pt.column("c").to_numpy(zero_copy_only=False)
        order = np.lexsort((v, g))
        g, v, c = g[order], v[order], c[order]
        rows = len(g)
        if rows == 0:
            return pa.table(
                {
                    group_col: pa.array([]),
                    "n": pa.array([], pa.int64()),
                    "total": pa.array([], pa.int64()),
                    "gini": pa.array([], pa.float64()),
                }
            )
        new = run_starts(g)
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, rows))
        cumc = np.cumsum(c)
        excl = cumc - c
        cum_in_g = excl - np.repeat(excl[starts], lens)
        n_g = np.add.reduceat(c, starts)
        if int(n_g.max()) >= 4_000_000_000:
            raise OverflowError(
                "grouped_value_gini_pipeline: group size >= 4e9 would "
                "overflow the uint64 rank weights"
            )
        cu = c.astype(np.uint64)
        # weight of a run = Σ of the ranks it occupies = c·cum_before + c(c+1)/2
        w = cu * cum_in_g.astype(np.uint64) + cu * (cu + np.uint64(1)) // np.uint64(2)
        vu = v.astype(np.uint64)
        six = _limb_cols("six", *_umul128(vu, w), starts, 8)
        tot = _limb_cols("tot", *_umul128(vu, cu), starts, 8)
        out_g, out_n, out_t, out_gini = [], [], [], []
        for i in range(starts.size):  # one iteration per GROUP, not per value
            s_ix = sum(int(six[f"six_{k}"][i]) << (16 * k) for k in range(8))
            total = sum(int(tot[f"tot_{k}"][i]) << (16 * k) for k in range(8))
            n = int(n_g[i])
            gini = (
                float(2 * s_ix - (n + 1) * total) / float(n * total)
                if n > 0 and total > 0
                else 0.0
            )
            out_g.append(g[starts[i]])
            out_n.append(n)
            out_t.append(total)
            out_gini.append(gini)
        return pa.table(
            {
                group_col: pa.array(out_g),
                "n": pa.array(out_n, pa.int64()),
                "total": pa.array(out_t, pa.int64()),
                "gini": pa.array(out_gini, pa.float64()),
            }
        )

    return keyed_exchange(
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True),
        fold,
        keys="g",
    )
