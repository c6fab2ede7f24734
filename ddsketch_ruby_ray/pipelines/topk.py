"""Per-group top-k: grouped heavy hitters without per-group Python.

Ray Data's ``sort().limit()`` gives a GLOBAL top-k; per-group top-k (top
tokens per language, top products per region, ...) needs a rank within each
group.  The scale shape mirrors `pipelines/windows.py` sessionization:

  1. candidate rows co-locate by ``hash(group) % P`` - one
     shuffle of the (already pre-aggregated) candidate rows, never raw data;
  2. inside each partition ONE lexsort (group, -value, tiebreak) plus a
     boundary cummax computes every group's rank vector; rows with
     rank >= k are dropped.

Works on any candidate table (group, item, value).  Determinism: ties on
the value order by the tiebreak column ascending, mirroring SQL's
``row_number() OVER (PARTITION BY g ORDER BY v DESC, t ASC) <= k``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa

from ..core.numeric import run_starts
from .fold import keyed_exchange

__all__ = ["per_group_topk", "grouped_sum_global_topk", "grouped_mode_pipeline"]


def per_group_topk(
    ds,
    *,
    group_col: str,
    value_col: str,
    tiebreak_col: str,
    k: int | dict,
    ascending: bool = False,
):
    """Keep the k rows with the largest (``ascending=False``, default) or
    smallest (``ascending=True``) ``value_col`` per group (ties -> smallest
    ``tiebreak_col`` first).  Group keys may be strings or ints.  The
    ascending mode over an unsigned hash column is the per-group bottom-k
    uniform sample (stages/sampling.py).

    ``k`` may be a PER-GROUP dict {group_key: k} (groups absent from it keep
    0 rows) — the mixture-rebalance shape, where every group has its own
    quota.  The dict is one entry per group (KB-sized), captured in the task
    closure like any broadcast small side.

    Top-k pushdown: the map side first collapses every BLOCK to its local
    per-group top-k (the global top-k per group is a subset of the union of
    block-local top-ks), so the shuffle carries at most k rows per (block,
    group) instead of the raw input — for k=1 (arg_max) on billions of rows
    the all-to-all drops to one row per (block, group)."""

    def _topk_rows(t: pa.Table) -> pa.Table:
        """Rows with rank < k per group, any column set preserved."""
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        tb = t.column(tiebreak_col).to_numpy(zero_copy_only=False)
        # descending: lexsort on -v (ints negate exactly; uint64 value columns
        # are only supported in ascending mode, where no negation happens)
        order = np.lexsort((tb, v if ascending else -v, g))
        g_s = g[order]
        n = len(order)
        if not n:
            return t
        pos = np.arange(n)
        new_g = run_starts(g_s)
        seg_start = np.maximum.accumulate(np.where(new_g, pos, -1))
        if isinstance(k, dict):
            heads = g_s[new_g]
            k_heads = np.fromiter(
                (int(k.get(x, 0)) for x in heads.tolist()), dtype=np.int64, count=int(new_g.sum())
            )
            k_row = k_heads[np.cumsum(new_g) - 1]  # per-row quota via segment id
            keep = (pos - seg_start) < k_row
        else:
            keep = (pos - seg_start) < k
        return t.take(pa.array(order[keep]))

    # block-local pushdown before the shuffle
    local = ds.map_batches(_topk_rows, batch_format="pyarrow", zero_copy_batch=True)

    def per_partition(pt: pa.Table) -> pa.Table:
        return _topk_rows(pt.drop_columns(["_part"]))

    return keyed_exchange(local, per_partition, keys=group_col)


def grouped_sum_global_topk(
    ds,
    *,
    group_col: str,
    value_col: str,
    carry_cols: Sequence[str] = (),
    k: int,
):
    """SUM(``value_col``) per int64 group, then the GLOBAL top-k groups by
    that sum (ties -> smallest group key).  ``carry_cols`` must be
    functionally dependent on the group (constant within it) - each group's
    first occurrence is carried through, any Arrow type.

    The classic top-k pushdown, three stages:

      1. block-local combine: every input block collapses to one row per
         (block, group) with a lexsort + reduceat - the shuffle then moves
         at most ``blocks x groups-per-block`` partial rows, never raw rows;
      2. hash co-partition by group + per-partition vectorized final sum;
         each partition emits only its LOCAL top-k (k rows, not its groups);
      3. the P x k survivors (KB-sized) go through the native sort + limit.

    ``value_col`` must be int64 (exact, associative - callers quantize
    floats first); overflow raises rather than wrapping.
    """
    carry_cols = list(carry_cols)

    def _combine(t: pa.Table) -> pa.Table:
        g = t.column(group_col).to_numpy(zero_copy_only=False).astype(np.int64)
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        if v.dtype != np.int64:
            raise TypeError(f"{value_col} must be int64, got {v.dtype}")
        order = np.argsort(g, kind="stable")
        g_s = g[order]
        new_g = run_starts(g_s)
        starts = np.flatnonzero(new_g)
        sums = np.add.reduceat(v[order], starts) if starts.size else v[:0]
        # exactness gate: a float64 shadow sum detects int64 wraparound (the
        # shadow is inexact but within 2^11 of the true value for any block
        # that did NOT wrap; a wrap is off by ~2^64)
        if starts.size:
            chk = np.add.reduceat(v[order].astype(np.float64), starts)
            if not np.allclose(sums.astype(np.float64), chk, rtol=1e-9, atol=4096.0):
                raise OverflowError(f"int64 overflow combining {value_col}")
        first = pa.array(order[starts])
        cols = {
            group_col: pa.array(g_s[starts]),
            value_col: pa.array(sums),
        }
        for c in carry_cols:
            cols[c] = t.column(c).take(first)
        return pa.table(cols)

    combined = ds.map_batches(_combine, batch_format="pyarrow", zero_copy_batch=True)

    def per_partition(pt: pa.Table) -> pa.Table:
        g = pt.column(group_col).to_numpy(zero_copy_only=False)
        v = pt.column(value_col).to_numpy(zero_copy_only=False)
        order = np.argsort(g, kind="stable")
        g_s = g[order]
        new_g = run_starts(g_s)
        starts = np.flatnonzero(new_g)
        sums = np.add.reduceat(v[order], starts) if starts.size else v[:0]
        gu = g_s[starts]
        # local top-k by (sum desc, group asc); int64 negation is exact here
        # (sums are quantized currency units, far from INT64_MIN)
        top = np.lexsort((gu, -sums))[:k]
        first = pa.array(order[starts[top]])
        cols = {
            group_col: pa.array(gu[top]),
            value_col: pa.array(sums[top]),
        }
        for c in carry_cols:
            cols[c] = pt.column(c).take(first)
        return pa.table(cols)

    local = keyed_exchange(combined, per_partition, keys=group_col)
    return local.sort([value_col, group_col], descending=[True, False]).limit(k)


def grouped_mode_pipeline(ds, *, group_col: str, value_col: str):
    """Per-group MODE with deterministic ties: the most frequent
    ``value_col`` per group (ties -> smallest value) plus its count.

    SQL's ``mode()`` leaves ties unspecified; this pins them, so the result
    is layout/run-invariant and oracle-mirrorable as a ``row_number() OVER
    (ORDER BY count DESC, value ASC)`` filter.  Plan: per-block Arrow
    group_by pre-agg -> (group, value, count) partial shuffle -> the
    existing per-group top-1 (block-local pushdown, ~k rows per (block,
    group) cross the wire).
    """
    import pyarrow.compute as pc

    def preagg(t: pa.Table) -> pa.Table:
        g = t.group_by([group_col, value_col]).aggregate([([], "count_all")])
        return g.rename_columns([group_col, value_col, "c"])

    # (group, value) domain scales with the group domain (e.g. users) ->
    # bounded-partition fold (pipelines/fold.py)
    from ddsketch_ruby_ray.pipelines.fold import partitioned_group_sum

    counted = partitioned_group_sum(
        ds.map_batches(preagg, batch_format="pyarrow", zero_copy_batch=True),
        [group_col, value_col],
        "c",
    )
    flat = counted.map_batches(
        lambda t: pa.table(
            {
                group_col: t.column(group_col),
                value_col: t.column(value_col),
                "n_mode": pc.cast(t.column("sum(c)"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return per_group_topk(
        flat, group_col=group_col, value_col="n_mode", tiebreak_col=value_col, k=1
    )
