"""Market-basket mining: frequent co-occurring item PAIRS with lift.

The association-rule staple (Agrawal/Srikant A-priori, restricted to the
2-itemset level that dominates practice): which items appear together in
the same basket more often than chance.  No reference counterpart — this
is one of the "operations a large-scale data pipeline needs" additions.

Plan (all vectorized, one keyed shuffle of PACKED pair counts):

  1. hash-partition rows by basket id -> every basket is whole inside one
     partition; per-partition lexsort dedups (basket, item) and yields the
     sorted item list of each basket as segments.
  2. per-block pair generation over segments: each basket of size L emits
     its L*(L-1)/2 ordered pairs (a < b) via repeat/arange index algebra —
     no Python loop.  Baskets are naturally BOUNDED (a purchase order has
     a handful of lines), so the blowup is a small constant; a caller with
     unbounded baskets should cap them upstream (the classic guard).
  3. pairs pack into ONE int64 key (a << 32 | b; item ids validated
     non-negative and < 2^31 up front, loud raise otherwise) and
     pre-aggregate per block BEFORE the shuffle, so the all-to-all carries
     (key, count) partials, not raw pairs.
  4. the global pair reduce is a hash-partition fold (``_part =
     hash(pk) % P`` -> per-partition lexsort + reduceat), NOT a native
     ``groupby(pk).sum``: the pair-key domain is open-ended and Ray's
     native aggregation collapses past ~1M distinct groups (measured 60 s
     at 1.7M — NOTES_ROUND3), while the fold's partition domain is the
     fixed ``fold._PARTITIONS``.  Support filter + lift
     finalize fuse into the same fold task (each pk's partials all land
     in its hash partition, so the per-partition fold is globally exact):
     lift = (n_baskets * c_ab) / (c_a * c_b) — numerator and denominator
     are exact int64 (< 2^53), ONE float divide, so the SQL mirror is
     bit-exact.

Scale: the shuffle carries <= distinct-pair partials per block (16 B
each); item supports are a dimension-sized table (broadcast, documented);
nothing materializes the fact table.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.numeric import run_pairs, run_starts
from .fold import keyed_exchange, partitioned_group_sum

__all__ = ["frequent_pairs_pipeline"]

_ITEM_BOUND = np.int64(1) << np.int64(31)


def frequent_pairs_pipeline(
    ds,
    *,
    basket_col: str,
    item_col: str,
    min_support: int = 3,
):
    """Dataset[(basket, item)] -> Dataset[(item_a, item_b, support, lift)]
    over DISTINCT basket membership, support >= min_support, item_a <
    item_b.  Item ids must be non-negative and < 2^31 (packed pair keys);
    violations raise ValueError in the first map stage."""
    import ray

    def norm(t: pa.Table) -> pa.Table:
        b = t.column(basket_col).to_numpy(zero_copy_only=False).astype(np.int64)
        i = t.column(item_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if i.size and (i.min() < 0 or i.max() >= _ITEM_BOUND):
            raise ValueError(
                f"{item_col}: item ids must be in [0, 2^31) for packed pair "
                f"keys; got range [{i.min()}, {i.max()}]"
            )
        return pa.table({"b": pa.array(b), "i": pa.array(i)})

    def basket_dedup(g: pa.Table) -> pa.Table:
        b = g.column("b").to_numpy(zero_copy_only=False)
        i = g.column("i").to_numpy(zero_copy_only=False)
        order = np.lexsort((i, b))
        b_s, i_s = b[order], i[order]
        keep = run_starts(b_s, i_s)
        return pa.table({"b": pa.array(b_s[keep]), "i": pa.array(i_s[keep])})

    baskets = keyed_exchange(
        ds.map_batches(norm, batch_format="pyarrow", zero_copy_batch=True),
        basket_dedup,
        keys="b",
    ).materialize()  # thin (basket, item) rows, baskets whole per block

    # ONE driver read for both small-side facts: per-block item-support
    # partials plus a sentinel row (item = -1) carrying the block's basket
    # count (baskets are whole per block, so block counts sum exactly).
    # The reduced table is dimension-sized (one row per distinct item).
    def small_side(t: pa.Table) -> pa.Table:
        b = t.column("b").to_numpy(zero_copy_only=False)
        i = t.column("i").to_numpy(zero_copy_only=False)
        vals, cnt = np.unique(i, return_counts=True)
        nb = int(run_starts(b).sum())
        return pa.table(
            {
                "item": pa.array(np.concatenate([vals, [-1]])),
                "c": pa.array(np.concatenate([cnt.astype(np.int64), [nb]])),
            }
        )

    side_rows = partitioned_group_sum(
        baskets.map_batches(small_side, batch_format="pyarrow", zero_copy_batch=True),
        "item",
        "c",
    ).take_all()
    item_support = {int(r["item"]): int(r["sum(c)"]) for r in side_rows}
    n_baskets = item_support.pop(-1, 0)

    def pair_partials(t: pa.Table) -> pa.Table:
        b = t.column("b").to_numpy(zero_copy_only=False)
        i = t.column("i").to_numpy(zero_copy_only=False)
        if not b.size:
            return pa.table(
                {
                    "pk": pa.array([], pa.int64()),
                    "c": pa.array([], pa.int64()),
                }
            )
        # rows arrive lexsorted by (basket, item); one run = one basket
        first, second = run_pairs(run_starts(b))
        a_i, b_i = i[first], i[second]  # a < b: items sorted within basket
        pk = (a_i << np.int64(32)) | b_i
        vals, c = np.unique(pk, return_counts=True)
        return pa.table({"pk": pa.array(vals), "c": pa.array(c.astype(np.int64))})

    nb = n_baskets
    s_items = np.array(sorted(item_support), dtype=np.int64)
    s_counts = np.array([item_support[int(k)] for k in s_items], dtype=np.int64)
    side_ref = ray.put((s_items, s_counts))

    def pair_fold(g: pa.Table) -> pa.Table:
        """Per-hash-partition exact reduce (lexsort + reduceat) fused with
        the support filter and lift finalize — no native high-cardinality
        aggregation anywhere."""
        empty = pa.table(
            {
                "item_a": pa.array([], pa.int64()),
                "item_b": pa.array([], pa.int64()),
                "support": pa.array([], pa.int64()),
                "lift": pa.array([], pa.float64()),
            }
        )
        pk = g.column("pk").to_numpy(zero_copy_only=False)
        if not pk.size:
            return empty
        cp = g.column("c").to_numpy(zero_copy_only=False)
        order = np.argsort(pk, kind="stable")
        pk_s, c_s = pk[order], cp[order]
        new = run_starts(pk_s)
        starts = np.flatnonzero(new)
        keys = pk_s[starts]
        c = np.add.reduceat(c_s, starts)
        m = c >= min_support
        keys, c = keys[m], c[m]
        if not keys.size:
            return empty
        items, counts = ray.get(side_ref)
        a = keys >> np.int64(32)
        b = keys & np.int64(0xFFFFFFFF)
        ca = counts[np.searchsorted(items, a)]
        cb = counts[np.searchsorted(items, b)]
        lift = (nb * c).astype(np.float64) / (ca * cb).astype(np.float64)
        return pa.table(
            {
                "item_a": pa.array(a),
                "item_b": pa.array(b),
                "support": pa.array(c),
                "lift": pa.array(lift),
            }
        )

    return keyed_exchange(
        baskets.map_batches(pair_partials, batch_format="pyarrow", zero_copy_batch=True),
        pair_fold,
        keys="pk",
    )
