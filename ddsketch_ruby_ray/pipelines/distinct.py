"""Exact COUNT(DISTINCT value) per group — the exact twin of the HLL / KMV
estimators (core/hll.py, core/kmv.py), for when the answer must be exact and
the (group, value) pair space still fits a shuffle.

Plan (no per-key Python at any cardinality):

  1. block-local pair dedup: one lexsort + boundary scan collapses each
     input block to its distinct (group, value) pairs — the shuffle then
     carries at most one row per (block, distinct pair), never raw rows;
  2. pairs co-locate by ``hash(group) ^ mix(value) % P`` — a PAIR-keyed
     partition, so every copy of one (group, value) lands in one partition
     while a single group's pairs SPREAD across all partitions (a hot group
     costs every partition a slice, not one straggler — the classic
     count-distinct skew answer);
  3. per partition: factorize group strings, lexsort (group, value), count
     tie-group boundaries -> per-group PARTIAL distinct counts (<= G rows);
  4. a tiny keyed sum (``fold.partitioned_group_sum``) over the G x P
     partial rows.

Scale: the all-to-all moves only distinct pairs (24 B each); a group with a
billion distinct values becomes P partial counts.  Compare hll_* queries:
same question, KB state, bounded error.

Reference scope note: the reference (DataDog/ddsketch-ruby) has no distinct
operator; this belongs to the north_rule family tier (exact baseline the
sketch estimates are judged against).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.numeric import run_starts
from .fold import keyed_exchange, partitioned_group_sum

__all__ = ["exact_distinct_pipeline"]


def exact_distinct_pipeline(ds, *, group_col: str, value_col: str):
    """-> Dataset[(group_col, n_distinct)] with exact distinct counts.

    ``group_col`` may be string or int; ``value_col`` must be int64-castable.
    """

    def local_pairs(t: pa.Table) -> pa.Table:
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        gcol = t.column(group_col)
        if pa.types.is_integer(gcol.type):
            codes = gcol.to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            # exact in-block identity via dictionary codes
            if isinstance(gcol, pa.ChunkedArray):
                gcol = gcol.combine_chunks()
            codes = gcol.dictionary_encode().indices.to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
        # block-local distinct (g, v) pairs
        order = np.lexsort((v, codes))
        g_s, v_s = codes[order], v[order]
        first = run_starts(g_s, v_s)
        win = order[first]
        return pa.table(
            {
                group_col: gcol.take(pa.array(win)),
                "_v": pa.array(v[win]),
            }
        )

    pairs = ds.map_batches(local_pairs, batch_format="pyarrow", zero_copy_batch=True)

    def partial_counts(pt: pa.Table) -> pa.Table:
        import pandas as pd

        gcol = pt.column(group_col)
        if pa.types.is_integer(gcol.type):
            codes = gcol.to_numpy(zero_copy_only=False)
            uniq_take = None
        else:
            codes, _ = pd.factorize(
                pd.Series(gcol.to_numpy(zero_copy_only=False)), sort=False
            )
            uniq_take = True
        v = pt.column("_v").to_numpy(zero_copy_only=False)
        if not len(v):
            return pa.table(
                {
                    group_col: gcol.slice(0, 0),
                    "n_distinct": pa.array([], pa.int64()),
                }
            )
        order = np.lexsort((v, codes))
        c_s, v_s = codes[order], v[order]
        n = len(order)
        new_grp = run_starts(c_s)
        new_pair = run_starts(c_s, v_s)
        gstarts = np.flatnonzero(new_grp)
        # distinct pairs per group = count of pair boundaries in the group run
        pair_cum = np.cumsum(new_pair.astype(np.int64))
        ends = np.append(gstarts[1:], n) - 1
        counts = pair_cum[ends] - (pair_cum[gstarts] - 1)
        first_idx = pa.array(order[gstarts])
        return pa.table(
            {
                group_col: gcol.take(first_idx),
                "n_distinct": pa.array(counts),
            }
        )

    partials = keyed_exchange(pairs, partial_counts, keys=[group_col, "_v"])
    out = partitioned_group_sum(partials, group_col, "n_distinct")
    import pyarrow.compute as pc

    return out.map_batches(
        lambda t: pa.table(
            {
                group_col: t.column(group_col),
                "n_distinct": pc.cast(t.column("sum(n_distinct)"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
