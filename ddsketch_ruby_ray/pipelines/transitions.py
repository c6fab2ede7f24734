"""Per-key ordered state-transition counts (Markov chain estimation).

The clickstream staple ``lead(state) OVER (PARTITION BY key ORDER BY ts,
tiebreak)`` followed by a (from, to) cross count — the transition matrix a
first-order Markov model is fit from.  Ray Data's Dataset API has no window
functions, so this reuses the engine's ordered-analytics physical plan
(`windows.py`): ONE hash-partition shuffle of the projected columns, a
single lexsort + adjacent-pair extraction per partition, and a block-level
Arrow ``group_by`` pre-aggregation so the global all-to-all carries only
(from, to, partial_count) rows — O(partitions × states²), independent of
row count.

Partitioning assumption: all rows of a key hash to one partition (the
shuffle guarantees it); the output matrix is at most |states|² rows, so the
caller may materialize it freely.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .fold import keyed_exchange, partitioned_group_sum

__all__ = ["keyed_transition_counts_pipeline"]


def keyed_transition_counts_pipeline(
    ds,
    *,
    key_col: str,
    ts_col: str,
    tiebreak_col: str,
    state_col: str,
    num_partitions: int = 64,
):
    """-> Dataset[(from_state, to_state, n_pair: int64)] — counts of each
    ordered adjacent (state, next state) pair within a key's timeline.
    A key's last event has no successor and contributes nothing (SQL
    ``lead() ... WHERE to IS NOT NULL`` semantics)."""

    def project(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "_key": pa.array(keys),
                "_ts": t.column(ts_col).cast(pa.int64()),
                "_tb": t.column(tiebreak_col).cast(pa.int64()),
                "_state": t.column(state_col),
            }
        )

    projected = ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)

    def per_partition(pt: pa.Table) -> pa.Table:
        n = pt.num_rows
        empty = pa.table(
            {
                "from_state": pa.array([], pa.string()),
                "to_state": pa.array([], pa.string()),
                "c": pa.array([], pa.int64()),
            }
        )
        if n < 2:
            return empty
        keys = pt.column("_key").to_numpy(zero_copy_only=False)
        ts = pt.column("_ts").to_numpy(zero_copy_only=False)
        tb = pt.column("_tb").to_numpy(zero_copy_only=False)
        order = np.lexsort((tb, ts, keys))
        k_s = keys[order]
        same = k_s[1:] == k_s[:-1]
        if not same.any():
            return empty
        take = pa.array(order)
        state_s = pc.take(pt.column("_state"), take)
        idx = np.flatnonzero(same)
        pairs = pa.table(
            {
                "from_state": pc.take(state_s, pa.array(idx)),
                "to_state": pc.take(state_s, pa.array(idx + 1)),
            }
        )
        g = pairs.group_by(["from_state", "to_state"]).aggregate([([], "count_all")])
        return g.rename_columns(["from_state", "to_state", "c"]).cast(empty.schema)

    parts = keyed_exchange(
        projected, per_partition, keys="_key", num_partitions=num_partitions
    )
    out = partitioned_group_sum(parts, ["from_state", "to_state"], "c")
    return out.map_batches(
        lambda t: pa.table(
            {
                "from_state": t.column("from_state"),
                "to_state": t.column("to_state"),
                "n_pair": pc.cast(t.column("sum(c)"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
