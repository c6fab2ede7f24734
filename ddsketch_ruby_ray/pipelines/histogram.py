"""Sketch histogram export: the DDSketch bin table as a queryable Dataset.

The reference's serialization surface exposes the store's contiguous bin
array (`/root/reference/lib/ddsketch/proto.rb:27-32` serialize_store); this
operator is the table-engine equivalent - per group, one row per non-empty
bucket ``(group, k, cnt)`` where ``k = ceil(log_gamma(v)) + offset`` is the
mapping key (key_mapping.rb:69-71) and ``cnt`` the (float) bin weight
(dense_store.rb:31).  Downstream consumers can re-plot, re-merge, diff two
corpora bucket-by-bucket, or bulk-load the histogram into a warehouse - all
without touching raw rows.

Distribution shape is the flagship two-level merge: per-(block, group) states
in the read task, one KB-state shuffle, then the explode is a per-GROUP (not
per-row) driver of ``np.nonzero`` over each merged bin array.  Bin counts are
exact-in-any-order float adds of the weights, so the exported table is
bit-exact and SQL-mirrorable (GROUP BY the key expression).

Positive values only (the rank/outlier contract); rows in the zero band land
in ``zero_count`` and are not exported, mirroring ``WHERE v > min_possible``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["sketch_histogram_pipeline"]


def sketch_histogram_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    alpha: float = 0.01,
    derive=None,
):
    """-> Dataset[(group_col, k: int64, cnt: double)] - non-empty positive-store
    bins of one DDSketch per group."""
    from ..functions.specs import DDSketchSpec
    from .corpus import merge_states, sketch_states

    spec = DDSketchSpec(on=value_col, name="s", relative_accuracy=alpha, quantiles=())
    states = sketch_states(ds, [spec], (group_col,), derive=derive)
    merged = merge_states(states, [spec], (group_col,))

    def explode(t: pa.Table) -> pa.Table:
        groups, keys, cnts = [], [], []
        for g, st in zip(t.column(group_col).to_pylist(), t.column("s").to_pylist()):
            store = spec.from_state(st).store
            bins = np.asarray(store.bins, dtype=np.float64)
            nz = np.nonzero(bins)[0]
            if nz.size:
                groups.extend([g] * nz.size)
                keys.append(nz.astype(np.int64) + np.int64(store.min_key))
                cnts.append(bins[nz])
        return pa.table(
            {
                group_col: pa.array(groups, t.column(group_col).type),
                "k": pa.array(
                    np.concatenate(keys) if keys else np.zeros(0, np.int64)
                ),
                "cnt": pa.array(
                    np.concatenate(cnts) if cnts else np.zeros(0, np.float64)
                ),
            }
        )

    return merged.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
