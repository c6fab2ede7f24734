"""Canonical (layout-independent) construction for order-sensitive sketches.

t-digest and KLL are deterministic ONLY for a fixed arrival/merge order:
their compactions depend on the order values arrive and the order partial
sketches merge, so a naive distributed build yields a (bounded-error but)
layout-dependent result - whichever blocks Ray happens to form.

This module pins a CANONICAL merge tree, making the result a pure function
of the data multiset:

  1. every row is assigned a fixed sub-sketch bucket = splitmix64(id) % B;
  2. each (group, bucket) sub-sketch accumulates its values in ASCENDING
     VALUE order (ties carry no information for rank sketches);
  3. per group, the B sub-sketches merge in bucket order 0..B-1.

Any block layout, partitioning or scheduling now produces bit-identical
results (pytest-pinned), which is what makes a 100 TB run reproducible and
resumable.  The construction is still not SQL-expressible (the t-digest
clustering / KLL compaction schedules are sequential algorithms), so the
driver check stays rows-only - but rows-only over a DETERMINISTIC value.

Scale shape: stage 2 is one Python task per (group, bucket) - group
cardinality x B bounded work; stage 3 is one tiny per-group fold of B
KB-sized states.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa

from ..core.hashing import hash64_int
from .fold import map_groups

__all__ = ["canonical_sketch_pipeline"]


def canonical_sketch_pipeline(
    ds,
    spec,
    group_keys: Sequence[str],
    *,
    id_col: str,
    buckets: int = 32,
):
    """rows -> one finalized row per group, layout-independently.

    ``spec`` is a family spec (TDigestSpec / KLLSpec / any spec with
    zero/accumulate/to_state/from_state/merge/finalize); ``id_col`` must be a
    stable integer row id (drives the bucket assignment).
    """
    group_keys = list(group_keys)

    def add_bucket(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        bkt = (hash64_int(ids) % np.uint64(buckets)).astype(np.int32)
        return t.append_column("_bkt", pa.array(bkt))

    bucketed = ds.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)

    def build_sub(group: pa.Table) -> pa.Table:
        vals = np.sort(
            group.column(spec.on).to_numpy(zero_copy_only=False).astype(np.float64)
        )  # canonical in-bucket order
        sk = spec.zero()
        spec.accumulate(sk, {spec.on: vals})
        cols = {k: group.column(k).slice(0, 1) for k in group_keys}
        cols["_bkt"] = group.column("_bkt").slice(0, 1)
        cols["_state"] = pa.array([spec.to_state(sk)], type=spec.state_type())
        return pa.table(cols)

    states = map_groups(bucketed, group_keys + ["_bkt"], build_sub, num_partitions=buckets)

    def reduce_group(group: pa.Table) -> pa.Table:
        order = np.argsort(group.column("_bkt").to_numpy(zero_copy_only=False))
        merged = None
        st_col = group.column("_state")
        for i in order:  # canonical 0..B-1 merge order
            sk = spec.from_state(st_col[int(i)].as_py())
            merged = sk if merged is None else spec.merge(merged, sk)
        out = {k: group.column(k).slice(0, 1) for k in group_keys}
        for name, val in spec.finalize(merged).items():
            out[name] = pa.array([val], pa.float64())
        return pa.table(out)

    return map_groups(states, group_keys, reduce_group, num_partitions=16)
