"""Snapshot diff: reconcile two corpus versions without moving text.

The incremental-pipeline primitive: given corpus A (yesterday) and corpus B
(today), emit exactly which documents were ``added``, ``removed`` or
``changed`` — so downstream stages (dedup indices, sketch checkpoints,
training shards) re-process only the delta.

Scale shape: each side maps to (key, 128-bit content hash, side) rows —
~28 bytes/row, text never shuffles (the exact-dedup identity trick,
pipelines/dedup.py).  The union is hash-partitioned by key and each
partition resolves its keys with one lexsort + boundary scan: a key present
on one side only is added/removed; present on both, the content hashes
decide changed vs unchanged (unchanged rows are dropped — the delta is the
output, so a 100 TB corpus with a 0.1% daily delta emits 0.1% of its keys).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.hashing import hash256_str
from ..core.numeric import run_starts
from .fold import keyed_exchange

__all__ = ["snapshot_diff_pipeline"]


def snapshot_diff_pipeline(
    ds_a,
    ds_b,
    *,
    key_col: str,
    text_col: str,
):
    """-> Dataset[(key_col, status)] with status in {'added', 'removed',
    'changed'}: B relative to A.  Keys must be unique within each side
    (document ids)."""

    def ident(side: int):
        def stage(t: pa.Table) -> pa.Table:
            h0, h1 = hash256_str(t.column(text_col), lanes=2)
            keys = t.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table(
                {
                    "key": pa.array(keys),
                    "h0": pa.array(h0.astype(np.int64)),
                    "h1": pa.array(h1.astype(np.int64)),
                    "side": pa.array(np.full(len(keys), side, dtype=np.int8)),
                }
            )

        return stage

    a = ds_a.map_batches(ident(0), batch_format="pyarrow", zero_copy_batch=True)
    b = ds_b.map_batches(ident(1), batch_format="pyarrow", zero_copy_batch=True)

    def resolve(pt: pa.Table) -> pa.Table:
        key = pt.column("key").to_numpy(zero_copy_only=False)
        if not key.size:
            return pa.table(
                {key_col: pa.array([], pa.int64()), "status": pa.array([], pa.string())}
            )
        side = pt.column("side").to_numpy(zero_copy_only=False)
        h0 = pt.column("h0").to_numpy(zero_copy_only=False)
        h1 = pt.column("h1").to_numpy(zero_copy_only=False)
        order = np.lexsort((side, key))
        k_s, s_s, h0_s, h1_s = key[order], side[order], h0[order], h1[order]
        new = run_starts(k_s)
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, k_s.size))
        out_keys, out_status = [], []
        one = lens == 1
        if one.any():
            i = starts[one]
            out_keys.append(k_s[i])
            out_status.append(np.where(s_s[i] == 1, "added", "removed"))
        two = lens == 2
        if two.any():
            i = starts[two]  # side-sorted within the key run: A row, then B row
            changed = (h0_s[i] != h0_s[i + 1]) | (h1_s[i] != h1_s[i + 1])
            out_keys.append(k_s[i][changed])
            out_status.append(np.full(int(changed.sum()), "changed", dtype=object))
        keys_arr = np.concatenate(out_keys) if out_keys else np.zeros(0, np.int64)
        status_arr = np.concatenate(out_status) if out_status else np.zeros(0, object)
        return pa.table(
            {
                key_col: pa.array(keys_arr, pa.int64()),
                "status": pa.array(status_arr.tolist(), pa.string()),
            }
        )

    return keyed_exchange([a, b], resolve, keys="key")
