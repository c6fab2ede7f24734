"""Sequence packing: the concat-and-split step of an LLM pretraining pipeline.

Documents are packed head-to-tail (in deterministic doc-id order inside a
hash partition) into fixed-capacity training sequences of ``max_tokens``;
a document whose tokens straddle a boundary spans consecutive sequences
(the standard "pack then chunk" regime - no padding, no greedy bin search).

Output, one row per document: its partition, the first and last sequence
index it occupies (sequence ids namespaced per partition - globally unique
as (part, seq)).  At 100 TB the partition count bounds both shuffle fan-in
and per-task memory; determinism (hash partition + in-partition doc-id
order) makes the packing reproducible across any block layout, which the
SQL mirror verifies row-for-row: the per-partition token prefix sum is a
window cumsum, so the whole operator is oracle-expressible.

Empty documents are counted as ONE token (so every doc occupies a defined
sequence); mirrored by greatest(tokens, 1) in SQL.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .fold import keyed_exchange

__all__ = ["pack_sequences_pipeline"]


def pack_sequences_pipeline(
    ds,
    *,
    id_col: str,
    tokens_col: str,
    max_tokens: int,
    num_partitions: int = 64,
):
    """-> Dataset[(id, part, tokens, seq_first, seq_last)]; ``part`` is the
    keyed-exchange partition of the id, ``hash64_int(id) % num_partitions``.
    Unlike other pipelines it takes its partition count: P is part of the
    output (sequences pack within a partition), so a caller must name it."""

    def per_partition(pt: pa.Table) -> pa.Table:
        ids = pt.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        toks = pt.column(tokens_col).to_numpy(zero_copy_only=False).astype(np.int64)
        toks = np.maximum(toks, 1)
        order = np.argsort(ids)  # canonical in-partition packing order
        ids_s, toks_s = ids[order], toks[order]
        cum_before = np.cumsum(toks_s) - toks_s
        seq_first = cum_before // max_tokens
        seq_last = (cum_before + toks_s - 1) // max_tokens
        return pa.table(
            {
                id_col: pa.array(ids_s),
                "part": pa.array(
                    np.full(len(ids_s), pt.column("_part")[0].as_py(), dtype=np.int32)
                ),
                "tokens": pa.array(toks_s),
                "seq_first": pa.array(seq_first),
                "seq_last": pa.array(seq_last),
            }
        )

    return keyed_exchange(ds, per_partition, keys=id_col, num_partitions=num_partitions)
