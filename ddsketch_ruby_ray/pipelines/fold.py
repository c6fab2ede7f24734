"""Exact keyed aggregation over OPEN-ENDED key domains.

Ray Data's native ``groupby(key).sum()`` sort-aggregates the full key domain
through one global exchange and collapses once the domain passes ~1M distinct
groups (measured on this box: 60 s to finalize 1.7M groups — NOTES_ROUND3.md).
That is fine for bounded domains (lang, priority, day) and wrong for the
domains a 100 TB corpus produces: tokens, bigrams, line hashes, node ids,
user ids.

:func:`partitioned_group_agg` is the drop-in replacement for those sites:

1. **block-local pre-aggregation** — Arrow's C++ hash aggregation
   (``Table.group_by``) inside ``map_batches`` collapses each block to one
   partial row per (block, key);
2. **bounded keyed exchange** — partials get a content-hash ``_part`` in
   ``[0, num_partitions)`` (equal keys land together by construction), and
   the only shuffle groups on that BOUNDED domain;
3. **per-partition fold** — Arrow hash aggregation again inside
   ``map_groups``, emitting natively-named columns (``sum(v)``, ``min(v)``,
   ...), so call sites keep their downstream code.

Exactness: integer sum/min/max/count are associative, so any grouping order
is bit-exact vs the single-pass oracle.  Float sums are order-sensitive —
callers keep those on whatever path fixes their summation order.

Scale shape: the exchange carries one partial row per (block, distinct key)
— Zipf domains collapse hard in step 1 — and every fold task holds only
``distinct_keys / num_partitions`` rows.  ``num_partitions`` is the lever:
size it so a partition's distinct keys fit a task heap (e.g. 1e9 distinct
keys / 512 partitions ~ 2M rows/task).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ddsketch_ruby_ray.core.hashing import hash64_int, hash64_str_fast, splitmix64

__all__ = [
    "partitioned_group_agg",
    "partitioned_group_sum",
    "null_safe_int64",
    "strict_key_int64",
]

_AGG_FUNCS = ("sum", "min", "max", "count")


def null_safe_int64(col) -> np.ndarray:
    """Arrow column -> int64 numpy WITHOUT the float64 null fallback.

    ``col.to_numpy(zero_copy_only=False)`` silently converts a
    null-bearing integer column to float64 (nulls -> NaN), which rounds
    values >= 2^53 — a partition-routing hazard (the same key hashes
    differently in null-free vs null-bearing blocks) and a cross-block
    schema conflict for emitted columns.  Fill nulls with 0 BEFORE the
    conversion; hashing/routing only needs cross-block determinism."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        col = pc.fill_null(col, 0)
    return pc.cast(col, pa.int64(), safe=False).to_numpy(zero_copy_only=False)


def strict_key_int64(col, *, name: str = "key") -> np.ndarray:
    """Arrow column -> int64 numpy for EMITTED key columns.

    :func:`null_safe_int64`'s fill-with-0 shortcut is a pure hash-ROUTING
    device (cross-block determinism is all routing needs).  A column that
    becomes an OUTPUT key must not silently merge NULL keys into key 0 —
    that diverges from SQL's NULL-partition semantics.  Raise loudly
    instead; callers that want NULL keys dropped or propagated do so
    explicitly before projection."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        raise ValueError(
            f"strict_key_int64: emitted key column {name!r} contains "
            f"{col.null_count} NULL(s); drop or fill them explicitly — "
            "silently merging NULL keys into key 0 diverges from SQL "
            "NULL-partition semantics"
        )
    return pc.cast(col, pa.int64(), safe=False).to_numpy(zero_copy_only=False)


def _part_of(tbl: pa.Table, key_cols: list[str], num_partitions: int) -> np.ndarray:
    """Content-hash partition id over one or more key columns.

    Equal keys always share a partition; NULLs route like some fixed value.
    Key types with no int64 cast (dates, bools, dictionaries, ...) hash
    their string form."""
    import pyarrow.compute as pc

    h = np.zeros(tbl.num_rows, dtype=np.uint64)
    for k in key_cols:
        col = tbl.column(k)
        t = col.type
        if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t):
            hk = hash64_str_fast(col)
        elif pa.types.is_integer(t) or pa.types.is_floating(t) or pa.types.is_timestamp(t):
            hk = hash64_int(null_safe_int64(col))
        else:
            hk = hash64_str_fast(pc.cast(col, pa.string()))
        h = splitmix64(h ^ hk)
    return (h % np.uint64(num_partitions)).astype(np.int32)


def _arrow_agg(tbl: pa.Table, key_cols: list[str], aggs: list[tuple[str, str]]) -> pa.Table:
    """One Arrow hash aggregation; columns come back ``{col}_{func}``."""
    cols = list(dict.fromkeys(key_cols + [c for c, _ in aggs]))
    return tbl.select(cols).group_by(key_cols).aggregate(aggs)


def partitioned_group_agg(
    ds,
    key_cols,
    aggs,
    *,
    num_partitions: int = 64,
):
    """``ds.groupby(key_cols).aggregate(...)`` for open-ended key domains.

    ``aggs`` is ``[(col, func), ...]`` with func in sum/min/max/count; the
    output carries native Ray names (``sum(col)``, ...).  See module
    docstring for the plan and its exactness/scale contract.
    """
    if isinstance(key_cols, str):
        key_cols = [key_cols]
    key_cols = list(key_cols)
    aggs = [(c, f) for c, f in aggs]
    for _, f in aggs:
        if f not in _AGG_FUNCS:
            raise ValueError(f"unsupported agg func {f!r} (use one of {_AGG_FUNCS})")
    # counts re-aggregate as sums of partial counts
    partial_aggs = [(c, f) for c, f in aggs]
    refold_aggs = [(f"{c}_{f}", "sum" if f == "count" else f) for c, f in aggs]

    def pre(t: pa.Table) -> pa.Table:
        g = _arrow_agg(t, key_cols, partial_aggs)
        return g.append_column(
            "_part", pa.array(_part_of(g, key_cols, num_partitions))
        )

    def fold(g: pa.Table) -> pa.Table:
        out = _arrow_agg(g, key_cols, refold_aggs)
        # {col}_{f}_{f2} -> native ray naming f(col)
        names = list(key_cols) + [f"{f}({c})" for c, f in aggs]
        return out.rename_columns(names)

    return (
        ds.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("_part")
        .map_groups(fold, batch_format="pyarrow")
    )


def partitioned_group_sum(ds, key_cols, val_cols, *, num_partitions: int = 64):
    """``ds.groupby(key_cols).sum(val_cols)`` for open-ended key domains."""
    if isinstance(val_cols, str):
        val_cols = [val_cols]
    return partitioned_group_agg(
        ds, key_cols, [(v, "sum") for v in val_cols], num_partitions=num_partitions
    )
