"""The keyed exchange every pipeline runs, and exact keyed aggregation on it.

Every exact or mergeable operator here has one shape: route each row by a
hash of its key, run ONE exchange, fold each partition.  Equal keys land in
one partition by construction, so any associative fold (integer sums,
sketch-state merges, set unions, per-key scans) is complete per partition.

:func:`keyed_exchange` is that shape, and the only place in the library
that calls ``groupby("_part").map_groups``:

1. **route** — each input gets a whole-block ``map_batches`` step that
   appends ``_part = _part_of(keys) mod num_partitions``.  Ray fuses it into
   the input's upstream map task, so routing costs no extra operator.
   Routing runs BEFORE the inputs are unioned (after a ``union`` it would
   run as its own unfused operator);
2. **exchange** — one of two backends, picked from metadata alone:

   * when every input is a ``MaterializedDataset`` and their rows total at
     most ``_ONE_TASK_ROWS`` (block metadata, so no input is executed to
     decide), there is no exchange: the inputs are unioned and ONE
     ``map_batches`` task (``MapBatches(fold_in_one_task)`` in
     ``ds.stats()``) routes the rows and folds each partition.  Small
     sketch-state tables, rollup/cube levels and small materialized graph
     state take this path; the sort shuffle's fixed cost (~0.2 s and up)
     would dwarf their work;
   * otherwise one ``groupby("_part")`` sort shuffle (push-based, see
     ``pipelines/__init__.py``) over the BOUNDED domain ``[0, P)``.  Lazy
     inputs (raw-row exchanges) always take it;
3. **reduce** — the caller's per-partition fold over ``pyarrow`` tables,
   which still see ``_part`` (co-partitioned graph state and
   ``packing``'s partition id read it).  Both backends call it once per
   distinct ``_part``, in ascending order, on exactly that partition's rows.

:func:`_part_of` is the single routing rule: one integer, float or
timestamp key routes as ``hash64_int(null_safe_int64(k)) % P`` (NULL like
0); strings hash with :func:`hash64_str_fast`; other key types hash their
string form; several keys fold with ``splitmix64``.  ``keys=None`` skips
routing for inputs that already carry ``_part`` (range cuts, pre-tagged
iteration state).

:func:`partitioned_group_agg` is ``ds.groupby(keys).aggregate(...)`` on
that exchange, and the library's only grouped aggregate: Arrow hash
aggregation pre-aggregates each block to one partial row per (block, key),
the partials ride the exchange, and Arrow aggregates again per partition.
It holds at any key cardinality (Ray's native sort-aggregate collapses past
~1M groups, NOTES_ROUND3.md) and keeps a NULL key as one group of its own,
as SQL ``GROUP BY`` does.  Integer sum/min/max/count are associative, so
this is bit-exact against a single pass; float sums are order-sensitive and
stay on paths that fix their summation order.  ``num_partitions`` sizes each
fold task: ``distinct_keys / P`` rows.  Output rows come in partition order,
not key order: a caller that needs key order sorts.

:func:`map_groups` is ``ds.groupby(keys).map_groups(fn)`` on the same
exchange: each partition splits into its keys' row sets and ``fn`` runs once
per key, on exactly that key's rows (``_part`` dropped), in no set order.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ddsketch_ruby_ray.core.hashing import hash64_int, hash64_str_fast, splitmix64
from ddsketch_ruby_ray.core.numeric import run_starts

__all__ = [
    "keyed_exchange",
    "map_groups",
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

    if col.null_count:
        raise ValueError(
            f"strict_key_int64: emitted key column {name!r} contains "
            f"{col.null_count} NULL(s); drop or fill them explicitly — "
            "silently merging NULL keys into key 0 diverges from SQL "
            "NULL-partition semantics"
        )
    return pc.cast(col, pa.int64(), safe=False).to_numpy(zero_copy_only=False)


def _part_of(tbl: pa.Table, key_cols, num_partitions: int) -> np.ndarray:
    """Partition id in ``[0, num_partitions)`` of every row: the one routing
    rule of :func:`keyed_exchange`.

    One integer, float or timestamp key routes as
    ``hash64_int(null_safe_int64(k)) % P`` (a NULL like 0); strings hash
    with :func:`hash64_str_fast`; key types with no int64 cast (dates,
    bools, dictionaries, ...) hash their string form; several keys fold
    with ``splitmix64``.  Equal keys always share a partition.  No keys
    route every row to partition 0."""
    import pyarrow.compute as pc

    h = None
    for k in key_cols:
        col = tbl.column(k)
        t = col.type
        if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t):
            hk = hash64_str_fast(col)
        elif pa.types.is_integer(t) or pa.types.is_floating(t) or pa.types.is_timestamp(t):
            hk = hash64_int(null_safe_int64(col))
        else:
            hk = hash64_str_fast(pc.cast(col, pa.string()))
        h = hk if h is None else splitmix64(h ^ hk)
    if h is None:
        return np.zeros(tbl.num_rows, dtype=np.int32)
    return (h % np.uint64(num_partitions)).astype(np.int32)


# Largest input, in rows over all inputs, that keyed_exchange folds in one
# task instead of a sort exchange; it applies only to materialized inputs,
# whose row count is block metadata.  Measured on 4-CPU x86 (ray 2.49.2):
# merge_sketch_states of a materialized 16-block DDSketch state table
# (~3.1 KB/row), Sort exchange vs one-task fold, best of 4, seconds:
#
#   state rows        1e3        3e3        1e4        3e4        5e4        1e5
#   num_cpus=2  0.72/0.11  0.79/0.16  1.06/0.43  1.60/1.13  2.52/1.72  3.94/3.88
#   num_cpus=4  0.50/0.10  0.59/0.15  0.69/0.45  1.16/1.20  1.62/2.09  2.70/3.77
#
# The crossover falls as CPUs grow (~1e5 rows at 2, ~3e4 at 4); the limit sits
# below the smaller one, where one task still wins by 1.5x at 4 CPUs.
_ONE_TASK_ROWS = 10_000


def keyed_exchange(inputs, reduce, *, keys=None, num_partitions: int):
    """Route -> one exchange -> per-partition ``reduce``.

    ``inputs`` is a Dataset or a list of Datasets.  With ``keys`` (a column
    name or list of them, present in every input) each input is routed on
    its own, ``_part = _part_of(keys) mod num_partitions``, before the
    inputs are unioned; with ``keys=None`` every input must already carry
    an int32 ``_part`` in ``[0, num_partitions)``.  ``reduce`` gets one
    ``pyarrow`` table per partition (``_part`` included) and returns one.

    Materialized inputs of at most ``_ONE_TASK_ROWS`` rows in all skip the
    exchange: one map task routes them and calls ``reduce`` once per
    partition, in ascending ``_part`` order, as the exchange would.
    """
    from ray.data.dataset import MaterializedDataset

    if not isinstance(inputs, (list, tuple)):
        inputs = [inputs]
    key_cols = None if keys is None else [keys] if isinstance(keys, str) else list(keys)
    if all(isinstance(ds, MaterializedDataset) for ds in inputs):
        # a materialized count is block metadata: no input is executed here
        n = sum(ds.count() for ds in inputs)
        if n <= _ONE_TASK_ROWS:
            return _fold_in_one_task(inputs, reduce, key_cols, num_partitions, n)
    if key_cols is not None:

        def route(t: pa.Table) -> pa.Table:
            # Ray's empty blocks may be schema-less: no key column to read
            part = _part_of(t, key_cols, num_partitions) if t.num_rows else np.zeros(0, np.int32)
            return t.append_column("_part", pa.array(part))

        inputs = [
            ds.map_batches(route, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
            for ds in inputs
        ]
    ds = inputs[0].union(*inputs[1:]) if len(inputs) > 1 else inputs[0]
    return ds.groupby("_part", num_partitions=num_partitions).map_groups(
        reduce, batch_format="pyarrow"
    )


def _fold_in_one_task(inputs, reduce, key_cols, num_partitions: int, n: int):
    """:func:`keyed_exchange`'s backend for ``n`` materialized rows: one
    ``map_batches`` task (``batch_size=n`` bundles every block into it)
    routes the rows and yields ``reduce`` of each partition, like
    ``map_groups`` does after its sort."""

    def fold_in_one_task(t: pa.Table):
        if not t.num_rows:
            return
        if key_cols is not None:
            t = t.append_column("_part", pa.array(_part_of(t, key_cols, num_partitions)))
        part = t.column("_part").to_numpy()
        order = np.argsort(part, kind="stable")
        t, part = t.take(order), part[order]
        bounds = np.append(np.flatnonzero(run_starts(part)), len(part))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield reduce(t.slice(lo, hi - lo))

    ds = inputs[0].union(*inputs[1:]) if len(inputs) > 1 else inputs[0]
    return ds.map_batches(fold_in_one_task, batch_format="pyarrow", batch_size=max(n, 1))


def _arrow_agg(tbl: pa.Table, key_cols: list[str], aggs: list[tuple]) -> pa.Table:
    """One Arrow hash aggregation; columns come back ``{col}_{func}``, and
    ``count_all`` for the row count ``([], "count_all")``."""
    cols = list(dict.fromkeys(key_cols + [c for c, _ in aggs if isinstance(c, str)]))
    return tbl.select(cols).group_by(key_cols).aggregate(aggs)


def partitioned_group_agg(
    ds,
    key_cols,
    aggs,
    *,
    num_partitions: int = 64,
):
    """``ds.groupby(key_cols).aggregate(...)`` on the keyed exchange.

    ``aggs`` is ``[(col, func), ...]`` with func in sum/min/max/count, or
    ``(None, "count")`` for the row count (rows whose values are NULL
    included, like Ray's ``Count()``).  The output carries native Ray names:
    ``sum(col)``, ..., ``count()``.  See the module docstring for the plan
    and its exactness/scale contract.
    """
    if isinstance(key_cols, str):
        key_cols = [key_cols]
    key_cols = list(key_cols)
    aggs = [(c, f) for c, f in aggs]
    for c, f in aggs:
        if f not in _AGG_FUNCS or (c is None and f != "count"):
            raise ValueError(f"unsupported agg {(c, f)!r} (use one of {_AGG_FUNCS})")
    partial_aggs = [([], "count_all") if c is None else (c, f) for c, f in aggs]
    # counts re-aggregate as sums of partial counts
    refold_aggs = [
        ("count_all" if c is None else f"{c}_{f}", "sum" if f == "count" else f)
        for c, f in aggs
    ]
    names = key_cols + ["count()" if c is None else f"{f}({c})" for c, f in aggs]

    def fold(g: pa.Table) -> pa.Table:
        return _arrow_agg(g, key_cols, refold_aggs).rename_columns(names)

    partials = ds.map_batches(
        lambda t: _arrow_agg(t, key_cols, partial_aggs),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return keyed_exchange(partials, fold, keys=key_cols, num_partitions=num_partitions)


def partitioned_group_sum(ds, key_cols, val_cols, *, num_partitions: int = 64):
    """``ds.groupby(key_cols).sum(val_cols)`` on the keyed exchange."""
    if isinstance(val_cols, str):
        val_cols = [val_cols]
    return partitioned_group_agg(
        ds, key_cols, [(v, "sum") for v in val_cols], num_partitions=num_partitions
    )


def map_groups(ds, keys, fn, *, num_partitions: int):
    """``ds.groupby(keys).map_groups(fn, batch_format="pyarrow")`` on the
    keyed exchange.

    ``fn`` maps one key's rows (a ``pyarrow`` table without ``_part``) to a
    ``pyarrow`` table; it runs once per distinct key (a NULL key is one
    key), in no set order, and the outputs of one partition are
    concatenated.
    """
    from ..stages.accumulate import group_codes

    key_cols = [keys] if isinstance(keys, str) else list(keys)

    def per_partition(t: pa.Table) -> pa.Table:
        codes, _ = group_codes(t, key_cols)
        order = np.argsort(codes, kind="stable")
        # one take puts each key's rows together, in row order; fn gets
        # zero-copy slices
        t = t.drop_columns(["_part"]).take(pa.array(order))
        bounds = np.append(np.flatnonzero(run_starts(codes[order])), len(order))
        outs = [fn(t.slice(a, b - a)) for a, b in zip(bounds[:-1], bounds[1:])]
        # one chunk per column: a table of one chunk per key is slow to ship
        return pa.concat_tables(outs).combine_chunks()

    return keyed_exchange(ds, per_partition, keys=key_cols, num_partitions=num_partitions)
