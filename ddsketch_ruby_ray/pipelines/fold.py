"""The keyed exchange every pipeline runs, and exact keyed aggregation on it.

Every exact or mergeable operator here has one shape: route each row by a
hash of its key, run ONE exchange, fold each partition.  Equal keys land in
one partition by construction, so any associative fold (integer sums,
sketch-state merges, set unions, per-key scans) is complete per partition.

:func:`keyed_exchange` is that shape, and the library's only exchange of
keyed rows.  It runs no sort: the partition domain ``[0, P)`` is known, so
rows go straight to their partition's fold:

1. **route** — every row gets ``_part = _part_of(keys) mod num_partitions``.
   For a lazy input this is a whole-block ``map_batches`` step that Ray
   fuses into the input's upstream map task, so routing costs no extra
   operator; it runs BEFORE the inputs are unioned (after a ``union`` it
   would run as its own unfused operator).  A materialized input has no
   map task to fuse into, so its blocks are routed where they are cut;
2. **exchange** — one of two backends, picked from metadata alone:

   * when every input is a ``MaterializedDataset`` and their rows total at
     most ``_ONE_TASK_ROWS`` (block metadata, so no input is executed to
     decide), ONE ``map_batches`` task (``MapBatches(fold_in_one_task)`` in
     ``ds.stats()``) routes the rows and folds each partition.  Small
     sketch-state tables, rollup/cube levels and small materialized graph
     state take this path; the result stays lazy;
   * otherwise the direct exchange (the Exoshuffle shape, Luan et al.,
     SIGCOMM 2023).  Each input block goes through one
     ``keyed_exchange.split`` task that cuts it by ``_part % W`` into W
     pieces sorted by ``_part``, W = ``min(P, cluster CPUs)``; then W
     ``keyed_exchange.fold`` tasks each fold the partitions of one piece
     index, copying one partition's rows at a time.  Lazy inputs are
     streamed (``iter_internal_ref_bundles``), so split tasks start while
     the inputs still run.  This backend EXECUTES its inputs when
     ``keyed_exchange`` is called and returns a ``MaterializedDataset`` of
     at most W blocks; the maps a caller adds after it stay lazy.  In
     ``ds.stats()`` the fold tasks are operator ``keyed_exchange.fold``,
     after the operators that made the inputs;
3. **reduce** — the caller's per-partition fold over ``pyarrow`` tables,
   which still see ``_part`` (co-partitioned graph state and
   ``packing``'s partition id read it).  Both backends call it once per
   distinct ``_part``, in ascending order, on exactly that partition's rows
   (:func:`_fold_partitions`); on materialized input those rows come in
   stored block order, so two runs, and the two backends, see the same
   order.  A fold task that gets no rows adds no block, so no schema-less
   empty block leaves the exchange.

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
stay on paths that fix their summation order.  Output rows come in
partition order, not key order: a caller that needs key order sorts.

The partition count P is this module's decision, ``_PARTITIONS``, not an
option of the pipelines: every fold is associative, so P never changes a
result, only how many ``reduce`` calls each fold task makes
(``distinct_keys / P`` rows each).  A caller that tags ``_part`` itself
reads ``fold._PARTITIONS`` once, on the driver, and ships the value into its
map closures (a Ray worker imports this module afresh).

:func:`map_groups` is ``ds.groupby(keys).map_groups(fn)`` on the same
exchange: each partition splits into its keys' row sets and ``fn`` runs once
per key, on exactly that key's rows (``_part`` dropped), in no set order.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import ray
from ray.data.block import BlockExecStats, BlockMetadataWithSchema
from ray.data.dataset import MaterializedDataset

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

_log = logging.getLogger(__name__)


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
# task instead of the direct exchange; it applies only to materialized
# inputs, whose row count is block metadata.  Measured on 4-CPU x86 (ray
# 2.49.2): merge_sketch_states of a materialized DDSketch state table
# (alpha 0.01; 2M lognormal values in 16 blocks, uniform int64 group keys),
# one-task fold / direct exchange, best of 4, seconds:
#
#   state rows   num_cpus=2   num_cpus=4
#          480    0.11/0.14    0.09/0.13
#        1,600    0.12/0.15    0.11/0.15
#        3,200    0.14/0.15    0.16/0.18
#        4,800    0.16/0.17    0.21/0.18
#        8,000    0.18/0.18    0.19/0.19
#       16,000    0.21/0.18    0.28/0.22
#       48,000    0.26/0.25    0.36/0.27
#      160,000    0.44/0.32    0.59/0.31
#    1,140,000    0.85/0.56    0.88/0.51
#
# The crossover sits near 4e3-5e3 rows at 4 CPUs and 5e3-8e3 at 2; the limit
# sits at the smaller one.
_ONE_TASK_ROWS = 4_000

# Partition count of every keyed exchange whose caller passes none.  Row
# exchanges want fine partitions.  Measured on 4-CPU x86 (ray 2.49.2, lazy
# input, best of 3, two alternating rounds, seconds and peak worker RssAnon),
# P = 64 against P = 4:
#
#   partitioned_group_sum, 8M rows, 6M keys   1.06/1.12 s, 181/220 MB
#                                      P = 4  1.43/1.23 s, 266/268 MB
#   identity map_groups, 4M rows              1.22/1.20 s, 133/274 MB
#                                      P = 4  1.31/1.28 s, 310/307 MB
#
# The sketch-state fold (corpus._fold_states) is the exception and takes one
# partition per CPU: StateBlockMerger.finalize_groups pays a fixed cost per
# call (2 DDSketch specs + XorSig, one core, no Ray: 800 state rows of 400
# groups fold in 21 ms as 2 calls and 195 ms as 64; 1.14M state rows in
# 1.38 s as 4 calls and 1.91 s as 64).  Read at call time, so a test can
# set it.
_PARTITIONS = 64


def keyed_exchange(inputs, reduce, *, keys=None, num_partitions: int | None = None):
    """Route -> one exchange -> per-partition ``reduce``.

    ``inputs`` is a Dataset or a list of Datasets.  With ``keys`` (a column
    name or list of them, present in every input) each input is routed on
    its own, ``_part = _part_of(keys) mod num_partitions``, before the
    inputs meet; with ``keys=None`` every input must already carry an int32
    ``_part`` in ``[0, num_partitions)``.  ``num_partitions=None`` means
    ``_PARTITIONS``.  ``reduce`` gets one ``pyarrow`` table per partition
    (``_part`` included) and returns one.

    Materialized inputs of at most ``_ONE_TASK_ROWS`` rows in all fold in
    one map task; anything else runs the direct exchange, which executes
    the inputs before it returns.  Either way ``reduce`` is called once per
    partition, in ascending ``_part`` order.
    """
    if not isinstance(inputs, (list, tuple)):
        inputs = [inputs]
    if num_partitions is None:
        num_partitions = _PARTITIONS
    key_cols = None if keys is None else [keys] if isinstance(keys, str) else list(keys)
    if all(isinstance(ds, MaterializedDataset) for ds in inputs):
        # a materialized count is block metadata: no input is executed here
        n = sum(ds.count() for ds in inputs)
        if n <= _ONE_TASK_ROWS:
            _log.debug(
                "keyed_exchange: backend=one_task P=%d W=1 rows=%d bytes=%d",
                num_partitions, n, sum(ds.size_bytes() or 0 for ds in inputs),
            )
            return _fold_in_one_task(inputs, reduce, key_cols, num_partitions, n)
    return _direct_exchange(inputs, reduce, key_cols, num_partitions)


def _route(t: pa.Table, key_cols, num_partitions: int) -> pa.Table:
    """``t`` with its ``_part`` column appended."""
    # Ray's empty blocks may be schema-less: no key column to read
    part = _part_of(t, key_cols, num_partitions) if t.num_rows else np.zeros(0, np.int32)
    return t.append_column("_part", pa.array(part))


def _by_part(t: pa.Table, width: int = 1):
    """Row order of ``t`` sorted by (``_part % width``, ``_part``), rows of
    one partition in their order in ``t``.  -> (that order, the sorted
    ``_part % width``)."""
    part = t.column("_part").to_numpy()
    lane = part % width
    order = np.argsort(lane.astype(np.int64) * (int(part.max()) + 1) + part, kind="stable")
    return order, lane[order]


def _fold_partitions(t: pa.Table, reduce):
    """``reduce`` of each distinct ``_part``'s rows of ``t``, in ascending
    ``_part`` order.  ``t`` is pieces concatenated, each sorted by ``_part``
    (:func:`_by_part`); a partition's rows come piece by piece, each piece's
    in its order.  Only the partition being folded is copied, so a fold
    holds one partition beside its input, not a sorted copy of it all."""
    part = t.column("_part").to_numpy()
    starts = np.flatnonzero(run_starts(part))
    ends = np.append(starts[1:], len(part))
    runs = np.lexsort((starts, part[starts]))  # by partition, then position
    bounds = np.append(np.flatnonzero(run_starts(part[starts[runs]])), len(runs))
    for a, b in zip(bounds[:-1], bounds[1:]):
        pieces = [t.slice(starts[r], ends[r] - starts[r]) for r in runs[a:b]]
        yield reduce(pa.concat_tables(pieces).combine_chunks())


def _fold_in_one_task(inputs, reduce, key_cols, num_partitions: int, n: int):
    """:func:`keyed_exchange`'s backend for ``n`` materialized rows: one
    ``map_batches`` task (``batch_size=n`` bundles every block into it, in
    stored order) routes the rows and yields ``reduce`` of each partition."""

    def fold_in_one_task(t: pa.Table):
        if not t.num_rows:
            return
        if key_cols is not None:
            t = _route(t, key_cols, num_partitions)
        yield from _fold_partitions(t.take(_by_part(t)[0]), reduce)

    ds = inputs[0].union(*inputs[1:]) if len(inputs) > 1 else inputs[0]
    return ds.map_batches(fold_in_one_task, batch_format="pyarrow", batch_size=max(n, 1))


def _split(block: pa.Table, key_cols, num_partitions: int, width: int):
    """One block -> ``width`` pieces, piece ``i`` holding the rows whose
    ``_part % width == i``, sorted by ``_part`` and otherwise in block
    order; ``key_cols`` routes a block that has no ``_part`` yet."""
    if not block.num_rows:  # Ray's empty blocks may be schema-less
        return (block,) * width if width > 1 else block
    if key_cols is not None:
        block = _route(block, key_cols, num_partitions)
    order, lane = _by_part(block, width)
    if width == 1:
        return block.take(order)
    bounds = np.searchsorted(lane, np.arange(width + 1))
    # a take per piece: each piece owns its rows, not the whole block
    return [block.take(order[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _fold(reduce, index: int, *pieces: pa.Table):
    """Fold task ``index`` of the direct exchange: its pieces, concatenated
    in submission order, through :func:`_fold_partitions`.  -> (the reduce
    outputs as one table, its block metadata with this task's run times;
    ``None`` when no row came in)."""
    from ray.data._internal.arrow_ops.transform_pyarrow import concat

    timer = BlockExecStats.builder()
    pieces = [p for p in pieces if p.num_rows]
    if not pieces:
        return pa.table({}), None
    out = concat(list(_fold_partitions(concat(pieces, promote_types=True), reduce)),
                 promote_types=True)
    stats = timer.build()
    stats.task_idx = index
    return out, BlockMetadataWithSchema.from_block(out, stats=stats)


_split_task = ray.remote(name="keyed_exchange.split")(_split)
_fold_task = ray.remote(num_returns=2, name="keyed_exchange.fold")(_fold)


def _direct_exchange(inputs, reduce, key_cols, num_partitions: int):
    """:func:`keyed_exchange`'s backend for everything else (see the module
    docstring): fold task ``i`` gets piece ``i`` of every block, in split
    submission order, and folds partitions ``i, i + W, ...``."""
    width = max(1, min(num_partitions, int(ray.cluster_resources().get("CPU", 1))))
    stored = [ds for ds in inputs if isinstance(ds, MaterializedDataset)]
    lazy = [ds for ds in inputs if not isinstance(ds, MaterializedDataset)]
    if key_cols is not None:

        def route(t: pa.Table) -> pa.Table:
            return _route(t, key_cols, num_partitions)

        lazy = [
            ds.map_batches(route, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
            for ds in lazy
        ]
    streams = [(ds, key_cols) for ds in stored]
    if lazy:
        streams.append((lazy[0].union(*lazy[1:]) if len(lazy) > 1 else lazy[0], None))

    split = _split_task.options(num_returns=width)
    pieces, rows, nbytes = [], 0, 0
    for ds, route_keys in streams:
        for bundle in ds.iter_internal_ref_bundles():
            for block, meta in bundle.blocks:
                rows += meta.num_rows or 0
                nbytes += meta.size_bytes or 0
                out = split.remote(block, route_keys, num_partitions, width)
                pieces.append(out if width > 1 else [out])
    _log.debug(
        "keyed_exchange: backend=direct P=%d W=%d rows=%d bytes=%d",
        num_partitions, width, rows, nbytes,
    )
    reduce_ref = ray.put(reduce)
    folds = [_fold_task.remote(reduce_ref, i, *(p[i] for p in pieces)) for i in range(width)]
    metas = ray.get([meta for _, meta in folds])
    blocks = [(t, meta) for (t, _), meta in zip(folds, metas) if meta is not None]
    if not blocks:
        blocks = [(folds[0][0], BlockMetadataWithSchema.from_block(pa.table({})))]
    return _as_dataset(blocks, [ds._plan.stats() for ds, _ in streams])


def _as_dataset(blocks, parents) -> MaterializedDataset:
    """A ``MaterializedDataset`` of the fold outputs, from the metadata the
    fold tasks returned (no metadata task per block), with the fold tasks
    as operator ``keyed_exchange.fold`` after the stats of the inputs
    (``parents``).

    The stats lineage is the point: ``ds.stats()`` of any pipeline past the
    exchange lists the operators that made its inputs, then the fold tasks
    with their times, rows and bytes.  ``ray.data.from_arrow_refs`` would
    start the stats over at a ``FromArrow`` with 0 s of wall, which
    ``perfbench``'s per-operator split divides by, and which hides the work
    before the exchange; the tests assert the lineage.  Built from Ray Data
    internals (``ExecutionPlan``, ``DatasetStats``, ``FromArrow``) as of
    Ray 2.49."""
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.context import DataContext

    refs, metas = (list(x) for x in zip(*blocks))
    stats = DatasetStats(metadata={"keyed_exchange.fold": metas}, parent=parents)
    plan = ExecutionPlan(stats, DataContext.get_current().copy())
    return MaterializedDataset(plan, LogicalPlan(FromArrow(refs, metas), plan._context))


def _arrow_agg(tbl: pa.Table, key_cols: list[str], aggs: list[tuple]) -> pa.Table:
    """One Arrow hash aggregation; columns come back ``{col}_{func}``, and
    ``count_all`` for the row count ``([], "count_all")``."""
    cols = list(dict.fromkeys(key_cols + [c for c, _ in aggs if isinstance(c, str)]))
    return tbl.select(cols).group_by(key_cols).aggregate(aggs)


def partitioned_group_agg(ds, key_cols, aggs):
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
    return keyed_exchange(partials, fold, keys=key_cols)


def partitioned_group_sum(ds, key_cols, val_cols):
    """``ds.groupby(key_cols).sum(val_cols)`` on the keyed exchange."""
    if isinstance(val_cols, str):
        val_cols = [val_cols]
    return partitioned_group_agg(ds, key_cols, [(v, "sum") for v in val_cols])


def map_groups(ds, keys, fn):
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

    return keyed_exchange(ds, per_partition, keys=key_cols)
