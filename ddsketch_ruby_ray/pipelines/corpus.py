"""Flagship pipeline: per-group quantile sketches over a source-file corpus.

Shape (north_star): read -> map_batches(derive metric columns + accumulate
per-(batch, group) sketch states, zero-copy Arrow, actor pool) -> materialize
the state table -> route each state row to a hash partition of its group keys
-> ONE keyed exchange -> per-partition fold (merge states per group,
finalize).  A state table of at most ``fold._ONE_TASK_ROWS`` rows skips the
exchange: one task routes and folds it (:func:`~.fold.keyed_exchange`).

Two-level merge (SURVEY.md §4.2): raw rows NEVER cross a shuffle - each map
task emits at most ``num_groups`` KB-sized sketch states, and the single
exchange moves O(num_batches x num_groups) states.  Hot-key skew (Zipf langs)
costs the hot key O(num_batches) states, not O(rows), and the wide step is
negligible at any scale.

This is the one grouped plan, from a handful of groups to ~one per row:
accumulate, merge and finalize each run once per table over all of its
groups (``spec.accumulate_groups`` / ``merge_groups`` /
``finalize_groups``), and DDSketch's sparse states make those steps one
vectorized pass with no Python object per group
(:mod:`~ddsketch_ruby_ray.functions.ddgroups`).
"""

from __future__ import annotations

from typing import Sequence

from ..functions.specs import DDSketchSpec, SketchSpec, XorSigSpec
from ..stages import derive_content_metrics, unnest
from ..stages.derive import add_sha64
from ..stages.accumulate import SketchStateAccumulator, StateBlockMerger, group_codes
from .fold import keyed_exchange

__all__ = [
    "sketch_states",
    "merge_sketch_states",
    "merge_states",
    "group_sketches",
    "group_lookup",
    "grouped_sketch_pipeline",
    "corpus_sketch_pipeline",
    "documents_sketch_pipeline",
]


def sketch_states(
    ds,
    specs: Sequence[SketchSpec],
    group_keys: Sequence[str] = (),
    *,
    derive=None,
    batch_size: int | None = None,
    concurrency=None,
):
    """Stage 1: rows -> per-(batch, group) sketch-state rows (no shuffle).

    ``concurrency=N`` runs the accumulator as an actor pool (setup once per
    actor); the default (None) uses stateless tasks, which Ray schedules
    more flexibly - both execute the identical vectorized kernel.

    NULL group keys: the accumulator groups them correctly (their own group,
    like SQL GROUP BY); ``merge_sketch_states`` shuffles on a hash partition
    id, never on the keys, so nulls need no encoding around the exchange.
    """
    acc = SketchStateAccumulator(specs, group_keys, derive=derive)
    kwargs = {}
    if concurrency is not None:
        kwargs["concurrency"] = concurrency
    # batch_size=None -> whole blocks. Ray's default (1024 rows) would emit
    # one KB-sized state row per (1024-row batch x group x spec): a 1000x
    # state blow-up that turns the "tiny" state table into gigabytes.
    return ds.map_batches(
        acc, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size, **kwargs
    )


def _num_partitions(group_keys) -> int:
    """Partitions of the state exchange: one per cluster CPU, so the fold is
    a single parallel wave; one without group keys (a single group).  Not
    ``fold._PARTITIONS``: a state fold pays a fixed cost per call (see the
    measurements there)."""
    if not group_keys:
        return 1
    import ray

    return max(1, int(ray.cluster_resources().get("CPU", 0)))


def _fold_states(states, group_keys: Sequence[str], fold):
    """The materialized state table through one keyed exchange on the group
    keys, ``fold`` run on each partition."""
    return keyed_exchange(
        states.materialize(), fold, keys=list(group_keys),
        num_partitions=_num_partitions(group_keys),
    )


def merge_sketch_states(states, specs: Sequence[SketchSpec], group_keys: Sequence[str] = ()):
    """Stage 2: one :func:`~.fold.keyed_exchange` of the state table on the
    group keys; one result row per group.

    The state table is materialized first: it has at most blocks x groups
    rows, so it is bounded by construction, and its row count is then block
    metadata.  A small one is folded in one task with no exchange; a larger
    one runs the direct exchange with one partition per cluster CPU.  Each
    partition's fold merges its states per group and finalizes them
    (:meth:`StateBlockMerger.finalize_groups`).
    NULL group keys route like any value, and the fold groups them apart
    from every real value (SQL GROUP BY semantics).  Without group keys the
    whole table is one group.  Rows come out in no particular order.  Output: the group keys plus
    one struct column per spec (``spec.name``), flattened by callers via
    :func:`ddsketch_ruby_ray.stages.unnest`.  An empty input gives an empty
    result.
    """
    return _fold_states(states, group_keys, StateBlockMerger(specs, group_keys).finalize_groups)


def merge_states(states, specs: Sequence[SketchSpec], group_keys: Sequence[str] = ()):
    """The same keyed exchange as :func:`merge_sketch_states` (the state
    table is materialized, and a small one is folded in one task with no
    exchange), ending in one merged STATE row per group instead of a
    finalized result.

    Output: the group keys plus one state struct per spec, typed
    ``spec.state_type()`` like the input, so it can be merged again at a
    coarser grouping (rollup, cube) or decoded with ``spec.from_state``.
    """
    return _fold_states(states, group_keys, StateBlockMerger(specs, group_keys).__call__)


def group_sketches(ds, spec: SketchSpec, group_col: str, *, derive=None) -> dict:
    """rows -> ``{group key: merged sketch}`` on the driver.

    One state row per group is pulled (KB-sized each), so the driver holds
    O(groups) sketches, never rows."""
    states = sketch_states(ds, [spec], (group_col,), derive=derive)
    return {
        r[group_col]: spec.from_state(r[spec.name])
        for r in merge_states(states, [spec], (group_col,)).take_all()
    }


def group_lookup(t, group_col: str, table: dict, default, dtype=None):
    """The probe side of :func:`group_sketches`: each row of ``t`` finds its
    group's entry of a broadcast ``{group key: value}`` table.

    -> ``(codes, groups, lut)``: ``codes`` are :func:`group_codes` of the
    rows (NULL is one group, probed as ``None``), ``groups[c]`` is the c-th
    distinct key and ``lut[c] = table.get(groups[c], default)``, so
    ``lut[codes]`` is the per-row value.  One dict probe per distinct group
    in ``t``, none per row.
    """
    import numpy as np

    codes, first = group_codes(t, (group_col,))
    groups = t.column(group_col).take(first)
    lut = np.array([table.get(g, default) for g in groups.to_pylist()], dtype=dtype)
    return codes, groups, lut.reshape(len(first), *np.shape(default))


def grouped_sketch_pipeline(
    ds,
    specs: Sequence[SketchSpec],
    group_keys: Sequence[str] = (),
    *,
    derive=None,
    batch_size: int | None = None,
    concurrency=None,
    prefixes: dict | None = None,
):
    """rows -> per-group sketch results, flat columns.

    The two-level merge: per-(block, group) states inside the (fused) map
    stage, then ONE keyed exchange of those states with a per-partition
    merge + finalize (:func:`merge_sketch_states`).  Raw rows never
    shuffle and a hot key costs O(blocks) states.  Each step runs every
    group of a table in one table-level pass of its spec, so DDSketch and
    XorSig cost no Python per group at any cardinality.

    ``prefixes`` maps spec name -> output column prefix for the unnested
    result struct (default: no prefix).
    """
    states = sketch_states(
        ds, specs, group_keys, derive=derive, batch_size=batch_size, concurrency=concurrency
    )
    out = merge_sketch_states(states, specs, group_keys)
    for spec in specs:
        prefix = (prefixes or {}).get(spec.name)
        out = unnest(out, columns=[spec.name], prefix=prefix)
    return out


def corpus_sketch_pipeline(
    ds,
    *,
    group_keys=("lang",),
    alpha: float = 0.01,
    quantiles=(0.5, 0.9, 0.99),
    content_col: str = "content",
    batch_size: int | None = None,
    concurrency=None,
    verify_sha256: bool = False,
    strategy: str = "states",
):
    """content corpus -> per-group sketch summary of byte length + line count.

    Returns a Dataset with columns: group keys + ``bytes_*`` / ``lines_*``
    (count/sum/min/max/avg + requested quantiles).  With ``verify_sha256`` the
    result also carries ``sig_count`` / ``sig_sig``: an order-independent
    XOR-fold of per-row sha256 hashes per group (the north-star per-row
    content invariant, provable against any reference copy of the corpus).

    NOTE on fusion: callers should prune columns AT THE READ
    (``read_parquet(..., columns=[...])``) and read with one block per file
    (``override_num_blocks=len(files)``) so Ray fuses
    ReadParquet->MapBatches(accumulator) into one task.  Fused, the wide
    ``content`` column never enters the object store - the read task itself
    emits only KB-sized sketch states.  (A ``select_columns`` here, or the
    SplitBlocks operator that appears when Ray re-splits read outputs, breaks
    that fusion and ships the full corpus through shared memory.)

    ``strategy`` accepts only ``"states"``, the one plan; the parameter is
    kept for callers that read its default and goes with them.
    """
    if strategy != "states":
        raise ValueError(f"unknown strategy {strategy!r}")
    specs = [
        DDSketchSpec(on="content_bytes", name="bytes", relative_accuracy=alpha, quantiles=quantiles),
        DDSketchSpec(on="n_lines", name="lines", relative_accuracy=alpha, quantiles=quantiles),
    ]
    prefixes = {"bytes": "bytes_", "lines": "lines_"}
    if verify_sha256:
        specs.append(XorSigSpec(on="sha64", name="sig"))
        prefixes["sig"] = "sig_"

    def derive(t):
        t = derive_content_metrics(t, content_col=content_col)
        if verify_sha256:
            t = add_sha64(t, content_col=content_col)
        return t.drop_columns([content_col])

    return grouped_sketch_pipeline(
        ds,
        specs,
        group_keys,
        derive=derive,
        batch_size=batch_size,
        concurrency=concurrency,
        prefixes=prefixes,
    )


def read_corpus(path, columns, num_blocks: int | None = None):
    """read_parquet tuned for fusion: one block per file unless told otherwise.

    With an explicit block count Ray skips the SplitBlocks re-split and fuses
    the read with the downstream accumulator (see corpus_sketch_pipeline).
    """
    import glob
    import os

    import ray.data as rd

    if num_blocks is None:
        if isinstance(path, (list, tuple)):
            num_blocks = len(path)
        elif os.path.isdir(path):
            num_blocks = len(glob.glob(os.path.join(path, "*.parquet"))) or None
        else:
            num_blocks = 1
    return rd.read_parquet(
        path, columns=list(columns) if columns else None, override_num_blocks=num_blocks
    )


def documents_sketch_pipeline(sf_dir: str, *, alpha: float = 0.01, quantiles=(0.5, 0.9, 0.99)):
    """Same pipeline over the driver testdata ``documents`` table (text docs)."""
    ds = read_corpus(f"{sf_dir}/documents.parquet", ["lang", "text"])
    return corpus_sketch_pipeline(ds, group_keys=("lang",), alpha=alpha, quantiles=quantiles, content_col="text")
