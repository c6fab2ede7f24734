"""Deterministic hash-based splitting / sampling stages.

The training-data staples Ray Data's ``random_sample``/``split_proportionately``
cannot give you at 100 TB: REPRODUCIBLE row routing that is a pure function
of the row id - independent of block layout, run count, cluster size, or
resume point, and exactly mirrorable in SQL.

* ``assign_split``     - train/val/test (any named fractions) per row;
* ``stratified_sample``- keep a per-group fraction of rows (per-lang rates);
* both route on ``hash64_int(id, seed) < floor(frac * 2^64)`` - splitmix64
  (`core/hashing.py`) has a bit-exact DuckDB mirror (``splitmix64_sql``),
  so every sampled subset is oracle-verifiable row-for-row.

Pure ``map_batches`` stages: no shuffle, no state, embarrassingly parallel,
and a resumed/re-run job routes every row identically (the checkpointing
story in `state/checkpoint.py` depends on exactly this determinism).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.hashing import hash64_int
from ..core.numeric import run_starts

__all__ = [
    "assign_split",
    "stratified_sample",
    "split_thresholds",
    "bottomk_sample",
    "weighted_sample",
    "mixture_rebalance",
]

_TWO64 = 1 << 64


def split_thresholds(fractions) -> list[int]:
    """Cumulative uint64 thresholds for named fractions (must sum to ~1).

    Exposed so the SQL oracle can embed the SAME integer literals - both
    sides compare against identical thresholds, never against floats.
    """
    fracs = list(fractions)
    if not fracs or any(f <= 0 for f in fracs):
        raise ValueError(f"fractions must be positive: {fracs}")
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1: {fracs}")
    cum, acc = [], 0.0
    for f in fracs[:-1]:
        acc += f
        cum.append(min(int(acc * _TWO64), _TWO64 - 1))
    cum.append(_TWO64)  # last split takes the remainder exactly
    return cum


def assign_split(ds, *, id_col: str, splits: dict[str, float], seed: int = 0,
                 out_col: str = "split"):
    """Append ``out_col``: the split name routed by ``hash(id, seed)``.

    Expected sizes follow the fractions; actual membership is exact and
    reproducible (a row is in 'val' in every run, every layout, forever).
    """
    names = list(splits.keys())
    # compare in the uint64 domain against the exact integer thresholds
    # (the last one, 2^64, clamps to 2^64-1; the h == 2^64-1 row is routed
    # to the final split by the min() below)
    cum_u = np.array(
        [min(t, _TWO64 - 1) for t in split_thresholds(splits.values())],
        dtype=np.uint64,
    )
    name_arr = np.array(names)

    def stage(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = hash64_int(ids, seed)
        idx = np.searchsorted(cum_u, h, side="right")
        # h == 2^64-1 lands past the clamped last threshold; it belongs to
        # the final split
        idx = np.minimum(idx, len(names) - 1)
        return t.append_column(out_col, pa.array(name_arr[idx]))

    return ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)


def stratified_sample(ds, *, id_col: str, group_col: str,
                      rates: dict[str, float], default_rate: float = 0.0,
                      seed: int = 7):
    """Keep each row with its group's rate: ``hash(id, seed) < rate * 2^64``.

    Per-group sampling rates (e.g. keep 100% of rare langs, 5% of English)
    without a shuffle; unlisted groups fall back to ``default_rate``.
    """
    thr = {g: min(int(r * _TWO64), _TWO64 - 1) for g, r in rates.items()}
    dflt = min(int(default_rate * _TWO64), _TWO64 - 1)

    def stage(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = hash64_int(ids, seed)
        groups = t.column(group_col).to_numpy(zero_copy_only=False)
        limit = np.full(len(ids), np.uint64(dflt), dtype=np.uint64)
        for g, tv in thr.items():
            limit[groups == g] = np.uint64(tv)
        return t.filter(pa.array(h < limit))

    return ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)


def bottomk_sample(ds, *, id_col: str, k: int, seed: int = 0,
                   group_col: str | None = None):
    """EXACTLY-k uniform sample: the k rows with the smallest ``hash(id, seed)``
    - globally, or per group with ``group_col``.

    This is the row-payload twin of the KMV bottom-k sketch (core/kmv.py):
    fixed sample SIZE (vs the fixed RATE of :func:`stratified_sample`),
    mergeable by construction (the bottom-k of a union is the bottom-k of
    the parts' bottom-ks), layout/run/cluster-invariant, and mirrorable in
    SQL as ``row_number() OVER ([PARTITION BY g] ORDER BY hash) <= k``.

    Scale shape: every block is pre-filtered to its own k smallest rows
    before anything moves, so the global sort (or the per-group rank
    shuffle) sees at most ``k x num_blocks`` rows, never the corpus.
    """

    def add_h(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("_h", pa.array(hash64_int(ids, seed)))

    def block_prefilter(t: pa.Table) -> pa.Table:
        if group_col is None and t.num_rows > k:
            h = t.column("_h").to_numpy(zero_copy_only=False)
            return t.take(pa.array(np.argpartition(h, k - 1)[:k]))
        return t

    def block_prefilter_grouped(t: pa.Table) -> pa.Table:
        # keep each group's k smallest within the block (bottom-k mergeability)
        if t.num_rows <= k:
            return t
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        h = t.column("_h").to_numpy(zero_copy_only=False)
        order = np.lexsort((h, g))
        g_s = g[order]
        pos = np.arange(len(order))
        new_g = run_starts(g_s)
        seg_start = np.maximum.accumulate(np.where(new_g, pos, -1))
        return t.take(pa.array(order[(pos - seg_start) < k]))

    hashed = ds.map_batches(add_h, batch_format="pyarrow", zero_copy_batch=True)
    if group_col is None:
        pruned = hashed.map_batches(
            block_prefilter, batch_format="pyarrow", zero_copy_batch=True
        )
        return pruned.sort("_h").limit(k).drop_columns(["_h"])
    from ..pipelines.topk import per_group_topk

    pruned = hashed.map_batches(
        block_prefilter_grouped, batch_format="pyarrow", zero_copy_batch=True
    )
    out = per_group_topk(
        pruned,
        group_col=group_col,
        value_col="_h",
        tiebreak_col=id_col,
        k=k,
        ascending=True,
    )
    return out.drop_columns(["_h"])


_TWO64_F = 18446744073709551616.0


def weighted_sample(ds, *, id_col: str, weight_col: str, k: int, seed: int = 0,
                    group_col: str | None = None):
    """EXACTLY-k weighted sample WITHOUT replacement (Efraimidis-Spirakis,
    IPL 2006): keep the k rows with the largest priority

        pri = log2((hash(id, seed) + 1) / 2^64) / max(weight, 1)

    which is order-equivalent to the classic u^(1/w) key - a row's
    inclusion probability scales with its weight (e.g. token count: the
    pretraining "sample documents proportional to length" op).  Globally,
    or per group with ``group_col``.

    Deterministic and SQL-mirrorable: numpy's log2 is bit-identical to
    DuckDB's on this platform (the functions/oracle.py parity), the uint64
    -> double conversion and the divisions are IEEE-defined, so both sides
    rank the very same doubles.  Same per-block prefilter scale shape as
    :func:`bottomk_sample`; weights <= 0 are clamped to 1 (mirror uses
    ``greatest(w, 1)``).
    """

    def add_pri(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = hash64_int(ids, seed).astype(np.float64)
        w = np.maximum(
            t.column(weight_col).to_numpy(zero_copy_only=False).astype(np.float64), 1.0
        )
        pri = np.log2((h + 1.0) / _TWO64_F) / w
        return t.append_column("_pri", pa.array(pri))

    def block_prefilter(t: pa.Table) -> pa.Table:
        if group_col is None and t.num_rows > k:
            pri = t.column("_pri").to_numpy(zero_copy_only=False)
            return t.take(pa.array(np.argpartition(-pri, k - 1)[:k]))
        return t

    hashed = ds.map_batches(add_pri, batch_format="pyarrow", zero_copy_batch=True)
    if group_col is None:
        pruned = hashed.map_batches(
            block_prefilter, batch_format="pyarrow", zero_copy_batch=True
        )
        return pruned.sort("_pri", descending=True).limit(k).drop_columns(["_pri"])

    def block_prefilter_grouped(t: pa.Table) -> pa.Table:
        if t.num_rows <= k:
            return t
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        pri = t.column("_pri").to_numpy(zero_copy_only=False)
        order = np.lexsort((-pri, g))
        g_s = g[order]
        pos = np.arange(len(order))
        new_g = run_starts(g_s)
        seg_start = np.maximum.accumulate(np.where(new_g, pos, -1))
        return t.take(pa.array(order[(pos - seg_start) < k]))

    from ..pipelines.topk import per_group_topk

    pruned = hashed.map_batches(
        block_prefilter_grouped, batch_format="pyarrow", zero_copy_batch=True
    )
    out = per_group_topk(
        pruned, group_col=group_col, value_col="_pri", tiebreak_col=id_col, k=k
    )
    return out.drop_columns(["_pri"])


def mixture_rebalance(ds, *, id_col: str, group_col: str,
                      weights: dict, seed: int = 0):
    """Downsample to TARGET mixture proportions (the training-mix step:
    "make the corpus 3:3:2:1:3 across languages").

    ``weights`` are integer target proportions per group.  The largest
    feasible sample keeping those exact ratios is set by the BINDING group
    ``l* = argmin c_l / w_l`` (compared exactly by cross-multiplication,
    ties -> smallest group key); every group's quota is then
    ``k_g = w_g * c_l* // w_l*`` — all Python-int arithmetic, so engine and
    SQL mirror agree bit-for-bit.  Groups absent from ``weights`` are
    dropped; if any weighted group is empty the whole sample is empty (the
    mixture is infeasible).

    The rows kept per group are the ``k_g`` with the smallest
    ``hash64(id, seed)`` (ties -> smallest id): deterministic, layout- and
    resume-invariant, SQL-mirrorable as a per-group row_number over the
    same splitmix64 expression.

    Scale shape: one tiny (group, count) aggregate decides the quotas on
    the driver (KB — one row per group); the sample itself is the grouped
    bottom-k plan with per-group k (block-local pushdown, shuffle carries
    <= k_g rows per (block, group)).
    """
    from ..pipelines.fold import partitioned_group_agg
    from ..pipelines.topk import per_group_topk

    # one row per group
    counts = partitioned_group_agg(ds, group_col, [(None, "count")]).take_all()
    c = {r[group_col]: int(r["count()"]) for r in counts if r[group_col] in weights}
    if not c or any(w <= 0 for w in weights.values()):
        raise ValueError("mixture_rebalance: empty corpus overlap or nonpositive weight")
    star = None
    for g in sorted(c):
        # c_g / w_g < c_star / w_star  <=>  c_g * w_star < c_star * w_g
        if star is None or c[g] * weights[star] < c[star] * weights[g]:
            star = g
    if len(c) < len(weights):  # a weighted group has zero rows -> infeasible
        k_map = {g: 0 for g in weights}
    else:
        k_map = {g: weights[g] * c[star] // weights[star] for g in weights}

    def add_h(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("_h", pa.array(hash64_int(ids, seed)))

    hashed = ds.map_batches(add_h, batch_format="pyarrow", zero_copy_batch=True)
    out = per_group_topk(
        hashed,
        group_col=group_col,
        value_col="_h",
        tiebreak_col=id_col,
        k=k_map,
        ascending=True,
    )
    return out.drop_columns(["_h"])
