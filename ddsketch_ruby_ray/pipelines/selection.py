"""Sketch-guided EXACT quantile selection (exact median at 100 TB).

DDSketch answers quantiles within α, but its bucket COUNTS are exact - so it
can also drive an exact selection: the k-th smallest value's bucket is known
from one sketch pass (cumulative bin counts), and only the rows of that ONE
bucket (a ±α value window, typically a vanishing fraction of the corpus)
need a second, filtered scan.  Exact order statistics with two streaming
passes and no global sort - the sketch narrows, the scan finishes.

One engine, :func:`_exact_ranks`, runs every selection here:

1. one grouped sketch build (:func:`~.corpus.group_sketches`) turns each
   group's requested ranks into a zero-band mark or a (bucket key, local
   rank) pair, broadcast once;
2. one candidate scan keeps the rows of the targeted buckets;
3. one single-partition select walks each target bucket's running weight,
   in value order, to the first value whose running weight EXCEEDS the
   local rank.

Unweighted selection is the same walk with weight 1 per row (the k-th value
of a bucket is where the running count first exceeds k).  The weighted
pipeline feeds its weight column to the sketch and the walk; the
interpolated one selects the two ranks it blends.  Every per-row group step
goes through :func:`~.corpus.group_lookup`, so a NULL group key is one group
like any other.

Rank convention: floor-rank k = floor(q·(n-1)), the reference's
get_quantile_value arithmetic (base_sketch.rb:125) made exact (n is the
total weight when weighted).  Positive values only, with the zero band
handled (a rank inside the zero band selects exactly 0, matching the
reference's zero-band return and SQL's sort order for non-negative data).

Scale shape: pass 1 is the flagship grouped build (KB states shuffle);
pass 2 is map-only (bucket-key equality filter against a broadcast) plus a
per-group selection over the candidate rows of the targeted buckets, whose
sizes the sketch reports EXACTLY beforehand (``bins[b]`` rows - raise if a
caller picks a quantile whose bucket is degenerate-huge rather than
silently collecting it).  Every requested rank of a column shares both
passes: a two-sided trim (p10 + p90) costs the same two streaming passes as
a single median.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..core.numeric import run_starts
from ..functions.specs import DDSketchSpec, quantile_name
from .corpus import group_lookup, group_sketches

__all__ = [
    "sketch_exact_quantile_pipeline",
    "sketch_exact_quantiles_pipeline",
    "sketch_exact_weighted_quantile_pipeline",
    "sketch_exact_interp_quantile_pipeline",
]

# plan key of a rank in the zero band, and the key of a non-positive row:
# neither is a bucket key, and they differ, so no row ever matches the former
_ZERO_BAND = np.iinfo(np.int64).max
_NOT_POSITIVE = np.iinfo(np.int64).min


def _exact_ranks(ds, *, group_col, value_col, weight_col, ranks, alpha, max_mass, what, finish):
    """The EXACT values at the floor-ranks ``ranks(n)`` of each group.

    ``ranks(n)`` gives K ranks in ``[0, n)`` for a group of total weight
    ``n``; ``finish(n, x)`` turns the int64 totals ``n[G]`` and the selected
    values ``x[G, K]`` (float64) into the output columns, a dict of name ->
    float64 array.  ``weight_col=None`` walks weight 1 per row; ``max_mass``
    caps a target bucket's rows (or weight); ``what`` names the caller in
    errors.  -> Dataset[(group_col, *finish columns)].
    """
    import ray
    import ray.data as rd

    spec = DDSketchSpec(
        on=value_col, name="s", relative_accuracy=alpha, quantiles=(), weight=weight_col
    )
    index, ns, bkeys, locs = {}, [], [], []
    mapping = None
    for g, sk in group_sketches(ds, spec, group_col).items():
        mapping = sk.mapping
        if sk.negative_store.count:
            raise ValueError(f"{what}: positive values only")
        n = int(sk.count)
        if n == 0:
            continue
        zc = int(sk.zero_count)
        bins = np.asarray(sk.store.bins).astype(np.int64)  # exact integer masses
        cum = np.cumsum(bins)
        row_keys, row_locs = [], []
        for k in ranks(n):
            if k < zc:
                row_keys.append(_ZERO_BAND)
                row_locs.append(0)
                continue
            b = int(np.searchsorted(cum, k - zc, side="right"))
            if bins[b] > max_mass:
                raise ValueError(
                    f"{what}: bucket for group {g!r} holds {int(bins[b])} rows or"
                    f" mass (> {max_mass}); pick a different quantile or raise the limit"
                )
            row_keys.append(int(sk.store.min_key) + b)
            row_locs.append(k - zc - (int(cum[b - 1]) if b else 0))
        index[g] = len(ns)
        ns.append(n)
        bkeys.append(row_keys)
        locs.append(row_locs)

    def table(groups, n, x) -> pa.Table:
        cols = {c: pa.array(a, pa.float64()) for c, a in finish(n, x).items()}
        return pa.table({group_col: groups, **cols})

    if not index:
        # no group has a value: a typed empty table, known after the sketch pass
        sch = ds.schema()
        gtype = sch.base_schema.field(group_col).type if sch is not None else pa.null()
        x = np.zeros((0, len(ranks(1))))
        return rd.from_arrow(table(pa.array([], gtype), np.zeros(0, np.int64), x))
    ns = np.asarray(ns, np.int64)
    bkeys = np.asarray(bkeys, np.int64)
    ref = ray.put((index, ns, bkeys, np.asarray(locs, np.int64), mapping))

    def candidates(t: pa.Table) -> pa.Table:
        idx, _, tk, _, mp = ray.get(ref)
        vals = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        cols = [group_col, value_col]
        if weight_col is not None:
            cols.append(weight_col)
            w = t.column(weight_col).to_numpy(zero_copy_only=False)
            if w.dtype.kind == "f" and (np.floor(w) != w)[~np.isnan(w)].any():
                raise ValueError(f"{what}: weight column {weight_col!r} holds a non-integer weight")
        codes, _, lut = group_lookup(t, group_col, idx, -1, np.int64)
        row = lut[codes]
        keys = np.full(len(vals), _NOT_POSITIVE, dtype=np.int64)
        pos = vals > mp.min_possible
        keys[pos] = mp.key(vals[pos])
        keep = (row >= 0) & (keys[:, None] == tk[row]).any(axis=1)
        return t.select(cols).filter(pa.array(keep))

    def select(pt: pa.Table) -> pa.Table:
        idx, n, tk, loc, mp = ray.get(ref)
        codes, _, lut = group_lookup(pt, group_col, idx, -1, np.int64)
        v = pt.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        if weight_col is None:
            w = np.ones(len(v), np.int64)
        else:
            w = pt.column(weight_col).to_numpy(zero_copy_only=False).astype(np.int64)
        row = lut[codes]
        order = np.lexsort((v, row))
        row, v, w = row[order], v[order], w[order]
        keys = np.asarray(mp.key(v), dtype=np.int64)
        x = np.zeros(tk.shape)  # a rank in the zero band selects 0
        for j in range(tk.shape[1]):
            m = keys == tk[row, j]
            r, run = row[m], np.cumsum(w[m])
            first = np.flatnonzero(run_starts(r))
            # running weight within the group's bucket rows = run - base; the
            # pick is the first row where it exceeds the local rank
            base = run[first] - w[m][first]
            x[r[first], j] = v[m][np.searchsorted(run, base + loc[r[first], j], side="right")]
        starts = np.flatnonzero(run_starts(row))
        present = row[starts]
        return table(pt.column(group_col).take(order[starts]), n[present], x[present])

    cand = ds.map_batches(candidates, batch_format="pyarrow", zero_copy_batch=True)
    # the candidate table is a few buckets per group: a single-partition
    # exact selection is safe by construction (sizes pre-checked from the
    # sketch)
    picked = cand.repartition(1).map_batches(
        select, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    # groups whose EVERY rank fell in the zero band have no candidate rows
    # (an empty dataset can skip the select call entirely), so they are
    # emitted from the driver-side plan instead
    zero = (bkeys == _ZERO_BAND).all(axis=1)
    if zero.any():
        zgroups = pa.array([g for g, i in index.items() if zero[i]])
        x = np.zeros((len(zgroups), bkeys.shape[1]))
        picked = picked.union(rd.from_arrow(table(zgroups, ns[zero], x)))
    return picked


def _floor_ranks(qs):
    return lambda n: [int(math.floor(q * (n - 1))) for q in qs]


def sketch_exact_quantile_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    q: float = 0.5,
    alpha: float = 0.01,
    max_candidates_per_group: int = 5_000_000,
):
    """-> Dataset[(group_col, exact_q: double)] - the EXACT floor-rank
    q-quantile value per group (single-q wrapper of
    :func:`sketch_exact_quantiles_pipeline`)."""
    return sketch_exact_quantiles_pipeline(
        ds,
        group_col=group_col,
        value_col=value_col,
        qs=(q,),
        alpha=alpha,
        max_candidates_per_group=max_candidates_per_group,
    )


def sketch_exact_quantiles_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    qs=(0.5,),
    alpha: float = 0.01,
    max_candidates_per_group: int = 5_000_000,
):
    """-> Dataset[(group_col, exact_<q1>, exact_<q2>, ...)] - the EXACT
    floor-rank quantile values per group, all from ONE sketch build + ONE
    candidate scan (the buckets of all requested ranks are unioned into a
    single broadcast filter)."""
    qs = tuple(qs)
    if not qs:
        raise ValueError("qs must be non-empty")
    qcols = [f"exact_{quantile_name(q)}" for q in qs]
    return _exact_ranks(
        ds,
        group_col=group_col,
        value_col=value_col,
        weight_col=None,
        ranks=_floor_ranks(qs),
        alpha=alpha,
        max_mass=max_candidates_per_group,
        what="sketch_exact_quantiles_pipeline",
        finish=lambda n, x: {c: x[:, i] for i, c in enumerate(qcols)},
    )


def sketch_exact_weighted_quantile_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    weight_col: str,
    q: float = 0.5,
    alpha: float = 0.01,
    max_candidate_mass_per_group: int = 5_000_000,
):
    """-> Dataset[(group_col, exact_w<q>)] — the EXACT WEIGHTED floor-rank
    quantile per group: the value at which the running weight (ascending
    value order) first EXCEEDS k = floor(q·(W−1)), W = total weight.

    Weights must be positive integers (the exact-count contract: weighted
    bin masses then sum exactly in float64 up to 2^53, and the rank
    arithmetic is integer); the candidate scan raises ``ValueError`` on a
    non-integer weight.  Same two-pass engine as the unweighted selection:
    the weighted sketch's bucket masses locate the target bucket; only that
    bucket's rows (value + weight) are re-scanned.  Positive values only."""
    qcol = f"exact_w{quantile_name(q)}"
    return _exact_ranks(
        ds,
        group_col=group_col,
        value_col=value_col,
        weight_col=weight_col,
        ranks=_floor_ranks((q,)),
        alpha=alpha,
        max_mass=max_candidate_mass_per_group,
        what="sketch_exact_weighted_quantile_pipeline",
        finish=lambda n, x: {qcol: x[:, 0]},
    )


def sketch_exact_interp_quantile_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    q: float,
    alpha: float = 0.01,
    max_candidates_per_group: int = 5_000_000,
):
    """-> Dataset[(group_col, lo, hi, interp)] — the TYPE-7 (numpy/pandas
    default, SQL percentile_cont) linearly INTERPOLATED quantile per
    group, built from the two EXACT order statistics it blends:
    h = q·(n−1), lo = x_(⌊h⌋), hi = x_(⌊h⌋+1) (clamped to the max), and
    interp = lo + (h − ⌊h⌋)·(hi − lo) in ONE fixed float-op chain
    mirrored verbatim in SQL.

    Same engine as :func:`sketch_exact_quantiles_pipeline` (one sketch
    build locates both ranks' buckets, one candidate rescan picks the two
    values — no global sort); positive integer values only."""

    def ranks(n):
        k = int(math.floor(q * (n - 1)))
        return [k, min(k + 1, n - 1)]

    def finish(n, x):
        lo, hi = x[:, 0], x[:, 1]
        # fixed float op chain, mirrored verbatim in SQL:
        # interp = lo + (q*(n-1) - floor(q*(n-1))) * (hi - lo)
        h = q * (n - 1).astype(np.float64)
        return {"lo": lo, "hi": hi, "interp": lo + (h - np.floor(h)) * (hi - lo)}

    return _exact_ranks(
        ds,
        group_col=group_col,
        value_col=value_col,
        weight_col=None,
        ranks=ranks,
        alpha=alpha,
        max_mass=max_candidates_per_group,
        what="sketch_exact_interp_quantile_pipeline",
        finish=finish,
    )
