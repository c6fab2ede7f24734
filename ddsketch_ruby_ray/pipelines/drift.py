"""Distribution drift between two corpus snapshots, from sketch histograms.

The production use of a mergeable quantile sketch beyond quantiles: compare
TODAY's per-group value distribution against YESTERDAY's without re-reading
either corpus' rows — each side is reduced to one DDSketch per group (KB
states over the shuffle), and the drift statistic is computed from the two
bucket histograms alone.

Statistic: total variation distance over the sketch buckets,

    TVD = 1/2 · Σ_k | c_a[k]/n_a − c_b[k]/n_b |
        = Σ_k | c_a[k]·n_b − c_b[k]·n_a | / (2·n_a·n_b)

evaluated in EXACT INTEGER arithmetic (the cross-multiplied form) so the
bucket-sum is order-independent — unlike a float Σ|p−q|, it survives any
merge order, is identical on any cluster layout, and has a bit-exact DuckDB
mirror (HUGEINT).  The numerator is carried as a Python int on the driver
(arbitrary precision; at 100 TB the products exceed int64).

Scale shape: two independent flagship builds (each side's raw rows never
shuffle), then a per-group driver pass over G pairs of bucket arrays — G is
the group cardinality, not row count.  Positive values only (the
rank/outlier/histogram contract); zero-band rows are excluded from both
histogram and n, mirroring ``WHERE v > min_possible``.

Output: one row per group PRESENT ON BOTH SIDES (drift against an absent
group is undefined; appearing/disappearing groups are a count-level check,
not a distribution one).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .fold import partitioned_group_agg

__all__ = ["sketch_drift_pipeline", "sketch_ks_pipeline", "psi_pipeline"]


def _group_hists(ds, spec, group_col, derive=None):
    from .corpus import group_sketches

    out = {}
    for g, sk in group_sketches(ds, spec, group_col, derive=derive).items():
        store = sk.store
        bins = np.asarray(store.bins, dtype=np.float64)
        nz = np.nonzero(bins)[0]
        keys = nz + (int(store.min_key) if nz.size else 0)
        out[g] = dict(zip(keys.tolist(), bins[nz].astype(np.int64).tolist()))
    return out


def sketch_drift_pipeline(
    ds_a,
    ds_b,
    *,
    group_col: str,
    value_col: str,
    alpha: float = 0.01,
    derive=None,
):
    """-> Dataset[(group_col, n_a, n_b, buckets, l1_num, tvd)] for groups on
    both sides.  ``l1_num`` is Σ|c_a·n_b − c_b·n_a| (exact integer, emitted
    as double); ``tvd = l1_num / (2·n_a·n_b)`` in [0, 1].

    Unweighted integer-count histograms only (the exact-arithmetic
    contract; fractional weights would reintroduce order-dependent float
    sums)."""
    import ray.data as rd

    from ..functions.specs import DDSketchSpec

    spec = DDSketchSpec(on=value_col, name="s", relative_accuracy=alpha, quantiles=())
    ha = _group_hists(ds_a, spec, group_col, derive=derive)
    hb = _group_hists(ds_b, spec, group_col, derive=derive)
    rows = {"g": [], "n_a": [], "n_b": [], "buckets": [], "l1_num": [], "tvd": []}
    for g in sorted(set(ha) & set(hb)):
        ca, cb = ha[g], hb[g]
        n_a = sum(ca.values())  # positive-store mass (exact ints)
        n_b = sum(cb.values())
        keys = set(ca) | set(cb)
        l1 = sum(abs(ca.get(k, 0) * n_b - cb.get(k, 0) * n_a) for k in keys)
        rows["g"].append(g)
        rows["n_a"].append(float(n_a))
        rows["n_b"].append(float(n_b))
        rows["buckets"].append(len(keys))
        rows["l1_num"].append(float(l1))
        rows["tvd"].append(float(l1) / float(2 * n_a * n_b))
    return rd.from_arrow(
        pa.table(
            {
                group_col: pa.array(rows["g"]),
                "n_a": pa.array(rows["n_a"], pa.float64()),
                "n_b": pa.array(rows["n_b"], pa.float64()),
                "buckets": pa.array(rows["buckets"], pa.int64()),
                "l1_num": pa.array(rows["l1_num"], pa.float64()),
                "tvd": pa.array(rows["tvd"], pa.float64()),
            }
        )
    )


def sketch_ks_pipeline(
    ds_a,
    ds_b,
    *,
    group_col: str,
    value_col: str,
    alpha: float = 0.01,
    derive=None,
):
    """-> Dataset[(group_col, n_a, n_b, ks_num, ks)]: the Kolmogorov-Smirnov
    statistic between the two snapshots' per-group distributions, from the
    sketch bucket histograms alone.

        KS = max_k | CumA(k)/n_a - CumB(k)/n_b |
           = max_k | CumA(k)*n_b - CumB(k)*n_a | / (n_a*n_b)

    with the cumulative sums taken over ascending bucket keys; the max of
    the cross-multiplied integers (``ks_num``) is exact at any scale, so
    the statistic is one float division — the same order-independence
    contract as the TVD pipeline above (KS resolves the distribution shape
    the L1 statistic sums away: WHERE the mass shifted, not just how much).
    """
    import ray.data as rd

    from ..functions.specs import DDSketchSpec

    spec = DDSketchSpec(on=value_col, name="s", relative_accuracy=alpha, quantiles=())
    ha = _group_hists(ds_a, spec, group_col, derive=derive)
    hb = _group_hists(ds_b, spec, group_col, derive=derive)
    rows = {"g": [], "n_a": [], "n_b": [], "ks_num": [], "ks": []}
    for g in sorted(set(ha) & set(hb)):
        ca, cb = ha[g], hb[g]
        n_a = sum(ca.values())
        n_b = sum(cb.values())
        cum_a = cum_b = 0
        best = 0
        for k in sorted(set(ca) | set(cb)):  # ascending bucket keys
            cum_a += ca.get(k, 0)
            cum_b += cb.get(k, 0)
            gap = abs(cum_a * n_b - cum_b * n_a)  # exact python ints
            if gap > best:
                best = gap
        rows["g"].append(g)
        rows["n_a"].append(float(n_a))
        rows["n_b"].append(float(n_b))
        rows["ks_num"].append(float(best))
        rows["ks"].append(float(best) / float(n_a * n_b))
    return rd.from_arrow(
        pa.table(
            {
                group_col: pa.array(rows["g"]),
                "n_a": pa.array(rows["n_a"], pa.float64()),
                "n_b": pa.array(rows["n_b"], pa.float64()),
                "ks_num": pa.array(rows["ks_num"], pa.float64()),
                "ks": pa.array(rows["ks"], pa.float64()),
            }
        )
    )


def psi_pipeline(
    ref_ds,
    cur_ds,
    *,
    value_col: str,
    n_buckets: int = 10,
    alpha: float = 0.01,
):
    """-> 1-row Dataset[(n_ref, n_cur, psi)] — the Population Stability
    Index between a reference and a current snapshot of an INTEGER
    column: equal-frequency bucket edges from the REFERENCE side's exact
    floor-rank quantiles (sketch-guided selection, no sort), exact bucket
    counts on both sides, then PSI = Σ_i (p_i − q_i)·ln(p_i / q_i).

    Conventions (documented, deterministic): bucket i spans
    (edge_{i-1}, edge_i] with open ends; any bucket empty on EITHER side
    contributes 0 (the common epsilon hack is non-deterministic across
    implementations — skipping is exact and mirrors cleanly).  The float
    terms accumulate in bucket order on both sides (the SQL mirror is a
    recursive CTE over the ≤ n_buckets rows, the EWMA device), so the
    statistic is bit-exact.

    Scale shape: one sketch build + candidate scan on the reference, a
    KB edge broadcast, one searchsorted count pass per side, a
    2×n_buckets count fold, a single-row finalize."""
    import math

    import ray
    import ray.data as rd

    from .selection import sketch_exact_quantiles_pipeline

    qs = tuple(i / n_buckets for i in range(1, n_buckets))

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column("_all", pa.array(np.zeros(t.num_rows, np.int64)))

    edge_rows = sketch_exact_quantiles_pipeline(
        ref_ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True),
        group_col="_all",
        value_col=value_col,
        qs=qs,
        alpha=alpha,
    ).take_all()  # exactly one row
    if not edge_rows:
        return rd.from_arrow(
            pa.table(
                {
                    "n_ref": pa.array([0], pa.int64()),
                    "n_cur": pa.array([0], pa.int64()),
                    "psi": pa.array([0.0], pa.float64()),
                }
            )
        )
    row = edge_rows[0]
    edges = np.array(
        [int(row[c]) for c in sorted(row) if c.startswith("exact_")], np.int64
    )
    edges = np.sort(edges)
    edges_ref = ray.put(edges)

    def bucket_of(t: pa.Table) -> pa.Table:
        e = ray.get(edges_ref)
        x = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        # (e_{i-1}, e_i] buckets
        return pa.table({"b": pa.array(np.searchsorted(e, x, side="left").astype(np.int64))})

    def side_counts(ds):
        return partitioned_group_agg(
            ds.map_batches(bucket_of, batch_format="pyarrow", zero_copy_batch=True),
            "b",
            [(None, "count")],
        ).to_pandas()

    ref_c = side_counts(ref_ds)
    cur_c = side_counts(cur_ds)
    nb = edges.size + 1
    rc = np.zeros(nb, np.int64)
    cc = np.zeros(nb, np.int64)
    rc[ref_c["b"].to_numpy()] = ref_c["count()"].to_numpy()
    cc[cur_c["b"].to_numpy()] = cur_c["count()"].to_numpy()
    n_ref, n_cur = int(rc.sum()), int(cc.sum())
    psi = 0.0
    if n_ref and n_cur:
        for i in range(nb):  # bucket order — mirrored by the recursive CTE
            if rc[i] == 0 or cc[i] == 0:
                continue
            p = float(rc[i]) / float(n_ref)
            q = float(cc[i]) / float(n_cur)
            psi += (p - q) * math.log(p / q)
    return rd.from_arrow(
        pa.table(
            {
                "n_ref": pa.array([n_ref], pa.int64()),
                "n_cur": pa.array([n_cur], pa.int64()),
                "psi": pa.array([psi], pa.float64()),
            }
        )
    )
