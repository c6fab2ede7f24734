"""Robust (median/MAD) outlier detection — the quality-filtering staple.

Mean/stddev outlier rules break on the heavy-tailed length/score
distributions of web corpora (the outliers corrupt the very statistics that
are supposed to catch them).  The robust alternative is median absolute
deviation: flag x where |x − median| > k · MAD, with
MAD = median(|x − median|).  Neither statistic exists in Ray Data, and a
naive implementation needs two global sorts; here both medians come from
:mod:`.selection`'s sketch-guided EXACT selection (DDSketch bucket counts
locate the k-th value's single bucket; only that bucket is rescanned), so
the whole operator is four streaming passes and two KB-sized broadcasts —
no global sort, no driver materialization of data rows.

Exactness: for an INTEGER value column the floor-rank median is an actual
data value (an int), deviations are exact int64, and the flag comparison
``dev > k·mad`` is pure integer arithmetic — the SQL mirror (row_number
floor-rank medians + integer compare) matches bit-for-bit.

Scale shape: pass 1/3 are the flagship grouped sketch build (KB states
shuffle); pass 2/4 are map-only with a tiny per-group dict broadcast via
``ray.put``.  Skew-free: no keyed row shuffle anywhere.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .fold import partitioned_group_sum
from .selection import sketch_exact_quantile_pipeline

__all__ = [
    "mad_outlier_pipeline",
    "trimmed_mean_pipeline",
    "winsorized_mean_pipeline",
]


def mad_outlier_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    k: int = 3,
    alpha: float = 0.01,
    carry_cols=(),
):
    """-> Dataset[(carry_cols…, group_col, value_col, dev, mad)] — the rows
    whose integer ``value_col`` deviates from their group's exact median by
    MORE than ``k`` times the group's exact MAD (strict, integer compare).

    Groups whose MAD is 0 (over half the rows share the median value) flag
    every row off the median — the documented MAD edge case; callers who
    want a floor can clamp ``mad`` upstream.
    """
    import ray

    carry_cols = list(carry_cols)

    med_rows = sketch_exact_quantile_pipeline(
        ds, group_col=group_col, value_col=value_col, q=0.5, alpha=alpha
    ).take_all()  # one row per group (KB)
    med = {r[group_col]: int(r["exact_p50"]) for r in med_rows}
    med_ref = ray.put(med)

    def _gather(col, mapping: dict) -> np.ndarray:
        """Vectorized per-row lookup: one dict probe per DISTINCT group."""
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        de = col.dictionary_encode()
        lut = np.array([mapping.get(v, 0) for v in de.dictionary.to_pylist()], np.int64)
        return lut[de.indices.to_numpy(zero_copy_only=False).astype(np.int64)]

    def add_dev(t: pa.Table) -> pa.Table:
        m = ray.get(med_ref)
        x = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        gm = _gather(t.column(group_col), m)
        return t.append_column("_dev", pa.array(np.abs(x - gm)))

    with_dev = ds.map_batches(add_dev, batch_format="pyarrow", zero_copy_batch=True)

    mad_rows = sketch_exact_quantile_pipeline(
        with_dev, group_col=group_col, value_col="_dev", q=0.5, alpha=alpha
    ).take_all()
    mad = {r[group_col]: int(r["exact_p50"]) for r in mad_rows}
    mad_ref = ray.put(mad)
    out_cols = carry_cols + [group_col, value_col]

    def flag(t: pa.Table) -> pa.Table:
        m, md = ray.get(med_ref), ray.get(mad_ref)
        x = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        gm = _gather(t.column(group_col), m)
        gmad = _gather(t.column(group_col), md)
        dev = np.abs(x - gm)
        keep = dev > k * gmad
        out = t.select(out_cols).filter(pa.array(keep))
        return out.append_column("dev", pa.array(dev[keep])).append_column(
            "mad", pa.array(gmad[keep])
        )

    return ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


def trimmed_mean_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    lo_q: float = 0.1,
    hi_q: float = 0.9,
    alpha: float = 0.01,
):
    """-> Dataset[(group_col, n_kept, kept_sum, trimmed_mean)] — the mean of
    the INTEGER ``value_col`` restricted to each group's [lo_q, hi_q] exact
    floor-rank quantile band (10% two-sided trim by default): the robust
    location estimate that survives the heavy tails MAD flags.

    Both cutoffs come from the sketch-guided EXACT selection (no global
    sort); the final pass filters ``lo <= v <= hi`` against the broadcast
    cutoff dicts and pre-aggregates exact int64 (count, sum) per group in
    each block, so the only shuffle is the tiny partial-counts exchange.
    ``trimmed_mean`` is ONE float division of two exact integers — the same
    op order as the SQL mirror.
    """
    import pyarrow.compute as pc
    import ray

    from .selection import sketch_exact_quantiles_pipeline

    cut_rows = sketch_exact_quantiles_pipeline(
        ds, group_col=group_col, value_col=value_col, qs=(lo_q, hi_q), alpha=alpha
    ).take_all()  # one row per group (KB); BOTH cutoffs from one build+scan
    if cut_rows:
        names = [c for c in cut_rows[0] if c != group_col]
        lo_name, hi_name = names[0], names[1]
        lo = {r[group_col]: int(r[lo_name]) for r in cut_rows}
        hi = {r[group_col]: int(r[hi_name]) for r in cut_rows}
    else:
        lo, hi = {}, {}
    cuts_ref = ray.put((lo, hi))

    def preagg(t: pa.Table) -> pa.Table:
        lo_m, hi_m = ray.get(cuts_ref)
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        out_g, out_n, out_s = [], [], []
        for gv in np.unique(g):  # groups-in-batch, not rows
            m = (g == gv) & (v >= lo_m.get(gv, np.iinfo(np.int64).max)) & (
                v <= hi_m.get(gv, np.iinfo(np.int64).min)
            )
            if m.any():
                out_g.append(gv)
                out_n.append(int(m.sum()))
                out_s.append(int(v[m].sum()))
        return pa.table(
            {
                group_col: pa.array(out_g),
                "n_kept": pa.array(out_n, pa.int64()),
                "kept_sum": pa.array(out_s, pa.int64()),
            }
        )

    parts = ds.map_batches(preagg, batch_format="pyarrow", zero_copy_batch=True)
    summed = partitioned_group_sum(parts, group_col, ["n_kept", "kept_sum"])

    def finalize(t: pa.Table) -> pa.Table:
        n = t.column("sum(n_kept)").to_numpy(zero_copy_only=False).astype(np.int64)
        s = t.column("sum(kept_sum)").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                group_col: t.column(group_col),
                "n_kept": pa.array(n),
                "kept_sum": pa.array(s),
                "trimmed_mean": pa.array(
                    s.astype(np.float64) / n.astype(np.float64), pa.float64()
                ),
            }
        )

    return summed.map_batches(finalize, batch_format="pyarrow")


def winsorized_mean_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    lo_q: float = 0.1,
    hi_q: float = 0.9,
    alpha: float = 0.01,
):
    """-> Dataset[(group_col, n, win_sum, win_mean)] — the winsorized mean
    of the INTEGER ``value_col``: values below each group's exact lo_q
    floor-rank quantile are CLAMPED to it (and above hi_q to it) rather
    than dropped, so every row still contributes — the robust-location
    sibling of :func:`trimmed_mean_pipeline` that keeps n constant.

    Same physical plan as the trim: both cutoffs from ONE sketch-guided
    exact selection (no global sort), then a map-only pass pre-aggregates
    the exact int64 (count, clamped sum) per group per block; the only
    shuffle is the tiny partial-counts exchange.  ``win_mean`` is ONE
    float division of two exact integers — the same op order as the SQL
    mirror (sum of a CASE clamp over the floor-rank cutoffs)."""
    import ray

    from .selection import sketch_exact_quantiles_pipeline

    cut_rows = sketch_exact_quantiles_pipeline(
        ds, group_col=group_col, value_col=value_col, qs=(lo_q, hi_q), alpha=alpha
    ).take_all()  # one row per group (KB)
    if cut_rows:
        names = [c for c in cut_rows[0] if c != group_col]
        lo_name, hi_name = names[0], names[1]
        lo = {r[group_col]: int(r[lo_name]) for r in cut_rows}
        hi = {r[group_col]: int(r[hi_name]) for r in cut_rows}
    else:
        lo, hi = {}, {}
    cuts_ref = ray.put((lo, hi))

    def preagg(t: pa.Table) -> pa.Table:
        lo_m, hi_m = ray.get(cuts_ref)
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        out_g, out_n, out_s = [], [], []
        for gv in np.unique(g):  # groups-in-batch, not rows
            m = g == gv
            if not m.any() or gv not in lo_m:
                continue
            w = np.clip(v[m], lo_m[gv], hi_m[gv])
            out_g.append(gv)
            out_n.append(int(m.sum()))
            out_s.append(int(w.sum()))
        return pa.table(
            {
                group_col: pa.array(out_g),
                "n": pa.array(out_n, pa.int64()),
                "win_sum": pa.array(out_s, pa.int64()),
            }
        )

    parts = ds.map_batches(preagg, batch_format="pyarrow", zero_copy_batch=True)
    summed = partitioned_group_sum(parts, group_col, ["n", "win_sum"])

    def finalize(t: pa.Table) -> pa.Table:
        n = t.column("sum(n)").to_numpy(zero_copy_only=False).astype(np.int64)
        s = t.column("sum(win_sum)").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                group_col: t.column(group_col),
                "n": pa.array(n),
                "win_sum": pa.array(s),
                "win_mean": pa.array(
                    s.astype(np.float64) / n.astype(np.float64), pa.float64()
                ),
            }
        )

    return summed.map_batches(finalize, batch_format="pyarrow")
