"""Robust location and outlier statistics on exact per-group quantiles.

Mean/stddev outlier rules break on the heavy-tailed length/score
distributions of web corpora (the outliers corrupt the very statistics that
are supposed to catch them).  The robust alternatives here all stand on
:mod:`.selection`'s sketch-guided EXACT selection (DDSketch bucket counts
locate the k-th value's single bucket; only that bucket is rescanned), so
none needs a global sort or a driver materialization of data rows:

- :func:`mad_outlier_pipeline` flags x where |x − median| > k · MAD, with
  MAD = median(|x − median|): two exact medians, four streaming passes and
  two KB-sized broadcasts;
- :func:`trimmed_mean_pipeline` and :func:`winsorized_mean_pipeline` share
  one cutoff pull (both quantiles from ONE selection) and one exact int64
  per-block pre-aggregate: the trim keeps the rows inside each group's
  band, the winsorization clips every row to it.

Every per-row step finds its group through :func:`~.corpus.group_lookup`,
so a NULL group key is one group like any other.

Exactness: for an INTEGER value column the floor-rank quantiles are actual
data values (ints), deviations and band sums are exact int64, the MAD flag
``dev > k·mad`` is pure integer arithmetic, and each mean is ONE float
division of two exact integers — the SQL mirrors match bit-for-bit.

Scale shape: the sketch builds are the flagship grouped build (KB states
shuffle); every other pass is map-only against a tiny per-group dict
broadcast via ``ray.put``, and the means' only shuffle is the partial-sums
exchange.  Skew-free: no keyed row shuffle anywhere.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .corpus import group_lookup
from .fold import partitioned_group_sum
from .selection import sketch_exact_quantile_pipeline, sketch_exact_quantiles_pipeline

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

    def medians(d, col) -> dict:
        rows = sketch_exact_quantile_pipeline(
            d, group_col=group_col, value_col=col, q=0.5, alpha=alpha
        ).take_all()  # one row per group (KB)
        return {r[group_col]: int(r["exact_p50"]) for r in rows}

    def deviation(t: pa.Table, stats: dict) -> tuple[np.ndarray, np.ndarray]:
        """Per row: |x − median| and the MAD, from ``{group: (median, mad)}``."""
        codes, _, lut = group_lookup(t, group_col, stats, (0, 0), np.int64)
        x = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return np.abs(x - lut[codes, 0]), lut[codes, 1]

    med = medians(ds, value_col)
    med_ref = ray.put({g: (m, 0) for g, m in med.items()})  # MAD not known yet

    def add_dev(t: pa.Table) -> pa.Table:
        dev, _ = deviation(t, ray.get(med_ref))
        return t.append_column("_dev", pa.array(dev))

    with_dev = ds.map_batches(add_dev, batch_format="pyarrow", zero_copy_batch=True)
    mad = medians(with_dev, "_dev")
    stats_ref = ray.put({g: (m, mad.get(g, 0)) for g, m in med.items()})
    out_cols = carry_cols + [group_col, value_col]

    def flag(t: pa.Table) -> pa.Table:
        dev, gmad = deviation(t, ray.get(stats_ref))
        keep = dev > k * gmad
        out = t.select(out_cols).filter(pa.array(keep))
        return out.append_column("dev", pa.array(dev[keep])).append_column(
            "mad", pa.array(gmad[keep])
        )

    return ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


def _band_mean(ds, *, group_col, value_col, lo_q, hi_q, alpha, clip: bool, names):
    """The shared plan of the trimmed and winsorized means.

    ONE sketch-guided selection gives both exact cutoffs per group; a
    map-only pass then pre-aggregates the exact int64 (count, sum) per
    group in each block — of the rows inside ``[lo, hi]`` (``clip=False``)
    or of every row clipped to it (``clip=True``) — and the only shuffle is
    the tiny partial-sums exchange.  -> Dataset[(group_col, *names)] with
    ``names = (count, sum, mean)`` and mean = ONE float division of the two
    exact integers, the SQL mirrors' op order.
    """
    import ray

    n_col, s_col, mean_col = names
    cut_rows = sketch_exact_quantiles_pipeline(
        ds, group_col=group_col, value_col=value_col, qs=(lo_q, hi_q), alpha=alpha
    ).take_all()  # one row per group (KB)
    cuts = {}
    for r in cut_rows:
        qv = [int(v) for c, v in r.items() if c != group_col]
        cuts[r[group_col]] = (qv[0], qv[-1])
    cuts_ref = ray.put(cuts)
    no_band = (np.iinfo(np.int64).max, np.iinfo(np.int64).min)  # lo > hi: empty

    def preagg(t: pa.Table) -> pa.Table:
        codes, groups, lut = group_lookup(t, group_col, ray.get(cuts_ref), no_band, np.int64)
        lo, hi = lut[codes, 0], lut[codes, 1]
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if clip:
            keep, v = lo <= hi, np.minimum(np.maximum(v, lo), hi)
        else:
            keep = (v >= lo) & (v <= hi)
        n = np.bincount(codes[keep], minlength=len(groups))
        s = np.zeros(len(groups), np.int64)
        np.add.at(s, codes[keep], v[keep])
        has = n > 0
        return pa.table(
            {
                group_col: groups.filter(pa.array(has)),
                n_col: pa.array(n[has], pa.int64()),
                s_col: pa.array(s[has], pa.int64()),
            }
        )

    parts = ds.map_batches(preagg, batch_format="pyarrow", zero_copy_batch=True)
    summed = partitioned_group_sum(parts, group_col, [n_col, s_col])

    def finalize(t: pa.Table) -> pa.Table:
        n = t.column(f"sum({n_col})").to_numpy(zero_copy_only=False).astype(np.int64)
        s = t.column(f"sum({s_col})").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                group_col: t.column(group_col),
                n_col: pa.array(n),
                s_col: pa.array(s),
                mean_col: pa.array(s.astype(np.float64) / n.astype(np.float64), pa.float64()),
            }
        )

    return summed.map_batches(finalize, batch_format="pyarrow")


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

    Rows with ``lo <= v <= hi`` are kept (:func:`_band_mean`); a group's
    ``trimmed_mean`` is ``kept_sum / n_kept``.
    """
    return _band_mean(
        ds, group_col=group_col, value_col=value_col, lo_q=lo_q, hi_q=hi_q, alpha=alpha,
        clip=False, names=("n_kept", "kept_sum", "trimmed_mean"),
    )


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

    Same plan as the trim (:func:`_band_mean`) with every row clipped to
    the band; ``win_mean`` is ``win_sum / n``, the op order of the SQL
    mirror (sum of a CASE clamp over the floor-rank cutoffs)."""
    return _band_mean(
        ds, group_col=group_col, value_col=value_col, lo_q=lo_q, hi_q=hi_q, alpha=alpha,
        clip=True, names=("n", "win_sum", "win_mean"),
    )
