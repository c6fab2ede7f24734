"""Poisson bootstrap: streaming confidence intervals for grouped means.

The classical bootstrap (resample n rows with replacement, B times) needs
all n rows in one place — a non-starter at corpus scale.  The POISSON
bootstrap (Chamandy et al., "Estimating Uncertainty for Massive Data
Streams", Google 2012) replaces each resample's multinomial row counts
with independent Poisson(1) weights, which makes the whole thing a
one-pass map: every row contributes weight w_{row,b} ~ Poisson(1) to
resample b, derived DETERMINISTICALLY from splitmix64(row_id * B + b) via
the inverse-CDF threshold table — so the resampled sums are exact int64
partials that merge in any order, every worker agrees on every weight,
and the SQL mirror replays the identical arithmetic.

One block pass emits (group, b, Σw·x, Σw) partials plus the exact point
sums; one tiny keyed shuffle (G × B rows); the per-group finalize turns B
resample means (one float divide each) into floor-rank percentile bounds
(the house exact-selection convention).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..core.hashing import hash64_int
from ..core.numeric import run_starts
from .fold import keyed_exchange, partitioned_group_sum

__all__ = ["poisson_bootstrap_ci_pipeline", "poisson_thresholds"]


def poisson_thresholds(max_k: int = 12) -> list[float]:
    """Cumulative Poisson(1) CDF [P(X<=0), ..., P(X<=max_k-1)]; a uniform
    u in [0,1) maps to weight = #thresholds <= u (clamped at max_k)."""
    acc = 0.0
    out = []
    p = math.exp(-1.0)  # e^{-1} / 0!
    for k in range(max_k):
        acc = acc + p
        out.append(acc)
        p = p / float(k + 1)
    return out


def poisson_bootstrap_ci_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    id_col: str,
    n_resamples: int = 64,
    lo_q: float = 0.025,
    hi_q: float = 0.975,
    num_partitions: int = 16,
):
    """-> Dataset[(group_col, n, mean, ci_lo, ci_hi)]: exact grouped mean
    plus floor-rank [lo_q, hi_q] percentile bounds of the ``n_resamples``
    Poisson-bootstrap resample means."""
    B = int(n_resamples)
    thresholds = np.array(poisson_thresholds(), dtype=np.float64)
    two64 = float(2**64)

    def partials(t: pa.Table) -> pa.Table:
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        x = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(g, return_inverse=True)
        ng = uniq.size
        # (rows, B) weights, fully vectorized: one splitmix per (row, b)
        u = hash64_int(
            ids[:, None] * np.int64(B) + np.arange(B, dtype=np.int64)[None, :]
        )
        w = np.searchsorted(
            thresholds, u.astype(np.float64) / two64, side="right"
        ).astype(np.int64)
        swx = np.zeros((ng, B), dtype=np.int64)
        sw = np.zeros((ng, B), dtype=np.int64)
        np.add.at(swx, inv, w * x[:, None])
        np.add.at(sw, inv, w)
        n_pt = np.bincount(inv, minlength=ng).astype(np.int64)
        sx_pt = np.zeros(ng, dtype=np.int64)
        np.add.at(sx_pt, inv, x)
        # resample rows (b >= 0) + one point-estimate carrier row (b = -1)
        g_out = np.concatenate([np.repeat(uniq, B), uniq])
        b_out = np.concatenate(
            [np.tile(np.arange(B, dtype=np.int64), ng), np.full(ng, -1, np.int64)]
        )
        return pa.table(
            {
                group_col: pa.array(g_out.tolist()),
                "b": pa.array(b_out),
                "swx": pa.array(np.concatenate([swx.ravel(), sx_pt])),
                "sw": pa.array(np.concatenate([sw.ravel(), n_pt])),
            }
        )

    sums = partitioned_group_sum(
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True),
        [group_col, "b"],
        ["swx", "sw"],
    )

    lo_rank = int(math.floor(lo_q * (B - 1)))
    hi_rank = int(math.floor(hi_q * (B - 1)))

    def finalize(pt: pa.Table) -> pa.Table:
        g = pt.column(group_col).to_numpy(zero_copy_only=False)
        b = pt.column("b").to_numpy(zero_copy_only=False)
        swx = pt.column("sum(swx)").to_numpy(zero_copy_only=False)
        sw = pt.column("sum(sw)").to_numpy(zero_copy_only=False)
        out = {group_col: [], "n": [], "mean": [], "ci_lo": [], "ci_hi": []}
        order = np.lexsort((b, g))
        g_s, b_s, swx_s, sw_s = g[order], b[order], swx[order], sw[order]
        new = run_starts(g_s)
        for s in np.flatnonzero(new):
            # segment = one group: b = -1 (point sums) first, then b = 0..B-1
            grp = g_s[s]
            n = int(sw_s[s])
            sx = int(swx_s[s])
            seg_swx = swx_s[s + 1 : s + 1 + B].astype(np.float64)
            seg_sw = sw_s[s + 1 : s + 1 + B].astype(np.float64)
            means = np.zeros(B, dtype=np.float64)
            nz = seg_sw > 0
            means[nz] = seg_swx[nz] / seg_sw[nz]
            m_sorted = means[np.lexsort((b_s[s + 1 : s + 1 + B], means))]
            out[group_col].append(grp)
            out["n"].append(n)
            out["mean"].append(float(sx) / float(n) if n else 0.0)
            out["ci_lo"].append(float(m_sorted[lo_rank]))
            out["ci_hi"].append(float(m_sorted[hi_rank]))
        return pa.table(
            {
                group_col: pa.array(out[group_col]),
                "n": pa.array(out["n"], pa.int64()),
                "mean": pa.array(out["mean"], pa.float64()),
                "ci_lo": pa.array(out["ci_lo"], pa.float64()),
                "ci_hi": pa.array(out["ci_hi"], pa.float64()),
            }
        )

    return keyed_exchange(sums, finalize, keys=group_col, num_partitions=num_partitions)
