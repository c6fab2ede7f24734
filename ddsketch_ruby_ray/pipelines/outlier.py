"""Quantile-threshold outlier filter: the sketch as broadcast filter state.

The classic two-pass curation shape at 100 TB: pass 1 builds ONE DDSketch per
group (the flagship two-level state merge - only KB states cross the shuffle),
the per-group quantile threshold is read off the merged sketches on the driver
(one tiny row per group), and pass 2 streams the corpus again through a
stateless vectorized filter against the broadcast ``{group: threshold}`` table.
Nothing is ever materialized except the per-group threshold map.

The threshold is the sketch's quantile ESTIMATE (deterministic function of the
data per the reference's floor-rank walk, base_sketch.rb:121-138), so the
whole operator - including which rows survive the strict ``>`` comparison -
is bit-exact and SQL-mirrorable via the same bucket arithmetic as the
``dd_*`` quantile oracles (functions/oracle.py).

Scale shape: pass 1 is the flagship build (no raw rows shuffle); pass 2 is
map-only (no shuffle at all).  The broadcast is one float per group -
``ray.put`` once, read per task, never per batch - and each row finds its
group's entry through :func:`~.corpus.group_lookup` (a NULL group key is one
group).  Positive values only
(same contract as pipelines/rank.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .corpus import group_lookup, group_sketches

__all__ = ["ddsketch_outlier_pipeline", "ddsketch_bucketize_pipeline"]


def ddsketch_outlier_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    carry_cols,
    q: float = 0.99,
    alpha: float = 0.01,
    mode: str = "above",
):
    """-> Dataset[(carry_cols..., group_col, value_col, thr)] - rows whose
    value is strictly above (``mode="above"``) or at-or-below
    (``mode="trim"``) their group's q-quantile estimate."""
    import ray

    from ..functions.specs import DDSketchSpec

    if mode not in ("above", "trim"):
        raise ValueError(f"unknown mode {mode!r}")
    carry_cols = list(carry_cols)
    spec = DDSketchSpec(on=value_col, name="s", relative_accuracy=alpha, quantiles=())
    thresholds = {
        g: sk.get_quantile_value(q) for g, sk in group_sketches(ds, spec, group_col).items()
    }
    ref = ray.put(thresholds)
    above = mode == "above"

    def flt(t: pa.Table) -> pa.Table:
        vals = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        codes, _, lut = group_lookup(t, group_col, ray.get(ref), np.nan, np.float64)
        thr = lut[codes]
        mask = vals > thr if above else ~(vals > thr)
        out = t.select(carry_cols + [group_col, value_col]).filter(pa.array(mask))
        return out.append_column("thr", pa.array(thr[mask], pa.float64()))

    return ds.map_batches(flt, batch_format="pyarrow", zero_copy_batch=True)


def ddsketch_bucketize_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    carry_cols,
    quantiles=(0.25, 0.5, 0.75),
    alpha: float = 0.01,
):
    """Equi-depth feature discretization: per-group quantile thresholds from
    ONE grouped sketch build, broadcast once, then every row maps to
    ``bucket = #(thresholds strictly below its value)`` in a stateless
    second pass.  The ML-preprocessing generalization of the outlier filter
    (1 threshold -> B-1); bit-exact because each threshold is the sketch's
    deterministic quantile estimate and the comparison is a pure double
    predicate.

    -> Dataset[(carry_cols..., group_col, value_col, bucket: int64)] -
    ``bucket`` in [0, len(quantiles)]."""
    import ray

    from ..functions.specs import DDSketchSpec

    carry_cols = list(carry_cols)
    qs = list(quantiles)
    spec = DDSketchSpec(on=value_col, name="s", relative_accuracy=alpha, quantiles=())
    thresholds = {
        g: np.array([sk.get_quantile_value(q) for q in qs], dtype=np.float64)
        for g, sk in group_sketches(ds, spec, group_col).items()
    }
    ref = ray.put(thresholds)

    def assign(t: pa.Table) -> pa.Table:
        vals = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        codes, _, lut = group_lookup(t, group_col, ray.get(ref), np.full(len(qs), np.nan))
        # strict >: a value equal to a threshold stays in the lower bucket,
        # mirroring SQL sum((v > t_i)::INT)
        bucket = (vals[:, None] > lut[codes]).sum(axis=1).astype(np.int64)
        out = t.select(carry_cols + [group_col, value_col])
        return out.append_column("bucket", pa.array(bucket))

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
