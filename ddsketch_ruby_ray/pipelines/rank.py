"""DDSketch rank transform: quantile-normalize rows against group sketches.

The ML-preprocessing shape of the sketch library: build ONE DDSketch per
group (two-level state merge - KB states, never raw rows, cross the
shuffle), broadcast the per-group bucket tables once, then map EVERY row to
``rank_lt`` = the number of same-group values that landed in strictly lower
buckets.  rank_lt / count is the sketch's CDF estimate (within the alpha
guarantee), and because it is a pure integer over bucket counts it is
bit-exact and SQL-mirrorable - unlike a float CDF, it survives any
accumulation order.

Scale shape: the build is the flagship two-level merge; the transform is a
stateless vectorized probe against a broadcast of one cumulative array per
group (the cms/bloom build-then-probe pattern).  Positive values only
(callers filter or shift; the zero/negative band would need the two-store
rank convention spelled out, which this operator deliberately avoids).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["ddsketch_rank_pipeline"]


def ddsketch_rank_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    carry_cols,
    alpha: float = 0.01,
):
    """-> Dataset[(carry_cols..., group_col, rank_lt)] - one row per input row."""
    import ray

    from ..functions.specs import DDSketchSpec
    from .corpus import group_sketches

    carry_cols = list(carry_cols)
    spec = DDSketchSpec(
        on=value_col, name="s", relative_accuracy=alpha, quantiles=()
    )
    lut = {}
    mapping = None
    for g, sk in group_sketches(ds, spec, group_col).items():
        mapping = sk.mapping
        st = sk.store
        if len(st.bins):
            lut[g] = (int(st.min_key), np.cumsum(st.bins))
        else:
            lut[g] = (0, np.zeros(0))
    ref = ray.put((lut, mapping))

    def probe(t: pa.Table) -> pa.Table:
        lut_l, mapping_l = ray.get(ref)
        vals = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        groups = t.column(group_col).to_numpy(zero_copy_only=False)
        out = np.zeros(len(vals), dtype=np.int64)
        for g in np.unique(groups):
            mask = groups == g
            min_key, cum = lut_l[g]
            k = np.asarray(mapping_l.key(vals[mask]), dtype=np.int64)
            idx = k - min_key
            r = np.where(idx > 0, cum[np.maximum(idx, 1) - 1], 0.0)
            out[mask] = r.astype(np.int64)
        cols = {c: t.column(c) for c in carry_cols}
        cols[group_col] = t.column(group_col)
        cols["rank_lt"] = pa.array(out)
        return pa.table(cols)

    return ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)
