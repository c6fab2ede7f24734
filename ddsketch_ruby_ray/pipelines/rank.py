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
stateless vectorized probe against a broadcast of every group's cumulative
bin counts, laid end to end in one flat array (the cms/bloom
build-then-probe pattern); each row finds its group's slice through
:func:`~.corpus.group_lookup`, so a NULL group key is one group.  Positive
values only: callers filter or shift (the zero/negative band would need
the two-store rank convention spelled out, which this operator deliberately
avoids); a non-positive value gets rank 0.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .corpus import group_lookup, group_sketches

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

    carry_cols = list(carry_cols)
    spec = DDSketchSpec(
        on=value_col, name="s", relative_accuracy=alpha, quantiles=()
    )
    # each group's cumulative bin counts, end to end in one flat array:
    # group -> (min_key, offset, length)
    lut, cums, mapping, off = {}, [], None, 0
    for g, sk in group_sketches(ds, spec, group_col).items():
        mapping = sk.mapping
        st = sk.store
        lut[g] = (int(st.min_key) if len(st.bins) else 0, off, len(st.bins))
        cums.append(np.cumsum(st.bins))
        off += len(st.bins)
    flat = np.concatenate(cums) if cums else np.zeros(0)
    ref = ray.put((lut, flat, mapping))

    def probe(t: pa.Table) -> pa.Table:
        lut_l, flat_l, mapping_l = ray.get(ref)
        vals = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        codes, _, glut = group_lookup(t, group_col, lut_l, (0, 0, 0), np.int64)
        min_key, off, length = glut[codes].T
        out = np.zeros(len(vals), dtype=np.int64)
        pos = vals > mapping_l.min_possible
        # rank_lt = the group's count in buckets below the row's: cum[idx - 1]
        idx = np.asarray(mapping_l.key(vals[pos]), dtype=np.int64) - min_key[pos]
        hit = np.flatnonzero(pos)[idx > 0]
        idx = np.minimum(idx[idx > 0], length[hit])
        out[hit] = flat_l[off[hit] + idx - 1]
        cols = {c: t.column(c) for c in carry_cols}
        cols[group_col] = t.column(group_col)
        cols["rank_lt"] = pa.array(out)
        return pa.table(cols)

    return ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)
