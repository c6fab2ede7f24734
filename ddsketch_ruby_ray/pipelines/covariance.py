"""Exact integer feature covariance over quantized embeddings.

The feature-drift / representation-analysis staple: per label, the Gram
matrix and marginal sums of the SQ8 codes (pipelines/quantize.py), from
which covariance and correlation of every feature pair follow exactly.
Quantizing first is what makes a 100-TB covariance bit-reproducible: all
accumulation is int64 (codes are in [-127, 127]; a dot-product partial is
<= 16129 n), so block order, shuffle order and the SQL mirror all agree.

Shape: one `map_batches` stage computes each block's per-label Gram with a
single int64 matmul (C.T @ C) + column sum, emitting the upper triangle in
LONG form — (label, i, j, n, sum_i, sum_j, sum_ij) — already reduced per
block.  The global all-to-all therefore carries O(blocks × labels × d²/2)
small integer rows, independent of row count; a final tiny groupby-sum
finishes.  The per-block Python loop is over DISTINCT LABELS ONLY (the
caller's contract: label is a low-cardinality class column, not an id).

Overflow: n·sum_ij and sum_i·sum_j must fit int64 — guaranteed while
n·d·127² < 2^63 (n ≲ 3.5e12 rows at d=64); the finalize raises loudly
rather than wrap if a corpus ever exceeds it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .fold import map_groups

__all__ = ["sq8_covariance_pipeline"]

_I64_MAX = np.iinfo(np.int64).max


def sq8_covariance_pipeline(ds, *, label_col: str, vec_col: str):
    """-> Dataset[(label, i, j, n, sum_i, sum_j, sum_ij, cov_num)] for every
    feature pair i <= j (1-based dims): exact integer Gram components and
    the covariance NUMERATOR ``n·sum_ij − sum_i·sum_j`` (covariance =
    cov_num / n², correlation follows from the diagonal rows)."""
    from .quantize import _encode, embedding_amax6
    from .similarity import _embedding_matrix

    a6 = embedding_amax6(ds, vec_col=vec_col)

    def partials(t: pa.Table) -> pa.Table:
        m = _embedding_matrix(t, vec_col)
        q = _encode(m, a6)
        labels = t.column(label_col).to_numpy(zero_copy_only=False).astype(np.int64)
        d = q.shape[1]
        iu, ju = np.triu_indices(d)
        cols = {k: [] for k in ("label", "i", "j", "n", "s_i", "s_j", "s_ij")}
        for lab in np.unique(labels):  # distinct CLASSES per block — small
            c = q[labels == lab]
            g = c.T @ c
            s = c.sum(axis=0)
            cols["label"].append(np.full(iu.size, lab, dtype=np.int64))
            cols["i"].append((iu + 1).astype(np.int64))
            cols["j"].append((ju + 1).astype(np.int64))
            cols["n"].append(np.full(iu.size, c.shape[0], dtype=np.int64))
            cols["s_i"].append(s[iu])
            cols["s_j"].append(s[ju])
            cols["s_ij"].append(g[iu, ju])
        if not cols["label"]:
            return pa.table(
                {k: pa.array([], pa.int64()) for k in cols}
            )
        return pa.table({k: pa.array(np.concatenate(v)) for k, v in cols.items()})

    parts = ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)

    # per-label reduce with Arrow's vectorized group_by — a Ray
    # AggregateFn walks groups in Python (~250 µs/group), far too slow for
    # labels × d²/2 groups; this keeps the d²-wide reduce in C++ kernels
    def reduce_label(pt: pa.Table) -> pa.Table:
        return pt.group_by(["label", "i", "j"]).aggregate(
            [("n", "sum"), ("s_i", "sum"), ("s_j", "sum"), ("s_ij", "sum")]
        )

    summed = map_groups(parts, "label", reduce_label)

    def finalize(t: pa.Table) -> pa.Table:
        n = t.column("n_sum").to_numpy(zero_copy_only=False).astype(np.int64)
        si = t.column("s_i_sum").to_numpy(zero_copy_only=False).astype(np.int64)
        sj = t.column("s_j_sum").to_numpy(zero_copy_only=False).astype(np.int64)
        sij = t.column("s_ij_sum").to_numpy(zero_copy_only=False).astype(np.int64)
        # guard the NUMERATOR itself, not its two terms: n*sij and si*sj can
        # each fit int64 while their difference wraps (opposite signs near
        # the bound).  Object ints are exact; this table is dimension-sized
        # (labels x d^2/2 rows), so the Python-int pass is trivial.
        num_obj = n.astype(object) * sij.astype(object) - si.astype(object) * sj
        if n.size and max((abs(x) for x in num_obj), default=0) > _I64_MAX:
            raise OverflowError(
                "sq8_covariance_pipeline: covariance numerator exceeds int64 —"
                " corpus too large for the int64 fast path"
            )
        return pa.table(
            {
                "label": t.column("label"),
                "i": t.column("i"),
                "j": t.column("j"),
                "n": pa.array(n),
                "sum_i": pa.array(si),
                "sum_j": pa.array(sj),
                "sum_ij": pa.array(sij),
                "cov_num": pa.array(num_obj.astype(np.int64)),
            }
        )

    return summed.map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)
