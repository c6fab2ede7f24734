"""Symmetric int8 embedding quantization + quantized top-k: the ANN SCALE path.

At 100 TB an embedding column is the shuffle: a 768-dim float32 vector is
3 KB/row, and every ANN stage (bucketing, pair scoring, top-k exchange)
pays it.  Symmetric scalar quantization of the ROW-NORMALIZED vectors to
int8 cuts that 4x while keeping the integer dot product rank-equivalent to
an approximate cosine (q ~ 127 * x / (A |x|), so sum(q1*q2) ~ (127/A)^2 *
cos) - the standard SQ8 first rung of the PQ ladder (Jegou et al.,
"Product Quantization for Nearest Neighbor Search", TPAMI 2011).

Stages, both streaming:

  1. normalize + pre-round: v6 = round(x_hat * 1e6) per dimension - exact
     integers in float64.  The 1e-6 pre-rounding is this repo's standing
     convention for mirroring float normalization in SQL (see
     functions/similarity_oracle.py::srp_neardup_sql): the only
     cross-engine float ops are the norm and one divide, whose <=1-ulp
     disagreement is absorbed by the rounding.
  2. calibrate: A6 = max |v6| over the corpus - an exact INTEGER reduce
     (one tiny row per block; the take_all is a KB broadcast, not data).
  3. encode: q = round(v6 * 127 / A6) in [-127, 127] - v6 * 127 <= 1.27e8
     is exact in float64, the divide + DuckDB-parity half-away round make
     every code bit-exact against SQL.

Quantized top-k therefore needs no float tolerance at all: scores are
exact int64 sums of int8 products, ranked (score DESC, neighbor_id ASC).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.numeric import round_half_away
from .fold import map_groups
from .similarity import _embedding_matrix, _fetch_query_rows

__all__ = [
    "embedding_amax6",
    "embedding_quantize_pipeline",
    "quantized_knn_pipeline",
]


def _normalized_e6(m: np.ndarray) -> np.ndarray:
    """(n, d) float64 -> exact-integer int64 v6 = round(x_hat * 1e6)."""
    norms = np.sqrt((m * m).sum(axis=1, keepdims=True))
    norms[norms == 0] = 1.0
    return round_half_away((m / norms) * 1e6).astype(np.int64)


def embedding_amax6(ds, *, vec_col: str) -> int:
    """Global max |v6| over the corpus (>= 1): the symmetric scale.

    Distributed integer reduce — one scalar per block, folded by Ray's
    native tree-reduce ``max`` (the driver sees ONE scalar, never an
    O(blocks) partial list)."""

    def mx(t: pa.Table) -> pa.Table:
        v6 = _normalized_e6(_embedding_matrix(t, vec_col))
        return pa.table({"a6": pa.array([int(np.abs(v6).max()) if v6.size else 0])})

    top = ds.map_batches(mx, batch_format="pyarrow", zero_copy_batch=True).max("a6")
    return max(1, int(top if top is not None else 0))


def _encode(m: np.ndarray, a6: int) -> np.ndarray:
    """(n, d) float64 -> (n, d) int64 codes in [-127, 127].

    Expression tree mirrors the SQL oracle op-for-op: v6 * 127.0 / a6
    (both operands exact integers in float64), DuckDB-parity half-away
    round."""
    v6 = _normalized_e6(m)
    return round_half_away(v6 * 127.0 / float(a6)).astype(np.int64)


def embedding_quantize_pipeline(ds, *, id_col: str, vec_col: str):
    """-> Dataset[(id_col, q_sum, q_min, q_max, q_first)] - exact integer
    summaries of each vector's int8 codes (the hash-comparable projection
    of the quantized table; the codes themselves ride the same encode)."""
    a6 = embedding_amax6(ds, vec_col=vec_col)

    def encode(t: pa.Table) -> pa.Table:
        q = _encode(_embedding_matrix(t, vec_col), a6)
        return pa.table(
            {
                id_col: t.column(id_col),
                "q_sum": pa.array(q.sum(axis=1)),
                "q_min": pa.array(q.min(axis=1)),
                "q_max": pa.array(q.max(axis=1)),
                "q_first": pa.array(q[:, 0]),
            }
        )

    return ds.map_batches(encode, batch_format="pyarrow", zero_copy_batch=True)


def quantized_knn_pipeline(
    ds,
    *,
    id_col: str,
    vec_col: str,
    query_ids,
    k: int = 5,
    queries_table: pa.Table | None = None,
):
    """-> Dataset[(query_id, neighbor_id, score)] - top-k by EXACT int64
    dot product of int8 codes, per query; ties broken by neighbor_id ASC;
    self-matches excluded.

    Same two-stage top-k shape as knn_bruteforce_pipeline (each block emits
    its local top-k per query; the shuffle carries k rows per (query,
    block)), but the broadcast query matrix is 1/4 the bytes and the block
    matmul runs in integers.  Recall vs exact cosine is pytest-pinned."""
    import ray

    a6 = embedding_amax6(ds, vec_col=vec_col)
    q_tbl = _fetch_query_rows(ds, id_col, query_ids, queries_table)
    q_ids = q_tbl.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(q_ids)
    q_ids = q_ids[order]
    q_codes = _encode(_embedding_matrix(q_tbl, vec_col), a6)[order]
    ref = ray.put((q_ids, q_codes))

    def local_topk(batch: pa.Table) -> pa.Table:
        qi, qc = ray.get(ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        codes = _encode(_embedding_matrix(batch, vec_col), a6)
        scores = codes @ qc.T  # (n, nq) exact int64
        out_q, out_n, out_s = [], [], []
        for j, qid in enumerate(qi):
            keep = ids != qid
            cand_ids, cand_s = ids[keep], scores[keep, j]
            top = np.lexsort((cand_ids, -cand_s))[:k]
            out_q.append(np.full(len(top), qid, dtype=np.int64))
            out_n.append(cand_ids[top])
            out_s.append(cand_s[top])
        empty = np.array([], np.int64)
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q) if out_q else empty),
                "neighbor_id": pa.array(np.concatenate(out_n) if out_n else empty),
                "score": pa.array(np.concatenate(out_s) if out_s else empty),
            }
        )

    local = ds.map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)

    def global_topk(g: pa.Table) -> pa.Table:
        ids = g.column("neighbor_id").to_numpy(zero_copy_only=False)
        sc = g.column("score").to_numpy(zero_copy_only=False)
        top = np.lexsort((ids, -sc))[:k]
        return pa.table(
            {
                "query_id": pa.array(
                    g.column("query_id").to_numpy(zero_copy_only=False)[top]
                ),
                "neighbor_id": pa.array(ids[top]),
                "score": pa.array(sc[top]),
            }
        )

    return map_groups(local, "query_id", global_topk)
