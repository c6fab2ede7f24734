"""Okapi BM25 retrieval scoring against a fixed query, distributed.

The standard lexical-retrieval ranking function (Robertson/Sparck-Jones;
k1 = 1.2, b = 0.75): for each document containing at least one query term,

  score(D) = sum_t idf(t) * (tf * 2.2) / (tf + 1.2*(0.25 + 0.75*(dl/avgdl)))
  idf(t)   = ln((N - df + 0.5) / (df + 0.5))

Three cheap passes, no shuffle of text:

  1. stats: each block emits ONE row (docs, total tokens, per-query-term
     document frequencies); a scalar `.sum()` reduces them — the idfs and
     avgdl are then 4 libm logs + 1 divide computed once on the driver.
  2. score: one map_batches re-tokenizes (docs never span blocks),
     vectorized run-length tf per query term, per-doc score summed in the
     FIXED query-term order (floats: addition order matters, so the SQL
     mirror pivots each term's score into a column and adds them in the
     same left-to-right order — bit-exact).
  3. top-k pushdown: each block keeps its local top-k by (score DESC,
     doc_id); only P x k candidate rows meet in one partition for the
     final rank.

Determinism notes: idf args are small exact integers +0.5 (exact doubles),
the divide is correctly rounded, and ``math.log`` (libm) equals DuckDB's
``ln`` bit-for-bit on this platform (established by tfidf.py / hll).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..core.numeric import run_starts
from .dedup import tokenize

__all__ = ["bm25_topk_pipeline", "BM25_K1", "BM25_B"]

BM25_K1 = 1.2
BM25_B = 0.75


def _block_runs(batch: pa.Table, key_col: str, text_col: str):
    """-> (doc_keys, dl_per_doc, run_doc_idx, run_terms, run_tf)."""
    keys = batch.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
    texts = batch.column(text_col).to_pylist()
    toks: list[str] = []
    bounds = [0]
    for t in texts:
        toks.extend(tokenize(t))
        bounds.append(len(toks))
    dl = np.diff(np.asarray(bounds, dtype=np.int64))
    if not toks:
        e = np.empty(0, dtype=np.int64)
        return keys, dl, e, np.empty(0, dtype=object), e
    terms = np.array(toks, dtype=object)
    doc_idx = np.repeat(np.arange(len(texts)), dl)
    order = np.lexsort((terms, doc_idx))
    d_s, t_s = doc_idx[order], terms[order]
    new = run_starts(d_s, t_s)
    starts = np.flatnonzero(new)
    tf = np.diff(np.append(starts, d_s.size)).astype(np.int64)
    return keys, dl, d_s[starts], t_s[starts], tf


def bm25_topk_pipeline(
    ds,
    *,
    key_col: str,
    text_col: str,
    query_terms,
    k: int = 20,
):
    """-> Dataset[(rank, key_col, score, dl)]: the global top-``k`` docs by
    BM25 against ``query_terms`` (fixed order — it defines the float
    summation order), among docs containing >= 1 query term; ties break on
    ascending doc key."""
    qterms = list(query_terms)
    m = len(qterms)
    q_arr = np.array(qterms, dtype=object)

    df_cols = [f"df_{i}" for i in range(m)]

    def stats_partials(batch: pa.Table) -> pa.Table:
        _, dl, run_doc, run_terms, _ = _block_runs(batch, key_col, text_col)
        cols = {
            "_n": pa.array([batch.num_rows], pa.int64()),
            "_tot": pa.array([int(dl.sum())], pa.int64()),
        }
        for i, qt in enumerate(qterms):
            cols[df_cols[i]] = pa.array(
                [int((run_terms == qt).sum())], pa.int64()
            )  # one run per (doc, term) -> docs containing qt in this block
        return pa.table(cols)

    stats = ds.map_batches(
        stats_partials, batch_format="pyarrow", zero_copy_batch=True
    ).sum(["_n", "_tot"] + df_cols)
    if stats is None or stats.get("sum(_n)") is None:
        # zero input rows: Dataset.sum returns None — emit the empty result
        # table instead of crashing on int(None)
        import ray.data as _rd

        return _rd.from_arrow(
            pa.table(
                {
                    "rank": pa.array([], pa.int64()),
                    key_col: pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                    "dl": pa.array([], pa.int64()),
                }
            )
        )
    n_docs = int(stats["sum(_n)"])
    total_toks = int(stats["sum(_tot)"])
    dfs = [int(stats[f"sum({c})"]) for c in df_cols]
    avgdl = float(total_toks) / float(n_docs) if n_docs else 1.0
    # libm log, computed ONCE per query term (tfidf.py's ln-parity note)
    idfs = [
        math.log((float(n_docs - d) + 0.5) / (float(d) + 0.5)) for d in dfs
    ]

    def score_block(batch: pa.Table) -> pa.Table:
        keys, dl, run_doc, run_terms, run_tf = _block_runs(
            batch, key_col, text_col
        )
        empty = pa.table(
            {
                key_col: pa.array([], pa.int64()),
                "score": pa.array([], pa.float64()),
                "dl": pa.array([], pa.int64()),
            }
        )
        if not run_terms.size:
            return empty
        # per-doc tf for each query term, dense (docs x m)
        tf_mat = np.zeros((len(keys), m), dtype=np.int64)
        for i, qt in enumerate(qterms):
            sel = run_terms == qt
            tf_mat[run_doc[sel], i] = run_tf[sel]
        hit = tf_mat.any(axis=1)
        if not hit.any():
            return empty
        tf_mat = tf_mat[hit]
        dl_h = dl[hit].astype(np.float64)
        norm = BM25_K1 * ((1.0 - BM25_B) + BM25_B * (dl_h / avgdl))
        score = np.zeros(tf_mat.shape[0], dtype=np.float64)
        for i in range(m):  # FIXED summation order == the SQL mirror's
            tf = tf_mat[:, i].astype(np.float64)
            s_i = idfs[i] * ((tf * (BM25_K1 + 1.0)) / (tf + norm))
            s_i[tf_mat[:, i] == 0] = 0.0
            score = score + s_i
        kk = keys[hit]
        order = np.lexsort((kk, -score))[:k]  # local top-k pushdown
        return pa.table(
            {
                key_col: pa.array(kk[order]),
                "score": pa.array(score[order]),
                "dl": pa.array(dl[hit][order]),
            }
        )

    candidates = ds.map_batches(
        score_block, batch_format="pyarrow", zero_copy_batch=True
    )

    def final_rank(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "rank": pa.array([], pa.int64()),
                    key_col: pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                    "dl": pa.array([], pa.int64()),
                }
            )
        kk = t.column(key_col).to_numpy(zero_copy_only=False)
        sc = t.column("score").to_numpy(zero_copy_only=False)
        dl = t.column("dl").to_numpy(zero_copy_only=False)
        order = np.lexsort((kk, -sc))[:k]
        return pa.table(
            {
                "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
                key_col: pa.array(kk[order]),
                "score": pa.array(sc[order]),
                "dl": pa.array(dl[order]),
            }
        )

    return candidates.repartition(1).map_batches(
        final_rank, batch_format="pyarrow", zero_copy_batch=True
    )
