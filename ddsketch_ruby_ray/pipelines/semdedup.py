"""SemDeDup: semantic deduplication via cluster-then-prune (Abbas et al.,
"SemDeDup: Data-efficient learning at web-scale through semantic
deduplication", 2023).

The canonical embedding-dedup recipe for web-scale corpora: exact all-pairs
cosine is quadratic in the corpus, so SemDeDup first CLUSTERS the embedding
space (k-means), then looks for near-duplicates only WITHIN each cluster —
the pair search drops from O(n^2) to O(sum n_c^2), bounded by choosing k
proportional to n (cluster sizes stay ~constant as the corpus grows).

Ray-Data shape (no step materializes the corpus):

  1. ``pipelines/kmeans.py`` assigns every vector a cluster — streaming
     passes + a KB centroid reduce;
  2. one hash equi-join on the id co-locates (vector, cluster) rows — the
     only all-to-all, carrying each vector once;
  3. ``groupby(cluster).map_groups``: inside each cluster one chunked
     row-normalized matmul scores all pairs; a row is a DUPLICATE iff some
     SAME-CLUSTER row with a smaller id has cosine >= threshold (the
     keep-first rule — deterministic under any block order, the same
     convention as exact_dedup).

Parallelism = k (one task per cluster), which at real scale is thousands;
per-task memory is one cluster's matrix + a ``chunk``-row score block.

Exactness: cosine is rounded to integer 1e-4 units (``cos4 = floor(cos *
10000 + 0.5)``) before the threshold compare, the established convention
that absorbs BLAS-vs-SQL fp noise (see ``pipelines/similarity.py``); the
cluster assignment itself is exact-integer k-means, so the whole operator
is SQL-mirrorable (``functions/similarity_oracle.py::semdedup_sql``).

Reference scope note: the reference (DataDog/ddsketch-ruby) has no
embedding operators; this is part of the north_rule's training-data tier.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .fold import map_groups
from .similarity import _cos_q, _embedding_matrix, _round4

__all__ = ["semdedup_pipeline"]


def semdedup_pipeline(
    ds,
    *,
    id_col: str,
    vec_col: str,
    k: int = 8,
    iters: int = 3,
    threshold: float = 0.92,
    chunk: int = 4096,
):
    """-> Dataset[(id_col, cluster, is_dup)] for EVERY input row.

    ``is_dup`` is 1 iff another row in the same k-means cluster with a
    smaller id scores ``cos4 >= round(threshold * 1e4)`` against this row.
    Keeping ``is_dup == 0`` rows is the SemDeDup-curated corpus.
    """
    from .joins import hash_join_pipeline
    from .kmeans import kmeans_pipeline

    thr4 = int(threshold * 10_000 + 0.5)

    assign = kmeans_pipeline(ds, id_col=id_col, vec_col=vec_col, k=k, iters=iters)
    assign = assign.select_columns([id_col, "cluster"])

    joined = hash_join_pipeline(
        ds,
        assign,
        left_key=id_col,
        right_key=id_col,
        left_cols=[id_col, vec_col],
        right_payload=["cluster"],
        how="inner",
    )

    def prune(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids, kind="stable")
        t_s = t.take(pa.array(order))
        ids_s = ids[order]
        m = _cos_q(_embedding_matrix(t_s, vec_col))
        n = ids_s.size
        is_dup = np.zeros(n, dtype=bool)
        # chunked upper-triangular scan: row i only scores against columns
        # j < i (smaller ids), so each chunk needs the matrix only up to its
        # own last row — peak score block is chunk x n, never n x n
        for a in range(0, n, chunk):
            b = min(a + chunk, n)
            cos4 = _round4(m[a:b] @ m[:b].T)  # (b-a, b)
            hit = cos4 >= thr4
            rows = np.arange(a, b)[:, None]
            cols = np.arange(b)[None, :]
            is_dup[a:b] = (hit & (cols < rows)).any(axis=1)
        return pa.table(
            {
                id_col: pa.array(ids_s),
                "cluster": t_s.column("cluster"),
                "is_dup": pa.array(is_dup.astype(np.int64)),
            }
        )

    return map_groups(joined, "cluster", prune, num_partitions=k)
