"""Similarity search over an embedding column (list<float>).

* ``knn_bruteforce_pipeline`` - exact top-k cosine: the query matrix is tiny,
  so it is broadcast (``ray.put``) and every batch does ONE float64 matmul
  against it; per-batch top-k partials then reduce per query.  This is the
  baseline and the verification oracle for ANN variants.
* ``cosine_neardup_pipeline`` - exact all pairs >= threshold as a
  storage-backed chunk-pair join (actor pool scores one chunk x chunk block
  matmul per task; per-task memory is two chunks, no driver
  materialization).  Exact is O(n^2) work by nature; at 10^12 rows you'd
  first LSH-bucket - see ``signed_random_projection_buckets``.
* ``signed_random_projection_buckets`` - the scale path: SimHash-style LSH
  for cosine similarity with deterministic hyperplanes drawn from
  counter-based splitmix64 uniforms; near-dup candidates share a bucket.

Float determinism: cosines are emitted as ``floor(cos * 10^4 + 0.5)``
(int64). numpy-BLAS and DuckDB accumulate float64 in different orders; their
results differ by ulps, which rounding to 4 decimals absorbs.  Ordering ties
are broken by neighbor id, so ranks are deterministic too.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..core.hashing import splitmix64
from .fold import map_groups

__all__ = [
    "knn_bruteforce_pipeline",
    "cosine_neardup_pipeline",
    "ivf_knn_pipeline",
    "signed_random_projection_buckets",
    "srp_neardup_pipeline",
]


def _embedding_matrix(batch: pa.Table, col: str) -> np.ndarray:
    arr = batch.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.values.to_numpy(zero_copy_only=False).astype(np.float64)
    dim = len(arr[0])
    return flat.reshape(-1, dim)


def _cos_q(m: np.ndarray) -> np.ndarray:
    """Row-normalize (float64)."""
    norms = np.sqrt((m * m).sum(axis=1, keepdims=True))
    norms[norms == 0] = 1.0
    return m / norms


def _round4(c: np.ndarray) -> np.ndarray:
    return np.floor(c * 10_000.0 + 0.5).astype(np.int64)


def _fetch_query_rows(ds, id_col: str, query_ids, queries_table):
    """The query-side rows: either caller-provided (prune-at-the-read, the
    fast path) or one filtered scan of ``ds``."""
    if queries_table is not None:
        return queries_table
    qset = set(int(q) for q in query_ids)

    def grab(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(np.isin(ids, list(qset))))

    return pa.concat_tables(
        ds.map_batches(grab, batch_format="pyarrow").iter_batches(batch_format="pyarrow")
    )


def knn_bruteforce_pipeline(
    ds, *, id_col: str, vec_col: str, query_ids, k: int = 5, queries_table: pa.Table | None = None
):
    """-> Dataset[(query_id, neighbor_id, cos4)]: exact top-k per query.

    Order contract: per query, by (cos4 DESC, neighbor_id ASC); self-matches
    excluded.  Two-stage top-k: each batch emits its local top-k per query
    (<= k rows per query per batch), then a per-query group reduce - the
    shuffle carries k * num_blocks rows per query, never the table.
    Pass ``queries_table`` (e.g. a pushed-down parquet read of just the query
    rows) to skip the extra query-fetch scan.
    """
    import ray

    q_tbl = _fetch_query_rows(ds, id_col, query_ids, queries_table)
    q_ids = q_tbl.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    q_mat = _cos_q(_embedding_matrix(q_tbl, vec_col))
    order = np.argsort(q_ids)
    q_ids, q_mat = q_ids[order], q_mat[order]
    ref = ray.put((q_ids, q_mat))

    def local_topk(batch: pa.Table) -> pa.Table:
        qi, qm = ray.get(ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        m = _cos_q(_embedding_matrix(batch, vec_col))
        cos4 = _round4(m @ qm.T)  # (n, nq)
        out_q, out_n, out_c = [], [], []
        for j, qid in enumerate(qi):
            col = cos4[:, j]
            keep = ids != qid
            cand_ids, cand_c = ids[keep], col[keep]
            if cand_ids.size > k:
                # top-k by (cos4 desc, id asc)
                sel = np.lexsort((cand_ids, -cand_c))[:k]
            else:
                sel = np.lexsort((cand_ids, -cand_c))
            out_q.extend([qid] * len(sel))
            out_n.extend(cand_ids[sel].tolist())
            out_c.extend(cand_c[sel].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "cos4": pa.array(out_c, pa.int64()),
            }
        )

    partials = ds.map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)

    def reduce_topk(group: pa.Table) -> pa.Table:
        qid = group.column("query_id")[0].as_py()
        n = group.column("neighbor_id").to_numpy(zero_copy_only=False)
        c = group.column("cos4").to_numpy(zero_copy_only=False)
        sel = np.lexsort((n, -c))[:k]
        return pa.table(
            {
                "query_id": pa.array([qid] * len(sel), pa.int64()),
                "neighbor_id": pa.array(n[sel], pa.int64()),
                "cos4": pa.array(c[sel], pa.int64()),
            }
        )

    # <= k rows per (query, block): a few fold tasks hold every query
    return map_groups(partials, "query_id", reduce_topk, num_partitions=4)


def cosine_neardup_pipeline(
    ds,
    *,
    id_col: str,
    vec_col: str,
    threshold: float = 0.95,
    num_chunks: int = 8,
    spill_dir: str | None = None,
):
    """-> Dataset[(a, b, cos4)]: all pairs with cosine >= threshold, a < b.

    Exact all-pairs as a storage-backed CHUNK-PAIR join - the out-of-core
    block matmul, never a driver-side materialization:

      1. rows hash into ``num_chunks`` chunks by id; one keyed exchange
         (:func:`~.fold.keyed_exchange`, chunk = partition) writes each
         chunk to its own parquet file
         (resumable spill; at scale this is the shared filesystem / object
         store, one file per chunk);
      2. a Dataset of the C*(C+1)/2 unordered chunk pairs fans out over an
         ACTOR POOL; each actor LRU-caches loaded chunks and scores one
         (chunk_i, chunk_j) block matmul per task, emitting only the
         over-threshold pairs (vectorized nonzero - no per-row Python).

    Per-task memory is TWO chunks, independent of n: pick
    ``num_chunks ~ n * dim * 8B / target_chunk_bytes``.  Work is O(n^2/C^2)
    per task by nature of all-pairs; when the threshold is high the cheaper
    route is ``srp_neardup_pipeline`` (bucketed, subquadratic), which this
    pipeline verifies at test scale.

    Determinism: a pair's cosine is a dot over the dim axis of the same two
    normalized rows regardless of chunking; cos4 rounding absorbs BLAS-vs-SQL
    ulps (module docstring).
    """
    import tempfile

    import pyarrow.parquet as pq
    import ray.data as rd

    from .fold import keyed_exchange

    spill = spill_dir or tempfile.mkdtemp(prefix="neardup_chunks_", dir="/tmp")
    thr4 = int(np.floor(threshold * 10_000 + 0.5))

    def write_chunk(g: pa.Table) -> pa.Table:
        cid = g.column("_part")[0].as_py()
        pq.write_table(g.drop_columns(["_part"]), f"{spill}/chunk_{cid}.parquet")
        return pa.table({"chunk": pa.array([cid], pa.int32())})

    markers = keyed_exchange(
        ds, write_chunk, keys=id_col, num_partitions=num_chunks
    ).take_all()  # C tiny marker rows - forces the spill, nothing else
    present = sorted(r["chunk"] for r in markers)
    pairs = [
        {"i": ci, "j": cj} for x, ci in enumerate(present) for cj in present[x:]
    ]

    class PairScorer:
        """One actor caches up to 4 loaded chunks; each task scores one
        chunk-pair block matmul."""

        def __init__(self):
            self._cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        def _load(self, cid: int):
            if cid not in self._cache:
                while len(self._cache) >= 4:
                    self._cache.pop(next(iter(self._cache)))
                t = pq.read_table(f"{spill}/chunk_{cid}.parquet")
                ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
                self._cache[cid] = (ids, _cos_q(_embedding_matrix(t, vec_col)))
            return self._cache[cid]

        def __call__(self, batch: pa.Table) -> pa.Table:
            outs = []
            for ci, cj in zip(
                batch.column("i").to_pylist(), batch.column("j").to_pylist()
            ):
                ids_i, m_i = self._load(ci)
                ids_j, m_j = self._load(cj)
                cos4 = _round4(m_i @ m_j.T)
                ai, bj = np.nonzero(cos4 >= thr4)
                ia, jb = ids_i[ai], ids_j[bj]
                # same chunk: each unordered pair appears twice -> keep a<b;
                # distinct chunks: appears once -> orient with min/max
                keep = (ia < jb) if ci == cj else (ia != jb)
                outs.append(
                    pa.table(
                        {
                            "a": pa.array(np.minimum(ia, jb)[keep]),
                            "b": pa.array(np.maximum(ia, jb)[keep]),
                            "cos4": pa.array(cos4[ai, bj][keep]),
                        }
                    )
                )
            return pa.concat_tables(outs)

    return rd.from_items(pairs).map_batches(
        PairScorer,
        batch_format="pyarrow",
        batch_size=1,
        concurrency=(1, 8),
    )


IVF_QUANT = 1_000_000.0  # normalize-quantize scale shared with the SQL mirror


def _normalize_quantize(m: np.ndarray) -> np.ndarray:
    """float matrix -> int-valued float64 matrix: floor(v*1e6+.5), then each
    row scaled to unit norm and re-quantized.  Every step is ELEMENTWISE over
    exact quantities (the norm's sum of squares is a sum of integers < 2^53,
    exact in any order), so the result is bit-deterministic and
    SQL-mirrorable."""
    vq = np.floor(m * IVF_QUANT + 0.5)
    ss = (vq * vq).sum(axis=1)  # exact: integer-valued terms, sums < 2^53
    ss = np.where(ss == 0.0, 1.0, ss)
    return np.floor(vq / np.sqrt(ss)[:, None] * IVF_QUANT + 0.5)


def _ivf_train_quantizer(
    sample_nq: np.ndarray, n_lists: int, kmeans_iters: int
) -> np.ndarray:
    """Deterministic spherical k-means over normalize-quantized sample rows.

    All order-dependent reductions are EXACT: assignment dots are sums of
    integer products < 2^53 (exact float64); per-dim member sums are exact
    integers; the centroid norm's sum of squares is computed in PYTHON ints
    (it can exceed 2^63) then rounded once to float64 - the same rounding
    HUGEINT::DOUBLE applies in the SQL mirror.  Ties (argmax, empty
    clusters) resolve to the lowest centroid id / the previous centroid.
    """
    n = len(sample_nq)
    seeds = (splitmix64(np.arange(n_lists, dtype=np.uint64)) % np.uint64(n)).astype(np.int64)
    centroids = sample_nq[seeds].copy()
    for _ in range(kmeans_iters):
        assign = (sample_nq @ centroids.T).argmax(axis=1)  # ties -> lowest c
        for c in range(n_lists):
            members = sample_nq[assign == c]
            if not len(members):
                continue  # empty cluster keeps its previous centroid
            s = members.sum(axis=0)  # exact ints (|s| <= n * 1e6 < 2^53)
            ss_int = sum(int(x) ** 2 for x in s)  # Python ints: may exceed 2^63
            if ss_int == 0:
                continue
            centroids[c] = np.floor(s / math.sqrt(float(ss_int)) * IVF_QUANT + 0.5)
    return centroids


def ivf_auto_params(n_total: int) -> tuple[int, int]:
    """Scale-honest IVF sizing from the corpus row count: ``n_lists ~
    sqrt(N)`` (the classic IVF balance point — probe cost n_probe*N/n_lists
    vs quantizer cost n_lists per vector) and a training sample of 32
    vectors per centroid.  floor(x + 0.5) to match the SQL mirror's
    half-up rounding exactly."""
    n_lists = max(16, int(math.floor(math.sqrt(max(n_total, 1)) + 0.5)))
    return n_lists, max(256, 32 * n_lists)


def ivf_knn_pipeline(
    ds,
    *,
    id_col: str,
    vec_col: str,
    query_ids,
    k: int = 5,
    n_lists: int | str = 16,
    n_probe: int = 4,
    kmeans_iters: int = 5,
    sample_n: int = 256,
    queries_table: pa.Table | None = None,
):
    """IVF (inverted-file) approximate top-k cosine - the ANN scale path.

    1. Draw a DETERMINISTIC, layout-independent sample: the ``sample_n`` rows
       with the smallest (splitmix64(id), id) - a distributed top-N (each
       batch emits its local winners; the driver keeps the global ones), so
       the quantizer never depends on block order or Ray scheduling.
    2. Train a coarse quantizer: integer-quantized spherical k-means
       (:func:`_ivf_train_quantizer`), fixed iteration count - bit-identical
       on every run/layout AND in the DuckDB SQL mirror
       (functions/similarity_oracle.py::ivf_knn_sql).
    3. Assign every vector to its nearest centroid inside ``map_batches``
       (the "inverted lists" are just a derived ``list_id`` column); exact
       integer dots, no fp-order sensitivity.
    4. Each query scans only its ``n_probe`` closest lists; candidates are
       scored with the proven floor(cos*1e4+0.5) rounding over the raw
       doubles.

    Returns (query_id, neighbor_id, cos4) like the brute-force pipeline;
    recall vs brute force is pytest-checked.  At 10^12 rows the assignment
    pass is the only full scan, and probing touches n_probe/n_lists of the
    data per query.

    ``n_lists="auto"`` sizes the quantizer from the measured row count
    (:func:`ivf_auto_params`: ``n_lists ~ sqrt(N)``, 32 sample vectors per
    centroid) — the count is a parquet-metadata read, and the SQL mirror
    derives the identical values from ``count(*)`` (``auto_size=True``).
    """
    import ray

    if n_lists == "auto":
        n_lists, sample_n = ivf_auto_params(ds.count())
    n_lists = int(n_lists)

    # ---- deterministic sample: global top-N by (splitmix64(id), id)
    def local_sample(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = splitmix64(ids.astype(np.uint64)).astype(np.uint64)
        sel = np.sort(np.lexsort((ids, h))[:sample_n])  # local winners, row order kept
        out = batch.take(pa.array(sel))
        return out.append_column("_h", pa.array(h[sel].astype(np.int64)))

    partial = pa.concat_tables(
        ds.map_batches(local_sample, batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow")
    )
    p_ids = partial.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    p_h = partial.column("_h").to_numpy(zero_copy_only=False).astype(np.uint64)
    # canonical (h, id) order: seed indices address sample POSITIONS, so the
    # row order itself must be layout-independent, not just the row set
    winners = np.lexsort((p_ids, p_h))[:sample_n]
    sample_tbl = partial.take(pa.array(winners))
    sample_nq = _normalize_quantize(_embedding_matrix(sample_tbl, vec_col))

    centroids = _ivf_train_quantizer(sample_nq, n_lists, kmeans_iters)

    # ---- query matrix + probed lists per query (exact integer dots)
    q_tbl = _fetch_query_rows(ds, id_col, query_ids, queries_table)
    q_ids = q_tbl.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    q_raw = _embedding_matrix(q_tbl, vec_col)
    q_mat = _cos_q(q_raw)
    q_nq = _normalize_quantize(q_raw)
    qdots = q_nq @ centroids.T  # exact
    probed = np.stack(
        [np.lexsort((np.arange(n_lists), -qdots[j]))[:n_probe] for j in range(len(q_ids))]
    )  # ties -> lowest list id, matching the SQL row_number order
    ref = ray.put((q_ids, q_mat, centroids, probed))

    def local_topk(batch: pa.Table) -> pa.Table:
        qi, qm, cents, prob = ray.get(ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        raw = _embedding_matrix(batch, vec_col)
        m = _cos_q(raw)
        nq = _normalize_quantize(raw)
        list_id = (nq @ cents.T).argmax(axis=1)  # IVF assignment (fused, exact)
        cos4 = _round4(m @ qm.T)
        out_q, out_n, out_c = [], [], []
        for j, qid in enumerate(qi):
            in_probed = np.isin(list_id, prob[j])
            keep = in_probed & (ids != qid)
            cand_ids, cand_c = ids[keep], cos4[:, j][keep]
            sel = np.lexsort((cand_ids, -cand_c))[:k]
            out_q.extend([qid] * len(sel))
            out_n.extend(cand_ids[sel].tolist())
            out_c.extend(cand_c[sel].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "cos4": pa.array(out_c, pa.int64()),
            }
        )

    partials = ds.map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)

    def reduce_topk(group: pa.Table) -> pa.Table:
        qid = group.column("query_id")[0].as_py()
        n = group.column("neighbor_id").to_numpy(zero_copy_only=False)
        c = group.column("cos4").to_numpy(zero_copy_only=False)
        sel = np.lexsort((n, -c))[:k]
        return pa.table(
            {
                "query_id": pa.array([qid] * len(sel), pa.int64()),
                "neighbor_id": pa.array(n[sel], pa.int64()),
                "cos4": pa.array(c[sel], pa.int64()),
            }
        )

    return map_groups(partials, "query_id", reduce_topk, num_partitions=4)


def srp_neardup_pipeline(
    ds,
    *,
    id_col: str,
    vec_col: str,
    threshold: float = 0.95,
    n_planes: int = 12,
):
    """Scale-path near-duplicate pairs: SRP-LSH bucket -> exact verify.

    Stage 1 assigns every row an LSH bucket (signed random projections -
    vectors with cosine near 1 share all sign bits w.h.p.); stage 2 groups by
    bucket and verifies candidates with an exact cosine matmul INSIDE each
    (small) bucket.  Only same-bucket pairs are ever scored, so the all-pairs
    matmul of ``cosine_neardup_pipeline`` never materializes - this is the
    10^12-row shape.  Recall misses pairs whose cosine < ~cos(pi/n_planes)
    per plane; pytest pins recall against brute force.  Fully deterministic
    AND SQL-oracle-backed: bucket projections are exact-integer sums (see
    signed_random_projection_buckets_table), and the in-bucket verify emits
    the proven floor(cos*1e4+0.5) rounding.
    """

    def assign(batch: pa.Table) -> pa.Table:
        out = signed_random_projection_buckets_table(batch, id_col, vec_col, n_planes)
        return batch.append_column("bucket", out.column("bucket"))

    bucketed = ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
    thr4 = int(np.floor(threshold * 10_000 + 0.5))

    def verify(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) < 2:
            return pa.table(
                {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                 "cos4": pa.array([], pa.int64())}
            )
        m = _cos_q(_embedding_matrix(group, vec_col))
        cos4 = _round4(m @ m.T)
        ii, jj = np.triu_indices(len(ids), k=1)
        keep = cos4[ii, jj] >= thr4
        a, b = ids[ii[keep]], ids[jj[keep]]
        swap = a > b
        a2 = np.where(swap, b, a)
        b2 = np.where(swap, a, b)
        return pa.table(
            {"a": pa.array(a2, pa.int64()), "b": pa.array(b2, pa.int64()),
             "cos4": pa.array(cos4[ii, jj][keep], pa.int64())}
        )

    return map_groups(bucketed, "bucket", verify, num_partitions=64)


SRP_QUANT = 1_000_000.0  # vector/plane quantization scale (SQL mirror uses the same)


def signed_random_projection_buckets_table(
    batch: pa.Table, id_col: str, vec_col: str, n_planes: int
) -> pa.Table:
    """Batch-level SRP bucket assignment (shared by the Dataset wrapper).

    EXACT-integer projections: vectors and hyperplanes are quantized to
    1e-6 resolution (elementwise floor(x*1e6 + 0.5) - no order-dependent
    arithmetic), so each projection is a sum of 64 integer products bounded
    by 64 * 1e12 < 2^53: float64 accumulates it EXACTLY in any order.  The
    sign bit is therefore a deterministic function of the data - identical
    across BLAS kernels, block layouts, and the DuckDB SQL mirror
    (functions/similarity_oracle.py::srp_neardup_sql).
    """
    m = _embedding_matrix(batch, vec_col)
    dim = m.shape[1]
    vq = np.floor(m * SRP_QUANT + 0.5)
    idx = np.arange(n_planes * dim, dtype=np.uint64)
    u = splitmix64(idx).astype(np.float64) / float(2**64)
    planes = np.floor((u * 2.0 - 1.0) * SRP_QUANT + 0.5).reshape(n_planes, dim)
    bits = (vq @ planes.T) > 0
    bucket = (bits.astype(np.uint64) << np.arange(n_planes, dtype=np.uint64)[None, :]).sum(
        axis=1, dtype=np.uint64
    )
    return pa.table(
        {id_col: batch.column(id_col), "bucket": pa.array(bucket.astype(np.int64))}
    )


def signed_random_projection_buckets(ds, *, id_col: str, vec_col: str, n_planes: int = 16):
    """-> Dataset[(id, bucket)]: SimHash-for-cosine LSH bucket per row.

    Hyperplanes are deterministic: plane p, dim d gets a uniform in [-1, 1)
    from splitmix64(p * dim + d) - no RNG state, identical on every worker,
    reproducible across runs and cluster layouts.  Projections are
    exact-integer (see signed_random_projection_buckets_table), making the
    buckets bit-for-bit SQL-mirrorable.
    """

    def stage(batch: pa.Table) -> pa.Table:
        return signed_random_projection_buckets_table(batch, id_col, vec_col, n_planes)

    return ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)
