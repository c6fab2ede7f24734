"""Distributed k-means (Lloyd's algorithm) over SQ8-quantized embeddings.

The embedding-clustering stage of a training-data pipeline (corpus
organization, diversity sampling, semantic dedup pre-bucketing).  Neither
the reference (a sketch library) nor Ray Data has it; this is the classic
iterative-algorithm shape the north_rule's custom-operator policy covers:
each Lloyd iteration is ONE streaming pass over the dataset
(``map_batches`` assignment + per-batch partial centroid sums) folded
through a bounded keyed tree reduce — the driver pulls exactly k centroid
rows per iteration (never O(num_blocks × k); at 10⁶ blocks the old
driver fold was millions of tiny rows through single-threaded Python) and
the corpus is never materialized, shuffled, or re-partitioned.

Exactness contract (what makes the SQL oracle bit-exact):

* vectors enter as the SAME int8-range codes as the SQ8 quantizer
  (``pipelines/quantize.py::_encode`` — row-normalize, 1e-6 pre-round,
  symmetric 127/A6 scale, half-away rounds), so every distance is an exact
  int64: ``d(x, c) = Σ_dim (x_d − c_d)²``.
* centroids are ROUNDED back to integer vectors after every update:
  ``c_d = round_half_away(Σ x_d / n)`` — the "integer k-means" variant.
  Sums stay < 2^47 (n ≤ 2^40 rows × |code| ≤ 127), so the float64 divide
  is exact-input and the DuckDB mirror (``round(sum::DOUBLE / cnt)``)
  rounds identically.  No cross-multiplied rational comparisons, no
  overflow at any corpus size.
* determinism: seeds are the k SMALLEST ids (distributed bottom-k, KB);
  distance ties assign to the SMALLEST cluster id (np.argmin first-hit ==
  SQL ``row_number() ... ORDER BY dist, cid``); empty clusters keep their
  previous centroid.  Any block/batch order yields identical results
  because every reduction is an integer sum.

Scale: k·dim integers broadcast per task per iteration; ``iters`` fixed
passes over the source (re-deriving codes is cheaper at 100 TB than
materializing a second copy of the corpus).  Skew-free by construction —
no keyed shuffle exists in the plan.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.numeric import round_half_away, run_starts
from .fold import keyed_exchange
from .quantize import _encode, embedding_amax6
from .similarity import _embedding_matrix

__all__ = ["kmeans_pipeline"]


_FOLD_PARTS = 8  # tree-reduce fan-in for the KB-sized driver tables


def _bottomk_ids(ds, id_col: str, k: int) -> np.ndarray:
    """The k smallest ids — per-block bottom-k, a keyed tree fold (bottom-k
    of bottom-ks is exact under ANY partitioning), then a driver merge of
    at most ``_FOLD_PARTS × k`` rows (never O(blocks) rows)."""

    def bk(t: pa.Table) -> pa.Table:
        ids = np.sort(t.column(id_col).to_numpy(zero_copy_only=False))[:k]
        return pa.table({id_col: pa.array(ids.astype(np.int64))})

    def fold(g: pa.Table) -> pa.Table:
        ids = np.sort(g.column(id_col).to_numpy(zero_copy_only=False))[:k]
        return pa.table({id_col: pa.array(ids.astype(np.int64))})

    parts = keyed_exchange(
        ds.map_batches(bk, batch_format="pyarrow", zero_copy_batch=True),
        fold,
        keys=id_col,
        num_partitions=_FOLD_PARTS,
    ).take_all()
    allids = np.sort(np.array([r[id_col] for r in parts], dtype=np.int64))
    return allids[:k]


def kmeans_pipeline(ds, *, id_col: str, vec_col: str, k: int = 8, iters: int = 3):
    """-> Dataset[(id_col, cluster, dist2)] after ``iters`` Lloyd rounds.

    ``cluster`` is the 0-based centroid index (seed order = ascending seed
    id); ``dist2`` the exact int64 squared distance to the final centroid.
    ``iters`` counts ASSIGNMENT passes: ``iters=3`` runs assign→update
    twice, then a final assignment against the round-2 centroids.
    """
    if k < 1 or iters < 1:
        raise ValueError("k and iters must be >= 1")
    a6 = embedding_amax6(ds, vec_col=vec_col)

    # -- seeds: codes of the k smallest ids (k rows, KB) -------------------
    seed_ids = _bottomk_ids(ds, id_col, k)
    if seed_ids.size < k:
        raise ValueError(f"k={k} but the dataset has only {seed_ids.size} rows")
    sid = set(int(i) for i in seed_ids)

    def pick(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        mask = np.isin(ids, seed_ids)
        if not mask.any():
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "_q": pa.array([], pa.list_(pa.int64())),
                }
            )
        sub = t.filter(pa.array(mask))
        q = _encode(_embedding_matrix(sub, vec_col), a6)
        return pa.table(
            {
                id_col: sub.column(id_col).cast(pa.int64()),
                "_q": pa.array(list(q), pa.list_(pa.int64())),
            }
        )

    rows = ds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True).take_all()
    assert len(rows) == len(sid), f"seed fetch: {len(rows)} != {len(sid)}"
    rows.sort(key=lambda r: r[id_col])
    centroids = np.array([r["_q"] for r in rows], dtype=np.int64)  # (k, dim)

    def _assign(q: np.ndarray, cent: np.ndarray):
        """(n,) cluster ids + (n,) int64 squared distances; ties -> min cid."""
        # d = |x|^2 - 2 x.c + |c|^2, all int64-exact
        x2 = (q * q).sum(axis=1)[:, None]
        c2 = (cent * cent).sum(axis=1)[None, :]
        d = x2 - 2 * (q @ cent.T) + c2
        cid = np.argmin(d, axis=1)  # first hit == smallest cid on ties
        return cid, d[np.arange(d.shape[0]), cid]

    # -- Lloyd rounds: one streaming pass each ----------------------------
    for _ in range(iters - 1):
        cent = centroids  # bind for closure

        def partials(t: pa.Table) -> pa.Table:
            q = _encode(_embedding_matrix(t, vec_col), a6)
            cid, _ = _assign(q, cent)
            sums = np.zeros((k, q.shape[1]), dtype=np.int64)
            np.add.at(sums, cid, q)
            cnt = np.bincount(cid, minlength=k).astype(np.int64)
            cids = np.arange(k, dtype=np.int64)
            return pa.table(
                {
                    "cid": pa.array(cids),
                    "cnt": pa.array(cnt),
                    "sums": pa.array(list(sums), pa.list_(pa.int64())),
                    # pre-tagged: k dense cluster ids spread round-robin
                    "_part": pa.array((cids % _FOLD_PARTS).astype(np.int32)),
                }
            )

        def cfold(g: pa.Table) -> pa.Table:
            """Per-partition exact fold of the (cid, cnt, sums) partials —
            the driver pulls k rows total, never num_blocks × k (sums stay
            < 2^47: n <= 2^40 rows × |code| <= 127)."""
            cids = g.column("cid").to_numpy(zero_copy_only=False)
            cnts = g.column("cnt").to_numpy(zero_copy_only=False)
            la = g.column("sums")
            if isinstance(la, pa.ChunkedArray):
                la = la.combine_chunks()
            dim = centroids.shape[1]
            mat = la.flatten().to_numpy(zero_copy_only=False).reshape(len(cids), dim)
            order = np.argsort(cids, kind="stable")
            cids_s = cids[order]
            new = run_starts(cids_s)
            starts = np.flatnonzero(new)
            return pa.table(
                {
                    "cid": pa.array(cids_s[starts]),
                    "cnt": pa.array(np.add.reduceat(cnts[order], starts)),
                    "sums": pa.array(
                        list(np.add.reduceat(mat[order], starts, axis=0)),
                        pa.list_(pa.int64()),
                    ),
                }
            )

        # tree-reduced partials: the driver folds k rows, not blocks × k
        parts = keyed_exchange(
            ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True),
            cfold,
            num_partitions=_FOLD_PARTS,
        ).take_all()
        sums = np.zeros((k, centroids.shape[1]), dtype=np.int64)
        cnt = np.zeros(k, dtype=np.int64)
        for r in parts:
            sums[r["cid"]] += np.asarray(r["sums"], dtype=np.int64)
            cnt[r["cid"]] += r["cnt"]
        nz = cnt > 0
        new_c = centroids.copy()  # empty cluster keeps previous centroid
        new_c[nz] = round_half_away(sums[nz] / cnt[nz, None]).astype(np.int64)
        centroids = new_c

    cent_final = centroids

    def final(t: pa.Table) -> pa.Table:
        q = _encode(_embedding_matrix(t, vec_col), a6)
        cid, d2 = _assign(q, cent_final)
        return pa.table(
            {
                id_col: t.column(id_col).cast(pa.int64()),
                "cluster": pa.array(cid.astype(np.int64)),
                "dist2": pa.array(d2.astype(np.int64)),
            }
        )

    return ds.map_batches(final, batch_format="pyarrow", zero_copy_batch=True)
