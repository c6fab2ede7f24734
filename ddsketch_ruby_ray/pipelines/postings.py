"""Inverted-index (postings) based exact n-gram Jaccard deduplication.

The third classic near-dup family next to MinHash-LSH and SimHash
(pipelines/dedup.py): instead of probabilistic bucketing, candidate pairs
come from an inverted index of the shingles themselves, and the exact
Jaccard falls straight out of co-occurrence COUNTS - the document text (or
even its shingle set) never has to be reshipped or intersected:

    |A ∩ B|  =  number of postings runs containing both A and B
    |A ∪ B|  =  |A| + |B| - |A ∩ B|        (sizes ride the postings rows)

Scale shape (the 100 TB story):
  * map side emits (shingle_hash, key, doc_size) postings - 24 bytes/row,
    text never shuffles; the shingle hash partitions the exchange.
  * the per-partition reduce sees every posting of its shingles, so the
    document-frequency guard (``df_cap``) is evaluated locally and pairs
    explode vectorized (``core.numeric.run_pairs``, as in the LSH buckets).
    A shingle with df=B emits B^2/2 pair rows, so df_cap is the skew
    guard that bounds the blowup at (df_cap^2)/2 per shingle - the
    standard "stop-shingle" filter: grams shared by more than df_cap
    documents carry no dedup signal and are dropped from the INTERSECTION
    (union keeps full document sizes - a conservative underestimate of
    true Jaccard, mirrored exactly by the SQL oracle).
  * co-occurrence rows shuffle once more on a hash of (a, b) and reduce to
    (a, b, inter) with one lexsort + boundary scan per partition - no
    per-pair Python at any cardinality.

All comparisons and the emitted jac1000 are EXACT integer arithmetic
(inter*1000 // union; keep iff inter*1000 >= thr_milli*union) so the DuckDB
mirror (functions/dedup_oracle.py::ngram_jaccard_sql) matches bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.numeric import run_pairs, run_starts
from .fold import keyed_exchange
from .dedup import _doc_shingle_hashes

__all__ = [
    "ngram_jaccard_pairs_pipeline",
    "dup_fraction_pipeline",
    "dup_fraction_stages",
    "resumable_dup_fraction_job",
]


def ngram_jaccard_pairs_pipeline(
    ds,
    *,
    key_col: str,
    text_col: str,
    ngram: int = 3,
    df_cap: int = 5,
    thr_milli: int = 500,
    num_partitions: int = 64,
):
    """-> Dataset[(a, b, jac1000)]: all doc pairs with df-capped shingle
    Jaccard >= thr_milli/1000, a < b, jac1000 = floor(1000*inter/union).

    ``inter`` counts only shingles with document frequency <= ``df_cap``;
    ``union`` uses the FULL per-doc distinct-shingle counts.  Exact same
    integer semantics in the SQL oracle.
    """

    def postings(batch: pa.Table) -> pa.Table:
        flat, bounds = _doc_shingle_hashes(batch, text_col, ngram)
        sizes = np.diff(bounds)
        keys = batch.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "sh": pa.array(flat.astype(np.int64)),
                "key": pa.array(np.repeat(keys, sizes)),
                "sz": pa.array(np.repeat(sizes.astype(np.int64), sizes)),
            }
        )

    posted = ds.map_batches(postings, batch_format="pyarrow", zero_copy_batch=True)

    empty_pairs = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "sa": pa.array([], pa.int64()),
            "sb": pa.array([], pa.int64()),
        }
    )

    def expand(pt: pa.Table) -> pa.Table:
        sh = pt.column("sh").to_numpy(zero_copy_only=False)
        key = pt.column("key").to_numpy(zero_copy_only=False)
        sz = pt.column("sz").to_numpy(zero_copy_only=False)
        if not sh.size:
            return empty_pairs
        order = np.lexsort((key, sh))
        key_s, sz_s = key[order], sz[order]
        # df guard: a shingle in more than df_cap docs gives no pairs; keys
        # ascend within a shingle's run
        first, second = run_pairs(run_starts(sh[order]), df_cap)
        if not first.size:
            return empty_pairs
        return pa.table(
            {
                "a": pa.array(key_s[first]),
                "b": pa.array(key_s[second]),
                "sa": pa.array(sz_s[first]),
                "sb": pa.array(sz_s[second]),
            }
        )

    co = keyed_exchange(posted, expand, keys="sh", num_partitions=num_partitions)

    def reduce_pairs(pt: pa.Table) -> pa.Table:
        a = pt.column("a").to_numpy(zero_copy_only=False)
        b = pt.column("b").to_numpy(zero_copy_only=False)
        sa = pt.column("sa").to_numpy(zero_copy_only=False)
        sb = pt.column("sb").to_numpy(zero_copy_only=False)
        if not a.size:
            return pa.table(
                {
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "jac1000": pa.array([], pa.int64()),
                }
            )
        order = np.lexsort((b, a))
        a_s, b_s, sa_s, sb_s = a[order], b[order], sa[order], sb[order]
        new = run_starts(a_s, b_s)
        starts = np.flatnonzero(new)
        inter = np.diff(np.append(starts, a_s.size))
        a_u, b_u, sa_u, sb_u = a_s[starts], b_s[starts], sa_s[starts], sb_s[starts]
        union = sa_u + sb_u - inter
        keep = inter * 1000 >= thr_milli * union
        return pa.table(
            {
                "a": pa.array(a_u[keep], pa.int64()),
                "b": pa.array(b_u[keep], pa.int64()),
                "jac1000": pa.array((inter[keep] * 1000) // union[keep], pa.int64()),
            }
        )

    return keyed_exchange(co, reduce_pairs, keys=["a", "b"], num_partitions=num_partitions)


def dup_fraction_pipeline(
    ds,
    *,
    key_col: str,
    text_col: str,
    ngram: int = 3,
    num_partitions: int = 64,
):
    """See dup_fraction_stages (this is their composition)."""
    postings, reduce = dup_fraction_stages(
        key_col=key_col, text_col=text_col, ngram=ngram, num_partitions=num_partitions
    )
    return reduce(ds.map_batches(postings, batch_format="pyarrow", zero_copy_batch=True))


def dup_fraction_stages(
    *,
    key_col: str,
    text_col: str,
    ngram: int = 3,
    num_partitions: int = 64,
):
    """Per-document duplication score (the RefinedWeb-style curation signal):
    the fraction of a doc's distinct shingles that also appear in at least
    one OTHER document.

    -> Dataset[(key_col, n_shingles, n_dup, dup_milli)], one row per doc
    with >= 1 shingle; ``dup_milli = (1000 * n_dup) // n_shingles`` (exact
    integers, bit-exact SQL mirror).

    Scale shape: two keyed shuffles, text never moves.  Shuffle 1 moves
    20-byte (shingle, doc) postings and co-locates each shingle's postings
    (df computed locally, per-doc partials pre-aggregated IN the
    partition); shuffle 2 moves only the per-(partition, doc) partial
    counters - the per-doc shingle total is the SUM of its partials' row
    counts, so no per-row size column ships anywhere.  Both reduces are
    one lexsort + boundary reduceat, no per-doc or per-shingle Python.  A
    stop-shingle appearing in B docs costs B postings rows here (not B^2
    pairs as in the Jaccard pipeline), so no df cap is needed.
    """
    def postings(batch: pa.Table) -> pa.Table:
        flat, bounds = _doc_shingle_hashes(batch, text_col, ngram)
        sizes = np.diff(bounds)
        keys = batch.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "sh": pa.array(flat.astype(np.int64)),
                "key": pa.array(np.repeat(keys, sizes)),
            }
        )

    empty_partial = pa.table(
        {
            "key": pa.array([], pa.int64()),
            "cnt": pa.array([], pa.int64()),
            "dup": pa.array([], pa.int64()),
        }
    )

    def df_reduce(pt: pa.Table) -> pa.Table:
        sh = pt.column("sh").to_numpy(zero_copy_only=False)
        if not sh.size:
            return empty_partial
        key = pt.column("key").to_numpy(zero_copy_only=False)
        order = np.lexsort((key, sh))
        sh_s, key_s = sh[order], key[order]
        # a row is a dup unless its shingle's run is this row alone
        new = run_starts(sh_s)
        dup = (~(new & np.append(new[1:], True))).astype(np.int64)
        o2 = np.argsort(key_s, kind="stable")
        k2, d2 = key_s[o2], dup[o2]
        new = run_starts(k2)
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, k2.size))
        return pa.table(
            {
                "key": pa.array(k2[starts]),
                "cnt": pa.array(lens.astype(np.int64)),
                "dup": pa.array(np.add.reduceat(d2, starts)),
            }
        )

    def finalize(pt: pa.Table) -> pa.Table:
        k = pt.column("key").to_numpy(zero_copy_only=False)
        if not k.size:
            return pa.table(
                {
                    key_col: pa.array([], pa.int64()),
                    "n_shingles": pa.array([], pa.int64()),
                    "n_dup": pa.array([], pa.int64()),
                    "dup_milli": pa.array([], pa.int64()),
                }
            )
        cnt = pt.column("cnt").to_numpy(zero_copy_only=False)
        dup = pt.column("dup").to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        k_s, cnt_s, dup_s = k[order], cnt[order], dup[order]
        new = run_starts(k_s)
        starts = np.flatnonzero(new)
        n_dup = np.add.reduceat(dup_s, starts)
        n_sh = np.add.reduceat(cnt_s, starts)  # Σ partial row counts = sz
        return pa.table(
            {
                key_col: pa.array(k_s[starts]),
                "n_shingles": pa.array(n_sh),
                "n_dup": pa.array(n_dup),
                "dup_milli": pa.array((n_dup * 1000) // n_sh),
            }
        )

    def reduce(posted):
        partials = keyed_exchange(posted, df_reduce, keys="sh", num_partitions=num_partitions)
        return keyed_exchange(partials, finalize, keys="key", num_partitions=num_partitions)

    return postings, reduce


def resumable_dup_fraction_job(
    input_files,
    workdir: str,
    *,
    prepare,
    key_col: str,
    text_col: str,
    ngram: int = 3,
    num_partitions: int = 64,
    read_columns=None,
    max_shards: int | None = None,
):
    """Checkpointed per-doc duplication scoring over parquet shards.

    Same two-phase contract as resumable_duplicate_spans_job: shingling is
    checkpointed per input shard (exactly-once), the two keyed shuffles run
    once all shards are committed and re-run alone on a crash."""
    from ..state.staged import staged_shuffle_job

    postings, reduce = dup_fraction_stages(
        key_col=key_col, text_col=text_col, ngram=ngram, num_partitions=num_partitions
    )

    def phase_a(ds):
        return prepare(ds).map_batches(
            postings, batch_format="pyarrow", zero_copy_batch=True
        )

    return staged_shuffle_job(
        input_files,
        workdir,
        phase_a=phase_a,
        phase_b=reduce,
        read_columns=read_columns,
        max_shards=max_shards,
    )
