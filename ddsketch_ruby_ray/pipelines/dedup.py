"""Deduplication pipelines: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Scale shapes (the 100 TB story):
  * exact: per-row 128-bit content hash in map_batches, then a groupby over
    (hash_hi, hash_lo) + min(doc_id) - the shuffle moves 24 bytes/row, never
    text.  (60-bit hashes collide at 10^12 rows; 128 bits do not.)
  * MinHash+LSH: per-row signatures in map_batches (vectorized reduceat over
    all shingles in a batch), then a groupby on (band, bucket) whose groups
    are tiny by construction; candidate pairs come out of map_groups.  The
    bucket id is a splitmix64 fold of the band's minhash slots (one uint64
    per row x band - no Python string building).
  * SimHash: one 64-bit signature per row, near-dup candidates via band
    equality - same groupby shape.
  * Jaccard verify: exact similarity computed INSIDE each (band, bucket)
    group - the shingle-HASH sets (8 bytes/shingle, never the text) ride the
    same shuffle as the bucket rows, so verification is distributed and
    nothing is ever materialized on the driver; cross-band duplicate pairs
    collapse in a final (a, b) groupby whose value is identical in every
    band by construction.
  * Shared steps: pairs within a bucket come from ``core.numeric.run_pairs``.
    The Jaccard and containment verifies share one bucketing map
    (``_bucketed_shingle_sets``) and one shared-shingle pair step
    (``_shared_shingle_pairs``); the edit-distance, Jaro-Winkler and SimHash
    verifies attach both sides of a pair with ``_with_pair_sides``.

Every stage is deterministic (sha256 / splitmix64 hashing - see
core/hashing.py) and mirrored bit-for-bit in DuckDB SQL
(functions/dedup_oracle.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.hashing import fold_windows, hash64_int, hash256_str, splitmix64
from ..core.numeric import run_pairs, run_starts
from .fold import keyed_exchange, map_groups, partitioned_group_agg, partitioned_group_sum

__all__ = [
    "tokenize",
    "word_shingles",
    "exact_dedup_pipeline",
    "exact_dedup_rows_pipeline",
    "normalized_dedup_pipeline",
    "minhash_signatures",
    "lsh_candidate_pairs_pipeline",
    "lsh_after_exact_dedup",
    "jaccard_pairs_pipeline",
    "edit_distance_pairs_pipeline",
    "jaro_winkler_pairs_pipeline",
    "containment_pairs_pipeline",
    "simhash_pipeline",
    "simhash_hamming_pairs_pipeline",
    "dup_rate_by_group_pipeline",
]

SPLIT_CHAR = " "  # literal split; mirrored by string_split(text, ' ') in SQL


def tokenize(text: str | None) -> list[str]:
    """Literal single-space split, empties dropped (= SQL string_split + filter).

    Null text tokenizes like the empty string (see hash256_str's null policy).
    """
    if not text:
        return []
    return [t for t in text.split(SPLIT_CHAR) if t]


def word_shingles(text: str, n: int = 3) -> list[str]:
    """Distinct word n-grams joined by a single space."""
    toks = tokenize(text)
    if len(toks) < n:
        return [" ".join(toks)] if toks else []
    return sorted({" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)})


# -- exact dedup -------------------------------------------------------------


def _min_key_per_hash(hi: np.ndarray, lo: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Row index of the min-key row of each 128-bit content hash ``(hi, lo)``,
    in hash order.  Object (non-numeric) keys order via sorted dense codes."""
    if keys.dtype == object:
        import pandas as pd

        keys, _ = pd.factorize(pd.Series(keys), sort=True)
    order = np.lexsort((keys, lo, hi))
    return order[run_starts(hi[order], lo[order])]


def exact_dedup_pipeline(ds, *, key_col: str, text_col: str, num_partitions: int = 64):
    """Keep the first (min key) row per exact text: -> Dataset[key_col].

    128-bit content identity (two sha256 lanes) so the shuffle never carries
    text and collisions are impossible at any realistic scale.  The map side
    PRE-DEDUPES each block (one lexsort+reduceat) so the shuffle moves at most
    one 24-byte row per (block, distinct text); the reduce side is one
    vectorized min-key scan per hash PARTITION (~cpus partitions) - Ray's
    built-in per-group aggregate would cost ~250us of Python per distinct
    document, which at 10^8+ distinct texts dominates everything.
    """

    def hash_stage(batch: pa.Table) -> pa.Table:
        lanes = hash256_str(batch.column(text_col), lanes=2)
        hi = lanes[0].astype(np.int64)
        lo = lanes[1].astype(np.int64)
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        win = _min_key_per_hash(hi, lo, keys)  # block-local pre-dedup
        return pa.table(
            {
                "h_hi": pa.array(hi[win]),
                "h_lo": pa.array(lo[win]),
                key_col: batch.column(key_col).take(pa.array(win)),
            }
        )

    hashed = ds.map_batches(hash_stage, batch_format="pyarrow", zero_copy_batch=True)

    def keep_min(part_tbl: pa.Table) -> pa.Table:
        hi = part_tbl.column("h_hi").to_numpy(zero_copy_only=False)
        lo = part_tbl.column("h_lo").to_numpy(zero_copy_only=False)
        keys = part_tbl.column(key_col).to_numpy(zero_copy_only=False)
        win = _min_key_per_hash(hi, lo, keys)
        return pa.table({key_col: part_tbl.column(key_col).take(pa.array(win))})

    return keyed_exchange(hashed, keep_min, keys="h_hi", num_partitions=num_partitions)


def lsh_after_exact_dedup(
    ds,
    *,
    key_col: str,
    text_col: str,
    num_hashes: int = 16,
    bands: int = 4,
    ngram: int = 3,
    max_bucket: int | None = None,
):
    """Production near-dup composition for DUPLICATE-HEAVY corpora:
    exact-dedup winners via the 24-byte key shuffle, winner-id set broadcast
    once, membership filter in a second streamed pass, then LSH — the TEXT
    never crosses an all-to-all anywhere (the rows-plan alternative ships
    every byte of text through the dedup shuffle).

    Regime: the winner set is ids only (8 B per DISTINCT text) and must fit
    in memory — right up to ~10^9 distinct texts; beyond that, run
    ``exact_dedup_rows_pipeline`` + LSH instead (text pays one shuffle).
    ``ds`` is consumed twice (dedup pass + filter pass), like the other
    broadcast-membership pipelines (linededup / decontam).
    """
    import ray

    # ids only, 8 B per distinct text — collected as ARROW REFS, never as
    # driver-side Python rows (take_all on millions of winners spent seconds
    # building dicts and was the measured serial floor of this composition)
    win_tabs = [
        ray.get(r)
        for r in exact_dedup_pipeline(
            ds, key_col=key_col, text_col=text_col
        ).to_arrow_refs()
    ]
    win_tabs = [t for t in win_tabs if t.num_rows]
    win = np.sort(
        np.concatenate(
            [
                t.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
                for t in win_tabs
            ]
        )
        if win_tabs
        else np.zeros(0, dtype=np.int64)
    )
    ref = ray.put(win)

    def keep(t: pa.Table) -> pa.Table:
        w = ray.get(ref)
        ids = t.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if w.size:
            idx = np.minimum(np.searchsorted(w, ids), w.size - 1)
            m = w[idx] == ids
        else:
            m = np.zeros(ids.size, dtype=bool)
        return t.filter(pa.array(m))

    distinct = ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    return lsh_candidate_pairs_pipeline(
        distinct, key_col=key_col, text_col=text_col, num_hashes=num_hashes,
        bands=bands, ngram=ngram, max_bucket=max_bucket,
    )


def normalized_dedup_pipeline(ds, *, key_col: str, text_col: str, num_partitions: int = 64):
    """Keep the first (min key) row per NORMALIZED text: -> Dataset[key_col].

    The standard near-exact curation dedup: documents differing only in
    letter case or whitespace runs are duplicates.  Normalization =
    ``lower(text)`` -> collapse every ``\\s+`` run to one space -> trim edge
    spaces, applied with pyarrow's RE2 kernels (DuckDB's regexp_replace is
    RE2 too, so the SQL mirror is byte-identical); then the exact-dedup plan
    runs unchanged on the normalized bytes (block-local pre-dedup, 24 B/row
    shuffle, vectorized min-key per partition — see exact_dedup_pipeline).
    """
    import pyarrow.compute as pc

    def norm_stage(t: pa.Table) -> pa.Table:
        c = pc.utf8_lower(t.column(text_col))
        c = pc.replace_substring_regex(c, pattern=r"\s+", replacement=" ")
        c = pc.utf8_trim(c, characters=" ")
        return t.set_column(t.schema.get_field_index(text_col), text_col, c)

    normed = ds.map_batches(norm_stage, batch_format="pyarrow", zero_copy_batch=True)
    return exact_dedup_pipeline(
        normed, key_col=key_col, text_col=text_col, num_partitions=num_partitions
    )


def exact_dedup_rows_pipeline(ds, *, key_col: str, text_col: str, num_partitions: int = 64):
    """Full-row exact dedup: -> Dataset with one (min-key) row per distinct text.

    Rows are co-located by a PARTITION of the 128-bit content hash (so the
    shuffle fans into ``num_partitions`` reduce tasks, not one Python
    map_groups call per distinct document) and each partition keeps its
    min-key rows with ONE lexsort + boundary scan - no per-group Python at
    any cardinality.  Content moves exactly once; at petabyte scale prefer
    exact_dedup_pipeline + a broadcast keep-set when the duplicate fraction
    is high and rows are wide.
    """

    def hash_stage(batch: pa.Table) -> pa.Table:
        lanes = hash256_str(batch.column(text_col), lanes=2)
        hi = lanes[0].astype(np.int64)
        lo = lanes[1].astype(np.int64)
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        # block-local pre-dedup (same trick as exact_dedup_pipeline): only the
        # block's min-key row per distinct text enters the shuffle
        win = np.sort(_min_key_per_hash(hi, lo, keys))
        batch = batch.take(pa.array(win))
        batch = batch.append_column("_h_hi", pa.array(hi[win]))
        return batch.append_column("_h_lo", pa.array(lo[win]))

    hashed = ds.map_batches(hash_stage, batch_format="pyarrow", zero_copy_batch=True)

    def keep_min_per_hash(part_tbl: pa.Table) -> pa.Table:
        hi = part_tbl.column("_h_hi").to_numpy(zero_copy_only=False)
        lo = part_tbl.column("_h_lo").to_numpy(zero_copy_only=False)
        keys = part_tbl.column(key_col).to_numpy(zero_copy_only=False)
        winners = _min_key_per_hash(hi, lo, keys)
        return part_tbl.take(pa.array(np.sort(winners))).drop_columns(
            ["_h_hi", "_h_lo", "_part"]
        )

    return keyed_exchange(
        hashed, keep_min_per_hash, keys="_h_hi", num_partitions=num_partitions
    )


# -- MinHash + LSH -----------------------------------------------------------


def _doc_token_hashes(batch: pa.Table, text_col: str, with_lengths: bool = False):
    """Per batch: flat uint64 TOKEN-hash array + per-doc boundaries
    (``with_lengths`` adds the per-token char-length array, same order).

    Fully vectorized: one Arrow ``split_pattern`` over the whole column, one
    empty-token filter, one ``dictionary_encode`` so sha256 runs once per
    DISTINCT token in the batch (Zipf makes the dictionary far smaller than
    the token stream), then a numpy gather back to token positions.  Null
    text tokenizes like the empty string (hash256_str's null policy).
    Token hash = sha256 lane 0 of the token's utf-8 bytes — the SQL mirror is
    ``sha_lane_sql('tok')`` over the unnested split (dedup_oracle.py).
    """
    import pyarrow.compute as pc

    col = batch.column(text_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    split = pc.split_pattern(pc.fill_null(col, ""), SPLIT_CHAR)
    counts = pc.list_value_length(split).to_numpy(zero_copy_only=False).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    flat = pc.list_flatten(split)
    nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    cs = np.concatenate([[0], np.cumsum(nonempty, dtype=np.int64)])
    bounds = cs[offsets]  # per-doc boundaries into the kept-token stream
    kept = flat.filter(pa.array(nonempty))
    if not len(kept):
        if with_lengths:
            return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64), bounds
        return np.zeros(0, dtype=np.uint64), bounds
    de = kept.dictionary_encode()
    uniq_h = hash256_str(de.dictionary, lanes=1)[0]
    idx = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    tokh = uniq_h[idx]
    if with_lengths:
        uniq_len = (
            pc.utf8_length(de.dictionary).to_numpy(zero_copy_only=False).astype(np.int64)
        )
        return tokh, uniq_len[idx], bounds
    return tokh, bounds


def _window_geometry(bounds: np.ndarray, n: int, *, short_docs: bool):
    """(starts, widths_or_None, per-doc window counts) for n-token windows.

    ``short_docs=True`` = shingle semantics: a doc with 0 < L < n tokens
    contributes ONE window of width L (the full-token join of word_shingles);
    ``short_docs=False`` = positional-span semantics: docs with L < n tokens
    contribute no windows and every window has width exactly n.
    """
    L = np.diff(bounds)
    if short_docs:
        n_win = np.where(L == 0, 0, np.maximum(L - n + 1, 1))
    else:
        n_win = np.maximum(L - n + 1, 0)
    total = int(n_win.sum())
    doc_first = np.repeat(bounds[:-1], n_win)
    win_cum = np.concatenate([[0], np.cumsum(n_win)])
    intra = np.arange(total, dtype=np.int64) - np.repeat(win_cum[:-1], n_win)
    starts = doc_first + intra
    if short_docs:
        widths = np.minimum(np.repeat(L, n_win), n)
        if widths.size and (widths == n).all():
            widths = None
    else:
        widths = None
    return starts, widths, n_win


def _doc_shingle_hashes(batch: pa.Table, text_col: str, n: int):
    """Per batch: flat uint64 shingle-hash array + per-doc boundaries.

    Shingle identity = splitmix64 fold of the window's per-token sha256
    hashes (core/hashing.py::fold_windows) — same equivalence classes as the
    joined shingle STRING up to hash collisions, mirrored bit-for-bit by the
    SQL fold CTEs, and computed with zero per-window Python.  Shingles are
    DISTINCT per doc, emitted hash-sorted within each doc's run.
    """
    tokh, bounds = _doc_token_hashes(batch, text_col)
    starts, widths, n_win = _window_geometry(bounds, n, short_docs=True)
    h = fold_windows(tokh, starts, n, widths)
    # distinct per doc: sort each doc's run, keep first of each equal run
    doc_of = np.repeat(np.arange(len(n_win), dtype=np.int64), n_win)
    order = np.lexsort((h, doc_of))
    h_s, d_s = h[order], doc_of[order]
    first = run_starts(h_s, d_s)
    flat = h_s[first]
    per_doc = np.bincount(d_s[first], minlength=len(n_win)) if h_s.size else np.zeros(
        len(n_win), dtype=np.int64
    )
    return flat, np.concatenate([[0], np.cumsum(per_doc)]).astype(np.int64)


MINHASH_SENTINEL = np.int64(2**63 - 1)  # empty-doc slot value (SQL: 9223372036854775807)


def _minhash_matrix(flat: np.ndarray, bounds: np.ndarray, num_hashes: int) -> np.ndarray:
    """(num_hashes, n_docs) int64 MinHash matrix from flat shingle hashes.

    reduceat only over NON-EMPTY docs' starts: consecutive non-empty starts
    delimit exact segments (empty docs have zero width), and a trailing empty
    doc would otherwise need a start == flat.size, which reduceat rejects -
    clamping it would truncate the previous doc's segment (silently dropping
    its last shingle).  Empty docs get the sentinel in every slot.
    """
    n_docs = len(bounds) - 1
    starts = bounds[:-1]
    valid = bounds[1:] > starts
    out = np.full((num_hashes, n_docs), MINHASH_SENTINEL, dtype=np.int64)
    if flat.size and valid.any():
        vstarts = starts[valid]
        for i in range(num_hashes):
            h = (hash64_int(flat.astype(np.int64), seed=i) >> np.uint64(1)).astype(np.int64)
            out[i, valid] = np.minimum.reduceat(h, vstarts)
    return out


def _band_buckets(sig: np.ndarray, bands: int) -> np.ndarray:
    """(bands, n_docs) int64 LSH bucket ids: splitmix64 fold of each band's
    minhash slots (acc = splitmix64(acc + m_j), acc0 = 0) - fully vectorized,
    mirrored by the CTE chain in functions/dedup_oracle.py::_bucket_fold_ctes.
    """
    num_hashes, n = sig.shape
    r = num_hashes // bands
    out = np.empty((bands, n), dtype=np.int64)
    old = np.seterr(over="ignore")
    try:
        for b in range(bands):
            acc = np.zeros(n, dtype=np.uint64)
            for j in range(r):
                acc = splitmix64(acc + sig[b * r + j].astype(np.uint64))
            out[b] = acc.astype(np.int64)
    finally:
        np.seterr(**old)
    return out


def minhash_signatures(ds, *, key_col: str, text_col: str, num_hashes: int = 16, ngram: int = 3):
    """-> Dataset[(key_col, m0..m{K-1})]: MinHash signature per row.

    Vectorized: ONE sha256 pass over all shingles in the batch, then K
    seeded splitmix64 re-hashes + np.minimum.reduceat over doc boundaries.
    Empty docs get sentinel 2^63-1 in every slot.

    Two measured wins over the naive shape (bit-identical output):
    duplicate window hashes go straight into the min — MinHash is
    duplicate-invariant, so the distinct-per-doc lexsort that the SET
    consumers (postings/Jaccard) need is skipped here — and the numpy work
    runs over <=4k-doc ZERO-COPY slices taken INSIDE the stage, so the
    intermediate arrays stay cache-resident instead of streaming DRAM
    (whole 31k-row blocks were memory-bandwidth bound and stopped scaling
    past ~8 cores, 4.3x per block; slicing at the RAY level instead —
    ``batch_size=4096`` — makes Ray coalesce-copy small post-filter blocks
    and cost ~40% extra wall, also measured).
    """

    def stage(batch: pa.Table) -> pa.Table:
        sigs = []
        for lo in range(0, batch.num_rows, 4096):
            sl = batch.slice(lo, 4096)  # zero-copy view
            tokh, tb = _doc_token_hashes(sl, text_col)
            starts, widths, n_win = _window_geometry(tb, ngram, short_docs=True)
            h = fold_windows(tokh, starts, ngram, widths)
            bounds = np.concatenate([[0], np.cumsum(n_win)]).astype(np.int64)
            sigs.append(_minhash_matrix(h, bounds, num_hashes))
        sig = (
            np.concatenate(sigs, axis=1)
            if sigs
            else np.zeros((num_hashes, 0), dtype=np.int64)
        )
        cols = {key_col: batch.column(key_col)}
        for i in range(num_hashes):
            cols[f"m{i}"] = pa.array(sig[i])
        return pa.table(cols)

    return ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)


def lsh_candidate_pairs_pipeline(
    ds,
    *,
    key_col: str,
    text_col: str,
    num_hashes: int = 16,
    bands: int = 4,
    ngram: int = 3,
    max_bucket: int | None = None,
):
    """-> Dataset[(a, b)]: distinct key pairs sharing >= 1 LSH band bucket.

    Band bucket = splitmix64 fold of the band's minhash slots (int64, fully
    vectorized; the SQL oracle mirrors the fold bit-for-bit via a CTE chain).

    Candidate classes are the fused ids ``bb = splitmix64(bucket +
    splitmix64(band)) mod 2^64``, not (band, bucket) pairs.  splitmix64 is a
    bijection, so within one band ``bb`` equality is exactly bucket
    equality; ACROSS bands, (b1, x) and (b2, y) collide iff
    ``y = x + splitmix64(b1) - splitmix64(b2) mod 2^64`` - about 2^-64 per
    pair of entries in different bands - and such a collision makes its two
    docs candidates.  This cross-band class is part of the contract: the
    SQL oracle folds the same fused id, so it contains the same pairs and
    the correctness gate cannot detect one.

    ``max_bucket`` is the standard LSH skew guard for real corpora: a bucket
    with B members emits B^2/2 pairs, so one template-spammed bucket of 10^5
    docs would emit 5*10^9 candidates and dominate the run.  Buckets larger
    than the cap are SKIPPED (their members are, by construction, captured
    through exact dedup or other bands; deterministic either way).  The
    oracle-compared driver query runs uncapped.  EXACT-DEDUP FIRST: on
    duplicate-heavy corpora, collapse identical texts before LSH - identical
    docs share every bucket and square the pair count for no information.
    """
    assert num_hashes % bands == 0
    sigs = minhash_signatures(
        ds, key_col=key_col, text_col=text_col, num_hashes=num_hashes, ngram=ngram
    )

    # The exchange carries ONE fused (band, bucket) id per row — the
    # splitmix64(bucket + splitmix64(band)) fold, also its route key —
    # instead of separate band + bucket columns: 20 B/row, not 24,
    # and a 2-key lexsort on the reduce side.  Bucket-equality classes are
    # the fused id's equality classes in BOTH systems (the SQL oracle folds
    # the same fused id; see functions/dedup_oracle.py::_bucket_fold_ctes),
    # so pipeline and oracle stay bit-identical by construction.
    def to_buckets(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = batch.num_rows
        sig = np.stack(
            [batch.column(f"m{i}").to_numpy(zero_copy_only=False) for i in range(num_hashes)]
        )
        buckets = _band_buckets(sig, bands).astype(np.uint64)  # (bands, n)
        band_sm = splitmix64(np.arange(bands, dtype=np.uint64))[:, None]
        old = np.seterr(over="ignore")
        try:
            fused = splitmix64(buckets + band_sm).reshape(-1)
        finally:
            np.seterr(**old)
        tile_idx = pa.array(np.tile(np.arange(n, dtype=np.int64), bands))
        return pa.table(
            {
                "bb": pa.array(fused.astype(np.int64)),
                key_col: pc.take(batch.column(key_col), tile_idx),
            }
        )

    buckets = sigs.map_batches(to_buckets, batch_format="pyarrow", zero_copy_batch=True)

    # fused-bucket groups are co-located by a PARTITION of the fused hash,
    # so the reduce side is ~num_partitions vectorized map_groups calls - not
    # one Python call per bucket (Ray's per-group overhead is ~250us, which
    # at 10^5+ buckets would dominate the whole pipeline).
    num_partitions = 64

    def pairs_of_partition(pt: pa.Table) -> pa.Table:
        bkt = pt.column("bb").to_numpy(zero_copy_only=False)
        ids = pt.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, bkt))
        ids_s = ids[order]
        # buckets over the cap give no pairs (skew guard); ids ascend within
        # a bucket, so a <= b
        first, second = run_pairs(run_starts(bkt[order]), max_bucket)
        if not first.size:
            return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
        # local (within-partition) distinct before the cross-band dedup
        pairs = np.unique(np.stack([ids_s[first], ids_s[second]], axis=1), axis=0)
        return pa.table(
            {"a": pa.array(pairs[:, 0], pa.int64()), "b": pa.array(pairs[:, 1], pa.int64())}
        )

    pairs = keyed_exchange(
        buckets, pairs_of_partition, keys="bb", num_partitions=num_partitions
    )

    # distinct (a, b) across bands: same partition+vectorize shape (Ray's
    # groupby().count() would iterate pairs in Python)

    def distinct_pairs(pt: pa.Table) -> pa.Table:
        a = pt.column("a").to_numpy(zero_copy_only=False)
        b = pt.column("b").to_numpy(zero_copy_only=False)
        pairs_arr = np.unique(np.stack([a, b], axis=1), axis=0)
        return pa.table(
            {"a": pa.array(pairs_arr[:, 0], pa.int64()), "b": pa.array(pairs_arr[:, 1], pa.int64())}
        )

    import ray.data as rd

    # when no pair survives, no partition's reduce runs and the exchange
    # yields no block at all; one typed empty block keeps the (a, b) schema
    none = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    return keyed_exchange(
        pairs, distinct_pairs, keys=["a", "b"], num_partitions=num_partitions
    ).union(rd.from_arrow(none))


def _bucketed_shingle_sets(ds, *, key_col, text_col, num_hashes, bands, ngram):
    """-> Dataset[(band, bucket, key_col, _sh)]: one row per doc and band,
    carrying the doc's sorted shingle-HASH set (int64 list; 8 bytes per
    shingle, the text never shuffles) to every (band, bucket) it falls in.
    One map pass computes the minhash signature and the set together."""

    def sig_and_shingles(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        flat, bounds = _doc_shingle_hashes(batch, text_col, ngram)
        n = len(bounds) - 1
        sig = _minhash_matrix(flat, bounds, num_hashes)
        buckets = _band_buckets(sig, bands)
        # per-doc SORTED shingle-hash runs (int64 domain) as one list column
        fi = flat.astype(np.int64)
        doc_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(bounds))
        order = np.lexsort((fi, doc_of))
        sh_list = pa.ListArray.from_arrays(
            pa.array(bounds.astype(np.int32)), pa.array(fi[order])
        )
        tile_idx = pa.array(np.tile(np.arange(n, dtype=np.int64), bands))
        return pa.table(
            {
                "band": pa.array(np.repeat(np.arange(bands, dtype=np.int32), n)),
                "bucket": pa.array(buckets.reshape(-1)),
                key_col: pc.take(batch.column(key_col), tile_idx),
                "_sh": pc.take(sh_list, tile_idx),
            }
        )

    return ds.map_batches(sig_and_shingles, batch_format="pyarrow", zero_copy_batch=True)


def _shared_shingle_pairs(sh):
    """One bucket group's shingle sets (a list column, one row per doc) ->
    ``(lens, d1, d2)``: each doc's set size, and one ``(d1, d2)`` row-index
    pair with ``d1 < d2`` per shingle the two docs share.  All values sort
    once; a doc appears at most once in a value's run (its set is
    distinct), and the stable sort keeps docs ascending within the run."""
    if isinstance(sh, pa.ChunkedArray):
        sh = sh.combine_chunks()
    offs = sh.offsets.to_numpy(zero_copy_only=False)
    vals = sh.values.to_numpy(zero_copy_only=False)
    lens = offs[1:] - offs[:-1]
    doc_of = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    order = np.argsort(vals, kind="stable")
    first, second = run_pairs(run_starts(vals[order]))
    sd = doc_of[order]
    return lens, sd[first], sd[second]


def jaccard_pairs_pipeline(
    ds,
    *,
    key_col: str,
    text_col: str,
    threshold: float = 0.5,
    num_hashes: int = 16,
    bands: int = 4,
    ngram: int = 3,
):
    """LSH candidates verified by exact shingle-set Jaccard; -> Dataset
    [(a, b, jac1000)] for pairs >= threshold (jac1000 = floor(jaccard*1000)).

    Fully distributed (the 10^12-row shape): ONE map_batches pass computes,
    per doc, the minhash signature AND the sorted shingle-HASH set (8
    bytes/shingle - the text itself never shuffles), and explodes them into
    (band, bucket) rows.  Verification happens INSIDE each (band, bucket)
    map_groups call, where the candidate docs' shingle sets are already
    co-located; a pair sharing several buckets gets the identical jac in each,
    so a final (a, b) groupby collapses cross-band duplicates.  Nothing is
    ever materialized on the driver.

    Jaccard over shingle HASHES equals Jaccard over shingle strings absent a
    sha256-lane collision (~n_shingles^2 / 2^64 per doc pair).  Two empty
    docs (no shingles) share all sentinel buckets but have jac = 0, so they
    only surface when threshold <= 0 (the SQL oracle's inner size-join drops
    them entirely - keep threshold > 0 for oracle-compared runs).
    """
    assert num_hashes % bands == 0
    bucketed = _bucketed_shingle_sets(
        ds, key_col=key_col, text_col=text_col, num_hashes=num_hashes,
        bands=bands, ngram=ngram,
    )

    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "jac1000": pa.array([], pa.int64()),
        }
    )

    def verify(group: pa.Table) -> pa.Table:
        """All in-bucket pairwise Jaccards, fully vectorized: one value sort
        + co-occurrence pair expansion + dense m x m scatter-add (m bounded
        by the bucket-skew guard), instead of a per-pair intersect1d loop."""
        keys = group.column(key_col).to_numpy(zero_copy_only=False)
        m = len(keys)
        if m < 2:
            return empty
        lens, d1, d2 = _shared_shingle_pairs(group.column("_sh"))
        if m <= 2048:
            # dense m x m scatter: evaluates ALL pairs (incl. intersection 0,
            # so threshold <= 0 keeps its everything-pairs semantics)
            inter_mat = np.zeros((m, m), dtype=np.int64)
            if d1.size:
                np.add.at(inter_mat, (d1, d2), 1)
            iu0, iu1 = np.triu_indices(m, 1)
            inter = inter_mat[iu0, iu1]
        else:
            # huge-bucket fallback: only co-occurring pairs can reach a
            # positive threshold - O(pairs) memory instead of O(m^2)
            codes, inter = np.unique(d1 * np.int64(m) + d2, return_counts=True)
            iu0, iu1 = codes // m, codes % m
        union = lens[iu0] + lens[iu1] - inter
        jac = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
        keep = jac >= threshold
        ka, kb = keys[iu0[keep]], keys[iu1[keep]]
        return pa.table(
            {
                "a": pa.array(np.minimum(ka, kb), pa.int64()),
                "b": pa.array(np.maximum(ka, kb), pa.int64()),
                "jac1000": pa.array(np.floor(jac[keep] * 1000).astype(np.int64)),
            }
        )

    per_bucket = map_groups(bucketed, ["band", "bucket"], verify, num_partitions=64)
    # cross-band duplicates carry the identical jac1000; collapse to one row
    # (pair domain is open-ended -> bounded-partition fold)
    deduped = partitioned_group_agg(per_bucket, ["a", "b"], [("jac1000", "max")])
    return deduped.map_batches(
        lambda t: t.rename_columns(["a", "b", "jac1000"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


# -- SimHash -----------------------------------------------------------------


def simhash_pipeline(ds, *, key_col: str, text_col: str):
    """-> Dataset[(key, simhash_hi, simhash_lo)]: 64-bit SimHash per row.

    Bit b is set iff the (multiset) token votes sum positive:
    sum over tokens of (bit_b(sha256(token)) ? +1 : -1) > 0.  Emitted as two
    int32-range halves (SQL BIGINT-friendly).
    """

    def stage(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        all_toks: list[str] = []
        bounds = [0]
        for t in texts:
            toks = tokenize(t)
            all_toks.extend(toks)
            bounds.append(len(all_toks))
        sums = np.zeros((len(texts), 64), dtype=np.int64)
        starts = np.asarray(bounds[:-1])
        valid = np.asarray(bounds[1:]) > starts  # non-empty docs only (see minhash note)
        if all_toks and valid.any():
            h = hash256_str(np.array(all_toks, dtype=object), lanes=1)[0]
            bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
                np.int64
            )
            votes = bits * 2 - 1  # (n_tokens, 64) in {-1, +1}
            sums[valid] = np.add.reduceat(votes, starts[valid], axis=0)
        simhash = ((sums > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)[None, :]).sum(
            axis=1, dtype=np.uint64
        )
        return pa.table(
            {
                key_col: batch.column(key_col),
                "simhash_hi": pa.array((simhash >> np.uint64(32)).astype(np.int64)),
                "simhash_lo": pa.array((simhash & np.uint64(0xFFFFFFFF)).astype(np.int64)),
            }
        )

    return ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)


def _levenshtein(a: bytes, b: bytes) -> int:
    """Unit-cost edit distance, one vectorized numpy row per DP step.

    The serial cur[j-1]+1 dependency is removed with the running-min
    identity cur[j] = j + min(i, min_{k<=j}(temp[k] - k)), so each of the
    len(a) DP rows is O(len(b)) vector work instead of a Python inner loop.
    Matches DuckDB's levenshtein() (classic Wagner-Fischer) byte-for-byte on
    ASCII inputs.
    """
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return max(la, lb)
    ca = np.frombuffer(a, np.uint8)
    cb = np.frombuffer(b, np.uint8)
    prev = np.arange(lb + 1, dtype=np.int32)
    idx = np.arange(1, lb + 1, dtype=np.int32)
    for i in range(1, la + 1):
        sub = prev[:-1] + (cb != ca[i - 1])
        temp = np.minimum(prev[1:] + 1, sub)
        runmin = np.minimum.accumulate(temp - idx)
        cur = np.empty(lb + 1, dtype=np.int32)
        cur[0] = i
        cur[1:] = idx + np.minimum(runmin, np.int32(i))
        prev = cur
    return int(prev[-1])


def _levenshtein_capped(a: bytes, b: bytes, k: int) -> int:
    """Exact edit distance when it is <= ``k``; any value > ``k`` otherwise.

    Three exact accelerations over :func:`_levenshtein` (all standard, none
    change the value for distances within the cap):

    * common prefix/suffix trim — Levenshtein is invariant under removing a
      shared prefix and (non-overlapping) shared suffix; for true near-dups
      this collapses kilobyte texts to the few bytes around the edit;
    * length gate — ``|len(a) - len(b)| > k`` implies distance > k;
    * Ukkonen band — only cells with ``|i - j| <= k`` can hold values <= k,
      so each DP row is a <=2k+1 slice, with EARLY EXIT once a whole row's
      band minimum exceeds k (unrelated LSH collisions exit within ~k rows).

    Verified against DuckDB ``levenshtein()`` by the fuzz test for every
    pair whose true distance is <= k, and against ">k means excluded" for
    the rest — exactly the contract the verify stage consumes.
    """
    if a == b:
        return 0
    ca = np.frombuffer(a, np.uint8)
    cb = np.frombuffer(b, np.uint8)
    # strip shared prefix, then shared suffix of the remainders
    n = min(ca.size, cb.size)
    if n:
        neq = ca[:n] != cb[:n]
        p = int(np.argmax(neq)) if neq.any() else n
        ca, cb = ca[p:], cb[p:]
        n = min(ca.size, cb.size)
    if n:
        neq = ca[::-1][:n] != cb[::-1][:n]
        s = int(np.argmax(neq)) if neq.any() else n
        ca, cb = ca[: ca.size - s], cb[: cb.size - s]
    la, lb = ca.size, cb.size
    if abs(la - lb) > k:
        return k + 1
    if la == 0 or lb == 0:
        return max(la, lb)
    INF = np.int32(1 << 20)
    prev = np.arange(lb + 1, dtype=np.int32)
    prev[k + 1 :] = INF  # row 0 band: j in [0, k]
    idx = np.arange(lb + 1, dtype=np.int32)
    for i in range(1, la + 1):
        lo, hi = max(1, i - k), min(lb, i + k)
        j = idx[lo : hi + 1]
        sub = prev[lo - 1 : hi] + (cb[lo - 1 : hi] != ca[i - 1])
        temp = np.minimum(
            np.minimum(prev[lo : hi + 1], INF - 1) + 1, sub
        )
        runmin = np.minimum.accumulate(temp - j)
        if lo == 1:  # cur[0] - 0 = i joins the running-min chain
            runmin = np.minimum(runmin, np.int32(i))
        cur = np.full(lb + 1, INF, dtype=np.int32)
        if lo == 1:
            cur[0] = i
        cur[lo : hi + 1] = j + runmin
        if int(cur[lo : hi + 1].min()) > k:
            return k + 1  # every continuation is monotone non-decreasing
        prev = cur
    return int(prev[lb])


def _damerau_levenshtein(a: bytes, b: bytes) -> int:
    """FULL (unrestricted) Damerau-Levenshtein distance — matches DuckDB's
    ``damerau_levenshtein()`` (which is the Lowrance-Wagner variant, not
    OSA: 'CA' -> 'ABC' costs 2, via CA -> AC -> ABC).

    Same one-vectorized-row-per-DP-step shape as :func:`_levenshtein`:
    the substitution/deletion/transposition candidates are all reads from
    ROWS ABOVE the current one, so they vectorize per row (the
    transposition source cell H[k-1][l-1] is a fancy-indexed gather with
    per-column k = last row where b[j] occurred in a, per-column l =
    exclusive prefix-max of this row's match positions), and the serial
    insertion dependency collapses with the running-min identity.  Needs
    the full H matrix (transpositions reach arbitrarily far up), so memory
    is O(len(a)·len(b)) int32 — callers gate pair length first.
    """
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return max(la, lb)
    ca = np.frombuffer(a, np.uint8)
    cb = np.frombuffer(b, np.uint8)
    maxdist = np.int32(la + lb)
    # Ho[i+1][j+1] = H[i][j] of the textbook recurrence; row/col 0 hold the
    # H[-1][*] = la+lb sentinel, so H[k-1][l-1] == Ho[k][l] directly.
    Ho = np.full((la + 2, lb + 2), maxdist, dtype=np.int32)
    Ho[1, 1:] = np.arange(lb + 1, dtype=np.int32)
    Ho[1:, 1] = np.arange(la + 1, dtype=np.int32)
    da = np.zeros(256, dtype=np.int64)  # last row (1-based) where byte seen in a
    j_arr = np.arange(1, lb + 1, dtype=np.int64)
    for i in range(1, la + 1):
        match = cb == ca[i - 1]
        cost = (~match).astype(np.int32)
        # l_vec[j] = db before column j: last j' < j with b[j'] == a[i]
        mpos = np.where(match, j_arr, 0)
        l_vec = np.concatenate(([0], np.maximum.accumulate(mpos)[:-1]))
        k_vec = da[cb]
        trans = (
            Ho[k_vec, l_vec]
            + (np.int64(i) - k_vec - 1).astype(np.int32)
            + np.int32(1)
            + (j_arr - l_vec - 1).astype(np.int32)
        )
        cand = np.minimum(Ho[i, 1:-1] + cost, Ho[i, 2:] + 1)  # sub, delete
        cand = np.minimum(cand, trans)
        j32 = j_arr.astype(np.int32)
        runmin = np.minimum.accumulate(cand - j32)
        Ho[i + 1, 2:] = j32 + np.minimum(runmin, np.int32(i))
        da[ca[i - 1]] = i
    return int(Ho[la + 1, lb + 1])


def _with_pair_sides(pairs, ds, key_col: str, cols: dict):
    """Dataset[(a, b)] -> the same pairs with both sides' columns attached:
    each ``{column: name}`` of ``ds`` (keyed by ``key_col``) arrives as
    ``{name}_a`` and ``{name}_b``.  Two hash co-partition joins, one per
    side, so each pair row carries each side's values exactly once; pairs
    whose key is missing from ``ds`` drop (inner joins)."""
    from .joins import hash_join_pipeline

    out, carried = pairs, ["a", "b"]
    for side in ("a", "b"):
        payload = [f"{name}_{side}" for name in cols.values()]

        def project(t: pa.Table, side=side, payload=payload) -> pa.Table:
            return t.select([key_col, *cols]).rename_columns([f"_k{side}", *payload])

        docs = ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)
        out = hash_join_pipeline(
            out, docs, left_key=side, right_key=f"_k{side}",
            left_cols=carried, right_payload=payload, how="inner",
        )
        carried = carried + payload
    return out


def edit_distance_pairs_pipeline(
    ds,
    *,
    key_col: str,
    text_col: str,
    max_dist: int = 40,
    num_hashes: int = 16,
    bands: int = 4,
    ngram: int = 3,
    metric: str = "levenshtein",
):
    """LSH candidates verified by exact EDIT DISTANCE: -> Dataset[(a, b,
    lev)] for candidate pairs with levenshtein <= ``max_dist``.

    ``metric="damerau"`` verifies with the FULL Damerau-Levenshtein
    distance instead (adjacent transpositions cost 1 — the right metric
    for typo/OCR near-dups; output column ``dl``).  The DL DP needs the
    full matrix, so pairs failing the ``|len_a - len_b| > max_dist``
    length gate skip the DP entirely.

    The character-level complement of the shingle-Jaccard verify for short
    texts (titles, code lines, OCR noise) where token sets are too coarse.
    Plan: the LSH bucket pass proposes pairs (never all-pairs); texts attach
    through two hash co-partition joins (each pair row carries each side's
    text exactly once); the verify map computes the DP per PAIR — the only
    per-row Python in the engine, justified because each iteration is an
    O(len_a x len_b) vectorized computation, not bookkeeping.  Pair count is
    bounded by the LSH band structure + the bucket-skew guard upstream.
    """
    pairs = lsh_candidate_pairs_pipeline(
        ds, key_col=key_col, text_col=text_col, num_hashes=num_hashes,
        bands=bands, ngram=ngram,
    )
    with_ab = _with_pair_sides(pairs, ds, key_col, {text_col: "text"})

    if metric not in ("levenshtein", "damerau"):
        raise ValueError(f"metric must be 'levenshtein' or 'damerau': {metric!r}")
    out_col = "lev" if metric == "levenshtein" else "dl"

    def _dist(x: str | None, y: str | None) -> int:
        xa, ya = (x or "").encode("utf-8"), (y or "").encode("utf-8")
        if metric == "levenshtein":
            return _levenshtein_capped(xa, ya, max_dist)
        if abs(len(xa) - len(ya)) > max_dist:  # DL >= length gap
            return max_dist + 1
        return _damerau_levenshtein(xa, ya)

    def verify(t: pa.Table) -> pa.Table:
        ta = t.column("text_a").to_pylist()
        tb = t.column("text_b").to_pylist()
        lev = np.fromiter(
            (_dist(x, y) for x, y in zip(ta, tb)),
            dtype=np.int64,
            count=len(ta),
        )
        keep = lev <= max_dist
        take = pa.array(np.flatnonzero(keep))
        return pa.table(
            {
                "a": t.column("a").take(take),
                "b": t.column("b").take(take),
                out_col: pa.array(lev[keep]),
            }
        )

    return with_ab.map_batches(verify, batch_format="pyarrow", zero_copy_batch=True)


def _jaro_winkler(a: bytes, b: bytes) -> float:
    """DuckDB-parity Jaro-Winkler over UTF-8 BYTES (verified 0/4000 fuzz
    mismatches vs jaro_winkler_similarity incl. multibyte text): either
    side empty -> 0.0; match window floor(max/2)-1; transpositions = half
    the out-of-order matches; Winkler prefix bonus (<= 4 bytes, p=0.1)
    only above the 0.7 boost threshold."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    ma = bytearray(la)
    mb = bytearray(lb)
    m = 0
    for i in range(la):
        lo = i - window
        if lo < 0:
            lo = 0
        hi = i + window + 1
        if hi > lb:
            hi = lb
        ai = a[i]
        for j in range(lo, hi):
            if not mb[j] and ai == b[j]:
                ma[i] = mb[j] = 1
                m += 1
                break
    if m == 0:
        return 0.0
    k = 0
    t = 0
    for i in range(la):
        if ma[i]:
            while not mb[k]:
                k += 1
            if a[i] != b[k]:
                t += 1
            k += 1
    t //= 2
    j = (m / la + m / lb + (m - t) / m) / 3.0
    if j > 0.7:
        l = 0
        for u, v in zip(a[:4], b[:4]):
            if u == v:
                l += 1
            else:
                break
        j = j + l * 0.1 * (1.0 - j)
    return j


def jaro_winkler_pairs_pipeline(
    ds,
    *,
    key_col: str,
    text_col: str,
    threshold: float = 0.9,
    num_hashes: int = 16,
    bands: int = 4,
    ngram: int = 3,
):
    """LSH candidates verified by JARO-WINKLER similarity: -> Dataset[(a,
    b, jw4)] for candidate pairs with jw4 = floor(jw * 1e4 + 0.5) >=
    floor(threshold * 1e4 + 0.5).

    The record-linkage verifier (names/titles: prefix-weighted, typo
    tolerant) completing the string-similarity family next to
    Levenshtein/Damerau/containment/SimHash.  Quantizing to 1e-4 absorbs
    float ulps the same way the cosine verifies do (cos4), so the SQL
    mirror is DuckDB's own jaro_winkler_similarity.  Same plan as the
    other verifies: LSH proposes, texts attach via two co-partition
    joins, the per-PAIR scorer is the only per-row Python (bounded pair
    count; each call is O(len x window) over bytes).
    """
    thr4 = int(threshold * 10_000 + 0.5)
    pairs = lsh_candidate_pairs_pipeline(
        ds, key_col=key_col, text_col=text_col, num_hashes=num_hashes,
        bands=bands, ngram=ngram,
    )
    with_ab = _with_pair_sides(pairs, ds, key_col, {text_col: "text"})

    def verify(t: pa.Table) -> pa.Table:
        ta = t.column("text_a").to_pylist()
        tb = t.column("text_b").to_pylist()
        jw4 = np.fromiter(
            (
                int(
                    _jaro_winkler(
                        (x or "").encode("utf-8"), (y or "").encode("utf-8")
                    )
                    * 10_000
                    + 0.5
                )
                for x, y in zip(ta, tb)
            ),
            dtype=np.int64,
            count=len(ta),
        )
        keep = jw4 >= thr4
        take = pa.array(np.flatnonzero(keep))
        return pa.table(
            {
                "a": t.column("a").take(take),
                "b": t.column("b").take(take),
                "jw4": pa.array(jw4[keep]),
            }
        )

    return with_ab.map_batches(verify, batch_format="pyarrow", zero_copy_batch=True)


def simhash_hamming_pairs_pipeline(
    ds,
    *,
    key_col: str,
    text_col: str,
    max_hamming: int = 16,
    num_hashes: int = 16,
    bands: int = 4,
    ngram: int = 3,
):
    """LSH candidates verified by SimHash HAMMING distance: -> Dataset[(a, b,
    ham)] for candidate pairs whose 64-bit SimHashes differ in <=
    ``max_hamming`` bits.

    The constant-cost verify of the near-dup family: where shingle-Jaccard
    re-reads both token sets and edit distance runs a DP, the SimHash check
    is one 64-bit XOR + popcount per pair regardless of document length —
    the right verify when the corpus is huge and the fingerprints are
    precomputed anyway.  Plan: LSH proposes pairs (never all-pairs); each
    pair attaches both sides' (hi, lo) fingerprint halves through two hash
    co-partition joins; the verify map is a vectorized XOR + unpackbits
    popcount over the whole batch — no per-pair Python.
    """
    pairs = lsh_candidate_pairs_pipeline(
        ds, key_col=key_col, text_col=text_col, num_hashes=num_hashes,
        bands=bands, ngram=ngram,
    )
    sh = simhash_pipeline(ds, key_col=key_col, text_col=text_col)
    with_ab = _with_pair_sides(
        pairs, sh, key_col, {"simhash_hi": "hi", "simhash_lo": "lo"}
    )

    def verify(t: pa.Table) -> pa.Table:
        def col(c):
            return t.column(c).to_numpy(zero_copy_only=False).astype(np.int64)

        # hi/lo each hold 32 bits, so the int64 XOR never touches the sign bit
        x = np.bitwise_xor(col("hi_a"), col("hi_b")) << np.int64(32)
        x |= np.bitwise_xor(col("lo_a"), col("lo_b"))
        ham = (
            np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1).astype(np.int64)
            if x.size
            else np.empty(0, dtype=np.int64)
        )
        keep = pa.array(np.flatnonzero(ham <= max_hamming))
        return pa.table(
            {
                "a": t.column("a").take(keep),
                "b": t.column("b").take(keep),
                "ham": pa.array(ham[ham <= max_hamming]),
            }
        )

    return with_ab.map_batches(verify, batch_format="pyarrow", zero_copy_batch=True)


def containment_pairs_pipeline(
    ds,
    *,
    key_col: str,
    text_col: str,
    threshold: float = 0.7,
    num_hashes: int = 16,
    bands: int = 4,
    ngram: int = 3,
):
    """ASYMMETRIC shingle containment for LSH candidates: -> Dataset[(a, b,
    cont_ab1000, cont_ba1000)] for pairs where max(containment) >= threshold.

    containment(x -> y) = |shingles(x) ∩ shingles(y)| / |shingles(x)| — the
    quote/boilerplate detector: a small doc fully embedded in a large one has
    containment ~1 while its Jaccard is tiny, so symmetric dedup never sees
    it.  Same fully-distributed shape as jaccard_pairs_pipeline: shingle-hash
    sets ride the (band, bucket) shuffle, verification happens where the sets
    are already co-located, cross-band duplicates collapse in a final (a, b)
    groupby.  Keep threshold > 0 (empty docs carry no shingle rows and the
    SQL mirror's size join drops them, same note as the Jaccard verify).
    """
    assert num_hashes % bands == 0 and threshold > 0
    bucketed = _bucketed_shingle_sets(
        ds, key_col=key_col, text_col=text_col, num_hashes=num_hashes,
        bands=bands, ngram=ngram,
    )

    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "cont_ab1000": pa.array([], pa.int64()),
            "cont_ba1000": pa.array([], pa.int64()),
        }
    )

    def verify(group: pa.Table) -> pa.Table:
        keys = group.column(key_col).to_numpy(zero_copy_only=False)
        m = len(keys)
        if m < 2:
            return empty
        lens, d1, d2 = _shared_shingle_pairs(group.column("_sh"))
        if not d1.size:
            return empty
        codes, inter = np.unique(d1 * np.int64(m) + d2, return_counts=True)
        iu0, iu1 = codes // m, codes % m
        # orient by key so cont_ab is always "smaller key contained in larger"
        ka, kb = keys[iu0], keys[iu1]
        swap = ka > kb
        la = np.where(swap, lens[iu1], lens[iu0])
        lb = np.where(swap, lens[iu0], lens[iu1])
        a = np.minimum(ka, kb)
        b = np.maximum(ka, kb)
        c_ab = inter / np.maximum(la, 1)
        c_ba = inter / np.maximum(lb, 1)
        keep = np.maximum(c_ab, c_ba) >= threshold
        return pa.table(
            {
                "a": pa.array(a[keep], pa.int64()),
                "b": pa.array(b[keep], pa.int64()),
                "cont_ab1000": pa.array(np.floor(c_ab[keep] * 1000).astype(np.int64)),
                "cont_ba1000": pa.array(np.floor(c_ba[keep] * 1000).astype(np.int64)),
            }
        )

    per_bucket = map_groups(bucketed, ["band", "bucket"], verify, num_partitions=64)
    # identical values in every shared bucket -> collapse cross-band dups
    # (pair domain is open-ended -> bounded-partition fold)
    out = partitioned_group_agg(
        per_bucket, ["a", "b"], [("cont_ab1000", "max"), ("cont_ba1000", "max")]
    )
    import pyarrow.compute as pc

    return out.map_batches(
        lambda t: pa.table(
            {
                "a": t.column("a"),
                "b": t.column("b"),
                "cont_ab1000": pc.cast(t.column("max(cont_ab1000)"), pa.int64()),
                "cont_ba1000": pc.cast(t.column("max(cont_ba1000)"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def dup_rate_by_group_pipeline(ds, *, group_col: str, text_col: str,
                               num_partitions: int = 64):
    """-> Dataset[(group_col, n_docs, n_dup, dup_rate)] — per group, how
    many docs' exact text occurs >= 2 times ANYWHERE in the corpus (the
    duplication-health report every corpus card carries, per source/split).

    Plan: one 24-byte (hash_hi, hash_lo, group) row per doc through a
    hash-partitioned shuffle (all copies of one text land together); per
    partition one sort + run-length marks duplicates and an Arrow group_by
    emits (group, docs, dups) partials; a tiny keyed sum + one float divide
    finish.  Text never shuffles; the rate is exact, not sketched.
    """
    import pyarrow.compute as pc

    def hash_stage(batch: pa.Table) -> pa.Table:
        lanes = hash256_str(batch.column(text_col), lanes=2)
        return pa.table(
            {
                "h_hi": pa.array(lanes[0].astype(np.int64)),
                "h_lo": pa.array(lanes[1].astype(np.int64)),
                group_col: batch.column(group_col),
            }
        )

    hashed = ds.map_batches(hash_stage, batch_format="pyarrow", zero_copy_batch=True)

    def per_partition(pt: pa.Table) -> pa.Table:
        hi = pt.column("h_hi").to_numpy(zero_copy_only=False)
        lo = pt.column("h_lo").to_numpy(zero_copy_only=False)
        n = len(hi)
        if not n:
            return pa.table(
                {group_col: pa.array([], pa.string()),
                 "docs": pa.array([], pa.int64()),
                 "dups": pa.array([], pa.int64())}
            )
        order = np.lexsort((lo, hi))
        hi_s, lo_s = hi[order], lo[order]
        new = run_starts(hi_s, lo_s)
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, n))
        dup_sorted = np.repeat(lens, lens) >= 2
        dup = np.empty(n, dtype=bool)
        dup[order] = dup_sorted
        t2 = pt.append_column("_dup", pa.array(dup.astype(np.int64)))
        g = t2.select([group_col, "_dup"]).group_by([group_col]).aggregate(
            [("_dup", "sum"), ([], "count_all")]
        )
        return g.rename_columns([group_col, "dups", "docs"])

    partials = keyed_exchange(
        hashed, per_partition, keys="h_hi", num_partitions=num_partitions
    )
    summed = partitioned_group_sum(partials, group_col, ["docs", "dups"])

    def finalize(t: pa.Table) -> pa.Table:
        d = t.column("sum(docs)").to_numpy(zero_copy_only=False).astype(np.int64)
        u = t.column("sum(dups)").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                group_col: t.column(group_col),
                "n_docs": pa.array(d),
                "n_dup": pa.array(u),
                "dup_rate": pa.array(
                    u.astype(np.float64) / d.astype(np.float64), pa.float64()
                ),
            }
        )

    return summed.map_batches(finalize, batch_format="pyarrow")
