"""Corpus-wide duplicated-line removal (CCNet / RefinedWeb boilerplate pass).

Web-scale curation removes LINES that repeat across many documents (nav bars,
cookie banners, license footers): a line whose exact bytes occur >=
``min_count`` times anywhere in the corpus is boilerplate and is dropped from
every document (Wenzek et al. 2020 CCNet §3.1; Penedo et al. 2023 RefinedWeb
§4.2).  Pass 1 (count) is always the same:

- split each doc into lines, 64-bit sha lane per line, block-local
  ``np.unique`` pre-agg -> tiny ``groupby(lh).sum`` shuffle of (hash, count)
  pairs -> the >= min_count survivors, MATERIALIZED in the object store
  (never the driver) so its size can be inspected before choosing pass 2.

Pass 2 (filter) has two plans, selected by the measured heavy-set size:

- ``broadcast`` (small heavy set): ``ray.put`` the sorted hash array once,
  one ``searchsorted`` membership test per batch.  Right whenever the
  boilerplate set is the classic few-distinct/many-occurrences shape.
- ``join`` (large heavy set): on 100 TB of web text the >= 3x duplicated-line
  set is realistically 10^8-10^9 entries (GBs) — broadcasting it is a
  driver/worker OOM, not a slowdown.  Instead the lines and the heavy set are
  hash-CO-PARTITIONED on the line hash (the ``dedup.py`` winner-filter
  shape): each partition anti-joins its own slice of lines against its own
  slice of the heavy set with one sort + ``searchsorted``, folds per-doc
  partials locally, and a second (doc-key-partitioned) fold combines the
  partials — every aggregate (count, count-kept, XOR signature) is
  commutative, so the two-level fold is bit-identical to the broadcast plan.
  No stage ever holds more than one partition's slice.

Per doc we emit ``n_lines``, ``n_kept`` and ``kept_sig`` — the XOR fold of
the 60-bit sha256 of ``"<ord>|<line>"`` over KEPT lines, pinning the exact
kept (position, bytes) multiset without shipping text (same convention as
``stages/text.py:line_filter_stats``).

Line identity is the 64-bit sha lane on BOTH sides — the SQL mirror groups
by the same ``sha_lane_sql`` expression — so a hash collision produces the
identical answer in engine and oracle (the decontam parity rule from round
2's ADVICE).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.numeric import run_starts
from .fold import keyed_exchange

# Above this many heavy hashes the broadcast plan would ship/hold an
# ever-growing array on every worker; switch to the co-partitioned join.
# 4M hashes = 32 MB broadcast — comfortably cheap; 10x that is not.
MAX_BROADCAST_LINES = 4_000_000


def _split_lines(col: pa.ChunkedArray | pa.Array):
    """Split a string column on ``\\n`` -> (flat lines, parent doc index,
    1-based ordinal, per-doc line count).  All-Arrow kernels."""
    col = pc.fill_null(pc.cast(col, pa.string()), "")
    lines = pc.split_pattern(col, pattern="\n")
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    n_lines = pc.list_value_length(lines).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(lines)
    parent = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
    starts = np.cumsum(n_lines) - n_lines
    ord1 = np.arange(len(flat), dtype=np.int64) - np.repeat(starts, n_lines) + 1
    return flat, parent, ord1, n_lines


def _salted_sig(flat: pa.Array, ord1: np.ndarray) -> np.ndarray:
    """60-bit positive per-line signature hash of ``"<ord>|<line>"``."""
    from ..core.hashing import hash256_str

    ord_str = pc.cast(pa.array(ord1), pa.string())
    salted = pc.binary_join_element_wise(ord_str, flat, "|")
    return (hash256_str(salted, lanes=1)[0] >> np.uint64(4)).astype(np.int64)


def _key_codes(keys: np.ndarray):
    """Sortable integer codes for doc keys (identity for ints)."""
    if keys.dtype == object:
        import pandas as pd

        codes, _ = pd.factorize(pd.Series(keys), sort=True)
        return codes.astype(np.int64)
    return keys


def line_dedup_pipeline(
    ds,
    *,
    key_col: str,
    text_col: str,
    min_count: int = 3,
    max_broadcast_lines: int = MAX_BROADCAST_LINES,
):
    """-> Dataset[(key_col, n_lines, n_kept, kept_sig)] with corpus-wide
    duplicated lines (global occurrence count >= ``min_count``) removed.

    The broadcast plan runs while the measured heavy-set count is at most
    ``max_broadcast_lines``, the co-partitioned join plan past it (``0``
    forces it) — both plans are bit-identical by construction.

    ``ds`` is consumed twice (count pass + filter pass); pass an already
    line-broken dataset (the driver query rewrites the single-line synthetic
    docs first, mirrored verbatim in its oracle CTE).
    """
    import ray

    from ..core.hashing import hash256_str

    def count_lines(batch: pa.Table) -> pa.Table:
        flat, _, _, _ = _split_lines(batch.column(text_col))
        # int64 reinterpretation of the uint64 sha lane: equality-preserving,
        # and keeps the (hash, count) shuffle Arrow-native (a raw uint64 >
        # 2^63-1 makes Ray's sort-aggregate fall back to pickled objects).
        h = hash256_str(flat, lanes=1)[0].astype(np.int64)
        u, c = np.unique(h, return_counts=True)
        return pa.table({"lh": pa.array(u), "c": pa.array(c.astype(np.int64))})

    # line-hash domain is open-ended (10^8-10^9 distinct lines at 100 TB):
    # bounded-partition fold, never the native sort-based groupby
    from ddsketch_ruby_ray.pipelines.fold import partitioned_group_sum

    counts = partitioned_group_sum(
        ds.map_batches(count_lines, batch_format="pyarrow", zero_copy_batch=True),
        "lh",
        "c",
    )

    def heavy_only(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t.column("sum(c)"), min_count)).select(["lh"])

    # object-store-resident heavy set (hashes only, 8 B each); its COUNT
    # decides the pass-2 plan without pulling a single row to the driver
    heavy_ds = counts.map_batches(heavy_only, batch_format="pyarrow").materialize()
    if max_broadcast_lines > 0 and heavy_ds.count() <= max_broadcast_lines:
        heavy_tbls = heavy_ds.take_all()
        heavy = np.sort(
            np.asarray([r["lh"] for r in heavy_tbls], dtype=np.int64)
            if heavy_tbls
            else np.empty(0, dtype=np.int64)
        )
        heavy_ref = ray.put(heavy)

        def scrub(batch: pa.Table) -> pa.Table:
            boiler = ray.get(heavy_ref)
            n_docs = batch.num_rows
            flat, parent, ord1, n_lines = _split_lines(batch.column(text_col))
            h = hash256_str(flat, lanes=1)[0].astype(np.int64)
            if h.size and boiler.size:
                idx = np.minimum(np.searchsorted(boiler, h), boiler.size - 1)
                keep = boiler[idx] != h
            else:
                keep = np.ones(h.size, dtype=bool)

            n_kept = np.bincount(parent[keep], minlength=n_docs).astype(np.int64)
            kept_sig = np.zeros(n_docs, dtype=np.int64)
            kp = parent[keep]
            if kp.size:
                hs = _salted_sig(
                    pc.take(flat, pa.array(np.flatnonzero(keep))), ord1[keep]
                )
                seg = np.flatnonzero(run_starts(kp))
                kept_sig[kp[seg]] = np.bitwise_xor.reduceat(hs, seg)

            return pa.table(
                {
                    key_col: batch.column(key_col),
                    "n_lines": pa.array(n_lines),
                    "n_kept": pa.array(n_kept),
                    "kept_sig": pa.array(kept_sig),
                }
            )

        return ds.map_batches(scrub, batch_format="pyarrow", zero_copy_batch=True)

    # -- join plan: hash-co-partition lines and heavy hashes on lh ----------
    def explode(batch: pa.Table) -> pa.Table:
        flat, parent, ord1, _ = _split_lines(batch.column(text_col))
        h = hash256_str(flat, lanes=1)[0].astype(np.int64)
        hs = _salted_sig(flat, ord1)
        keys = batch.column(key_col).take(pa.array(parent))
        return pa.table(
            {
                "_t": pa.array(np.ones(len(h), dtype=np.int8)),
                "lh": pa.array(h),
                key_col: keys,
                "hs": pa.array(hs),
            }
        )

    lines_ds = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    sch = ds.schema()  # input schema: no execution (ray Schema wrapper)
    key_type = dict(zip(sch.names, sch.types))[key_col]

    def heavy_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "_t": pa.array(np.zeros(n, dtype=np.int8)),
                "lh": t.column("lh"),
                key_col: pa.nulls(n, key_type),
                "hs": pa.array(np.zeros(n, dtype=np.int64)),
            }
        )

    heavy_side = heavy_ds.map_batches(heavy_rows, batch_format="pyarrow", zero_copy_batch=True)

    def anti_join_fold(pt: pa.Table) -> pa.Table:
        tag = pt.column("_t").to_numpy(zero_copy_only=False)
        lh = pt.column("lh").to_numpy(zero_copy_only=False)
        is_line = tag == 1
        heavy_local = np.unique(lh[~is_line])
        llh = lh[is_line]
        # filter in Arrow FIRST: the unioned column holds nulls on heavy
        # rows, and a nullable int64 -> numpy conversion silently floats
        keys = (
            pc.filter(pt.column(key_col), pa.array(is_line))
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
        )
        hs = pt.column("hs").to_numpy(zero_copy_only=False)[is_line]
        if llh.size and heavy_local.size:
            idx = np.minimum(np.searchsorted(heavy_local, llh), heavy_local.size - 1)
            keep = heavy_local[idx] != llh
        else:
            keep = np.ones(llh.size, dtype=bool)
        if not llh.size:
            return pa.table(
                {
                    key_col: pa.array([], key_type),
                    "nl": pa.array([], pa.int64()),
                    "nk": pa.array([], pa.int64()),
                    "sig": pa.array([], pa.int64()),
                }
            )
        # per-doc partial fold WITHIN this lh-partition
        codes = _key_codes(keys)
        order = np.argsort(codes, kind="stable")
        codes_s = codes[order]
        seg = np.flatnonzero(run_starts(codes_s))
        nl = np.diff(np.append(seg, codes_s.size)).astype(np.int64)
        keep_s = keep[order].astype(np.int64)
        nk = np.add.reduceat(keep_s, seg)
        sig_vals = np.where(keep[order], hs[order], 0)
        sig = np.bitwise_xor.reduceat(sig_vals, seg)
        return pa.table(
            {
                key_col: pa.array(keys[order[seg]]),
                "nl": pa.array(nl),
                "nk": pa.array(nk),
                "sig": pa.array(sig),
            }
        )

    partials = keyed_exchange([lines_ds, heavy_side], anti_join_fold, keys="lh")

    def final_fold(pt: pa.Table) -> pa.Table:
        keys = pt.column(key_col).to_numpy(zero_copy_only=False)
        nl = pt.column("nl").to_numpy(zero_copy_only=False)
        nk = pt.column("nk").to_numpy(zero_copy_only=False)
        sig = pt.column("sig").to_numpy(zero_copy_only=False)
        codes = _key_codes(keys)
        order = np.argsort(codes, kind="stable")
        codes_s = codes[order]
        seg = np.flatnonzero(run_starts(codes_s))
        return pa.table(
            {
                key_col: pa.array(keys[order[seg]]),
                "n_lines": pa.array(np.add.reduceat(nl[order], seg)),
                "n_kept": pa.array(np.add.reduceat(nk[order], seg)),
                "kept_sig": pa.array(np.bitwise_xor.reduceat(sig[order], seg)),
            }
        )

    return keyed_exchange(partials, final_fold, keys=key_col)
