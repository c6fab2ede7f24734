"""Positional duplicate-span detection (substring-level dedup).

The Lee et al. ("Deduplicating Training Data Makes Language Models Better",
ACL 2022) shape: instead of doc-level identity, find the exact TOKEN SPANS
that occur more than once anywhere in the corpus (boilerplate headers,
licenses, templated paragraphs), so curation can cut the span and keep the
document.

Semantics: every POSITIONAL n-token window (doc, p) - including repeats
within one document - is duplicated iff its exact token string occurs at
least twice in the corpus; a document's duplicated windows merge into
maximal spans (windows whose token ranges overlap or touch join the same
span).  Output one row per span: (key, span_start, span_end), 1-based token
positions inclusive, matching the SQL mirror's generate_subscripts
convention.  Docs shorter than n tokens contribute no windows.

Scale shape (round-5 plan, duplicate_spans_pipeline): the only full-corpus
exchange carries per-block DISTINCT window hashes with clipped counts
(12 B/row) into a bounded keyed fold that yields the EXACT
globally-duplicated hash set; that set broadcasts once and a second
tokenize pass filters positions block-locally, so only duplicated
instances enter the final doc-keyed exchange feeding the span merge —
singleton windows never leave their block.  Classic co-partition fallback
(duplicate_spans_stages, one 28-byte posting per token through two keyed
shuffles) runs when the dup set exceeds the broadcast bound and remains
the checkpointable shape for resumable_duplicate_spans_job.  No
per-window or per-doc Python in any reduce.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.hashing import fold_windows
from ..core.numeric import run_starts
from .fold import keyed_exchange
from .dedup import _doc_token_hashes, _window_geometry

__all__ = [
    "duplicate_spans_pipeline",
    "duplicate_spans_stages",
    "resumable_duplicate_spans_job",
]

# Broadcast bound of the dup-hash set: 8M hashes hold 64 MB of uint64 on
# every worker.  Not measured; read when the pipeline is called.
_MAX_BROADCAST_HASHES = 8_000_000


def _doc_window_hashes(batch: pa.Table, text_col: str, n: int):
    """Flat positional window-hash array + per-doc boundaries (no dedup).

    Window fingerprint = splitmix64 fold of the window's per-token sha256
    hashes (vectorized; see fold_windows) — no per-window string build, no
    per-window sha256.  Docs shorter than n tokens contribute no windows.
    """
    tokh, bounds = _doc_token_hashes(batch, text_col)
    starts, _, n_win = _window_geometry(bounds, n, short_docs=False)
    flat = fold_windows(tokh, starts, n)
    return flat, np.concatenate([[0], np.cumsum(n_win)]).astype(np.int64)


def duplicate_spans_pipeline(
    ds,
    *,
    key_col: str,
    text_col: str,
    n: int = 8,
):
    """-> Dataset[(key_col, span_start, span_end)] - maximal duplicated token
    spans, 1-based inclusive positions.

    Plan (round-5 exchange diet; BASELINE.md spans row was 0.67 with one
    28-byte posting per TOKEN through TWO keyed shuffles):

    1. **dup-hash directory** — each block ships only its DISTINCT window
       hashes with a count CLIPPED at 2 (12 B/row, typically far fewer rows
       than positions); one bounded keyed fold yields the EXACT set of
       globally-duplicated window hashes (clipped sums are exact for the
       ``>= 2`` test).
    2. **broadcast + rescan** — the dup set (real duplicates only, usually
       tiny) broadcasts once via ``ray.put``; a second tokenize pass filters
       window positions against it block-locally (sorted searchsorted), so
       ONLY duplicated instances enter the single remaining doc-keyed
       exchange feeding the span merge.  Singleton windows — the vast
       majority of any mostly-unique corpus — never leave their block, and
       the full posting-by-hash shuffle disappears (membership in the exact
       dup set already implies global count >= 2).  The extra tokenize scan
       is deliberate: map compute scales ~1.0 on this box while the
       object-store exchange path retains 0.62 (tools/membench.py).

    Past ``_MAX_BROADCAST_HASHES`` actual duplicated hashes the broadcast is
    no longer small-side and the classic two-shuffle co-partition plan
    (:func:`duplicate_spans_stages`) runs instead — same output, the
    linededup.py broadcast/join dual-path contract."""
    import ray

    dups_m = _dup_hash_directory(ds, text_col=text_col, n=n).materialize()
    if dups_m.count() > _MAX_BROADCAST_HASHES:
        postings, reduce = duplicate_spans_stages(key_col=key_col, text_col=text_col, n=n)
        return reduce(
            ds.map_batches(postings, batch_format="pyarrow", zero_copy_batch=True)
        )
    tables = ray.get(dups_m.to_arrow_refs())
    dup_hashes = np.sort(
        np.concatenate(
            [
                t.column("h").to_numpy(zero_copy_only=False).view(np.uint64)
                for t in tables
                if t.num_rows
            ]
            or [np.zeros(0, np.uint64)]
        )
    )
    dup_ref = ray.put(dup_hashes)

    empty_spans = pa.table(
        {
            key_col: pa.array([], pa.int64()),
            "span_start": pa.array([], pa.int64()),
            "span_end": pa.array([], pa.int64()),
        }
    )

    def dup_spans_map(batch: pa.Table) -> pa.Table:
        """Filter duplicated window instances AND merge them into maximal
        spans in the same map: a document is one ROW, so every one of its
        positions lives in this block — phase 2 needs NO exchange at all
        (the classic plan shuffled instances by doc only because its
        by-hash exchange had scattered them).  On duplication-heavy
        corpora, where instances are corpus-scale (the bench corpus
        measures 156M duplicated instances of 156M windows), this removes
        the last full-scale exchange from the plan.  It needs ``key_col``
        to be a per-row doc id: a block holding one key in several rows
        raises instead of merging different documents' positions."""
        keys = batch.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if np.unique(keys).size != keys.size:
            raise ValueError(
                f"duplicate_spans_pipeline: key column {key_col!r} repeats a key "
                "within one block; spans need one row per document key"
            )
        d = ray.get(dup_ref)  # zero-copy numpy view of the plasma buffer
        flat, bounds = _doc_window_hashes(batch, text_col, n)
        if not d.size or not flat.size:
            return empty_spans
        counts = np.diff(bounds)
        pos = np.arange(flat.size, dtype=np.int64) - np.repeat(bounds[:-1], counts) + 1
        idx = np.searchsorted(d, flat)
        isdup = (idx < d.size) & (d[np.minimum(idx, d.size - 1)] == flat)
        k_s = np.repeat(keys, counts)[isdup]
        p_s = pos[isdup]
        if not k_s.size:
            return empty_spans
        o = np.lexsort((p_s, k_s))
        k_s, p_s = k_s[o], p_s[o]
        new = run_starts(k_s)
        new[1:] |= p_s[1:] - p_s[:-1] > n
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], k_s.size) - 1
        return pa.table(
            {
                key_col: pa.array(k_s[starts]),
                "span_start": pa.array(p_s[starts]),
                "span_end": pa.array(p_s[ends] + n - 1),
            }
        )

    return ds.map_batches(dup_spans_map, batch_format="pyarrow", zero_copy_batch=True)


def _dup_hash_directory(ds, *, text_col: str, n: int):
    """-> Dataset[(h,)] — the EXACT set of window hashes with global
    occurrence count >= 2, via per-block distinct clipped counts through one
    bounded keyed fold (see duplicate_spans_pipeline step 1)."""
    empty_pre = pa.table(
        {
            "h": pa.array([], pa.int64()),
            "c": pa.array([], pa.int8()),
        }
    )
    empty_dirs = pa.table({"h": pa.array([], pa.int64())})

    def distinct_pre(batch: pa.Table) -> pa.Table:
        flat, _ = _doc_window_hashes(batch, text_col, n)
        if not flat.size:
            return empty_pre
        u, cnt = np.unique(flat, return_counts=True)
        return pa.table(
            {
                "h": pa.array(u.astype(np.int64)),
                # clipped at 2: int8 keeps the dominant exchange at 13 B/row
                "c": pa.array(np.minimum(cnt, 2).astype(np.int8)),
            }
        )

    def dup_fold(pt: pa.Table) -> pa.Table:
        h = pt.column("h").to_numpy(zero_copy_only=False)
        if not h.size:
            return empty_dirs
        c = pt.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(h, kind="stable")
        h_s, c_s = h[order], c[order]
        new = run_starts(h_s)
        starts = np.flatnonzero(new)
        tot = np.add.reduceat(c_s, starts)  # clipped partials: no overflow
        return pa.table({"h": pa.array(h_s[starts][tot >= 2])})

    return keyed_exchange(
        ds.map_batches(distinct_pre, batch_format="pyarrow", zero_copy_batch=True),
        dup_fold,
        keys="h",
    )


def _doc_span_reduce(dup_instances, *, key_col: str, n: int):
    """(key, p) duplicated window instances -> maximal spans via the single
    doc-keyed exchange (the classic plan's shuffle 2, unchanged)."""

    empty_spans = pa.table(
        {
            key_col: pa.array([], pa.int64()),
            "span_start": pa.array([], pa.int64()),
            "span_end": pa.array([], pa.int64()),
        }
    )

    def spans(pt: pa.Table) -> pa.Table:
        k = pt.column("key").to_numpy(zero_copy_only=False)
        if not k.size:
            return empty_spans
        p = pt.column("p").to_numpy(zero_copy_only=False)
        order = np.lexsort((p, k))
        k_s, p_s = k[order], p[order]
        new = run_starts(k_s)
        new[1:] |= p_s[1:] - p_s[:-1] > n
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], k_s.size) - 1
        return pa.table(
            {
                key_col: pa.array(k_s[starts]),
                "span_start": pa.array(p_s[starts]),
                "span_end": pa.array(p_s[ends] + n - 1),
            }
        )

    return keyed_exchange(dup_instances, spans, keys="key")


def duplicate_spans_stages(
    *,
    key_col: str,
    text_col: str,
    n: int = 8,
):
    """The pipeline split at its stage boundary: ``(postings, reduce)``.

    ``postings`` is the per-shard-pure map (checkpointable through
    state/staged.py); ``reduce`` takes the posted Dataset through both keyed
    shuffles to spans.  ``duplicate_spans_pipeline`` is their composition."""

    def postings(batch: pa.Table) -> pa.Table:
        flat, bounds = _doc_window_hashes(batch, text_col, n)
        counts = np.diff(bounds)
        keys = batch.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        # 1-based window start position within each doc
        pos = np.arange(flat.size, dtype=np.int64) - np.repeat(bounds[:-1], counts) + 1
        return pa.table(
            {
                "h": pa.array(flat.astype(np.int64)),
                "key": pa.array(np.repeat(keys, counts)),
                "p": pa.array(pos),
            }
        )

    empty_dup = pa.table(
        {"key": pa.array([], pa.int64()), "p": pa.array([], pa.int64())}
    )

    def dup_reduce(pt: pa.Table) -> pa.Table:
        h = pt.column("h").to_numpy(zero_copy_only=False)
        if not h.size:
            return empty_dup
        key = pt.column("key").to_numpy(zero_copy_only=False)
        p = pt.column("p").to_numpy(zero_copy_only=False)
        order = np.argsort(h, kind="stable")
        h_s = h[order]
        new = run_starts(h_s)
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, h_s.size))
        keep = np.repeat(lens, lens) >= 2  # window occurs >= 2 times anywhere
        kept = order[keep]
        return pa.table({"key": pa.array(key[kept]), "p": pa.array(p[kept])})

    def reduce(posted):
        dups = keyed_exchange(posted, dup_reduce, keys="h")
        return _doc_span_reduce(dups, key_col=key_col, n=n)

    return postings, reduce


def resumable_duplicate_spans_job(
    input_files,
    workdir: str,
    *,
    prepare,
    key_col: str,
    text_col: str,
    n: int = 8,
    read_columns=None,
    max_shards: int | None = None,
):
    """Checkpointed duplicate-span job over parquet shards (state/staged.py).

    Phase A (per shard, exactly-once): ``prepare(shard_ds)`` derives
    (key_col, text_col), then the postings map tokenizes + window-hashes —
    the dominant cost of the longest wall in BASELINE.md.  Phase B reruns
    only the two keyed shuffles on a crash.  ``prepare`` must be per-shard
    pure (stateless derivation, e.g. doc id from path hash)."""
    from ..state.staged import staged_shuffle_job

    postings, reduce = duplicate_spans_stages(key_col=key_col, text_col=text_col, n=n)

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
