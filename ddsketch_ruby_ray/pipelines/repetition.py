"""Gopher-style within-document repetition signals (quality filtering).

Per-document exact-integer repetition metrics in the spirit of the Gopher /
MassiveText quality filters (Rae et al. 2021, "Scaling Language Models",
table A1): duplicate-token count, duplicate-trigram count, and the coverage
of the single most frequent word bigram.  Training-data curation uses these
to drop boilerplate / template / spam documents whose repetition fractions
exceed thresholds; emitting the raw integer numerators and denominators
(instead of float fractions) keeps every value bit-exact against the SQL
oracle and lets callers pick thresholds downstream.

The reference (DataDog/ddsketch-ruby) has no text operators at all — this
belongs to the training-data tier the north_rule adds on top.

Plan shape: a single stateless ``map_batches`` pass — no shuffle, no state,
resumable by construction; the per-batch work is the dedup pipelines'
vectorized token machinery (one Arrow ``split_pattern``, sha256 once per
DISTINCT token via dictionary-encode, splitmix64 window folds), so the hot
path has zero per-row and zero per-window Python.

Identity convention: tokens = maximal runs of non-space characters; token
identity = sha256 lane 0, n-gram identity = splitmix64 fold of the window's
token hashes (``core/hashing.py::fold_windows``) — the same equivalence
classes as the dedup/spans pipelines, mirrored bit-for-bit by the SQL fold
CTEs (``functions/dedup_oracle.py``), collisions identical on both sides.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.hashing import fold_windows
from ..core.numeric import run_starts
from .dedup import _doc_token_hashes, _window_geometry

__all__ = ["repetition_scores_pipeline"]


def _distinct_per_doc(h: np.ndarray, doc_of: np.ndarray, ndocs: int) -> np.ndarray:
    """Count of DISTINCT hash values per doc (vectorized lexsort + run scan)."""
    if not h.size:
        return np.zeros(ndocs, dtype=np.int64)
    order = np.lexsort((h, doc_of))
    hs, ds = h[order], doc_of[order]
    first = run_starts(hs, ds)
    return np.bincount(ds[first], minlength=ndocs).astype(np.int64)


def repetition_scores_pipeline(ds, *, key_col: str, text_col: str):
    """-> Dataset[key, n_tokens, dup_tokens, n_bigrams, top_bigram_count,
    top_bigram_chars, n_trigrams, dup_trigrams] — one row per input row.

    * ``dup_tokens``   = n_tokens − distinct tokens (0 ⇒ no repetition).
    * ``n_bigrams``    = max(n_tokens − 1, 0) positional word bigrams;
      ``top_bigram_count`` = occurrences of the most frequent bigram (ties
      broken by the smaller fold hash — deterministic and SQL-mirrored);
      ``top_bigram_chars`` = that count × the bigram's char length
      (len(w1) + 1 + len(w2)), the numerator of Gopher's "top 2-gram
      character fraction".
    * ``dup_trigrams`` = n_trigrams − distinct trigrams, the numerator of
      the duplicate-n-gram family.
    """

    def score(batch: pa.Table) -> pa.Table:
        tokh, toklen, bounds = _doc_token_hashes(batch, text_col, with_lengths=True)
        L = np.diff(bounds).astype(np.int64)
        ndocs = L.size
        doc_of = np.repeat(np.arange(ndocs, dtype=np.int64), L)
        dup_tokens = L - _distinct_per_doc(tokh, doc_of, ndocs)

        # -- top bigram (positional windows of width 2) --------------------
        starts2, _, n2 = _window_geometry(bounds, 2, short_docs=False)
        n2 = n2.astype(np.int64)
        h2 = fold_windows(tokh, starts2, 2)
        top_cnt = np.zeros(ndocs, dtype=np.int64)
        top_chars = np.zeros(ndocs, dtype=np.int64)
        if h2.size:
            glen2 = toklen[starts2] + toklen[starts2 + 1] + 1
            doc2 = np.repeat(np.arange(ndocs, dtype=np.int64), n2)
            order = np.lexsort((h2, doc2))  # stable: equal (doc,h) keep pos order
            hs, dsrt = h2[order], doc2[order]
            first = run_starts(hs, dsrt)
            run_id = np.cumsum(first) - 1
            run_doc = dsrt[first]
            run_h = hs[first]
            run_cnt = np.bincount(run_id).astype(np.int64)
            run_glen = glen2[order][first]  # earliest-position occurrence
            # top run per doc: max count, tie -> smaller fold hash
            ro = np.lexsort((run_h, -run_cnt, run_doc))
            rd = run_doc[ro]
            rfirst = run_starts(rd)
            sel = ro[rfirst]
            top_cnt[run_doc[sel]] = run_cnt[sel]
            top_chars[run_doc[sel]] = run_cnt[sel] * run_glen[sel]

        # -- duplicate trigrams (positional windows of width 3) ------------
        starts3, _, n3 = _window_geometry(bounds, 3, short_docs=False)
        n3 = n3.astype(np.int64)
        h3 = fold_windows(tokh, starts3, 3)
        doc3 = np.repeat(np.arange(ndocs, dtype=np.int64), n3)
        dup_tri = n3 - _distinct_per_doc(h3, doc3, ndocs)

        return pa.table(
            {
                key_col: batch.column(key_col),
                "n_tokens": pa.array(L),
                "dup_tokens": pa.array(dup_tokens),
                "n_bigrams": pa.array(n2),
                "top_bigram_count": pa.array(top_cnt),
                "top_bigram_chars": pa.array(top_chars),
                "n_trigrams": pa.array(n3),
                "dup_trigrams": pa.array(dup_tri),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
