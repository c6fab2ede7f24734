"""TF-IDF: corpus document frequencies + per-doc top-k term ranking.

The canonical relevance/keyword-extraction operator of a text pipeline.
Two passes over the token stream (single-space tokens, the same contract as
the dedup/top-token pipelines):

  pass A (DF): each block emits (term, partial_df) rows where partial_df is
      the number of the block's docs containing the term (docs never span
      blocks), plus one carrier row for the block's doc count; one small
      groupby sums to the global DF table and N.  The vocabulary (optionally
      capped to ``max_vocab`` by (df DESC, term)) is broadcast via
      ``ray.put`` as a pair of sorted numpy arrays.
  pass B (score): one ``map_batches`` pass re-tokenizes, computes per-doc
      term frequencies with a single lexsort + run-length scan, binary-
      searches the broadcast vocab for df, ranks terms per doc and keeps the
      top ``k``.

Determinism / oracle: the ranking key is ``tf/df`` as an IEEE double —
division of exact small integers is correctly rounded, hence BIT-IDENTICAL
in numpy and DuckDB — with ascending-term tie-break (UTF-8 byte order ==
codepoint order), so the selected rows match ``row_number() OVER (PARTITION
BY doc ORDER BY tf/df DESC, term)`` exactly.  The emitted ``tfidf`` value
``tf * ln(N/df)`` matches DuckDB's ``ln`` bit-for-bit on this platform (the
same libm; the HLL linear-counting oracle already relies on this).

Scale: the only shuffle is the (term, partial_df) groupby — rows bounded by
blocks x block-vocabulary, never the token stream.  With ``max_vocab`` the
broadcast is capped and out-of-vocabulary terms are EXCLUDED from ranking
(the standard top-V vocabulary semantics); without it the broadcast is the
full vocab — fine for natural-language vocabularies (millions), wrong for
open-ended keys (use a shuffle join then).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.numeric import run_starts
from .dedup import tokenize

__all__ = ["tfidf_topk_pipeline"]


def _doc_term_runs(batch: pa.Table, key_col: str, text_col: str):
    """-> (doc_keys_per_run, terms_per_run, tf_per_run) over the batch.

    One lexsort over (doc position, term) then run-length compression; the
    only per-row Python is the tokenizer split (shared with every text
    pipeline here).
    """
    keys = batch.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
    texts = batch.column(text_col).to_pylist()
    toks: list[str] = []
    bounds = [0]
    for t in texts:
        toks.extend(tokenize(t))
        bounds.append(len(toks))
    sizes = np.diff(np.asarray(bounds, dtype=np.int64))
    if not toks:
        e = np.empty(0, dtype=np.int64)
        return e, np.empty(0, dtype=object), e
    terms = np.array(toks, dtype=object)
    doc_idx = np.repeat(np.arange(len(texts)), sizes)
    order = np.lexsort((terms, doc_idx))
    d_s, t_s = doc_idx[order], terms[order]
    new = run_starts(d_s, t_s)
    starts = np.flatnonzero(new)
    tf = np.diff(np.append(starts, d_s.size)).astype(np.int64)
    return keys[d_s[starts]], t_s[starts], tf


def tfidf_topk_pipeline(
    ds,
    *,
    key_col: str,
    text_col: str,
    k: int = 3,
    max_vocab: int | None = None,
):
    """-> Dataset[(key_col, rn, term, tf, df, tfidf)]: each doc's top-``k``
    terms by tf/df (ties -> lexicographically smaller term), with
    ``tfidf = tf * ln(N / df)`` where N is the total doc count."""
    import ray

    def df_partials(batch: pa.Table) -> pa.Table:
        _, terms, _ = _doc_term_runs(batch, key_col, text_col)
        # each run is one (doc, term) incidence -> count runs per term
        if terms.size:
            t_s = np.sort(terms)
            new = run_starts(t_s)
            starts = np.flatnonzero(new)
            uniq = t_s[starts]
            dfs = np.diff(np.append(starts, t_s.size)).astype(np.int64)
        else:
            uniq = np.empty(0, dtype=object)
            dfs = np.empty(0, dtype=np.int64)
        # carrier row ("" is not a token: tokenize drops empties) holds the
        # block's doc count for the global N
        return pa.table(
            {
                "term": pa.array(np.append(uniq, [""]).astype(object), pa.string()),
                "_df": pa.array(np.append(dfs, [0])),
                "_n": pa.array(np.append(np.zeros(dfs.size, dtype=np.int64), [batch.num_rows])),
            }
        )

    # term domain is open-ended -> bounded-partition fold (pipelines/fold.py)
    from ddsketch_ruby_ray.pipelines.fold import partitioned_group_sum

    agg = partitioned_group_sum(
        ds.map_batches(df_partials, batch_format="pyarrow", zero_copy_batch=True),
        "term",
        ["_df", "_n"],
    )
    tables = [ray.get(r) for r in agg.to_arrow_refs()]
    tables = [t for t in tables if t.num_rows]
    if tables:
        vocab_tbl = pa.concat_tables(tables)
        terms_all = np.array(vocab_tbl.column("term").to_pylist(), dtype=object)
        df_all = vocab_tbl.column("sum(_df)").to_numpy(zero_copy_only=False)
        n_total = int(vocab_tbl.column("sum(_n)").to_numpy(zero_copy_only=False).sum())
        real = np.flatnonzero(terms_all != "")
        terms_all, df_all = terms_all[real], df_all[real]
    else:
        terms_all = np.empty(0, dtype=object)
        df_all = np.empty(0, dtype=np.int64)
        n_total = 0
    if max_vocab is not None and terms_all.size > max_vocab:
        keep = np.lexsort((terms_all, -df_all))[:max_vocab]
        terms_all, df_all = terms_all[keep], df_all[keep]
    order = np.argsort(terms_all)  # sorted for searchsorted lookup
    vocab_ref = ray.put((terms_all[order], df_all[order], n_total))

    def score(batch: pa.Table) -> pa.Table:
        vterms, vdf, n_docs = ray.get(vocab_ref)
        keys, terms, tf = _doc_term_runs(batch, key_col, text_col)
        empty = pa.table(
            {
                key_col: pa.array([], pa.int64()),
                "rn": pa.array([], pa.int64()),
                "term": pa.array([], pa.string()),
                "tf": pa.array([], pa.int64()),
                "df": pa.array([], pa.int64()),
                "tfidf": pa.array([], pa.float64()),
            }
        )
        if not terms.size or not vterms.size:
            return empty
        pos = np.searchsorted(vterms, terms)
        pos_c = np.minimum(pos, vterms.size - 1)
        found = vterms[pos_c] == terms
        keys, terms, tf, pos_c = keys[found], terms[found], tf[found], pos_c[found]
        if not terms.size:
            return empty
        df = vdf[pos_c].astype(np.int64)
        ratio = tf.astype(np.float64) / df.astype(np.float64)
        order = np.lexsort((terms, -ratio, keys))
        k_s, t_s, tf_s, df_s = keys[order], terms[order], tf[order], df[order]
        new = run_starts(k_s)
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, k_s.size))
        rn = np.arange(k_s.size, dtype=np.int64) - np.repeat(starts, lens) + 1
        keep = rn <= k
        # math.log (libm), NOT np.log: numpy's SIMD log rounds differently
        # from DuckDB's ln in ~30% of cases (1 ulp) and the driver compare
        # is bit-exact.  Only the <= k kept rows per doc pay the scalar call.
        import math

        tfidf = tf_s[keep].astype(np.float64) * np.array(
            [math.log(float(n_docs) / float(d)) for d in df_s[keep]], dtype=np.float64
        )
        return pa.table(
            {
                key_col: pa.array(k_s[keep]),
                "rn": pa.array(rn[keep]),
                "term": pa.array(t_s[keep].astype(object), pa.string()),
                "tf": pa.array(tf_s[keep]),
                "df": pa.array(df_s[keep]),
                "tfidf": pa.array(tfidf),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
