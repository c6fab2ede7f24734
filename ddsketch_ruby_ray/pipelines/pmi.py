"""PMI collocation mining — the phrase-discovery staple.

Pointwise mutual information ranks token pairs that co-occur far more than
chance: ``pmi(x, y) = ln( c_xy * N / (c_x * c_y) )`` over adjacent-token
bigrams (Church & Hanks 1990).  Corpus curation uses it to find multi-word
expressions, boilerplate phrases and tokenizer-merge candidates.

Scale shape: two count shuffles (bigram + unigram), both pre-aggregated
per block with ``np.unique`` before anything moves; the global top-K
bigrams (count-thresholded) come back to the driver as KB rows; only the
<= 2K unigram counts those bigrams touch are fetched (broadcast token-set
filter over the unigram partials — the full vocabulary table never
materializes anywhere).  The PMI itself is one float division of two
exact Python ints and one ``ln`` per surviving pair — libm/DuckDB-parity
(the same contract as tfidf's ln scoring).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

__all__ = ["pmi_collocations_pipeline", "token_frequency_spectrum_pipeline"]


def pmi_collocations_pipeline(
    ds, *, text_col: str, top_k: int = 100, min_count: int = 2
):
    """-> pa.Table[(bigram, c_xy, c_x, c_y, n_tokens, pmi)] for the top-K
    most frequent adjacent-token bigrams with count >= ``min_count``,
    ranked (count DESC, bigram ASC)."""
    import pyarrow.compute as pc
    import ray

    from .lmscore import _batch_bigrams

    def explode_bigrams(t: pa.Table) -> pa.Table:
        bigrams, _, _ = _batch_bigrams(t, text_col)
        uniq, counts = np.unique(bigrams, return_counts=True)
        return pa.table(
            {
                "bigram": pa.array(uniq.tolist(), pa.string()),
                "c": pa.array(counts, pa.int64()),
            }
        )

    def explode_tokens(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column(text_col), " ")
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        flat = flat[flat != ""]
        uniq, counts = np.unique(flat.astype(str), return_counts=True)
        return pa.table(
            {
                "tok": pa.array(uniq.tolist(), pa.string()),
                "c": pa.array(counts, pa.int64()),
            }
        )

    # bigram/token domains are open-ended: fold through the bounded-partition
    # plan (pipelines/fold.py) instead of the native sort-based groupby
    from ddsketch_ruby_ray.pipelines.fold import partitioned_group_sum

    bcnt = partitioned_group_sum(
        ds.map_batches(explode_bigrams, batch_format="pyarrow", zero_copy_batch=True),
        "bigram",
        "c",
    )
    top = (
        bcnt.map_batches(
            lambda t: pa.table(
                {"bigram": t.column("bigram"), "c": t.column("sum(c)")}
            ).filter(pc.greater_equal(t.column("sum(c)"), min_count)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .sort(["c", "bigram"], descending=[True, False])
        .limit(top_k)
        .take_all()  # K rows — the KB driver side
    )

    ucnt = partitioned_group_sum(
        ds.map_batches(explode_tokens, batch_format="pyarrow", zero_copy_batch=True),
        "tok",
        "c",
    )
    n_tokens = int(ucnt.sum("sum(c)") or 0)

    xs = [r["bigram"].split(" ", 1)[0] for r in top]
    ys = [r["bigram"].split(" ", 1)[1] for r in top]
    needed = sorted(set(xs) | set(ys))
    need_ref = ray.put(np.array(needed, dtype=str))

    def only_needed(t: pa.Table) -> pa.Table:
        need = ray.get(need_ref)
        tok = t.column("tok").to_numpy(zero_copy_only=False).astype(str)
        idx = np.clip(np.searchsorted(need, tok), 0, max(need.size - 1, 0))
        hit = need[idx] == tok if need.size else np.zeros(tok.size, dtype=bool)
        return pa.table(
            {"tok": t.column("tok").filter(pa.array(hit)),
             "c": t.column("sum(c)").filter(pa.array(hit))}
        )

    tok_rows = ucnt.map_batches(only_needed, batch_format="pyarrow").take_all()
    tok_c = {r["tok"]: int(r["c"]) for r in tok_rows}

    out = {"bigram": [], "c_xy": [], "c_x": [], "c_y": [], "n_tokens": [], "pmi": []}
    for r, x, y in zip(top, xs, ys):
        cxy, cx, cy = int(r["c"]), tok_c[x], tok_c[y]
        out["bigram"].append(r["bigram"])
        out["c_xy"].append(cxy)
        out["c_x"].append(cx)
        out["c_y"].append(cy)
        out["n_tokens"].append(n_tokens)
        # one correctly-rounded divide of exact ints, one libm ln — the
        # exact op order of the SQL mirror
        out["pmi"].append(math.log(float(cxy * n_tokens) / float(cx * cy)))

    return pa.table(
        {
            "bigram": pa.array(out["bigram"], pa.string()),
            "c_xy": pa.array(out["c_xy"], pa.int64()),
            "c_x": pa.array(out["c_x"], pa.int64()),
            "c_y": pa.array(out["c_y"], pa.int64()),
            "n_tokens": pa.array(out["n_tokens"], pa.int64()),
            "pmi": pa.array(out["pmi"], pa.float64()),
        }
    )


def token_frequency_spectrum_pipeline(ds, *, text_col: str):
    """-> Dataset[(freq, n_tokens)]: the count-of-counts (Zipf) spectrum —
    how many DISTINCT tokens occur exactly ``freq`` times in the corpus.

    The vocabulary-growth / heap's-law diagnostic every corpus report
    carries (and the input to Good-Turing smoothing).  Two keyed counts,
    both tiny after fold's block pre-aggregation: tokens -> exact global
    token frequencies -> tokens per frequency VALUE (rows = distinct
    frequencies, a few hundred even at web scale; one fold partition, so
    the spectrum comes out in freq order).
    """
    import pyarrow.compute as pc

    from ddsketch_ruby_ray.pipelines.fold import partitioned_group_agg

    def explode_tokens(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(t.column(text_col), " "))
        return pa.table({"tok": flat.filter(pc.not_equal(flat, ""))})

    # token domain is open-ended -> bounded-partition fold
    freqs = partitioned_group_agg(
        ds.map_batches(explode_tokens, batch_format="pyarrow", zero_copy_batch=True),
        "tok",
        [(None, "count")],
    )
    freq = freqs.map_batches(
        lambda t: pa.table({"freq": t.column("count()")}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    out = partitioned_group_agg(freq, "freq", [(None, "count")], num_partitions=1)
    return out.map_batches(
        lambda t: pa.table(
            {
                "freq": t.column("freq"),
                "n_tokens": pc.cast(t.column("count()"), pa.int64()),
            }
        ).sort_by("freq"),
        batch_format="pyarrow",
    )
