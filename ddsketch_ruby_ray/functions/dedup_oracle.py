"""DuckDB oracle SQL mirroring the dedup pipelines bit-for-bit.

Tokenization contract shared with pipelines/dedup.py: literal single-space
split with empties dropped; shingle/window identity = splitmix64 fold of the
window's per-token sha256 hashes (_window_fold_ctes <-> fold_windows),
DISTINCT per doc for MinHash/Jaccard, multiset tokens for SimHash.
Hashing contract: sha256 lanes + seeded splitmix64 (core/hashing.py).
"""

from __future__ import annotations

from ..core.hashing import _C1, sha_lane_sql, splitmix64_sql

__all__ = [
    "exact_dedup_sql",
    "minhash_signature_sql",
    "lsh_pairs_sql",
    "jaccard_pairs_sql",
    "ngram_jaccard_sql",
    "dup_fraction_sql",
    "duplicate_spans_sql",
    "simhash_sql",
    "decontam_sql",
    "repetition_scores_sql",
]

_TWO64 = "18446744073709551616"


def _tokens_cte(table: str, key: str, text: str) -> str:
    """(key, tok, pos) - single-space split, empties dropped, order kept."""
    return f"""
  SELECT {key} AS key, t.tok AS tok, t.pos AS pos
  FROM {table},
       LATERAL (SELECT unnest(string_split({text}, ' ')) AS tok,
                       generate_subscripts(string_split({text}, ' '), 1) AS pos) t
  WHERE t.tok <> ''
"""


def _tok_hash_list_cte(table: str, key: str, text: str) -> str:
    """(key, hs LIST(HUGEINT)) — per-token sha256-lane-0 hashes in token
    order, one row per doc with >= 1 token (mirrors _doc_token_hashes)."""
    return f"""
  SELECT key, list(({sha_lane_sql('tok', 0)})::HUGEINT ORDER BY pos) AS hs
  FROM ({_tokens_cte(table, key, text)}) GROUP BY key
"""


def _window_fold_ctes(n: int, *, variable_width: bool) -> str:
    """CTE chain: wins(key, p[, width], hs) -> wh(key, p, h HUGEINT).

    acc_j = splitmix64(acc_{{j-1}} + hs[p+j]) with acc_{{-1}} = 0; with
    ``variable_width``, steps j >= width are identity — mirrors
    core/hashing.py::fold_windows' masked fold for short docs.  One CTE per
    fold step (same expansion discipline as _bucket_fold_ctes).
    """
    ctes = []
    prev, acc = "wins", None
    for j in range(n):
        step_in = "hs[p]" if acc is None else f"(({acc} + hs[p + {j}]) % {_TWO64})"
        expr = splitmix64_sql(step_in, normalize=False)
        if variable_width and j > 0:
            expr = f"CASE WHEN width > {j} THEN {expr} ELSE {acc} END"
        width_col = ", width" if variable_width and j < n - 1 else ""
        hs_col = ", hs" if j < n - 1 else ""
        ctes.append(
            f"f{j} AS (SELECT key, p{width_col}{hs_col}, {expr} AS a{j} FROM {prev})"
        )
        prev, acc = f"f{j}", f"a{j}"
    ctes.append(f"wh AS (SELECT key, p, {acc} AS h FROM {prev})")
    return ",\n".join(ctes)


def _shingle_hash_cte(table: str, key: str, text: str, n: int) -> str:
    """(key, h) DISTINCT shingle-fold hashes per doc (mirrors
    _doc_shingle_hashes: h = splitmix64 fold of the shingle's per-token
    hashes; docs with 0 < L < n tokens contribute one width-L fold — the
    full-token shingle of word_shingles; zero-token docs contribute nothing).
    """
    return f"""
  WITH toksh AS ({_tok_hash_list_cte(table, key, text)}),
  wins AS (
    SELECT key, i.i AS p, least({n}, len(hs) - i.i + 1) AS width, hs
    FROM toksh, LATERAL (
      SELECT unnest(range(1, greatest(len(hs) - {n - 1}, 1) + 1)) AS i
    ) i
  ),
  {_window_fold_ctes(n, variable_width=True)}
  SELECT DISTINCT key, h FROM wh
"""


def exact_dedup_sql(*, table: str, key: str, text: str) -> str:
    """min(key) per exact text (128-bit hash equivalence = text equality)."""
    return f"SELECT min({key}) AS {key} FROM {table} GROUP BY sha256({text})"


def _minhash_cte(table: str, key: str, text: str, num_hashes: int, n: int) -> str:
    """(key, i, m): minhash value per (doc, seed i).

    Mirrors minhash_signatures: shingle hash = token-hash fold; per seed i,
    h = splitmix64(lane0 + i*C1 mod 2^64) >> 1 (int63 domain); m = min.
    Empty docs are restored via the doc list with sentinel 2^63-1.
    """
    seeded = f"((sh.h + (i.i::HUGEINT * {_C1}::HUGEINT) % {_TWO64}) % {_TWO64})"
    core = splitmix64_sql(seeded, normalize=False)
    return f"""
  WITH sh AS ({_shingle_hash_cte(table, key, text, n)}),
  mh AS (
    SELECT sh.key, i.i AS i, min(({core}) // 2)::BIGINT AS m
    FROM sh CROSS JOIN (SELECT unnest(range({num_hashes})) AS i) i
    GROUP BY sh.key, i.i
  ),
  alldocs AS (SELECT {key} AS key FROM {table}),
  seeds AS (SELECT unnest(range({num_hashes})) AS i)
  SELECT d.key, s.i, coalesce(mh.m, 9223372036854775807) AS m
  FROM alldocs d CROSS JOIN seeds s
  LEFT JOIN mh ON mh.key = d.key AND mh.i = s.i
"""


def minhash_signature_sql(
    *, table: str, key: str, text: str, num_hashes: int = 16, n: int = 3
) -> str:
    """(key, m0..m{K-1}) wide signature table."""
    cols = ",\n  ".join(
        f"max(CASE WHEN i = {i} THEN m END) AS m{i}" for i in range(num_hashes)
    )
    return f"""
WITH mh AS ({_minhash_cte(table, key, text, num_hashes, n)})
SELECT key AS {key}, {cols} FROM mh GROUP BY key
"""


def _bucket_fold_ctes(num_hashes: int, bands: int, key: str = "key") -> str:
    """CTE chain computing the LSH band bucket: acc_j = splitmix64(acc_{j-1}
    + slot_j), acc_{-1} = 0 (mirrors pipelines/dedup.py::_band_buckets).

    One CTE per fold step so each splitmix64 expands over a short column
    name - NESTING splitmix64_sql calls would blow the expression up ~32x
    per level.  Expects an upstream CTE ``sigs`` (key, m0..m{K-1}); produces
    ``buckets`` (key, band, bucket HUGEINT in [0, 2^64)).  Bucket equality
    classes match the Python int64 buckets exactly (uint64<->int64 is a
    bijection, and only equality is ever used).

    The fused id ``bb = splitmix64(bucket + splitmix64(band))`` built after
    the chain is what both sides group on, so it also fixes the cross-band
    collision class: (b1, x) and (b2, y) with b1 != b2 share ``bb`` iff
    ``y = x + splitmix64(b1) - splitmix64(b2) mod 2^64`` (~2^-64 per pair).
    The pipeline makes the same pairs candidates, so this mirror matches it
    on such collisions by construction and cannot flag them.
    """
    r = num_hashes // bands
    ctes = []
    slot_cols = ", ".join(
        "CASE b.band "
        + " ".join(f"WHEN {b} THEN m{b * r + j}" for b in range(bands))
        + f" END AS s{j}"
        for j in range(r)
    )
    ctes.append(
        f"slots AS (SELECT {key} AS key, b.band AS band, {slot_cols} "
        f"FROM sigs CROSS JOIN (SELECT unnest(range({bands})) AS band) b)"
    )
    prev = "slots"
    acc = None
    for j in range(r):
        # slots are int64 in [0, 2^63): s::HUGEINT is already the uint64 value
        step_in = f"s{j}::HUGEINT" if acc is None else f"(({acc} + s{j}::HUGEINT) % {_TWO64})"
        keep = ", ".join(f"s{jj}" for jj in range(j + 1, r))
        keep = (", " + keep) if keep else ""
        ctes.append(
            f"fold{j} AS (SELECT key, band, "
            f"{splitmix64_sql(step_in, normalize=False)} AS acc{j}{keep} FROM {prev})"
        )
        prev, acc = f"fold{j}", f"acc{j}"
    ctes.append(f"buckets AS (SELECT key, band, {acc} AS bucket FROM {prev})")
    # fused (band, bucket) id — the ONE column the pipeline ships through
    # its exchange (pipelines/dedup.py lsh_candidate_pairs_pipeline):
    # bb = splitmix64(bucket + splitmix64(band)); the per-band splitmix64
    # constants are evaluated here in Python so the SQL stays flat.
    import numpy as np

    from ..core.hashing import splitmix64

    band_sm = {b: int(splitmix64(np.uint64(b))) for b in range(bands)}
    case = (
        "CASE band "
        + " ".join(f"WHEN {b} THEN {c}::HUGEINT" for b, c in band_sm.items())
        + " END"
    )
    ctes.append(
        f"bbpre AS (SELECT key, (bucket + {case}) % {_TWO64} AS x FROM buckets)"
    )
    ctes.append(
        f"fused AS (SELECT key, {splitmix64_sql('x', normalize=False)} AS bb FROM bbpre)"
    )
    return ",\n".join(ctes)


def lsh_pairs_sql(
    *, table: str, key: str, text: str, num_hashes: int = 16, bands: int = 4, n: int = 3
) -> str:
    """Distinct (a, b) key pairs sharing >= 1 band bucket (a < b)."""
    sig_sql = minhash_signature_sql(table=table, key=key, text=text, num_hashes=num_hashes, n=n)
    return f"""
WITH sigs AS ({sig_sql}),
{_bucket_fold_ctes(num_hashes, bands, key)}
SELECT DISTINCT x.key AS a, y.key AS b
FROM fused x JOIN fused y
  ON x.bb = y.bb AND x.key < y.key
"""


def jaccard_pairs_sql(
    *,
    table: str,
    key: str,
    text: str,
    threshold: float = 0.5,
    num_hashes: int = 16,
    bands: int = 4,
    n: int = 3,
) -> str:
    """(a, b, jac1000) for LSH candidates with exact shingle-set Jaccard >= threshold."""
    pairs = lsh_pairs_sql(table=table, key=key, text=text, num_hashes=num_hashes, bands=bands, n=n)
    shingles = _shingle_hash_cte(table, key, text, n)
    return f"""
WITH pairs AS ({pairs}),
sh AS ({shingles}),
sizes AS (SELECT key, count(*) AS sz FROM sh GROUP BY key),
inter AS (
  SELECT p.a, p.b, count(*) AS i
  FROM pairs p
  JOIN sh sa ON sa.key = p.a
  JOIN sh sb ON sb.key = p.b AND sb.h = sa.h
  GROUP BY p.a, p.b
),
jac AS (
  SELECT p.a, p.b,
         coalesce(i.i, 0)::DOUBLE / (za.sz + zb.sz - coalesce(i.i, 0)) AS j
  FROM pairs p
  JOIN sizes za ON za.key = p.a
  JOIN sizes zb ON zb.key = p.b
  LEFT JOIN inter i ON i.a = p.a AND i.b = p.b
)
SELECT a, b, CAST(floor(j * 1000) AS BIGINT) AS jac1000
FROM jac WHERE j >= {threshold:.17e}
"""


def ngram_jaccard_sql(
    *,
    table: str,
    key: str,
    text: str,
    n: int = 3,
    df_cap: int = 5,
    thr_milli: int = 500,
) -> str:
    """(a, b, jac1000): postings-based df-capped shingle Jaccard, a < b.

    Mirrors pipelines/postings.py::ngram_jaccard_pairs_pipeline bit-for-bit:
    the intersection counts only shingles with document frequency <= df_cap
    (the stop-shingle guard), the union uses full per-doc distinct-shingle
    counts, and both the threshold test and jac1000 are exact integer
    arithmetic (inter*1000 >= thr_milli*union; (inter*1000)//union).
    """
    shingles = _shingle_hash_cte(table, key, text, n)
    return f"""
WITH sh AS ({shingles}),
sizes AS (SELECT key, count(*) AS sz FROM sh GROUP BY key),
rare AS (SELECT h FROM sh GROUP BY h HAVING count(*) <= {df_cap}),
co AS (
  SELECT sa.key AS a, sb.key AS b, count(*) AS i
  FROM sh sa
  JOIN sh sb ON sb.h = sa.h AND sa.key < sb.key
  JOIN rare r ON r.h = sa.h
  GROUP BY sa.key, sb.key
)
SELECT co.a, co.b,
       CAST((co.i * 1000) // (za.sz + zb.sz - co.i) AS BIGINT) AS jac1000
FROM co
JOIN sizes za ON za.key = co.a
JOIN sizes zb ON zb.key = co.b
WHERE co.i * 1000 >= {thr_milli} * (za.sz + zb.sz - co.i)
"""


def dup_fraction_sql(*, table: str, key: str, text: str, n: int = 3) -> str:
    """(key, n_shingles, n_dup, dup_milli): per-doc duplication score.

    Mirrors pipelines/postings.py::dup_fraction_pipeline: n_dup counts the
    doc's distinct shingles whose document frequency is >= 2; dup_milli is
    the exact integer (1000 * n_dup) // n_shingles.  Docs with zero shingles
    are absent on both sides.
    """
    shingles = _shingle_hash_cte(table, key, text, n)
    return f"""
WITH sh AS ({shingles}),
df AS (SELECT h, count(*) AS df FROM sh GROUP BY h),
per AS (
  SELECT sh.key, count(*) AS sz,
         sum(CASE WHEN df.df >= 2 THEN 1 ELSE 0 END) AS dup
  FROM sh JOIN df USING (h) GROUP BY sh.key
)
SELECT key AS {key}, sz::BIGINT AS n_shingles, dup::BIGINT AS n_dup,
       CAST((dup * 1000) // sz AS BIGINT) AS dup_milli
FROM per
"""


def duplicate_spans_sql(*, table: str, key: str, text: str, n: int = 8) -> str:
    """(key, span_start, span_end): maximal duplicated positional n-token
    spans, 1-based inclusive - mirrors pipelines/spans.py bit-for-bit.

    A positional window is duplicated iff its token-hash fold occurs >= 2
    times corpus-wide (within-doc repeats count; fold = window fingerprint of
    pipelines/spans.py); windows whose ranges overlap or touch merge (new
    span when p > lag(p) + n).
    """
    return f"""
WITH toksh AS ({_tok_hash_list_cte(table, key, text)}),
wins AS (
  SELECT key, i.i AS p, hs
  FROM toksh, LATERAL (
    SELECT unnest(range(1, greatest(len(hs) - {n - 1}, 0) + 1)) AS i
  ) i
  WHERE len(hs) >= {n}
),
{_window_fold_ctes(n, variable_width=False)},
dupw AS (
  SELECT key, p FROM (
    SELECT key, p, count(*) OVER (PARTITION BY h) AS c FROM wh
  ) WHERE c >= 2
),
marked AS (
  SELECT key, p,
         CASE WHEN p > coalesce(lag(p) OVER (PARTITION BY key ORDER BY p),
                                -{n}) + {n}
              THEN 1 ELSE 0 END AS is_new
  FROM dupw
),
grp AS (
  SELECT key, p, sum(is_new) OVER (PARTITION BY key ORDER BY p) AS g FROM marked
)
SELECT key AS {key},
       min(p) AS span_start,
       CAST(max(p) + {n - 1} AS BIGINT) AS span_end
FROM grp GROUP BY key, g
"""


def simhash_sql(*, table: str, key: str, text: str) -> str:
    """(key, simhash_hi, simhash_lo): 64-bit SimHash from multiset token votes."""
    return f"""
WITH toks AS ({_tokens_cte(table, key, text)}),
h AS (SELECT key, ({sha_lane_sql('tok', 0)}) AS h FROM toks),
votes AS (
  SELECT key, b.b AS b,
         sum(CASE WHEN (h >> b.b) & 1 = 1 THEN 1 ELSE -1 END) AS v
  FROM h CROSS JOIN (SELECT unnest(range(64)) AS b) b
  GROUP BY key, b.b
),
sim AS (
  SELECT key, sum(CASE WHEN v > 0 THEN (1::HUGEINT << b) ELSE 0 END) AS s
  FROM votes GROUP BY key
),
alldocs AS (SELECT {key} AS key FROM {table})
SELECT d.key AS {key},
       coalesce((s.s // 4294967296), 0)::BIGINT AS simhash_hi,
       coalesce((s.s % 4294967296), 0)::BIGINT AS simhash_lo
FROM alldocs d LEFT JOIN sim s ON s.key = d.key
"""


def simhash_hamming_pairs_sql(
    *,
    table: str,
    key: str,
    text: str,
    max_hamming: int = 16,
    num_hashes: int = 16,
    bands: int = 4,
    n: int = 3,
) -> str:
    """(a, b, ham) for LSH candidates whose SimHashes differ in <= max_hamming bits."""
    pairs = lsh_pairs_sql(table=table, key=key, text=text, num_hashes=num_hashes, bands=bands, n=n)
    sim = simhash_sql(table=table, key=key, text=text)
    return f"""
WITH pairs AS ({pairs}),
sh AS ({sim}),
ham AS (
  SELECT p.a, p.b,
         bit_count(xor(sa.simhash_hi, sb.simhash_hi))
           + bit_count(xor(sa.simhash_lo, sb.simhash_lo)) AS ham
  FROM pairs p
  JOIN sh sa ON sa.{key} = p.a
  JOIN sh sb ON sb.{key} = p.b
)
SELECT a, b, CAST(ham AS BIGINT) AS ham FROM ham WHERE ham <= {max_hamming}
"""


def decontam_sql(*, table: str, key: str, text: str, bench_where: str, n: int = 8) -> str:
    """(key, n_grams, n_hits, contaminated) mirroring
    pipelines/decontam.py::decontaminate_pipeline with the benchmark set
    defined as ``{table} WHERE {bench_where}``.

    Shingle hashes are the token-hash fold (_shingle_hash_cte) on BOTH
    sides, so membership (including any 64-bit collisions) is identical;
    zero-token docs are restored by the LEFT JOIN with (0, 0, 0).
    """
    shingles = _shingle_hash_cte(table, key, text, n)
    return f"""
WITH tsh AS ({shingles}),
th AS (SELECT key, h AS sh FROM tsh),
bh AS (
  SELECT DISTINCT sh FROM th
  WHERE key IN (SELECT {key} FROM {table} WHERE {bench_where})
),
per AS (
  SELECT key,
         count(*) AS n_grams,
         sum(CASE WHEN sh IN (SELECT sh FROM bh) THEN 1 ELSE 0 END) AS n_hits
  FROM th GROUP BY key
)
SELECT d.{key} AS {key},
       CAST(coalesce(p.n_grams, 0) AS BIGINT) AS n_grams,
       CAST(coalesce(p.n_hits, 0) AS BIGINT) AS n_hits,
       CAST(coalesce(p.n_hits, 0) > 0 AS BIGINT) AS contaminated
FROM {table} d LEFT JOIN per p ON p.key = d.{key}
"""


def repetition_scores_sql(*, table: str, key: str, text: str) -> str:
    """(key, n_tokens, dup_tokens, n_bigrams, top_bigram_count,
    top_bigram_chars, n_trigrams, dup_trigrams) mirroring
    pipelines/repetition.py::repetition_scores_pipeline.

    Token / n-gram identity is the same sha256-lane + splitmix64 fold as the
    engine (collisions identical on both sides); the top-bigram tie resolves
    to the smaller fold hash on both sides; ``arg_min(glen, p)`` matches the
    engine's earliest-position gram length; zero-token docs are restored by
    the LEFT JOINs with all-zero metrics.
    """
    tok_hash = f"({sha_lane_sql('tok', 0)})::HUGEINT"
    return f"""
WITH big AS (
  WITH toksh AS (
    SELECT key, list({tok_hash} ORDER BY pos) AS hs,
           list(length(tok) ORDER BY pos) AS ls
    FROM ({_tokens_cte(table, key, text)}) GROUP BY key
  ),
  wins AS (
    SELECT key, i.i AS p, hs, ls
    FROM toksh, LATERAL (
      SELECT unnest(range(1, greatest(len(hs) - 1, 0) + 1)) AS i
    ) i
  ),
  glens AS (SELECT key, p, ls[p] + ls[p + 1] + 1 AS glen FROM wins),
  {_window_fold_ctes(2, variable_width=False)}
  SELECT wh.key, wh.p, wh.h, g.glen
  FROM wh JOIN glens g ON g.key = wh.key AND g.p = wh.p
),
tri AS (
  WITH toksh AS (
    SELECT key, list({tok_hash} ORDER BY pos) AS hs
    FROM ({_tokens_cte(table, key, text)}) GROUP BY key
  ),
  wins AS (
    SELECT key, i.i AS p, hs
    FROM toksh, LATERAL (
      SELECT unnest(range(1, greatest(len(hs) - 2, 0) + 1)) AS i
    ) i
  ),
  {_window_fold_ctes(3, variable_width=False)}
  SELECT key, p, h FROM wh
),
tokagg AS (
  SELECT key, CAST(count(*) AS BIGINT) AS n_tokens,
         CAST(count(*) - count(DISTINCT {tok_hash}) AS BIGINT) AS dup_tokens
  FROM ({_tokens_cte(table, key, text)}) GROUP BY key
),
bgruns AS (
  SELECT key, h, count(*) AS cnt, arg_min(glen, p) AS glen
  FROM big GROUP BY key, h
),
bgtop AS (
  SELECT key, cnt, glen FROM (
    SELECT key, cnt, glen,
           row_number() OVER (PARTITION BY key ORDER BY cnt DESC, h ASC) AS rn
    FROM bgruns
  ) WHERE rn = 1
),
bgn AS (SELECT key, CAST(count(*) AS BIGINT) AS n_bigrams FROM big GROUP BY key),
trin AS (
  SELECT key, CAST(count(*) AS BIGINT) AS n_trigrams,
         CAST(count(*) - count(DISTINCT h) AS BIGINT) AS dup_trigrams
  FROM tri GROUP BY key
)
SELECT d.{key} AS {key},
       CAST(coalesce(t.n_tokens, 0) AS BIGINT) AS n_tokens,
       CAST(coalesce(t.dup_tokens, 0) AS BIGINT) AS dup_tokens,
       CAST(coalesce(b.n_bigrams, 0) AS BIGINT) AS n_bigrams,
       CAST(coalesce(bt.cnt, 0) AS BIGINT) AS top_bigram_count,
       CAST(coalesce(bt.cnt * bt.glen, 0) AS BIGINT) AS top_bigram_chars,
       CAST(coalesce(tr.n_trigrams, 0) AS BIGINT) AS n_trigrams,
       CAST(coalesce(tr.dup_trigrams, 0) AS BIGINT) AS dup_trigrams
FROM {table} d
LEFT JOIN tokagg t ON t.key = d.{key}
LEFT JOIN bgn b ON b.key = d.{key}
LEFT JOIN bgtop bt ON bt.key = d.{key}
LEFT JOIN trin tr ON tr.key = d.{key}
"""


def containment_pairs_sql(
    *,
    table: str,
    key: str,
    text: str,
    threshold: float = 0.7,
    num_hashes: int = 16,
    bands: int = 4,
    n: int = 3,
) -> str:
    """(a, b, cont_ab1000, cont_ba1000) for LSH candidates where the larger
    directional shingle containment >= threshold (a < b; cont_ab = share of
    a's shingles found in b).  Mirrors containment_pairs_pipeline."""
    pairs = lsh_pairs_sql(table=table, key=key, text=text, num_hashes=num_hashes, bands=bands, n=n)
    shingles = _shingle_hash_cte(table, key, text, n)
    return f"""
WITH pairs AS ({pairs}),
sh AS ({shingles}),
sizes AS (SELECT key, count(*) AS sz FROM sh GROUP BY key),
inter AS (
  SELECT p.a, p.b, count(*) AS i
  FROM pairs p
  JOIN sh sa ON sa.key = p.a
  JOIN sh sb ON sb.key = p.b AND sb.h = sa.h
  GROUP BY p.a, p.b
),
cont AS (
  SELECT p.a, p.b,
         coalesce(i.i, 0)::DOUBLE / greatest(za.sz, 1) AS c_ab,
         coalesce(i.i, 0)::DOUBLE / greatest(zb.sz, 1) AS c_ba
  FROM pairs p
  JOIN sizes za ON za.key = p.a
  JOIN sizes zb ON zb.key = p.b
  LEFT JOIN inter i ON i.a = p.a AND i.b = p.b
)
SELECT a, b,
       CAST(floor(c_ab * 1000) AS BIGINT) AS cont_ab1000,
       CAST(floor(c_ba * 1000) AS BIGINT) AS cont_ba1000
FROM cont WHERE greatest(c_ab, c_ba) >= {threshold:.17e}
"""
