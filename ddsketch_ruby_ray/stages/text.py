"""Text-analysis stages: token stats, quality scores, language ID, winnowing
fingerprints.  All vectorized with pyarrow.compute RE2 kernels - the SAME
regex engine DuckDB uses, so the SQL oracles match bit-for-bit.

Tokens throughout = maximal runs of non-space characters (``[^ ]+``),
matching the dedup pipelines' single-space split contract.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.numeric import run_starts

__all__ = [
    "token_stats",
    "quality_scores",
    "LANG_MARKERS",
    "lang_id",
    "winnow_fingerprints",
    "PII_PATTERNS",
    "pii_scrub",
    "line_filter_stats",
]


def _re_count(col, pattern: str):
    """Count of non-overlapping RE2 matches per row (int64)."""
    return pc.cast(pc.count_substring_regex(col, pattern), pa.int64())


def token_stats(batch: pa.Table, *, text_col: str) -> pa.Table:
    """Append n_tokens / n_chars per row."""
    col = batch.column(text_col)
    batch = batch.append_column("n_tokens", _re_count(col, "[^ ]+"))
    return batch.append_column("n_chars_", pc.cast(pc.utf8_length(col), pa.int64()))


def quality_scores(batch: pa.Table, *, text_col: str) -> pa.Table:
    """Per-row quality signals: token/char counts, ratios, mean word length.

    Ratios are float64 divisions of exact integer counts - deterministic and
    bit-identical to the SQL mirror.
    """
    col = batch.column(text_col)
    n_chars = pc.cast(pc.utf8_length(col), pa.int64())
    n_tokens = _re_count(col, "[^ ]+")
    n_alpha = _re_count(col, "[a-zA-Z]")
    n_digit = _re_count(col, "[0-9]")
    n_punct = _re_count(col, r"[.,;:!?'\"()\[\]{}-]")
    n_space = _re_count(col, " ")

    chars = n_chars.to_numpy(zero_copy_only=False).astype(np.float64)
    toks = n_tokens.to_numpy(zero_copy_only=False).astype(np.float64)
    safe_chars = np.where(chars == 0, 1.0, chars)
    safe_toks = np.where(toks == 0, 1.0, toks)

    def ratio(cnt):
        return pa.array(cnt.to_numpy(zero_copy_only=False) / safe_chars, pa.float64())

    out = {
        "n_chars_": n_chars,
        "n_tokens": n_tokens,
        "alpha_ratio": ratio(n_alpha),
        "digit_ratio": ratio(n_digit),
        "punct_ratio": ratio(n_punct),
        "space_ratio": ratio(n_space),
        "mean_token_len": pa.array(
            (chars - n_space.to_numpy(zero_copy_only=False)) / safe_toks, pa.float64()
        ),
    }
    for name, arr in out.items():
        batch = batch.append_column(name, arr)
    return batch


# word-boundary marker regexes per language; tiny on purpose (heuristic).
LANG_MARKERS = {
    "en": r"\b(the|and|of|to|is|in)\b",
    "de": r"\b(der|die|das|und|ist|nicht)\b",
    "es": r"\b(el|la|los|las|es|y)\b",
    "fr": r"\b(le|la|les|est|et|ne)\b",
    "zh": r"[\x{4e00}-\x{9fff}]",
}
_LANG_PRIORITY = ["en", "de", "es", "fr", "zh"]  # tie-break order


def lang_id(batch: pa.Table, *, text_col: str, out_col: str = "pred_lang") -> pa.Table:
    """Heuristic language ID: argmax of marker-regex hit counts.

    Ties resolve by _LANG_PRIORITY order ('unk' when all scores are zero) -
    the SQL mirror uses the same sequential CASE.
    """
    col = pc.utf8_lower(batch.column(text_col))
    scores = {l: _re_count(col, rx).to_numpy(zero_copy_only=False) for l, rx in LANG_MARKERS.items()}
    n = batch.num_rows
    # contract (mirrored by the SQL CASE chain): pred = first language in
    # priority order whose score equals the max; 'unk' when the max is 0.
    mx = np.zeros(n, dtype=np.int64)
    for l in _LANG_PRIORITY:
        mx = np.maximum(mx, scores[l])
    pred = np.array(["unk"] * n, dtype=object)
    assigned = np.zeros(n, dtype=bool)
    for l in _LANG_PRIORITY:
        take = (~assigned) & (mx > 0) & (scores[l] == mx)
        pred[take] = l
        assigned |= take
    return batch.append_column(out_col, pa.array(pred, pa.string()))


def winnow_fingerprints(
    batch: pa.Table,
    *,
    key_col: str,
    text_col: str,
    k: int = 8,
    window: int = 4,
    gram_hash: str = "fold",
) -> pa.Table:
    """Winnowing document fingerprints (Schleimer et al., SIGMOD 2003).

    Char k-gram hashes, then the min hash of every full window of ``window``
    consecutive k-grams; the DISTINCT set of those minima is the fingerprint.
    Emits (key, n_fp, fp_xor).

    ``gram_hash`` picks the k-gram hash:
      * ``"fold"`` (default, the scale path): splitmix64 fold over the
        gram's unicode CODEPOINTS - ONE vectorized pass over every gram of
        every doc in the batch (sliding windows over the batch's
        concatenated codepoint array; cross-doc windows masked out).  No
        per-gram Python anywhere.  Mirrored in SQL by a lead()-window +
        CTE-fold chain (functions/text_oracle.py).
      * ``"sha256"`` - sha256 lane 0 of the gram's utf-8 bytes; one hashlib
        call PER GRAM (O(doc_len) Python-level calls per doc), kept as the
        cryptographic verification variant.  Mirrored by DuckDB sha256.
    """
    keys = batch.column(key_col)
    texts = batch.column(text_col).to_pylist()
    n_docs = len(texts)
    n_fp = np.zeros(n_docs, dtype=np.int64)
    fp_xor = np.zeros(n_docs, dtype=np.int64)

    if gram_hash == "sha256":
        for d, t in enumerate(texts):
            t = t or ""
            grams = [t[i : i + k] for i in range(len(t) - k + 1)]
            if len(grams) < window:
                continue
            h = np.array(
                [
                    int.from_bytes(hashlib.sha256(g.encode("utf-8")).digest()[:8], "big") >> 1
                    for g in grams
                ],
                dtype=np.int64,
            )
            mins = np.lib.stride_tricks.sliding_window_view(h, window).min(axis=1)
            fps = np.unique(mins)
            n_fp[d] = fps.size
            fp_xor[d] = int(np.bitwise_xor.reduce(fps)) if fps.size else 0
    elif gram_hash == "fold":
        from ..core.hashing import splitmix64

        cps = [
            np.frombuffer((t or "").encode("utf-32-le"), dtype=np.uint32) for t in texts
        ]
        lens = np.fromiter((c.size for c in cps), dtype=np.int64, count=n_docs)
        # full windows per doc: (len - k + 1) grams, window of `window` grams
        w_cnt = np.maximum(lens - (k + window - 2), 0)
        total_w = int(w_cnt.sum())
        if total_w:
            flat = np.concatenate(cps)
            sw = np.lib.stride_tricks.sliding_window_view(flat, k)  # (N-k+1, k)
            old = np.seterr(over="ignore")
            try:
                acc = np.zeros(sw.shape[0], dtype=np.uint64)
                for j in range(k):
                    acc = splitmix64(acc + sw[:, j].astype(np.uint64))
            finally:
                np.seterr(**old)
            gram_h = (acc >> np.uint64(1)).astype(np.int64)  # int63, SQL BIGINT
            wm_all = np.lib.stride_tricks.sliding_window_view(gram_h, window).min(axis=1)
            # valid (within-one-doc) window start positions, per doc
            char_starts = np.cumsum(lens) - lens
            doc_of_w = np.repeat(np.arange(n_docs), w_cnt)
            offs = np.arange(total_w) - np.repeat(np.cumsum(w_cnt) - w_cnt, w_cnt)
            vals = wm_all[np.repeat(char_starts, w_cnt) + offs]
            order = np.lexsort((vals, doc_of_w))
            sv, sd = vals[order], doc_of_w[order]
            newu = run_starts(sd, sv)
            uv, ud = sv[newu], sd[newu]  # distinct fingerprints per doc
            n_fp = np.bincount(ud, minlength=n_docs).astype(np.int64)
            seg = run_starts(ud)
            seg_starts = np.flatnonzero(seg)
            fp_xor[ud[seg_starts]] = np.bitwise_xor.reduceat(uv, seg_starts)
    else:
        raise ValueError(f"unknown gram_hash {gram_hash!r}")

    return pa.table(
        {
            key_col: keys,
            "n_fp": pa.array(n_fp),
            "fp_xor": pa.array(fp_xor),
        }
    )


# -- C4-style line-level filtering -------------------------------------------

# default C4 rules (Raffel et al. 2020 §2.2 style): keep a line only if it
# ends in terminal punctuation, has enough words, and carries no boilerplate
# marker.  Plain RE2 patterns - the same engine DuckDB uses.
C4_TERMINAL_RE = "[.!?\"']$"
C4_BOILER_RE = r"(?i)javascript|lorem ipsum|[{}]"


def line_filter_stats(
    batch: pa.Table,
    *,
    key_col: str,
    text_col: str,
    min_words: int = 5,
    terminal_re: str = C4_TERMINAL_RE,
    boiler_re: str = C4_BOILER_RE,
    line_transform=None,
) -> pa.Table:
    """C4-style line filter over newline-delimited docs; per-doc stats only.

    Splits each doc on ``\\n``, judges every line against the three C4 rules
    (terminal punctuation, >= ``min_words`` words, no boilerplate marker) and
    emits per doc: ``n_lines``, ``n_kept`` and ``kept_sig`` - the XOR fold of
    the 60-bit sha256 of ``"<ord>|<line>"`` over KEPT lines (ord = 1-based
    line ordinal), which pins the exact kept (position, bytes) multiset
    without shipping any text.  SQL mirror: unnest(string_split(..)) +
    generate_subscripts + the same RE2 predicates + bit_xor of the same
    sha256 prefix.

    ``line_transform(flat_lines: pa.Array, ord1: np.ndarray) -> pa.Array``
    optionally rewrites lines (by 1-based ordinal) BEFORE judging - the
    driver query uses it to synthesize rule hits on the punctuation-free
    test corpus, mirrored verbatim in its oracle's CTE.

    Vectorized end-to-end (split / flatten / regex predicates are single
    Arrow kernels over every line in the batch); the only per-line Python is
    the sha256 digest over KEPT lines, the same inherent hash cost as every
    other sha site in the repo.
    """
    from ..core.hashing import hash256_str

    n_docs = batch.num_rows
    col = pc.fill_null(pc.cast(batch.column(text_col), pa.string()), "")
    lines = pc.split_pattern(col, pattern="\n")
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    n_lines = pc.list_value_length(lines).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(lines)
    parent = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
    starts = np.cumsum(n_lines) - n_lines
    ord1 = np.arange(len(flat), dtype=np.int64) - np.repeat(starts, n_lines) + 1

    if line_transform is not None:
        flat = line_transform(flat, ord1)

    words = pc.count_substring_regex(flat, "[^ ]+").to_numpy(zero_copy_only=False)
    term = pc.match_substring_regex(flat, terminal_re).to_numpy(zero_copy_only=False)
    boiler = pc.match_substring_regex(flat, boiler_re).to_numpy(zero_copy_only=False)
    keep = term & (words >= min_words) & ~boiler

    n_kept = np.bincount(parent[keep], minlength=n_docs).astype(np.int64)
    kept_sig = np.zeros(n_docs, dtype=np.int64)
    kp = parent[keep]
    if kp.size:
        ord_str = pc.cast(pa.array(ord1[keep]), pa.string())
        salted = pc.binary_join_element_wise(
            ord_str, pc.take(flat, pa.array(np.flatnonzero(keep))), "|"
        )
        h = (hash256_str(salted, lanes=1)[0] >> np.uint64(4)).astype(np.int64)
        seg = np.flatnonzero(run_starts(kp))
        kept_sig[kp[seg]] = np.bitwise_xor.reduceat(h, seg)

    return pa.table(
        {
            key_col: batch.column(key_col),
            "n_lines": pa.array(n_lines),
            "n_kept": pa.array(n_kept),
            "kept_sig": pa.array(kept_sig),
        }
    )


# -- PII detection / redaction ----------------------------------------------

# (name, RE2 pattern, replacement) applied IN ORDER on progressively redacted
# text: emails first (they contain dots/digits that would otherwise be eaten
# by the ip/phone patterns), then IPv4, then phone.  Patterns are plain RE2 -
# the same engine DuckDB's regexp_* functions use - so the SQL mirror
# (functions/text_oracle.py:pii_scrub_sql) matches byte-for-byte.
PII_PATTERNS = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ipv4", r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}", "<IP>"),
    ("phone", r"\d{3}[- ]\d{3}[- ]\d{4}", "<PHONE>"),
)


def pii_scrub(
    batch: pa.Table, *, key_col: str, text_col: str, emit_text: bool = False
) -> pa.Table:
    """Detect + redact PII-shaped substrings; emit counts and a redacted-text
    digest instead of the text itself.

    Per row: ``n_<name>`` = non-overlapping match count of each pattern on
    the text AS REDACTED BY the preceding patterns (sequential semantics,
    mirrored by nested regexp_replace in SQL), ``redacted_len`` = utf8 length
    after all redactions, ``redacted_sha`` = sha256 lane 0 of the redacted
    text (verifies the exact output bytes without shipping the text).
    ``emit_text=True`` additionally carries the redacted text column - the
    production curation path; the default digest-only shape is what the
    driver query uses so the oracle compare stays KB-sized.

    Vectorized end-to-end: one count_substring_regex + one
    replace_substring_regex per pattern per batch; the only per-row work is
    the sha256 digest loop shared with every other hash pipeline.
    """
    from ..core.hashing import hash256_str

    # null policy: null text == empty string (same as core/hashing.hash256_str;
    # the SQL mirror is built over coalesce(text, ''))
    col = pc.fill_null(pc.cast(batch.column(text_col), pa.string()), "")
    out = {key_col: batch.column(key_col)}
    for name, pattern, repl in PII_PATTERNS:
        out[f"n_{name}"] = _re_count(col, pattern)
        col = pc.replace_substring_regex(col, pattern=pattern, replacement=repl)
    out["redacted_len"] = pc.cast(pc.utf8_length(col), pa.int64())
    out["redacted_sha"] = pa.array(hash256_str(col, lanes=1)[0])
    if emit_text:
        out["redacted_text"] = col
    return pa.table(out)
