"""DuckDB oracle SQL mirroring the DDSketch algorithm bit-for-bit.

The driver compares each Ray query against an ANSI-SQL oracle by value hash.
DDSketch quantile estimates are approximate w.r.t. the *data*, but they are a
deterministic function of it, and every step is expressible in SQL:

  key       = ceil(log2(v) * M)            M = ln(2)/ln(gamma)       (exact-log
              mapping, logarithmic_key_mapping.rb:18-20)
  rank      = q * (count - 1)              (base_sketch.rb:125)
  key@rank  = first key whose running count > rank - zero_count
              (dense_store.rb:123-135; falls through to max key)
  estimate  = power(2, key/M) * 2/(1+gamma) (key_mapping.rb:80-82)

numpy's log2 and libm's pow (used on the scalar finalize path) are bit-identical
to DuckDB's log2/power on this platform (verified empirically), so the oracle
hash-matches the Ray pipeline exactly - making the approximate sketch fully
testable by the driver, not just "rows-only".
"""

from __future__ import annotations

import math
from typing import Sequence

from .specs import quantile_name

__all__ = ["ddsketch_quantile_sql", "ddsketch_group_sql", "ddsketch_key_sql"]


def ddsketch_key_sql(
    value_expr: str, alpha: float = 0.01, mapping: str = "log"
) -> tuple[str, float]:
    """(SQL bucket-key expression for a positive value expr, min_possible).

    The histogram-export mirror (pipelines/histogram.py): rows with
    ``value <= min_possible`` belong to the zero band and must be filtered
    out by the caller to match the positive store exactly.
    """
    _, m, _, min_possible = _consts(alpha, mapping)
    return _key_sql(f"CAST(({value_expr}) AS DOUBLE)", m, mapping), min_possible


def _consts(alpha: float, mapping: str = "log"):
    # Take the constants from the actual mapping implementation so the SQL
    # literals are the very same doubles the Ray pipeline computes with
    # (computing e.g. ln2/ln(gamma) here instead of the mapping's
    # (1/log1p(gamma-1))*ln2 differs by ulps, amplified by the key magnitude).
    from ..core.mapping import (
        CubicallyInterpolatedKeyMapping,
        LinearlyInterpolatedKeyMapping,
        LogarithmicKeyMapping,
    )

    cls = {
        "log": LogarithmicKeyMapping,
        "linear": LinearlyInterpolatedKeyMapping,
        "cubic": CubicallyInterpolatedKeyMapping,
    }[mapping]
    mp = cls(alpha)
    coef = 2.0 / (1.0 + mp.gamma)
    return mp.gamma, mp._multiplier, coef, mp.min_possible


# Cubic-mapping constants, computed HERE with the same Python float evaluation
# order as CubicallyInterpolatedKeyMapping._pow_gamma so the SQL literals are
# the very same doubles (see _consts note).
_CUBIC_A = 6.0 / 35.0
_CUBIC_B = -3.0 / 5.0
_CUBIC_C = 10.0 / 7.0
_CUBIC_D0 = _CUBIC_B * _CUBIC_B - 3.0 * _CUBIC_A * _CUBIC_C
_CUBIC_D1C = 2.0 * _CUBIC_B**3 - 9.0 * _CUBIC_A * _CUBIC_B * _CUBIC_C
_CUBIC_27AA = 27.0 * _CUBIC_A * _CUBIC_A
_CUBIC_4D03 = 4.0 * _CUBIC_D0**3
_CUBIC_3A = 3.0 * _CUBIC_A


def _key_sql(v: str, m: float, mapping: str) -> str:
    """Bucket key of a POSITIVE double expression, per mapping variant."""
    if mapping == "log":
        return f"CAST(ceil(log2({v}) * {m:.17e}) AS BIGINT)"
    # frexp in SQL: v = mant * 2^e, mant in [0.5, 1)
    e = f"(floor(log2({v})) + 1)"
    mant = f"({v} * power(2.0, -{e}))"
    if mapping == "linear":
        return f"CAST(ceil((2 * {mant} - 1 + ({e} - 1)) * {m:.17e}) AS BIGINT)"
    assert mapping == "cubic", mapping
    # s = 2*mant - 1 in [0, 1); approx = ((A*s + B)*s + C)*s + (e - 1)
    s = f"(2 * {mant} - 1)"
    approx = (
        f"((({_CUBIC_A:.17e} * {s} + {_CUBIC_B:.17e}) * {s} + {_CUBIC_C:.17e}) * {s}"
        f" + ({e} - 1))"
    )
    return f"CAST(ceil({approx} * {m:.17e}) AS BIGINT)"


def _value_sql(k: str, m: float, coef: float, mapping: str) -> str:
    """Representative value of bucket key expression ``k`` (double)."""
    if mapping == "log":
        return f"power(2.0, {k} / {m:.17e}) * {coef:.17e}"
    x = f"(({k}) / {m:.17e})"
    fx = f"floor({x})"
    if mapping == "linear":
        mant = f"(({x} - {fx} + 1.0) / 2.0)"
        return f"({mant} * power(2.0, {fx} + 1.0)) * {coef:.17e}"
    assert mapping == "cubic", mapping
    # Cardano inverse in the exact evaluation order of
    # CubicallyInterpolatedKeyMapping._pow_gamma (every constant precomputed
    # with the same Python float ops, embedded as 17-digit literals)
    frac = f"({x} - {fx})"
    d1 = f"({_CUBIC_D1C:.17e} - {_CUBIC_27AA:.17e} * {frac})"
    sq = f"sqrt({d1} * {d1} - {_CUBIC_4D03:.17e})"
    card = f"cbrt(({d1} - {sq}) / 2.0)"
    splus1 = f"(-({_CUBIC_B:.17e} + {card} + {_CUBIC_D0:.17e} / {card}) / {_CUBIC_3A:.17e} + 1.0)"
    return f"(({splus1} / 2.0) * power(2.0, {fx} + 1.0)) * {coef:.17e}"


def ddsketch_quantile_sql(
    *,
    table: str,
    group_col: str,
    value_expr: str,
    alpha: float = 0.01,
    quantiles: Sequence[float] = (0.5, 0.9, 0.99),
    prefix: str = "",
    include_sum_avg: bool = True,
    where: str = "",
    weight_expr: str | None = None,
    signed: bool = False,
    collapse: str | None = None,
    bin_limit: int = 2048,
    mapping: str = "log",
) -> str:
    """SQL computing exactly what ``DDSketchSpec(on=value_expr).finalize`` (or
    the ``DDSketchAgg`` UDAF) returns per group.

    Output columns: ``{group_col}, {prefix}count, [{prefix}sum, {prefix}avg,]
    {prefix}min, {prefix}max, {prefix}p50, ...``.

    Options mirroring the reference's edge cases (base_sketch.rb:96-138):
      * ``weight_expr`` - add-with-weight: bin counts/stats accumulate the
        weight column instead of 1 (bit-stable when weights are
        integer-valued).
      * ``signed`` - the two-store signed model: v < -min_possible keys the
        negative store at key(-v); quantile walks negative store first with
        reversed rank and UPPER key_at_rank semantics (dense_store.rb:123-135
        lower=false: first key whose running count >= rank+1).
      * ``collapse`` - 'lowest' or 'highest': the spec's clamp model
        (collapsing_lowest_dense_store_spec.rb:35-38): keys clamp to
        [k_max - bin_limit + 1, ...] / [..., k_min + bin_limit - 1] per
        store per group.
    ``sum``/``avg`` are only bit-stable when values (x weights) are
    integer-valued; pass ``include_sum_avg=False`` otherwise.
    """
    _, m, coef, min_possible = _consts(alpha, mapping)
    qvals = ", ".join(f"({q:.17e})" for q in quantiles)
    p = prefix
    w = f"CAST(({weight_expr}) AS DOUBLE)" if weight_expr else "1.0"
    sum_avg_sel = f's.s AS "{p}sum", s.s / s.cnt AS "{p}avg",' if include_sum_avg else ""
    qcols = ",\n  ".join(
        f'max(CASE WHEN e.q = {q:.17e} THEN e.val END) AS "{p}{quantile_name(q)}"'
        for q in quantiles
    )
    sum_avg_grp = f', "{p}sum", "{p}avg"' if include_sum_avg else ""
    where_clause = f"WHERE {where}" if where else ""

    v = f"CAST(({value_expr}) AS DOUBLE)"
    if signed:
        key_case = f"""
         CASE WHEN {v} > {min_possible:.17e}
              THEN {_key_sql(v, m, mapping)}
              WHEN {v} < -{min_possible:.17e}
              THEN {_key_sql(f'(-{v})', m, mapping)}
         END AS k,
         CASE WHEN {v} > {min_possible:.17e} THEN 1
              WHEN {v} < -{min_possible:.17e} THEN -1
              ELSE 0 END AS side"""
    else:
        key_case = f"""
         CASE WHEN {v} > {min_possible:.17e}
              THEN {_key_sql(v, m, mapping)}
         END AS k,
         CASE WHEN {v} > {min_possible:.17e} THEN 1 ELSE 0 END AS side"""

    if collapse == "lowest":
        clamp = "greatest(b.k, ext.k_hi - {lim} + 1)".format(lim=bin_limit)
    elif collapse == "highest":
        clamp = "least(b.k, ext.k_lo + {lim} - 1)".format(lim=bin_limit)
    else:
        clamp = "b.k"

    return f"""
WITH keyed AS (
  SELECT {group_col} AS grp, {v} AS v, {w} AS w, {key_case}
  FROM {table} {where_clause}
),
stats AS (
  SELECT grp,
         CAST(sum(w) AS DOUBLE) AS cnt,
         CAST(sum(v * w) AS DOUBLE) AS s,
         min(v) AS mn,
         max(v) AS mx,
         CAST(coalesce(sum(w) FILTER (WHERE side = 0), 0) AS DOUBLE) AS zero_cnt,
         CAST(coalesce(sum(w) FILTER (WHERE side = -1), 0) AS DOUBLE) AS neg_cnt
  FROM keyed GROUP BY grp
),
binned_raw AS (
  SELECT grp, side, k, CAST(sum(w) AS DOUBLE) AS c
  FROM keyed WHERE side <> 0 GROUP BY grp, side, k
),
extents AS (
  SELECT grp, side, max(k) AS k_hi, min(k) AS k_lo FROM binned_raw GROUP BY grp, side
),
binned AS (
  SELECT b.grp, b.side, {clamp} AS k, sum(b.c) AS c
  FROM binned_raw b JOIN extents ext ON ext.grp = b.grp AND ext.side = b.side
  GROUP BY b.grp, b.side, 3
),
cum AS (
  SELECT grp, side, k, c,
         sum(c) OVER (PARTITION BY grp, side ORDER BY k) AS running
  FROM binned
),
qs AS (SELECT q FROM (VALUES {qvals}) AS t(q)),
ranks AS (
  SELECT st.grp, qs.q, st.cnt, st.zero_cnt, st.neg_cnt,
         qs.q * (st.cnt - 1) AS rank
  FROM stats st CROSS JOIN qs
),
-- negative store: reversed_rank = neg_cnt - rank - 1, upper semantics
-- (first key with running >= reversed_rank + 1); falls through to max key.
neg_hit AS (
  SELECT r.grp, r.q,
         min(CASE WHEN c.running >= (r.neg_cnt - r.rank - 1) + 1 THEN c.k END) AS k_hit,
         max(c.k) AS k_max
  FROM ranks r LEFT JOIN cum c ON c.grp = r.grp AND c.side = -1
  WHERE r.rank < r.neg_cnt
  GROUP BY r.grp, r.q
),
pos_hit AS (
  SELECT r.grp, r.q,
         min(CASE WHEN c.running > r.rank - r.zero_cnt - r.neg_cnt THEN c.k END) AS k_hit,
         max(c.k) AS k_max
  FROM ranks r LEFT JOIN cum c ON c.grp = r.grp AND c.side = 1
  WHERE r.rank >= r.zero_cnt + r.neg_cnt
  GROUP BY r.grp, r.q
),
est AS (
  SELECT r.grp, r.q,
         CASE
           WHEN r.rank < r.neg_cnt
           THEN -({_value_sql('coalesce(nh.k_hit, nh.k_max)', m, coef, mapping)})
           WHEN r.rank < r.zero_cnt + r.neg_cnt THEN 0.0
           ELSE {_value_sql('coalesce(ph.k_hit, ph.k_max)', m, coef, mapping)}
         END AS val
  FROM ranks r
  LEFT JOIN neg_hit nh ON nh.grp = r.grp AND nh.q = r.q
  LEFT JOIN pos_hit ph ON ph.grp = r.grp AND ph.q = r.q
)
SELECT s.grp AS {group_col},
  s.cnt AS "{p}count",
  {sum_avg_sel}
  s.mn AS "{p}min",
  s.mx AS "{p}max",
  {qcols}
FROM stats s JOIN est e ON e.grp = s.grp
GROUP BY s.grp, "{p}count"{sum_avg_grp}, "{p}min", "{p}max"
"""


def ddsketch_group_sql(
    *,
    table: str,
    group_col: str,
    metrics: dict,
    alpha: float = 0.01,
    quantiles: Sequence[float] = (0.5, 0.9, 0.99),
) -> str:
    """Multi-metric variant: one DDSketch per metric, joined on the group key.

    ``metrics`` maps output prefix -> (value_expr, include_sum_avg).
    """
    subs = []
    for i, (prefix, (expr, with_sum)) in enumerate(metrics.items()):
        sql = ddsketch_quantile_sql(
            table=table,
            group_col=group_col,
            value_expr=expr,
            alpha=alpha,
            quantiles=quantiles,
            prefix=prefix,
            include_sum_avg=with_sum,
        )
        subs.append(f"m{i} AS ({sql})")
    joins = " ".join(f"JOIN m{i} USING ({group_col})" for i in range(1, len(subs)))
    return f"WITH {', '.join(subs)} SELECT * FROM m0 {joins}"
