"""DuckDB oracle SQL for the t-digest / KLL quantile ESTIMATES themselves.

Round-2 left these two as the only rows-only sketch queries: t-digest and
KLL results depend on arrival/merge order, so no SQL could name the value.
The canonical single-compaction build (pipelines/canonical.py with
``buckets=1``: per group, ONE batched insert of the ascending-sorted values)
closes that gap - the whole sketch becomes a closed-form function of the
group's value multiset:

* **t-digest** (core/tdigest.py): one ``add_batch`` = one ``_compress`` over
  the sorted array.  Cell assignment uses the k_sqrt scale function, built
  only from +,-,*,/ and sqrt - every one of which is IEEE-754
  correctly-rounded identically in numpy and DuckDB (asin/ln differ by up to
  2 ulp between libms, which is why k_1 was replaced) - so centroid means,
  weights and the interpolated quantile are bit-identical window-function
  SQL.  Centroid means are exact because the value column is integer-valued
  (the standing exact-sum convention of this repo's oracles).

* **KLL** (core/kll.py): one batched insert leaves a single nonempty level
  at every point of the compaction cascade, so the survivors are the sorted
  array's positions ``s + i * 2^c`` - with the per-step halvings ``m_{j+1} =
  ceil((m_j - o_j)/2)``, offsets ``s_{j+1} = s_j + o_j 2^j``, and stop level
  ``c`` all driven by the DETERMINISTIC counter-based coin stream ``o_j =
  splitmix64(j+1) & 1`` and the capacity totals ``T_j`` - constants this
  module precomputes and inlines.  The SQL unrolls the cascade as one tiny
  CTE per step (rows freeze once ``m <= T``), then reads the surviving
  positions straight out of the ordered group.

Both oracles mirror the engine branch-for-branch (single-centroid case,
below-first / above-last tail interpolation, searchsorted sides, clips), so
the driver's dtype-sensitive value hash matches bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from ..core.hashing import splitmix64
from .specs import quantile_name

__all__ = ["tdigest_group_quantiles_sql", "kll_group_quantiles_sql"]


def _params_cte(quantiles) -> str:
    rows = ", ".join(f"({i + 1}, {q!r})" for i, q in enumerate(quantiles))
    return f"(SELECT * FROM (VALUES {rows}) p(qi, q))"


def _pivot_cols(quantiles) -> str:
    return ",\n       ".join(
        f"max(CASE WHEN qi = {i + 1} THEN v END) AS {quantile_name(q)}"
        for i, q in enumerate(quantiles)
    )


def tdigest_group_quantiles_sql(
    *,
    table: str,
    key: str,
    value: str,
    compression: float = 200.0,
    quantiles=(0.5, 0.9, 0.99),
) -> str:
    """(key, count, min, max, p..) mirroring TDigestSpec through
    canonical_sketch_pipeline(buckets=1) bit-for-bit."""
    d4 = repr(float(compression) / 4.0)
    # All CTE names carry a td_ prefix so they can never shadow the base
    # table (a CTE named like {table} would make the first SELECT circular).
    return f"""
WITH td_v AS (
  SELECT {key} AS g, {value}::DOUBLE AS x FROM {table} WHERE {value} IS NOT NULL
),
td_n AS (SELECT g, count(*)::DOUBLE AS n, min(x) AS mn, max(x) AS mx FROM td_v GROUP BY g),
td_ord AS (SELECT g, x, row_number() OVER (PARTITION BY g ORDER BY x) AS i FROM td_v),
td_cellq AS (
  SELECT o.g, o.x, ((o.i::DOUBLE - 0.5) / n.n) AS qq FROM td_ord o JOIN td_n n USING (g)
),
td_cells AS (
  SELECT g, x,
         CASE WHEN qq < 0.5 THEN floor({d4} * (sqrt(2.0 * qq) - 1.0))
              ELSE floor({d4} * (1.0 - sqrt(2.0 * (1.0 - qq)))) END AS cell
  FROM td_cellq
),
td_cent AS (
  -- exact for integer-valued x: sum < 2^53 regardless of add order
  SELECT g, cell, sum(x) / count(*)::DOUBLE AS mean, count(*)::DOUBLE AS w
  FROM td_cells GROUP BY g, cell
),
td_cmid AS (
  SELECT g, mean, w,
         sum(w) OVER (PARTITION BY g ORDER BY cell) - w / 2.0 AS cum,
         row_number() OVER (PARTITION BY g ORDER BY cell) AS ci,
         count(*) OVER (PARTITION BY g) AS ncent
  FROM td_cent
),
td_t AS (
  SELECT n.g, p.qi, p.q * n.n AS target, n.n, n.mn, n.mx
  FROM td_n n CROSS JOIN {_params_cte(quantiles)} p
),
td_pos AS (
  SELECT t.g, t.qi, t.target, t.n, t.mn, t.mx,
         max(c.ncent) AS ncent,
         count(*) FILTER (WHERE c.cum <= t.target) AS idx,  -- searchsorted right
         min(c.cum) AS cum0, max(c.cum) AS cuml,
         max(CASE WHEN c.ci = 1 THEN c.mean END) AS mean0,
         max(CASE WHEN c.ci = c.ncent THEN c.mean END) AS meanl
  FROM td_t t JOIN td_cmid c ON c.g = t.g
  GROUP BY t.g, t.qi, t.target, t.n, t.mn, t.mx
),
td_est AS (
  SELECT p.*, a.mean AS m0, a.cum AS c0, b.mean AS m1, b.cum AS c1
  FROM td_pos p
  LEFT JOIN td_cmid a ON a.g = p.g AND a.ci = p.idx
  LEFT JOIN td_cmid b ON b.g = p.g AND b.ci = p.idx + 1
),
td_val AS (
  SELECT g, qi,
    CASE
      WHEN ncent = 1 THEN mean0
      WHEN target <= cum0 THEN
        CASE WHEN cum0 > 0 THEN
          mn + (mean0 - mn) * greatest(target, 0.0) / greatest(cum0, 1e-300)
        ELSE mn END
      WHEN target >= cuml THEN
        meanl + (mx - meanl) * CASE WHEN (n - cuml) > 0
                                    THEN least((target - cuml) / (n - cuml), 1.0)
                                    ELSE 1.0 END
      ELSE m0 + (m1 - m0) * ((target - c0) / (c1 - c0))
    END AS v,
    n, mn, mx
  FROM td_est
)
SELECT g AS {key},
       any_value(n) AS "count",
       any_value(mn) AS "min",
       any_value(mx) AS "max",
       {_pivot_cols(quantiles)}
FROM td_val GROUP BY g
"""


def _kll_schedule(k: int, max_steps: int = 48):
    """Per-step (o_j, T_{j+1}) constants of the single-insert cascade.

    o_j = counter-coin j+1 (core/kll.py::_coin); T_j = total capacity of a
    (j+1)-level hierarchy (sum of per-depth caps) - the while-gate the
    cascade stops at.  Both are data-independent constants.
    """
    coins = [
        int(splitmix64(np.array([j + 1], dtype=np.uint64))[0]) & 1
        for j in range(max_steps)
    ]

    def total_cap(levels: int) -> int:
        return sum(
            max(2, int(np.ceil(k * (2.0 / 3.0) ** d))) for d in range(levels)
        )

    return coins, [total_cap(j + 1) for j in range(max_steps + 1)]


def kll_group_quantiles_sql(
    *,
    table: str,
    key: str,
    value: str,
    k: int = 200,
    quantiles=(0.5, 0.9, 0.99),
    max_steps: int = 48,
) -> str:
    """(key, count, min, max, p..) mirroring KLLSpec through
    canonical_sketch_pipeline(buckets=1) bit-for-bit (closed-form cascade)."""
    coins, caps = _kll_schedule(k, max_steps)
    steps = []
    prev = "kll_f0"
    for j in range(max_steps):
        o, t_next, pw = coins[j], caps[j + 1], 2**j
        steps.append(
            f"kll_f{j + 1} AS (SELECT g, "
            f"CASE WHEN done THEN m ELSE (m - {o} + 1) // 2 END AS m, "
            f"CASE WHEN done THEN s ELSE s + {o * pw} END AS s, "
            f"CASE WHEN done THEN c ELSE c + 1 END AS c, "
            f"done OR (CASE WHEN done THEN m ELSE (m - {o} + 1) // 2 END) <= {t_next} AS done "
            f"FROM {prev})"
        )
        prev = f"kll_f{j + 1}"
    chain = ",\n".join(steps)
    # kll_ CTE prefix: see tdigest_group_quantiles_sql (no base-table shadow).
    return f"""
WITH kll_v AS (
  SELECT {key} AS g, {value}::DOUBLE AS x FROM {table} WHERE {value} IS NOT NULL
),
kll_n AS (SELECT g, count(*) AS n, min(x) AS mn, max(x) AS mx FROM kll_v GROUP BY g),
kll_f0 AS (SELECT g, n AS m, 0::BIGINT AS s, 0 AS c, n <= {caps[0]} AS done FROM kll_n),
{chain},
kll_fin AS (SELECT g, m, s, c FROM {prev}),
kll_ord AS (SELECT g, x, row_number() OVER (PARTITION BY g ORDER BY x) AS i FROM kll_v),
kll_t AS (
  SELECT n.g, p.qi, p.q, n.n, n.mn, n.mx, f.m, f.s, f.c,
         power(2.0, f.c) AS w
  FROM kll_n n JOIN kll_fin f USING (g) CROSS JOIN {_params_cte(quantiles)} p
),
-- searchsorted LEFT over cum_i = w*(i+0.5), i in [0, m): count cum < target
kll_idx AS (
  SELECT t.g, t.qi,
         least(greatest(count(*) FILTER (WHERE t.w * (ii.i + 0.5) < t.q * (t.w * t.m)),
                        0), t.m - 1) AS i
  FROM kll_t t, LATERAL (SELECT unnest(range(0, t.m)) AS i) ii
  GROUP BY t.g, t.qi, t.m
),
kll_val AS (
  SELECT t.g, t.qi, o.x AS v, t.n, t.mn, t.mx
  FROM kll_t t
  JOIN kll_idx USING (g, qi)
  JOIN kll_ord o ON o.g = t.g AND o.i = t.s + kll_idx.i * (1::BIGINT << t.c) + 1
)
SELECT g AS {key},
       any_value(n)::DOUBLE AS "count",
       any_value(mn) AS "min",
       any_value(mx) AS "max",
       {_pivot_cols(quantiles)}
FROM kll_val GROUP BY g
"""
