"""Sufficient-statistics aggregate: exact moments + Pearson correlation.

The oldest mergeable sketch there is: per group, the six sums
(n, Σx, Σy, Σxy, Σx², Σy²) determine mean/variance/covariance/correlation,
and they merge by ADDITION.  For INTEGER-valued inputs the partial sums are
exact in any accumulation order (the same contract as the DDSketch integer
``sum``), so the whole aggregate — including the final Pearson r — is
deterministic and bit-exact against SQL.

Scale shape: per-block vectorized pre-aggregation (one lexsort + reduceat
per block emits one 6-counter row per group-in-block), a tiny keyed shuffle
of those rows, and a per-partition finalize that accumulates in PYTHON ints
(no int64 overflow at any corpus size: Σx² at 100 TB exceeds 2^63) before
the one float conversion per group.  The per-BLOCK partials are int64, so
the pre-aggregation gates on max|x|·max|y|·block_rows < 2^63 and raises
rather than wrapping — supported value range ~|x| < 7.5e8 at the default
8k batch (rescale or shrink batches beyond that).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..core.numeric import run_starts
from .fold import keyed_exchange, partitioned_group_agg

__all__ = [
    "grouped_corr_pipeline",
    "grouped_zscore_pipeline",
    "chi2_contingency_pipeline",
    "grouped_gini_pipeline",
    "grouped_moments_pipeline",
    "mannwhitney_u_pipeline",
    "ks_exact_pipeline",
    "spearman_rho_pipeline",
    "welch_t_pipeline",
    "anova_f_pipeline",
    "grouped_ks_exact_pipeline",
]


def grouped_corr_pipeline(
    ds,
    *,
    group_col: str,
    x_col: str,
    y_col: str,
    derive=None,
):
    """-> Dataset[(group_col, n, r, slope, intercept)] - count, Pearson
    correlation and the OLS fit y ~ slope*x + intercept of two INTEGER-valued
    columns per group (r/slope = 0.0 when the relevant variance is 0).
    Every float is derived from the exact integer sums in a fixed operation
    order, so all columns are bit-exact vs SQL."""

    def preagg(t: pa.Table) -> pa.Table:
        if derive is not None:
            t = derive(t)
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.int64)
        # Exactness gate (ADVICE r2): the per-element products and reduceat
        # block partials below are int64 and would WRAP silently past 2^63;
        # only the finalize stage accumulates in Python ints.  Bound both
        # with max|x|*max|y|*rows evaluated in Python ints (can't overflow)
        # and fail loudly instead of corrupting the statistics.
        if x.size:
            mx = max(int(x.max()), -int(x.min()))
            my = max(int(y.max()), -int(y.min()))
            if max(mx * my, mx * mx, my * my) * x.size >= 2**63:
                raise ValueError(
                    "grouped_corr_pipeline: inputs exceed the exact-int64 "
                    f"block pre-aggregation range (max|x|={mx}, max|y|={my}, "
                    f"block rows={x.size}); rescale the inputs or shrink the "
                    "batch size"
                )
        order = np.argsort(g, kind="stable")
        g_s, x_s, y_s = g[order], x[order], y[order]
        new = run_starts(g_s)
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, g_s.size))
        return pa.table(
            {
                group_col: pa.array(g_s[starts].tolist()),
                "n": pa.array(lens.astype(np.int64)),
                "sx": pa.array(np.add.reduceat(x_s, starts) if starts.size else np.zeros(0, np.int64)),
                "sy": pa.array(np.add.reduceat(y_s, starts) if starts.size else np.zeros(0, np.int64)),
                "sxy": pa.array(np.add.reduceat(x_s * y_s, starts) if starts.size else np.zeros(0, np.int64)),
                "sxx": pa.array(np.add.reduceat(x_s * x_s, starts) if starts.size else np.zeros(0, np.int64)),
                "syy": pa.array(np.add.reduceat(y_s * y_s, starts) if starts.size else np.zeros(0, np.int64)),
            }
        )

    def finalize(pt: pa.Table) -> pa.Table:
        groups: dict = {}
        for row in pt.to_pylist():  # tiny: one row per (block, group)
            acc = groups.setdefault(row[group_col], [0, 0, 0, 0, 0, 0])
            for i, c in enumerate(("n", "sx", "sy", "sxy", "sxx", "syy")):
                acc[i] += int(row[c])  # python ints: exact at any scale
        gs, ns, rs, slopes, icpts = [], [], [], [], []
        for g in sorted(groups):
            n, sx, sy, sxy, sxx, syy = groups[g]
            num = n * sxy - sx * sy
            d1 = n * sxx - sx * sx
            d2 = n * syy - sy * sy
            r = (
                float(num) / (math.sqrt(float(d1)) * math.sqrt(float(d2)))
                if d1 > 0 and d2 > 0
                else 0.0
            )
            slope = float(num) / float(d1) if d1 > 0 else 0.0
            # fixed op order, mirrored in SQL: (sy - slope*sx) / n
            icpt = (float(sy) - slope * float(sx)) / float(n) if n else 0.0
            gs.append(g)
            ns.append(float(n))
            rs.append(r)
            slopes.append(slope)
            icpts.append(icpt)
        return pa.table(
            {
                group_col: pa.array(gs),
                "n": pa.array(ns, pa.float64()),
                "r": pa.array(rs, pa.float64()),
                "slope": pa.array(slopes, pa.float64()),
                "intercept": pa.array(icpts, pa.float64()),
            }
        )

    partials = ds.map_batches(preagg, batch_format="pyarrow", zero_copy_batch=True)
    return keyed_exchange(partials, finalize, keys=group_col)


def grouped_zscore_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    carry_cols=(),
):
    """Per-group z-score normalization of an INTEGER-valued column, emitted
    as exact milli-units: ``z_e3 = round_half_away(1000 * (n·x − S) /
    sqrt(n·Q − S²))`` with per-group exact integer sums S = Σx, Q = Σx²
    (the feature-standardization staple).

    Two streaming passes: (1) per-block vectorized (group, n, S, Q)
    partials decomposed into 16-bit limb LANES and folded through the
    bounded keyed tree reduce (fold.py) — the driver pulls exactly G rows,
    never G × blocks (at 10⁶ blocks the old driver fold was millions of
    tiny rows through single-threaded Python), and the limb lanes keep
    every lane an ordinary int64 sum that is exact up to 2^47 partial rows
    per group; (2) a stateless per-row map with the tiny stats table
    captured in the closure.  Only the G-row partial table shuffles.

    Exactness: the identity (x − S/n)/σ = (n·x − S)/sqrt(n·Q − S²) uses one
    integer numerator and one integer radicand, each converted to float64
    ONCE, so the divide/sqrt/round chain is bit-identical to the SQL mirror.
    Gates (raise, never wrap/round silently): per-block int64 pre-agg needs
    max(x)²·block_rows < 2^63; the float conversions need |n·x − S| and
    n·Q − S² below 2^53.  Groups with n < 2 or zero variance emit NULL.
    """
    carry_cols = list(carry_cols)

    def preagg(t: pa.Table) -> pa.Table:
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        x = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if x.size:
            mx = max(int(x.max()), -int(x.min()), 1)
            if mx * mx * x.size >= 2**63:
                raise OverflowError(
                    f"zscore preagg would overflow int64: max|x|={mx}, rows={x.size}"
                )
        order = np.argsort(g, kind="stable")
        g_s, x_s = g[order], x[order]
        first = run_starts(g_s)
        starts = np.flatnonzero(first)
        empty = np.array([], np.int64)
        s = np.add.reduceat(x_s, starts) if x_s.size else empty
        q = np.add.reduceat(x_s * x_s, starts) if x_s.size else empty
        # limb-lane decomposition: the CROSS-block re-sum of these int64
        # partials can wrap even when every block passes its own gate, so
        # split each partial into 16-bit lanes that fold exactly through
        # the bounded keyed tree reduce (the grouped_moments convention).
        sp = np.maximum(s, 0).astype(np.uint64)
        sn = np.maximum(-s, 0).astype(np.uint64)
        qu = q.astype(np.uint64)  # q >= 0 and < 2^63 by the block gate
        cols = {
            group_col: pa.array(g_s[starts]),
            "n": pa.array(np.diff(np.append(starts, x_s.size)).astype(np.int64)),
        }
        for nm, arr in (("sp", sp), ("sn", sn), ("q", qu)):
            for k in range(4):
                cols[f"{nm}_{k}"] = pa.array(
                    ((arr >> np.uint64(16 * k)) & _L16).astype(np.int64)
                )
        return pa.table(cols)

    from .fold import partitioned_group_sum

    limb_cols = [f"{nm}_{k}" for nm in ("sp", "sn", "q") for k in range(4)]
    # tree fold: the driver pulls exactly G rows (one per group), never
    # G × blocks partial rows
    summed = partitioned_group_sum(
        ds.map_batches(preagg, batch_format="pyarrow", zero_copy_batch=True),
        group_col,
        ["n"] + limb_cols,
    ).take_all()
    stats: dict = {}
    for r in summed:
        s = _limbs_to_int(r, "sp", 4) - _limbs_to_int(r, "sn", 4)
        stats[r[group_col]] = (int(r["sum(n)"]), s, _limbs_to_int(r, "q", 4))
    for gname, (n, s, q) in stats.items():
        rad = n * q - s * s
        if rad >= 2**53 or n * max(abs(s), 1) >= 2**62:
            raise OverflowError(f"zscore stats for group {gname!r} exceed float64 exactness")

    den = {g: (math.sqrt(float(n * q - s * s)) if n >= 2 and n * q - s * s > 0 else 0.0)
           for g, (n, s, q) in stats.items()}
    ns = {g: n for g, (n, s, q) in stats.items()}
    ss = {g: s for g, (n, s, q) in stats.items()}

    from ..core.numeric import round_half_away

    def zmap(t: pa.Table) -> pa.Table:
        col = t.column(group_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        de = col.dictionary_encode()
        dvals = de.dictionary.to_pylist()
        idx = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n_arr = np.array([ns.get(v, 0) for v in dvals], dtype=np.int64)[idx]
        s_arr = np.array([ss.get(v, 0) for v in dvals], dtype=np.int64)[idx]
        d_arr = np.array([den.get(v, 0.0) for v in dvals], dtype=np.float64)[idx]
        x = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        ok = d_arr > 0.0
        num = (n_arr * x - s_arr).astype(np.float64)
        z = np.divide(num, d_arr, out=np.zeros_like(num), where=ok)
        ze3 = round_half_away(1000.0 * z).astype(np.int64)
        out = {c: t.column(c) for c in carry_cols}
        out[group_col] = t.column(group_col)
        out[value_col] = t.column(value_col)
        out["z_e3"] = pa.array(ze3, pa.int64(), mask=~ok)
        return pa.table(out)

    return ds.map_batches(zmap, batch_format="pyarrow", zero_copy_batch=True)


def chi2_contingency_pipeline(ds, *, a_col: str, b_col: str):
    """Pearson chi-square independence cells over two categorical columns.

    The corpus-composition drift test ("is source mix independent of
    language?"): one row per OBSERVED (a, b) cell with its count ``obs``,
    row/column totals ``rt``/``ct``, grand total ``n`` and the cell's
    chi-square contribution.  ``chi2_cell = (obs - E)^2 / E`` with
    ``E = rt*ct/n`` is evaluated in the overflow-free rational form
    ``(obs*n - rt*ct)^2 / (rt*ct*n)`` — exact Python-int numerator and
    denominator, ONE correctly-rounded double conversion each and ONE float
    divide, in the same op order as the SQL mirror (which needs HUGEINT:
    the numerator exceeds int64 beyond ~1e5 rows; int128 carries it to
    ~1e9 rows, past which the SQL mirror — not the engine — saturates).

    Scale shape: one keyed (a, b) count (per-block Arrow pre-agg, a tiny
    keyed shuffle of those partials) and a driver-side finalize over the
    G-cell table (KB-sized — cells are category pairs, never data rows),
    in (a, b) order.
    """
    cells = sorted(
        partitioned_group_agg(ds, [a_col, b_col], [(None, "count")]).take_all(),
        key=lambda r: (r[a_col] is None, r[a_col], r[b_col] is None, r[b_col]),
    )  # one row per observed (a, b) category pair — KB-sized, not data rows

    a_vals = [r[a_col] for r in cells]
    b_vals = [r[b_col] for r in cells]
    obs = [int(r["count()"]) for r in cells]
    n = sum(obs)
    rt_map: dict = {}
    ct_map: dict = {}
    for a, b, o in zip(a_vals, b_vals, obs):
        rt_map[a] = rt_map.get(a, 0) + o
        ct_map[b] = ct_map.get(b, 0) + o

    chi2 = []
    rts, cts = [], []
    for a, b, o in zip(a_vals, b_vals, obs):
        rt, ct = rt_map[a], ct_map[b]
        rts.append(rt)
        cts.append(ct)
        num = (o * n - rt * ct) ** 2  # exact Python ints, any corpus size
        den = rt * ct * n
        chi2.append(float(num) / float(den))

    return pa.table(
        {
            a_col: pa.array(a_vals),
            b_col: pa.array(b_vals),
            "obs": pa.array(obs, pa.int64()),
            "rt": pa.array(rts, pa.int64()),
            "ct": pa.array(cts, pa.int64()),
            "n": pa.array([n] * len(obs), pa.int64()),
            "chi2_cell": pa.array(chi2, pa.float64()),
        }
    )


def grouped_gini_pipeline(ds, *, group_col: str, value_col: str):
    """Per-group Gini DIVERSITY of a categorical column:
    ``gini = 1 - sum_v (c_v / n)^2 = (n^2 - sum c_v^2) / n^2``.

    The exact-rational surrogate for entropy ("how varied is each user's
    event mix / each language's source mix"): unlike Shannon entropy, whose
    sum-of-c*ln(c) is float-accumulation-order-dependent, the Gini
    numerator and denominator are exact integers, so the score is ONE
    correctly-rounded division — bit-exact against SQL at any layout.

    Plan: per-block Arrow group_by pre-agg -> (group, value, count)
    partial shuffle -> per-(group, value) exact counts -> a second tiny
    keyed sum of (c^2, c) per group -> vectorized finalize.  Both shuffles
    carry counts, never rows.  int64 gates: c^2 needs group-category
    counts < 3e9; raises rather than wrapping.
    """
    import pyarrow.compute as pc

    def preagg(t: pa.Table) -> pa.Table:
        g = t.group_by([group_col, value_col]).aggregate([([], "count_all")])
        return g.rename_columns([group_col, value_col, "c"])

    # the (group, value) and group domains scale with the group key (e.g.
    # users) -> bounded-partition folds (pipelines/fold.py)
    from ddsketch_ruby_ray.pipelines.fold import partitioned_group_sum

    counted = partitioned_group_sum(
        ds.map_batches(preagg, batch_format="pyarrow", zero_copy_batch=True),
        [group_col, value_col],
        "c",
    )

    def square(t: pa.Table) -> pa.Table:
        c = t.column("sum(c)").to_numpy(zero_copy_only=False).astype(np.int64)
        if c.size and int(c.max()) >= 3_000_000_000:
            raise OverflowError("gini preagg: per-category count >= 3e9 would overflow c^2")
        return pa.table(
            {
                group_col: t.column(group_col),
                "sq": pa.array(c * c),
                "c": pa.array(c),
            }
        )

    summed = partitioned_group_sum(
        counted.map_batches(square, batch_format="pyarrow", zero_copy_batch=True),
        group_col,
        ["sq", "c"],
    )

    def finalize(t: pa.Table) -> pa.Table:
        s2 = t.column("sum(sq)").to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.column("sum(c)").to_numpy(zero_copy_only=False).astype(np.int64)
        if n.size and int(n.max()) >= 3_000_000_000:
            raise OverflowError("gini finalize: group size >= 3e9 would overflow n^2")
        nn = n * n
        return pa.table(
            {
                group_col: t.column(group_col),
                "n": pa.array(n),
                "sum_sq": pa.array(s2),
                "gini": pa.array(
                    (nn - s2).astype(np.float64) / nn.astype(np.float64), pa.float64()
                ),
            }
        )

    return summed.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Higher moments: skewness / kurtosis from EXACT power sums at any magnitude
# ---------------------------------------------------------------------------

_L16 = np.uint64(0xFFFF)
_M32 = np.uint64(0xFFFFFFFF)


def _umul128(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized full 64×64→128-bit product of two uint64 arrays as
    (hi, lo) uint64 pairs — the schoolbook 32-bit-limb decomposition; every
    intermediate fits uint64 (each partial product < 2^64, the mid carry
    accumulator < 2^34)."""
    a0, a1 = a & _M32, a >> np.uint64(32)
    b0, b1 = b & _M32, b >> np.uint64(32)
    p00 = a0 * b0
    p01 = a0 * b1
    p10 = a1 * b0
    p11 = a1 * b1
    mid = (p00 >> np.uint64(32)) + (p01 & _M32) + (p10 & _M32)
    lo = (p00 & _M32) | ((mid & _M32) << np.uint64(32))
    hi = p11 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))
    return hi, lo


def _limb_cols(name: str, hi: np.ndarray, lo: np.ndarray, starts: np.ndarray, n_limbs: int) -> dict[str, np.ndarray]:
    """Per-segment sums of the 16-bit limbs of a (hi, lo) uint128 column.

    This is the exact-at-any-scale big-int sum: each element's 128-bit
    value splits into 16-bit limbs, each limb lane reduces as ordinary
    int64 (a lane's segment sum is < rows·2^16, and downstream re-sums of
    k lane partials stay < total_rows·2^16 — exact int64 for corpora up to
    2^47 rows per group), and the finalize reassembles Σ limb_k·2^(16k)
    in Python ints.  No floats anywhere, so no error budget to defend."""
    out: dict[str, np.ndarray] = {}
    for k in range(n_limbs):
        limb = (
            (lo >> np.uint64(16 * k)) & _L16
            if k < 4
            else (hi >> np.uint64(16 * (k - 4))) & _L16
        )
        out[f"{name}_{k}"] = (
            np.add.reduceat(limb.astype(np.int64), starts)
            if starts.size
            else np.zeros(0, np.int64)
        )
    return out


# limb counts: |x| < 2^31 (2), x² < 2^62 (4), |x|³ < 2^93 (6), x⁴ < 2^124 (8)
_POWER_LIMBS = (
    ("s1p", 2),
    ("s1n", 2),
    ("s2", 4),
    ("s3p", 6),
    ("s3n", 6),
    ("s4", 8),
)
_MOMENT_COLS = [f"{nm}_{k}" for nm, nl in _POWER_LIMBS for k in range(nl)]


def _power_limb_sums(x: np.ndarray, starts: np.ndarray) -> dict[str, np.ndarray]:
    """Per-segment exact power sums Σx², Σ|x|³ (positive/negative split),
    Σx⁴ as 16-bit limb lanes (see _limb_cols).  Gates |x| < 2^31 loudly —
    larger values must be rescaled (ids/metrics past 2e9 overflow the
    uint64 x² intermediate)."""
    ax = np.abs(x)
    if ax.size and int(ax.max()) >= 1 << 31:
        raise ValueError(
            "grouped_moments_pipeline: |x| >= 2^31 overflows the x² "
            f"intermediate (max|x|={int(ax.max())}); rescale the values"
        )
    xu = ax.astype(np.uint64)
    y2 = xu * xu  # < 2^62: exact uint64
    h3, l3 = _umul128(y2, xu)
    h4, l4 = _umul128(y2, y2)
    neg = (x < 0).astype(np.uint64)
    pos = np.uint64(1) - neg
    out: dict[str, np.ndarray] = {}
    zeros = np.zeros_like(y2)
    out.update(_limb_cols("s1p", zeros, xu * pos, starts, 2))
    out.update(_limb_cols("s1n", zeros, xu * neg, starts, 2))
    out.update(_limb_cols("s2", zeros, y2, starts, 4))
    out.update(_limb_cols("s3p", h3 * pos, l3 * pos, starts, 6))
    out.update(_limb_cols("s3n", h3 * neg, l3 * neg, starts, 6))
    out.update(_limb_cols("s4", h4, l4, starts, 8))
    return out


def _limbs_to_int(r: dict, name: str, n_limbs: int) -> int:
    return sum(int(r[f"sum({name}_{k})"]) << (16 * k) for k in range(n_limbs))


def grouped_moments_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    derive=None,
):
    """-> Dataset[(group, n, mean, var_pop, skewness, kurtosis)] — exact
    population moments of an INTEGER column per group: the power sums
    S1..S4 are EXACT integers at ANY corpus size (the per-element 128-bit
    powers are decomposed into 16-bit limb LANES — vectorized umul128 —
    each lane an ordinary int64 sum that merges by pure addition in any
    order and stays exact up to 2^47 rows per group), the central-moment
    numerators are evaluated in Python ints, and each output float is a
    fixed-op-order expression mirrored verbatim in SQL — bit-exact, no
    ULP drift, no float intermediaries anywhere before the finalize.

    ``skewness`` is the population g1 = m3 / (m2·sqrt(m2)); ``kurtosis``
    the population EXCESS g2 = m4 / m2² − 3 (both 0.0 for constant
    groups).  Gates loudly on |x| ≥ 2^31.  Scale shape: one
    lexsort+reduceat per block emits one 30-counter row per
    group-in-block; one tiny keyed shuffle; Python-int finalize per group
    (groups assumed small — the lang/source axis)."""

    def preagg(t: pa.Table) -> pa.Table:
        if derive is not None:
            t = derive(t)
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        x = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(g, kind="stable")
        g_s, x_s = g[order], x[order]
        new = run_starts(g_s)
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, g_s.size))
        cols = {
            group_col: pa.array(g_s[starts].tolist()),
            "n": pa.array(lens.astype(np.int64)),
        }
        for k, v in _power_limb_sums(x_s, starts).items():
            cols[k] = pa.array(v)
        return pa.table(cols)

    from .fold import partitioned_group_sum

    parts = ds.map_batches(preagg, batch_format="pyarrow", zero_copy_batch=True)
    summed = partitioned_group_sum(
        parts,
        group_col,
        ["n"] + _MOMENT_COLS,
    )

    def finalize(t: pa.Table) -> pa.Table:
        rows = t.to_pylist()  # one tiny row per group
        gs, ns, means, vars_, skews, kurts = [], [], [], [], [], []
        for r in rows:
            n = int(r["sum(n)"])
            s1 = _limbs_to_int(r, "s1p", 2) - _limbs_to_int(r, "s1n", 2)
            s2 = _limbs_to_int(r, "s2", 4)
            s3 = _limbs_to_int(r, "s3p", 6) - _limbs_to_int(r, "s3n", 6)
            s4 = _limbs_to_int(r, "s4", 8)
            m2n = n * s2 - s1 * s1
            m3n = n * n * s3 - 3 * n * s1 * s2 + 2 * s1**3
            m4n = n**3 * s4 - 4 * n * n * s1 * s3 + 6 * n * s1 * s1 * s2 - 3 * s1**4
            # fixed float op order, mirrored in the SQL oracle verbatim
            mean = float(s1) / float(n)
            m2 = float(m2n) / float(n * n)
            if m2n > 0:
                m3 = float(m3n) / float(n**3)
                m4 = float(m4n) / float(n**4)
                skew = m3 / (m2 * math.sqrt(m2))
                kurt = m4 / (m2 * m2) - 3.0
            else:
                skew = 0.0
                kurt = 0.0
            gs.append(r[group_col])
            ns.append(float(n))
            means.append(mean)
            vars_.append(m2)
            skews.append(skew)
            kurts.append(kurt)
        return pa.table(
            {
                group_col: pa.array(gs),
                "n": pa.array(ns, pa.float64()),
                "mean": pa.array(means, pa.float64()),
                "var_pop": pa.array(vars_, pa.float64()),
                "skewness": pa.array(skews, pa.float64()),
                "kurtosis": pa.array(kurts, pa.float64()),
            }
        )

    return summed.map_batches(finalize, batch_format="pyarrow")


def mannwhitney_u_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    group_a,
    group_b,
):
    """-> 1-row Dataset[(n1, n2, u1_x2, z_stat)] — Mann–Whitney U between
    two groups of an INTEGER column, tie-aware (midranks), normal
    approximation with tie-corrected variance, no continuity correction.

    Exactness: midrank algebra is done over per-VALUE counts — for value v
    with c1 rows in A and c total rows, the A-rank contribution is
    c1·(2·cum_below + c + 1) in doubled units, an exact integer — so
    ``u1_x2 = 2·U1`` is an exact int64 and ``z_stat`` is a fixed-op-order
    float expression mirrored in SQL.

    Scale shape: per-block Arrow group_by (value → c1, c) pre-agg, one
    keyed fold over the distinct-value domain, then ONE final task sorts
    the distinct values and runs the vectorized prefix scan.  Assumes the
    distinct-VALUE table fits a single task (doc-length-like metrics:
    ≤ a few M distinct values — raises loudly past 50M)."""
    import pyarrow.compute as pc

    def preagg(t: pa.Table) -> pa.Table:
        g = t.column(group_col)
        in_a = pc.equal(g, group_a)
        in_b = pc.equal(g, group_b)
        keep = pc.or_(in_a, in_b)
        sub = pa.table(
            {
                "_v": t.column(value_col).cast(pa.int64()),
                "_c1": pc.cast(in_a, pa.int64()),
            }
        ).filter(keep)
        agg = sub.group_by(["_v"]).aggregate([("_c1", "sum"), ([], "count_all")])
        return agg.rename_columns(["_v", "c1", "c"])

    from .fold import partitioned_group_sum

    counted = partitioned_group_sum(
        ds.map_batches(preagg, batch_format="pyarrow", zero_copy_batch=True),
        "_v",
        ["c1", "c"],
    )

    def finalize(t: pa.Table) -> pa.Table:
        if t.num_rows > 50_000_000:
            raise ValueError(
                "mannwhitney_u_pipeline: distinct-value domain exceeds the "
                "single-task finalize budget"
            )
        v = t.column("_v").to_numpy(zero_copy_only=False)
        c1 = t.column("sum(c1)").to_numpy(zero_copy_only=False).astype(np.int64)
        c = t.column("sum(c)").to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(v, kind="stable")
        c1, c = c1[o], c[o]
        n = int(c.sum())
        n1 = int(c1.sum())
        n2 = n - n1
        if n >= 2_000_000_000:
            raise OverflowError("mannwhitney_u_pipeline: n >= 2e9 would overflow rank algebra")
        cb = np.concatenate([[0], np.cumsum(c)[:-1]])  # rows strictly below v
        r1_x2 = int((c1 * (2 * cb + c + 1)).sum())  # 2·Σ midranks of A
        # tie cubes: c³ (and the Σ over values) wraps int64 once ties get
        # heavy — the n < 2e9 gate does NOT bound per-value ties.  The
        # whole sum is provably int64-safe iff max(c)²·n < 2^63 (since
        # Σc³ ≤ max(c)²·Σc); otherwise fall back to exact python ints.
        if c.size == 0:
            t_ties = 0
        elif int(c.max()) ** 2 * n < 2**63:
            t_ties = int((c**3 - c).sum())
        else:
            t_ties = sum(int(x) ** 3 - int(x) for x in c.tolist())
        u1_x2 = r1_x2 - n1 * (n1 + 1)  # 2·U1 = 2·R1 − n1(n1+1)
        if n1 == 0 or n2 == 0 or n < 2:
            z = 0.0
        else:
            # mirrored verbatim in SQL: var in doubled-units⁴ not needed —
            # z = (U1 − n1n2/2) / sqrt(var), computed as
            # ((2U1 − n1n2)/2) / sqrt(n1n2/12 · ((n+1) − T/(n(n−1))))
            var = float(n1 * n2) / 12.0 * (
                float(n + 1) - float(t_ties) / float(n * (n - 1))
            )
            z = (
                float(u1_x2 - n1 * n2) / 2.0 / math.sqrt(var)
                if var > 0
                else 0.0
            )
        return pa.table(
            {
                "n1": pa.array([n1], pa.int64()),
                "n2": pa.array([n2], pa.int64()),
                "u1_x2": pa.array([u1_x2], pa.int64()),
                "z_stat": pa.array([z], pa.float64()),
            }
        )

    return counted.repartition(1).map_batches(
        finalize, batch_format="pyarrow", batch_size=None
    )


def ks_exact_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    group_a,
    group_b,
):
    """-> 1-row Dataset[(n1, n2, d_num, d_stat)] — the EXACT two-sample
    Kolmogorov–Smirnov statistic between two groups of an INTEGER column
    (the exact companion to the sketch-histogram KS in pipelines/drift.py).

    D = max_v |F1(v) − F2(v)| is evaluated as the integer
    ``d_num = max |cum1·n2 − cum2·n1|`` over the distinct-value domain, so
    the statistic is one exact-int max and ONE float division — bit-exact
    vs SQL.  Same scale shape as :func:`mannwhitney_u_pipeline`: per-block
    Arrow count pre-agg, one keyed fold over the distinct-value domain,
    single-task sorted prefix scan (gated loudly).  Gates n1, n2 < 3e9
    (the cross products must stay in int64)."""
    import pyarrow.compute as pc

    def preagg(t: pa.Table) -> pa.Table:
        g = t.column(group_col)
        in_a = pc.equal(g, group_a)
        keep = pc.or_(in_a, pc.equal(g, group_b))
        sub = pa.table(
            {
                "_v": t.column(value_col).cast(pa.int64()),
                "_c1": pc.cast(in_a, pa.int64()),
            }
        ).filter(keep)
        agg = sub.group_by(["_v"]).aggregate([("_c1", "sum"), ([], "count_all")])
        return agg.rename_columns(["_v", "c1", "c"])

    from .fold import partitioned_group_sum

    counted = partitioned_group_sum(
        ds.map_batches(preagg, batch_format="pyarrow", zero_copy_batch=True),
        "_v",
        ["c1", "c"],
    )

    def finalize(t: pa.Table) -> pa.Table:
        if t.num_rows > 50_000_000:
            raise ValueError(
                "ks_exact_pipeline: distinct-value domain exceeds the "
                "single-task finalize budget"
            )
        v = t.column("_v").to_numpy(zero_copy_only=False)
        c1 = t.column("sum(c1)").to_numpy(zero_copy_only=False).astype(np.int64)
        c = t.column("sum(c)").to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(v, kind="stable")
        c1, c = c1[o], c[o]
        c2 = c - c1
        n1, n2 = int(c1.sum()), int(c2.sum())
        if max(n1, n2) >= 3_000_000_000:
            raise OverflowError("ks_exact_pipeline: n >= 3e9 would overflow cum·n")
        cum1 = np.cumsum(c1)
        cum2 = np.cumsum(c2)
        if n1 == 0 or n2 == 0:
            d_num, d = 0, 0.0
        else:
            d_num = int(np.abs(cum1 * n2 - cum2 * n1).max())
            d = float(d_num) / float(n1 * n2)
        return pa.table(
            {
                "n1": pa.array([n1], pa.int64()),
                "n2": pa.array([n2], pa.int64()),
                "d_num": pa.array([d_num], pa.int64()),
                "d_stat": pa.array([d], pa.float64()),
            }
        )

    return counted.repartition(1).map_batches(
        finalize, batch_format="pyarrow", batch_size=None
    )


def spearman_rho_pipeline(
    ds,
    *,
    x_col: str,
    y_col: str,
    derive=None,
    max_distinct: int = 50_000_000,
):
    """-> 1-row Dataset[(n, rho)] — EXACT Spearman rank correlation of two
    INTEGER columns, tie-aware (midranks), bit-exact vs SQL.

    Working in DOUBLED midranks keeps everything integer: for value v with
    count c and cum_below rows strictly smaller, 2·midrank = 2·cum_below +
    c + 1.  rho is scale-invariant, so Pearson over the doubled ranks is
    Spearman exactly.  The cross sum Σ(2rx)(2ry) exceeds int64 at corpus
    scale — it accumulates through the same vectorized umul128 → 16-bit
    limb lanes as :func:`grouped_moments_pipeline` (exact at any size).

    Scale shape: pass 1 folds the two per-VALUE marginal count tables in
    one exchange (domain-bounded — gated at ``max_distinct``); the driver
    turns them into two sorted (value → 2·midrank) lookup arrays (KB–MB)
    broadcast via ``ray.put``; pass 2 is map-only (two searchsorted + one
    umul128 per block) emitting one 8-limb row per block; the marginal
    squares Σ(2r)² come straight from the count tables in Python ints.
    ``derive`` runs in BOTH passes (the two-pass plan avoids
    materializing the projected rows)."""
    import ray

    def marginals(t: pa.Table) -> pa.Table:
        if derive is not None:
            t = derive(t)
        return pa.table(
            {
                "kind": pa.array(np.repeat(np.arange(2, dtype=np.int8), t.num_rows)),
                "_v": pa.chunked_array(
                    t.column(x_col).cast(pa.int64()).chunks
                    + t.column(y_col).cast(pa.int64()).chunks,
                    pa.int64(),
                ),
            }
        )

    counts = partitioned_group_agg(
        ds.map_batches(marginals, batch_format="pyarrow", zero_copy_batch=True),
        ["kind", "_v"],
        [(None, "count")],
    )
    tabs = [ray.get(r) for r in counts.to_arrow_refs()]
    tabs = [t for t in tabs if t.num_rows]
    if not tabs:
        import ray.data as rd

        return rd.from_arrow(
            pa.table({"n": pa.array([0], pa.int64()), "rho": pa.array([0.0])})
        )
    allc = pa.concat_tables(tabs)
    if allc.num_rows > max_distinct:
        raise ValueError(
            "spearman_rho_pipeline: distinct-value domain exceeds "
            f"max_distinct={max_distinct}"
        )
    kind = allc.column("kind").to_numpy(zero_copy_only=False)
    vv = allc.column("_v").to_numpy(zero_copy_only=False)
    cc = allc.column("count()").to_numpy(zero_copy_only=False).astype(np.int64)

    luts = {}
    sq = {}
    n_total = 0
    for k, name in ((0, "x"), (1, "y")):
        m = kind == k
        v_k, c_k = vv[m], cc[m]
        o = np.argsort(v_k, kind="stable")
        v_k, c_k = v_k[o], c_k[o]
        cum_below = np.concatenate([[0], np.cumsum(c_k)[:-1]])
        r2 = 2 * cum_below + c_k + 1  # doubled midranks
        n_total = int(c_k.sum())
        if n_total >= 1 << 45:
            raise OverflowError("spearman_rho_pipeline: n >= 2^45 unsupported")
        luts[name] = (v_k, r2.astype(np.uint64))
        # Σ c·(2r)² in python ints — exact at any size
        sq[name] = sum(int(c) * int(r) * int(r) for c, r in zip(c_k, r2))
    lut_ref = ray.put(luts)

    def cross(t: pa.Table) -> pa.Table:
        if derive is not None:
            t = derive(t)
        lu = ray.get(lut_ref)
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.int64)
        xv, xr = lu["x"]
        yv, yr = lu["y"]
        rx = xr[np.searchsorted(xv, x)]
        ry = yr[np.searchsorted(yv, y)]
        starts = np.array([0], dtype=np.int64) if x.size else np.zeros(0, np.int64)
        hi, lo = _umul128(rx, ry)
        cols = {"n": pa.array(np.array([x.size], dtype=np.int64) if x.size else np.zeros(0, np.int64))}
        for kk, v in _limb_cols("sxy", hi, lo, starts, 8).items():
            cols[kk] = pa.array(v)
        return pa.table(cols)

    sums = ds.map_batches(cross, batch_format="pyarrow", zero_copy_batch=True).sum(
        ["n"] + [f"sxy_{k}" for k in range(8)]
    )

    n = int(sums["sum(n)"])
    sxy = sum(int(sums[f"sum(sxy_{k})"]) << (16 * k) for k in range(8))
    sx = n * (n + 1)  # Σ doubled midranks is the exact constant n(n+1)
    sy = n * (n + 1)
    num = n * sxy - sx * sy
    d1 = n * sq["x"] - sx * sx
    d2 = n * sq["y"] - sy * sy
    rho = (
        float(num) / (math.sqrt(float(d1)) * math.sqrt(float(d2)))
        if d1 > 0 and d2 > 0
        else 0.0
    )
    import ray.data as rd

    return rd.from_arrow(
        pa.table({"n": pa.array([n], pa.int64()), "rho": pa.array([rho], pa.float64())})
    )


_NS_COLS = [f"s1p_{k}" for k in range(2)] + [f"s1n_{k}" for k in range(2)] + [
    f"s2_{k}" for k in range(4)
]


def _group_n_s1_s2(ds, *, group_col: str, value_col: str):
    """Shared exact per-group (n, Σx, Σx²) fold on 16-bit limb LANES (the
    grouped_moments device): exact at any corpus size up to 2^47 rows per
    group with no cross-block int64 wrap anywhere; gates |x| < 2^31."""

    def preagg(t: pa.Table) -> pa.Table:
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        x = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        ax = np.abs(x)
        if ax.size and int(ax.max()) >= 1 << 31:
            raise ValueError(
                "sufficient-stats preagg: |x| >= 2^31 overflows the x² "
                "intermediate; rescale the values"
            )
        order = np.argsort(g, kind="stable")
        g_s = g[order]
        x_s = x[order]
        new = run_starts(g_s)
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, g_s.size))
        xu = np.abs(x_s).astype(np.uint64)
        neg = (x_s < 0).astype(np.uint64)
        pos = np.uint64(1) - neg
        zeros = np.zeros_like(xu)
        cols = {
            group_col: pa.array(g_s[starts].tolist()),
            "n": pa.array(lens.astype(np.int64)),
        }
        for k, v in _limb_cols("s1p", zeros, xu * pos, starts, 2).items():
            cols[k] = pa.array(v)
        for k, v in _limb_cols("s1n", zeros, xu * neg, starts, 2).items():
            cols[k] = pa.array(v)
        for k, v in _limb_cols("s2", zeros, xu * xu, starts, 4).items():
            cols[k] = pa.array(v)
        return pa.table(cols)

    from .fold import partitioned_group_sum

    return partitioned_group_sum(
        ds.map_batches(preagg, batch_format="pyarrow", zero_copy_batch=True),
        group_col,
        ["n"] + _NS_COLS,
    )


def welch_t_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    group_a,
    group_b,
):
    """-> 1-row Dataset[(n1, n2, t_stat, df)] — Welch's unequal-variance
    t-test between two groups of an INTEGER column, with the
    Welch–Satterthwaite degrees of freedom.

    Exactness: per-group (n, Σx, Σx²) are exact integers; every float —
    the two SAMPLE variances s² = (n·Σx² − (Σx)²) / (n·(n−1)), the
    standard error, t, and df — is a fixed-op-order expression mirrored
    verbatim in SQL.  Degenerate inputs (either n < 2 or both variances
    zero) emit t = 0, df = 0."""
    import pyarrow.compute as pc

    def keep(t: pa.Table) -> pa.Table:
        g = t.column(group_col)
        return t.filter(pc.or_(pc.equal(g, group_a), pc.equal(g, group_b)))

    summed = _group_n_s1_s2(
        ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True),
        group_col=group_col,
        value_col=value_col,
    )

    def finalize(t: pa.Table) -> pa.Table:
        acc = {}
        for r in t.to_pylist():
            a = acc.setdefault(r[group_col], [0, 0, 0])
            a[0] += int(r["sum(n)"])
            a[1] += _limbs_to_int(r, "s1p", 2) - _limbs_to_int(r, "s1n", 2)
            a[2] += _limbs_to_int(r, "s2", 4)
        n1, s1a, s2a = acc.get(group_a, [0, 0, 0])
        n2, s1b, s2b = acc.get(group_b, [0, 0, 0])
        t_stat = df = 0.0
        if n1 >= 2 and n2 >= 2:
            # fixed float op order, mirrored in SQL
            va = float(n1 * s2a - s1a * s1a) / float(n1 * (n1 - 1))
            vb = float(n2 * s2b - s1b * s1b) / float(n2 * (n2 - 1))
            qa = va / float(n1)
            qb = vb / float(n2)
            se2 = qa + qb
            if se2 > 0.0:
                t_stat = (float(s1a) / float(n1) - float(s1b) / float(n2)) / math.sqrt(se2)
                df = (se2 * se2) / (
                    qa * qa / float(n1 - 1) + qb * qb / float(n2 - 1)
                )
        return pa.table(
            {
                "n1": pa.array([n1], pa.int64()),
                "n2": pa.array([n2], pa.int64()),
                "t_stat": pa.array([t_stat], pa.float64()),
                "df": pa.array([df], pa.float64()),
            }
        )

    return summed.repartition(1).map_batches(
        finalize, batch_format="pyarrow", batch_size=None
    )


def anova_f_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
):
    """-> 1-row Dataset[(k, n, f_stat)] — one-way ANOVA F across ALL
    groups of an INTEGER column.

    The between/within sums of squares come from exact integers with a
    single common denominator:  SSB·n·Πnothing — concretely,
    ``ssb_num = n·Σ_g(S_g²/n_g·…)`` is avoided; instead both SS are built
    from the exact integer identity  n_g·n·SSB and  n_g-scaled pieces —
    we use the standard float path but with every operand converted from
    an exact integer ONCE and combined in a fixed op order mirrored in
    SQL: ssb = Σ_g (S_g²/n_g as float) − (S²/n as float); ssw = Σ_g (Q_g
    − S_g²/n_g as float), accumulated in GROUP-KEY SORTED order on both
    sides (SQL: sum() OVER an ordered frame is not needed — the per-group
    terms are combined via a deterministic ordered aggregation CTE)."""

    summed = _group_n_s1_s2(ds, group_col=group_col, value_col=value_col)

    def finalize(t: pa.Table) -> pa.Table:
        acc = {}
        for r in t.to_pylist():
            a = acc.setdefault(r[group_col], [0, 0, 0])
            a[0] += int(r["sum(n)"])
            a[1] += _limbs_to_int(r, "s1p", 2) - _limbs_to_int(r, "s1n", 2)
            a[2] += _limbs_to_int(r, "s2", 4)
        k = len(acc)
        n = sum(a[0] for a in acc.values())
        S = sum(a[1] for a in acc.values())
        f = 0.0
        if k >= 2 and n > k:
            # exact-int group terms; floats combined in sorted-group order
            # ssb = Σ S_g²/n_g − S²/n ; ssw = Σ (Q_g − S_g²/n_g)
            ssb = 0.0
            ssw = 0.0
            for gkey in sorted(acc, key=lambda x: str(x)):
                n_g, s_g, q_g = acc[gkey]
                term = float(s_g * s_g) / float(n_g)
                ssb += term
                ssw += float(q_g) - term
            ssb -= float(S * S) / float(n)
            msb = ssb / float(k - 1)
            msw = ssw / float(n - k)
            f = msb / msw if msw > 0.0 else 0.0
        return pa.table(
            {
                "k": pa.array([k], pa.int64()),
                "n": pa.array([n], pa.int64()),
                "f_stat": pa.array([f], pa.float64()),
            }
        )

    return summed.repartition(1).map_batches(
        finalize, batch_format="pyarrow", batch_size=None
    )


def grouped_ks_exact_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    split_col: str,
    split_a,
    split_b,
):
    """-> Dataset[(group, n1, n2, d_num, d_stat)] — the exact two-sample
    KS statistic PER GROUP between two splits of an INTEGER column (the
    grouped sibling of :func:`ks_exact_pipeline`; e.g. per-lang train/val
    length drift).  Counts fold on (group, value); the per-group sorted
    prefix scans run vectorized in one finalize partition (the distinct
    (group, value) domain is the bounded quantity — gated loudly)."""
    import pyarrow.compute as pc

    def preagg(t: pa.Table) -> pa.Table:
        sp = t.column(split_col)
        in_a = pc.equal(sp, split_a)
        keep = pc.or_(in_a, pc.equal(sp, split_b))
        sub = pa.table(
            {
                "g": t.column(group_col),
                "_v": t.column(value_col).cast(pa.int64()),
                "_c1": pc.cast(in_a, pa.int64()),
            }
        ).filter(keep)
        agg = sub.group_by(["g", "_v"]).aggregate([("_c1", "sum"), ([], "count_all")])
        return agg.rename_columns(["g", "_v", "c1", "c"])

    from .fold import partitioned_group_sum

    counted = partitioned_group_sum(
        ds.map_batches(preagg, batch_format="pyarrow", zero_copy_batch=True),
        ["g", "_v"],
        ["c1", "c"],
    )

    def finalize(t: pa.Table) -> pa.Table:
        if t.num_rows > 50_000_000:
            raise ValueError(
                "grouped_ks_exact_pipeline: distinct (group, value) domain "
                "exceeds the single-task finalize budget"
            )
        g = t.column("g").to_numpy(zero_copy_only=False)
        v = t.column("_v").to_numpy(zero_copy_only=False)
        c1 = t.column("sum(c1)").to_numpy(zero_copy_only=False).astype(np.int64)
        c = t.column("sum(c)").to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.lexsort((v, g))
        g, c1, c = g[o], c1[o], c[o]
        c2 = c - c1
        n = g.size
        out = {"gs": [], "n1": [], "n2": [], "dn": [], "d": []}
        if n:
            new = run_starts(g)
            starts = np.flatnonzero(new)
            ends = np.append(starts[1:], n)
            for srt, end in zip(starts, ends):  # one iteration per GROUP
                a, b = c1[srt:end], c2[srt:end]
                n1, n2 = int(a.sum()), int(b.sum())
                if max(n1, n2) >= 3_000_000_000:
                    raise OverflowError("grouped_ks: n >= 3e9 would overflow cum·n")
                if n1 == 0 or n2 == 0:
                    dn, d = 0, 0.0
                else:
                    dn = int(np.abs(np.cumsum(a) * n2 - np.cumsum(b) * n1).max())
                    d = float(dn) / float(n1 * n2)
                out["gs"].append(g[srt])
                out["n1"].append(n1)
                out["n2"].append(n2)
                out["dn"].append(dn)
                out["d"].append(d)
        return pa.table(
            {
                group_col: pa.array(out["gs"]),
                "n1": pa.array(out["n1"], pa.int64()),
                "n2": pa.array(out["n2"], pa.int64()),
                "d_num": pa.array(out["dn"], pa.int64()),
                "d_stat": pa.array(out["d"], pa.float64()),
            }
        )

    return counted.repartition(1).map_batches(
        finalize, batch_format="pyarrow", batch_size=None
    )
