"""Sketch-guided EXACT quantile selection (exact median at 100 TB).

DDSketch answers quantiles within α, but its bucket COUNTS are exact - so it
can also drive an exact selection: the k-th smallest value's bucket is known
from one sketch pass (cumulative bin counts), and only the rows of that ONE
bucket (a ±α value window, typically a vanishing fraction of the corpus)
need a second, filtered scan.  Exact order statistics with two streaming
passes and no global sort - the sketch narrows, the scan finishes.

Rank convention: floor-rank k = floor(q·(n-1)), the reference's
get_quantile_value arithmetic (base_sketch.rb:125) made exact.  Positive
values only, with the zero band handled (rank inside the zero band selects
exactly 0, matching the reference's zero-band return and SQL's sort order
for non-negative data).

Scale shape: pass 1 is the flagship grouped build (KB states shuffle);
pass 2 is map-only (bucket-key equality filter against a broadcast) plus a
per-group selection over the candidate rows of the targeted buckets, whose
sizes the sketch reports EXACTLY beforehand (``bins[b]`` rows - raise if a
caller picks a quantile whose bucket is degenerate-huge rather than
silently collecting it).

MULTIPLE quantiles of the same column share both passes:
:func:`sketch_exact_quantiles_pipeline` locates every requested rank's
bucket from the ONE sketch build and scans the union of those buckets in
the ONE candidate pass - a two-sided trim (p10 + p90) costs the same two
streaming passes as a single median.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..core.numeric import run_starts

__all__ = [
    "sketch_exact_quantile_pipeline",
    "sketch_exact_quantiles_pipeline",
    "sketch_exact_weighted_quantile_pipeline",
    "sketch_exact_interp_quantile_pipeline",
]


def sketch_exact_quantile_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    q: float = 0.5,
    alpha: float = 0.01,
    max_candidates_per_group: int = 5_000_000,
):
    """-> Dataset[(group_col, exact_q: double)] - the EXACT floor-rank
    q-quantile value per group (single-q wrapper of
    :func:`sketch_exact_quantiles_pipeline`)."""
    return sketch_exact_quantiles_pipeline(
        ds,
        group_col=group_col,
        value_col=value_col,
        qs=(q,),
        alpha=alpha,
        max_candidates_per_group=max_candidates_per_group,
    )


def sketch_exact_quantiles_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    qs=(0.5,),
    alpha: float = 0.01,
    max_candidates_per_group: int = 5_000_000,
):
    """-> Dataset[(group_col, exact_<q1>, exact_<q2>, ...)] - the EXACT
    floor-rank quantile values per group, all from ONE sketch build + ONE
    candidate scan (the buckets of all requested ranks are unioned into a
    single broadcast filter)."""
    import ray

    from ..functions.specs import DDSketchSpec
    from .corpus import group_sketches

    qs = tuple(qs)
    if not qs:
        raise ValueError("qs must be non-empty")
    qcols = [f"exact_{_qname(q)}" for q in qs]

    spec = DDSketchSpec(on=value_col, name="s", relative_accuracy=alpha, quantiles=())

    # group -> {q_index: ("zero",) | ("bucket", bucket_key, local_rank)}
    targets: dict = {}
    mapping = None
    for g, sk in group_sketches(ds, spec, group_col).items():
        mapping = sk.mapping
        if sk.negative_store.count:
            raise ValueError("sketch_exact_quantiles_pipeline: positive values only")
        n = int(sk.count)
        if n == 0:
            continue
        zc = int(sk.zero_count)
        st = sk.store
        bins = np.asarray(st.bins)
        cum = np.cumsum(bins)
        plan = {}
        for qi, q in enumerate(qs):
            k = int(math.floor(q * (n - 1)))
            if k < zc:
                plan[qi] = ("zero",)
                continue
            b_idx = int(np.searchsorted(cum, k - zc, side="right"))
            if bins[b_idx] > max_candidates_per_group:
                raise ValueError(
                    f"bucket for group {g!r} holds {int(bins[b_idx])} rows"
                    f" (> {max_candidates_per_group}); pick a different quantile or"
                    " raise the limit"
                )
            local = (k - zc) - (int(cum[b_idx - 1]) if b_idx else 0)
            plan[qi] = ("bucket", int(st.min_key) + b_idx, local)
        targets[g] = plan
    ref = ray.put((targets, mapping))

    def candidates(t: pa.Table) -> pa.Table:
        tg, mp = ray.get(ref)
        vals = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        groups = t.column(group_col).to_numpy(zero_copy_only=False)
        keep = np.zeros(len(vals), dtype=bool)
        pos = vals > mp.min_possible
        if pos.any():
            keys = np.full(len(vals), np.iinfo(np.int64).min, dtype=np.int64)
            keys[pos] = np.asarray(mp.key(vals[pos]), dtype=np.int64)
            for g in np.unique(groups):  # groups-in-batch, not rows
                plan = tg.get(g)
                if not plan:
                    continue
                bks = {p[1] for p in plan.values() if p[0] == "bucket"}
                if bks:
                    gm = groups == g
                    keep |= gm & np.isin(keys, np.fromiter(bks, dtype=np.int64))
        return t.select([group_col, value_col]).filter(pa.array(keep))

    cand = ds.map_batches(candidates, batch_format="pyarrow", zero_copy_batch=True)

    def select(pt: pa.Table) -> pa.Table:
        tg, mp = ray.get(ref)
        g = pt.column(group_col).to_numpy(zero_copy_only=False)
        seen = {}
        if g.size:
            v = pt.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
            order = np.lexsort((v, g))
            g_s, v_s = g[order], v[order]
            keys_s = np.asarray(mp.key(v_s), dtype=np.int64)
            new = run_starts(g_s)
            starts = np.flatnonzero(new)
            ends = np.append(starts[1:], g_s.size)
            for srt, end in zip(starts, ends):  # one iteration per GROUP (tiny)
                grp = g_s[srt]
                vals = {}
                for qi, plan in tg[grp].items():
                    if plan[0] == "zero":
                        vals[qi] = 0.0
                    else:
                        _, bk, local = plan
                        in_b = v_s[srt:end][keys_s[srt:end] == bk]
                        vals[qi] = float(in_b[local])
                seen[grp] = vals
        out = {group_col: pa.array(list(seen.keys()))}
        for qi, qc in enumerate(qcols):
            out[qc] = pa.array([vals[qi] for vals in seen.values()], pa.float64())
        return pa.table(out)

    # the candidate table is a few buckets per group: a single-partition
    # exact selection is safe by construction (sizes pre-checked from the
    # sketch)
    picked = cand.repartition(1).map_batches(
        select, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    # groups whose EVERY rank fell in the zero band produce no candidate
    # rows (an empty dataset can skip the select call entirely), so they
    # are emitted from the driver-side plan instead
    all_zero = [g for g, plan in targets.items() if all(p[0] == "zero" for p in plan.values())]
    if all_zero:
        import ray.data as rd

        zt = {group_col: pa.array(all_zero)}
        for qc in qcols:
            zt[qc] = pa.array([0.0] * len(all_zero), pa.float64())
        picked = picked.union(rd.from_arrow(pa.table(zt)))
    return picked


def _qname(q: float) -> str:
    from ..functions.specs import quantile_name

    return quantile_name(q)


def sketch_exact_weighted_quantile_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    weight_col: str,
    q: float = 0.5,
    alpha: float = 0.01,
    max_candidate_mass_per_group: int = 5_000_000,
):
    """-> Dataset[(group_col, exact_w<q>)] — the EXACT WEIGHTED floor-rank
    quantile per group: the value at which the running weight (ascending
    value order) first EXCEEDS k = floor(q·(W−1)), W = total weight.

    Weights must be positive integers (the exact-count contract: weighted
    bin masses then sum exactly in float64 up to 2^53, and the rank
    arithmetic is integer).  Same two-pass shape as the unweighted
    selection: the weighted sketch's bucket masses locate the target
    bucket; only that bucket's rows (value + weight) are re-scanned.
    Positive values only."""
    import ray

    from ..functions.specs import DDSketchSpec
    from .corpus import group_sketches

    qcol = f"exact_w{_qname(q)}"
    spec = DDSketchSpec(
        on=value_col, name="s", relative_accuracy=alpha, quantiles=(), weight=weight_col
    )

    targets: dict = {}
    mapping = None
    for g, sk in group_sketches(ds, spec, group_col).items():
        mapping = sk.mapping
        if sk.negative_store.count:
            raise ValueError(
                "sketch_exact_weighted_quantile_pipeline: positive values only"
            )
        w_total = int(sk.count)
        if w_total == 0:
            continue
        zc = int(sk.zero_count)
        bins = np.asarray(sk.store.bins).astype(np.int64)  # integer masses
        cum = np.cumsum(bins)
        k = int(math.floor(q * (w_total - 1)))
        if k < zc:
            targets[g] = ("zero",)
            continue
        b_idx = int(np.searchsorted(cum, k - zc, side="right"))
        if bins[b_idx] > max_candidate_mass_per_group:
            raise ValueError(
                f"bucket for group {g!r} holds mass {int(bins[b_idx])}"
                f" (> {max_candidate_mass_per_group}); pick a different quantile"
                " or raise the limit"
            )
        local = (k - zc) - (int(cum[b_idx - 1]) if b_idx else 0)
        targets[g] = ("bucket", int(sk.store.min_key) + b_idx, local)
    ref = ray.put((targets, mapping))

    def candidates(t: pa.Table) -> pa.Table:
        tg, mp = ray.get(ref)
        vals = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        groups = t.column(group_col).to_numpy(zero_copy_only=False)
        keep = np.zeros(len(vals), dtype=bool)
        pos = vals > mp.min_possible
        if pos.any():
            keys = np.full(len(vals), np.iinfo(np.int64).min, dtype=np.int64)
            keys[pos] = np.asarray(mp.key(vals[pos]), dtype=np.int64)
            for g in np.unique(groups):
                plan = tg.get(g)
                if not plan or plan[0] != "bucket":
                    continue
                keep |= (groups == g) & (keys == plan[1])
        return t.select([group_col, value_col, weight_col]).filter(pa.array(keep))

    cand = ds.map_batches(candidates, batch_format="pyarrow", zero_copy_batch=True)

    def select(pt: pa.Table) -> pa.Table:
        tg, _ = ray.get(ref)
        g = pt.column(group_col).to_numpy(zero_copy_only=False)
        out_g, out_v = [], []
        if g.size:
            v = pt.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
            w = pt.column(weight_col).to_numpy(zero_copy_only=False).astype(np.int64)
            order = np.lexsort((v, g))
            g_s, v_s, w_s = g[order], v[order], w[order]
            new = run_starts(g_s)
            starts = np.flatnonzero(new)
            ends = np.append(starts[1:], g_s.size)
            for srt, end in zip(starts, ends):  # one iteration per GROUP
                grp = g_s[srt]
                _, _, local = tg[grp]
                cumw = np.cumsum(w_s[srt:end])
                # first value whose running weight EXCEEDS the local rank
                out_g.append(grp)
                out_v.append(float(v_s[srt:end][np.searchsorted(cumw, local, side="right")]))
        out = {group_col: pa.array(out_g), qcol: pa.array(out_v, pa.float64())}
        return pa.table(out)

    picked = cand.repartition(1).map_batches(
        select, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    zero_groups = [g for g, plan in targets.items() if plan[0] == "zero"]
    if zero_groups:
        import ray.data as rd

        picked = picked.union(
            rd.from_arrow(
                pa.table(
                    {
                        group_col: pa.array(zero_groups),
                        qcol: pa.array([0.0] * len(zero_groups), pa.float64()),
                    }
                )
            )
        )
    return picked


def sketch_exact_interp_quantile_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    q: float,
    alpha: float = 0.01,
    max_candidates_per_group: int = 5_000_000,
):
    """-> Dataset[(group_col, lo, hi, interp)] — the TYPE-7 (numpy/pandas
    default, SQL percentile_cont) linearly INTERPOLATED quantile per
    group, built from the two EXACT order statistics it blends:
    h = q·(n−1), lo = x_(⌊h⌋), hi = x_(⌊h⌋+1) (clamped to the max), and
    interp = lo + (h − ⌊h⌋)·(hi − lo) in ONE fixed float-op chain
    mirrored verbatim in SQL.

    Same plan as :func:`sketch_exact_quantiles_pipeline` (one sketch
    build locates both ranks' buckets, one candidate rescan picks the two
    values — no global sort); positive integer values only."""
    import ray

    from ..functions.specs import DDSketchSpec
    from .corpus import group_sketches

    spec = DDSketchSpec(on=value_col, name="s", relative_accuracy=alpha, quantiles=())

    # group -> (n, [(which, plan), ...]) with which in {"lo", "hi"}
    targets: dict = {}
    mapping = None
    for g, sk in group_sketches(ds, spec, group_col).items():
        mapping = sk.mapping
        if sk.negative_store.count:
            raise ValueError(
                "sketch_exact_interp_quantile_pipeline: positive values only"
            )
        n = int(sk.count)
        if n == 0:
            continue
        zc = int(sk.zero_count)
        st = sk.store
        bins = np.asarray(st.bins)
        cum = np.cumsum(bins)
        k_lo = int(math.floor(q * (n - 1)))
        k_hi = min(k_lo + 1, n - 1)
        plan = {}
        for which, k in (("lo", k_lo), ("hi", k_hi)):
            if k < zc:
                plan[which] = ("zero",)
                continue
            b_idx = int(np.searchsorted(cum, k - zc, side="right"))
            if bins[b_idx] > max_candidates_per_group:
                raise ValueError(
                    f"bucket for group {g!r} holds {int(bins[b_idx])} "
                    f"rows (> {max_candidates_per_group})"
                )
            local = (k - zc) - (int(cum[b_idx - 1]) if b_idx else 0)
            plan[which] = ("bucket", int(st.min_key) + b_idx, local)
        targets[g] = (n, plan)
    ref = ray.put((targets, mapping))

    def candidates(t: pa.Table) -> pa.Table:
        tg, mp = ray.get(ref)
        vals = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        groups = t.column(group_col).to_numpy(zero_copy_only=False)
        keep = np.zeros(len(vals), dtype=bool)
        pos = vals > mp.min_possible
        if pos.any():
            keys = np.full(len(vals), np.iinfo(np.int64).min, dtype=np.int64)
            keys[pos] = np.asarray(mp.key(vals[pos]), dtype=np.int64)
            for g in np.unique(groups):
                ent = tg.get(g)
                if not ent:
                    continue
                bks = {p[1] for p in ent[1].values() if p[0] == "bucket"}
                if bks:
                    gm = groups == g
                    keep |= gm & np.isin(keys, np.fromiter(bks, dtype=np.int64))
        return t.select([group_col, value_col]).filter(pa.array(keep))

    cand = ds.map_batches(candidates, batch_format="pyarrow", zero_copy_batch=True)

    def select(pt: pa.Table) -> pa.Table:
        tg, mp = ray.get(ref)
        g = pt.column(group_col).to_numpy(zero_copy_only=False)
        rows = {}
        if g.size:
            v = pt.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
            order = np.lexsort((v, g))
            g_s, v_s = g[order], v[order]
            keys_s = np.asarray(mp.key(v_s), dtype=np.int64)
            new = run_starts(g_s)
            starts = np.flatnonzero(new)
            ends = np.append(starts[1:], g_s.size)
            for srt, end in zip(starts, ends):  # one iteration per GROUP
                grp = g_s[srt]
                n, plan = tg[grp]
                out = {}
                for which, pl in plan.items():
                    if pl[0] == "zero":
                        out[which] = 0.0
                    else:
                        _, bk, local = pl
                        in_b = v_s[srt:end][keys_s[srt:end] == bk]
                        out[which] = float(in_b[local])
                # fixed float op chain, mirrored verbatim in SQL:
                # interp = lo + (q*(n-1) - floor(q*(n-1))) * (hi - lo)
                h = q * float(n - 1)
                out["interp"] = out["lo"] + (h - math.floor(h)) * (
                    out["hi"] - out["lo"]
                )
                rows[grp] = out
        return pa.table(
            {
                group_col: pa.array(list(rows.keys())),
                "lo": pa.array([r["lo"] for r in rows.values()], pa.float64()),
                "hi": pa.array([r["hi"] for r in rows.values()], pa.float64()),
                "interp": pa.array([r["interp"] for r in rows.values()], pa.float64()),
            }
        )

    picked = cand.repartition(1).map_batches(
        select, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    all_zero = [
        g for g, (n, plan) in targets.items()
        if all(p[0] == "zero" for p in plan.values())
    ]
    if all_zero:
        import ray.data as rd

        picked = picked.union(
            rd.from_arrow(
                pa.table(
                    {
                        group_col: pa.array(all_zero),
                        "lo": pa.array([0.0] * len(all_zero)),
                        "hi": pa.array([0.0] * len(all_zero)),
                        "interp": pa.array([0.0] * len(all_zero)),
                    }
                )
            )
        )
    return picked
