"""Extreme-cardinality DDSketch aggregation: the vectorized "pairs" plan.

Why: the "states" strategy's fold merges and finalizes one sketch per GROUP
in Python - fine at 10^1..10^5 groups, ~100-250us per group beyond that.  At lang x repo cardinality (10^6..10^8 groups) the
hot path must never touch Python per group.

Plan (all group-cardinality-proportional work is numpy):

  stage A (fused into the read): block -> pre-aggregated PAIR table
      one row per distinct (group, metric, side, bucket-key) in the block,
      carrying (w_sum, vw_sum, v_min, v_max); built with ONE
      lexsort + reduceat per block.  The group's 128-bit identity rides
      along, and its first lane is the route key, so every group's pairs
      meet in exactly one partition.
      The ORIGINAL group-key columns (native dtypes) ride along too - one
      representative value per pair row - so the output schema matches the
      states strategy exactly.
  stage B: one fold.keyed_exchange -> P reduce calls (P ~ cpus, NOT groups);
      inside each: lexsort + reduceat re-aggregation across blocks, then a
      BOUNDARY-VECTORIZED multi-quantile walk (global-cumsum searchsorted
      per (metric, q) over all segments at once - no per-group Python).
      Representative values for the selected bucket keys are computed once
      per DISTINCT key through the mapping's scalar (libm) path, preserving
      bit-parity with the SQL oracle.

Results are bit-identical to the "states" strategy for
DDSketchSpecs of ANY mapping (log / linear / cubic), dense or collapsing
stores, weighted or not - same keys, same rank arithmetic (the walk
replicates base_sketch.rb:121-138); sums are exact for integer-valued
metrics.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa

from ..core.hashing import hash256_str
from ..functions.specs import DDSketchSpec, quantile_name
from .fold import keyed_exchange

__all__ = ["ddsketch_pairs_pipeline"]

_NULL_SENTINEL = "\x00null\x00"  # composite-identity stand-in for null keys


def _check_specs(specs: Sequence[DDSketchSpec]) -> None:
    for s in specs:
        if not isinstance(s, DDSketchSpec):
            raise TypeError("pairs strategy supports DDSketchSpec only")


def _group_composite(batch: pa.Table, group_keys: Sequence[str]):
    """Composite group string per row (partition hashing + within-partition
    identity ONLY - output key values come from the carried native columns).
    Nulls map to a sentinel so they form their own group (SQL semantics)."""
    import pyarrow.compute as pc

    parts = []
    for kcol in group_keys:
        col = batch.column(kcol)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        parts.append(pc.fill_null(col.cast(pa.string()), _NULL_SENTINEL))
    if len(parts) == 1:
        return parts[0]
    return pc.binary_join_element_wise(*parts, "\x1f")


def ddsketch_pairs_pipeline(
    ds,
    specs: Sequence[DDSketchSpec],
    group_keys: Sequence[str],
    *,
    derive=None,
    num_partitions: int = 64,
    prefixes: dict | None = None,
    batch_size: int | None = None,
):
    """-> Dataset: one row per group with per-spec count/sum/avg/min/max/p*.

    See module docstring; ``prefixes`` as in grouped_sketch_pipeline.
    Group-key columns keep their input dtypes (incl. nulls).
    """
    _check_specs(specs)
    group_keys = list(group_keys)

    from ..core.mapping import mapping_from_tag

    mappings = [mapping_from_tag(s.interpolation, s.alpha) for s in specs]
    quantiles = {s.name: list(s.quantiles) for s in specs}
    include_sum_avg = {s.name: s.include_sum_avg for s in specs}
    metric_names = [s.name for s in specs]
    value_cols = [s.on for s in specs]
    weight_cols = [s.weight for s in specs]
    stores = [s.store for s in specs]
    bin_limits = [s.bin_limit for s in specs]
    n_metrics = len(specs)

    def _empty_pairs() -> pa.Table:
        cols = {
            "_gh0": pa.array([], pa.int64()),
            "_gh1": pa.array([], pa.int64()),
        }
        for kc in group_keys:
            cols[kc] = pa.array([], pa.string())  # placeholder; typed below
        cols.update(
            {
                "_m": pa.array([], pa.int8()),
                "_side": pa.array([], pa.int8()),
                "_k": pa.array([], pa.int64()),
                "_w": pa.array([], pa.float64()),
                "_vw": pa.array([], pa.float64()),
                "_vmin": pa.array([], pa.float64()),
                "_vmax": pa.array([], pa.float64()),
            }
        )
        return pa.table(cols)

    def to_pairs(batch: pa.Table) -> pa.Table:
        if derive is not None:
            batch = derive(batch)
        n = batch.num_rows
        if n == 0:
            # typed empty table (keeps key dtypes stable across blocks)
            t = _empty_pairs()
            for kc in group_keys:
                idx = t.schema.get_field_index(kc)
                t = t.set_column(idx, kc, batch.column(kc).slice(0, 0))
            return t
        gcomp = _group_composite(batch, group_keys)
        dict_arr = gcomp.dictionary_encode()
        gcodes = dict_arr.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        gdict = dict_arr.dictionary  # distinct composite strings
        # deterministic 128-bit IDENTITY per DISTINCT group: the
        # composite string itself never ships (two sha256 lanes, the same
        # collision-free-at-any-realistic-scale convention as exact_dedup) -
        # the shuffle stays fully numeric and the finalize never materializes
        # per-row Python strings (measured: the object-array storm inflated
        # 64 concurrent finalize tasks 10-40x over their single-task cost)
        glanes = hash256_str(gdict, lanes=2)
        gh0 = glanes[0].astype(np.int64)
        gh1 = glanes[1].astype(np.int64)

        out = {
            "_gh0": [],
            "_gh1": [],
            "_m": [],
            "_side": [],
            "_k": [],
            "_w": [],
            "_vw": [],
            "_vmin": [],
            "_vmax": [],
        }
        rep_rows = []  # representative batch row per pair row (native key values)
        for mi, col in enumerate(value_cols):
            mp = mappings[mi]
            v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
            if weight_cols[mi] is not None:
                wt = (
                    batch.column(weight_cols[mi])
                    .to_numpy(zero_copy_only=False)
                    .astype(np.float64, copy=False)
                )
                if wt.size and float(wt.min()) <= 0.0:
                    raise ValueError("weight must be positive")
            else:
                wt = np.ones(n)
            side = np.zeros(n, dtype=np.int8)
            side[v > mp.min_possible] = 1
            side[v < -mp.min_possible] = -1
            k = np.zeros(n, dtype=np.int64)
            pos = side == 1
            neg = side == -1
            if pos.any():
                k[pos] = mp.key(v[pos])
            if neg.any():
                k[neg] = mp.key(-v[neg])
            order = np.lexsort((k, side, gcodes))
            gs, ss, ks, vs, ws = gcodes[order], side[order], k[order], v[order], wt[order]
            newgrp = np.empty(n, dtype=bool)
            newgrp[0] = True
            newgrp[1:] = (gs[1:] != gs[:-1]) | (ss[1:] != ss[:-1]) | (ks[1:] != ks[:-1])
            starts = np.flatnonzero(newgrp)
            w_sum = np.add.reduceat(ws, starts)
            vw_sum = np.add.reduceat(vs * ws, starts)
            v_min = np.minimum.reduceat(vs, starts)
            v_max = np.maximum.reduceat(vs, starts)
            gsel = gs[starts]
            out["_gh0"].append(gh0[gsel])
            out["_gh1"].append(gh1[gsel])
            out["_m"].append(np.full(starts.size, mi, dtype=np.int8))
            out["_side"].append(ss[starts])
            out["_k"].append(ks[starts])
            out["_w"].append(w_sum)
            out["_vw"].append(vw_sum)
            out["_vmin"].append(v_min)
            out["_vmax"].append(v_max)
            rep_rows.append(order[starts])

        rep = pa.array(np.concatenate(rep_rows))
        cols = {
            "_gh0": pa.array(np.concatenate(out["_gh0"]), pa.int64()),
            "_gh1": pa.array(np.concatenate(out["_gh1"]), pa.int64()),
        }
        for kc in group_keys:  # native-dtype key values (nulls preserved)
            cols[kc] = batch.column(kc).take(rep)
        cols.update(
            {
                "_m": pa.array(np.concatenate(out["_m"]), pa.int8()),
                "_side": pa.array(np.concatenate(out["_side"]), pa.int8()),
                "_k": pa.array(np.concatenate(out["_k"]), pa.int64()),
                "_w": pa.array(np.concatenate(out["_w"]), pa.float64()),
                "_vw": pa.array(np.concatenate(out["_vw"]), pa.float64()),
                "_vmin": pa.array(np.concatenate(out["_vmin"]), pa.float64()),
                "_vmax": pa.array(np.concatenate(out["_vmax"]), pa.float64()),
            }
        )
        return pa.table(cols)

    pairs = ds.map_batches(
        to_pairs, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
    )

    def finalize_partition(pt: pa.Table) -> pa.Table:
        gh0 = pt.column("_gh0").to_numpy(zero_copy_only=False)
        gh1 = pt.column("_gh1").to_numpy(zero_copy_only=False)
        m = pt.column("_m").to_numpy(zero_copy_only=False)
        side = pt.column("_side").to_numpy(zero_copy_only=False)
        k = pt.column("_k").to_numpy(zero_copy_only=False)
        w = pt.column("_w").to_numpy(zero_copy_only=False)
        vw = pt.column("_vw").to_numpy(zero_copy_only=False)
        vmin = pt.column("_vmin").to_numpy(zero_copy_only=False)
        vmax = pt.column("_vmax").to_numpy(zero_copy_only=False)

        # numeric factorize over the 128-bit group identity (no Python
        # strings anywhere in this task - see stage A comment)
        gorder = np.lexsort((gh1, gh0))
        gnew = np.empty(len(gorder), dtype=bool)
        if len(gorder):
            gnew[0] = True
            gnew[1:] = (gh0[gorder][1:] != gh0[gorder][:-1]) | (
                gh1[gorder][1:] != gh1[gorder][:-1]
            )
        gid = np.empty(len(gorder), dtype=np.int64)
        gid[gorder] = np.cumsum(gnew) - 1
        n_groups = int(gnew.sum())
        # representative input row per group (native key values), by gid
        grp_first = gorder[np.flatnonzero(gnew)]

        order = np.lexsort((k, side, m, gid))
        gid_, m_, side_, k_ = gid[order], m[order], side[order], k[order]
        w_, vw_, vmin_, vmax_ = w[order], vw[order], vmin[order], vmax[order]
        nrows = len(gid_)
        newb = np.empty(nrows, dtype=bool)
        newb[0] = True
        newb[1:] = (
            (gid_[1:] != gid_[:-1])
            | (m_[1:] != m_[:-1])
            | (side_[1:] != side_[:-1])
            | (k_[1:] != k_[:-1])
        )
        starts = np.flatnonzero(newb)
        # re-aggregated distinct buckets, sorted by (gid, m, side, k)
        bg, bm, bs, bk = gid_[starts], m_[starts], side_[starts], k_[starts]
        bw = np.add.reduceat(w_, starts)
        bvw = np.add.reduceat(vw_, starts)
        bvmin = np.minimum.reduceat(vmin_, starts)
        bvmax = np.maximum.reduceat(vmax_, starts)
        nb = len(bg)

        # (group, metric) segments over the bucket arrays
        seg_new = np.empty(nb, dtype=bool)
        seg_new[0] = True
        seg_new[1:] = (bg[1:] != bg[:-1]) | (bm[1:] != bm[:-1])
        seg_starts = np.flatnonzero(seg_new)
        seg_of = np.cumsum(seg_new) - 1  # bucket -> segment index
        n_segs = len(seg_starts)
        seg_g = bg[seg_starts]
        seg_m = bm[seg_starts]

        # exact per-segment stats (reduceat over segment boundaries)
        cnt_seg = np.add.reduceat(bw, seg_starts)
        sum_seg = np.add.reduceat(bvw, seg_starts)
        min_seg = np.minimum.reduceat(bvmin, seg_starts)
        max_seg = np.maximum.reduceat(bvmax, seg_starts)

        # ---- collapsing-store clamp, vectorized over (segment, side) runs.
        # Order-independent model (collapsing_lowest_dense_store_spec.rb:35-38):
        # final bins == multiset of max(k, kmax-limit+1) (lowest) or
        # min(k, kmin+limit-1) (highest) over the side's final extent.
        run_new = seg_new.copy()
        run_new[1:] |= bs[1:] != bs[:-1]
        run_starts = np.flatnonzero(run_new)
        run_ends = np.append(run_starts[1:], nb)
        run_of = np.cumsum(run_new) - 1
        k_first = bk[run_starts][run_of]
        k_last = bk[run_ends - 1][run_of]
        store_code = np.array(
            [0 if s == "dense" else (1 if s == "collapse_lowest" else 2) for s in stores],
            dtype=np.int8,
        )[bm]
        limit_arr = np.array(bin_limits, dtype=np.int64)[bm]
        ck = bk.copy()
        low = (store_code == 1) & (bs != 0)
        ck[low] = np.maximum(bk[low], (k_last - limit_arr + 1)[low])
        high = (store_code == 2) & (bs != 0)
        ck[high] = np.minimum(bk[high], (k_first + limit_arr - 1)[high])
        # merge equal clamped keys within each run (clamp preserves order)
        cb_new = run_new.copy()
        cb_new[1:] |= ck[1:] != ck[:-1]
        cstarts = np.flatnonzero(cb_new)
        cbk = ck[cstarts]
        cbw = np.add.reduceat(bw, cstarts)
        cbs = bs[cstarts]
        cseg = seg_of[cstarts]

        # per-segment side totals
        negm = cbs == -1
        zerom = cbs == 0
        posm = cbs == 1
        neg_cnt = np.bincount(cseg[negm], weights=cbw[negm], minlength=n_segs)
        zero_cnt = np.bincount(cseg[zerom], weights=cbw[zerom], minlength=n_segs)

        def _side_cums(mask):
            """Global (within-run monotone) cumsum machinery for one side.

            Returns (keys, cum, seg_first, seg_len, base) where base[s] is
            the global cumsum before segment s's run and seg_first[s] its
            first index in the side arrays (-1 when the side is empty)."""
            idx = np.flatnonzero(mask)
            keys = cbk[idx]
            segv = cseg[idx]
            cum = np.cumsum(cbw[idx])
            first_in_run = np.empty(len(idx), dtype=bool)
            if len(idx):
                first_in_run[0] = True
                first_in_run[1:] = segv[1:] != segv[:-1]
            rstarts = np.flatnonzero(first_in_run)
            seg_first = np.full(n_segs, -1, dtype=np.int64)
            seg_len = np.zeros(n_segs, dtype=np.int64)
            if len(rstarts):
                rends = np.append(rstarts[1:], len(idx))
                seg_first[segv[rstarts]] = rstarts
                seg_len[segv[rstarts]] = rends - rstarts
            base = np.zeros(n_segs)
            has = seg_first > 0
            base[has] = cum[seg_first[has] - 1]
            return keys, cum, seg_first, seg_len, base

        pos_keys, pos_cum, pos_first, pos_len, pos_base = _side_cums(posm)
        neg_keys, neg_cum, neg_first, neg_len, neg_base = _side_cums(negm)

        # ---- boundary-vectorized quantile walk per (metric, q)
        outs = {
            name: {
                "count": np.zeros(n_groups),
                "sum": np.zeros(n_groups),
                "min": np.full(n_groups, np.nan),
                "max": np.full(n_groups, np.nan),
                **{quantile_name(q): np.full(n_groups, np.nan) for q in quantiles[name]},
            }
            for name in metric_names
        }
        for mi, name in enumerate(metric_names):
            sel = np.flatnonzero(seg_m == mi)
            if not len(sel):
                continue
            gixs = seg_g[sel]
            o = outs[name]
            o["count"][gixs] = cnt_seg[sel]
            o["sum"][gixs] = sum_seg[sel]
            o["min"][gixs] = min_seg[sel]
            o["max"][gixs] = max_seg[sel]
            if not quantiles[name]:
                continue
            nz = cnt_seg[sel] > 0
            segs = sel[nz]
            gix = seg_g[segs]
            cnt = cnt_seg[segs]
            nneg, nzero = neg_cnt[segs], zero_cnt[segs]
            mp = mappings[mi]
            for q in quantiles[name]:
                rank = q * (cnt - 1)
                est = np.zeros(len(segs))
                in_neg = rank < nneg
                in_zero = (~in_neg) & (rank < nneg + nzero)
                in_pos = ~(in_neg | in_zero)
                sel_keys = np.zeros(len(segs), dtype=np.int64)
                sel_sign = np.zeros(len(segs), dtype=np.int8)
                if in_neg.any():
                    # ascending key scan, UPPER rank semantics
                    # (dense_store.rb:123-135 lower=false): first running
                    # count >= reversed_rank + 1
                    rr = nneg[in_neg] - rank[in_neg] - 1.0
                    target = neg_base[segs[in_neg]] + rr + 1.0
                    idx = np.searchsorted(neg_cum, target, side="left")
                    last = neg_first[segs[in_neg]] + neg_len[segs[in_neg]] - 1
                    idx = np.minimum(idx, last)
                    sel_keys[in_neg] = neg_keys[idx]
                    sel_sign[in_neg] = -1
                if in_pos.any():
                    target = (
                        pos_base[segs[in_pos]]
                        + rank[in_pos]
                        - nzero[in_pos]
                        - nneg[in_pos]
                    )
                    idx = np.searchsorted(pos_cum, target, side="right")
                    last = pos_first[segs[in_pos]] + pos_len[segs[in_pos]] - 1
                    idx = np.minimum(idx, last)
                    sel_keys[in_pos] = pos_keys[idx]
                    sel_sign[in_pos] = 1
                # representative values once per DISTINCT key through the
                # mapping's SCALAR (libm) path - bit-parity with the oracle
                used = sel_sign != 0
                if used.any():
                    uniq = np.unique(sel_keys[used])
                    vals = np.array([mp.value(int(kk)) for kk in uniq])
                    est[used] = sel_sign[used] * vals[
                        np.searchsorted(uniq, sel_keys[used])
                    ]
                o[quantile_name(q)][gix] = est

        # group key columns: native values from the representative rows
        cols: dict[str, pa.Array] = {}
        rep_take = pa.array(grp_first)
        for kcol in group_keys:
            col = pt.column(kcol)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            cols[kcol] = col.take(rep_take)
        for name in metric_names:
            p = (prefixes or {}).get(name, "")
            o = outs[name]
            cols[f"{p}count"] = pa.array(o["count"], pa.float64())
            if include_sum_avg[name]:
                cols[f"{p}sum"] = pa.array(o["sum"], pa.float64())
                with np.errstate(invalid="ignore", divide="ignore"):
                    cols[f"{p}avg"] = pa.array(o["sum"] / o["count"], pa.float64())
            cols[f"{p}min"] = pa.array(o["min"], pa.float64())
            cols[f"{p}max"] = pa.array(o["max"], pa.float64())
            for q in quantiles[name]:
                cols[f"{p}{quantile_name(q)}"] = pa.array(o[quantile_name(q)], pa.float64())
        return pa.table(cols)

    return keyed_exchange(
        pairs, finalize_partition, keys="_gh0", num_partitions=num_partitions
    )
