"""Many DDSketches of one spec as columns: the table-level accumulate, merge
and finalize behind :class:`~ddsketch_ruby_ray.functions.specs.DDSketchSpec`.

A table's groups are dense int codes ``0..n_groups-1``.  :class:`DDGroups`
holds one sketch per code as numpy columns - per-group count/sum/min/max,
zero band and per-store counts and collapse flags, plus one bin table of
``(group, side, key, count)`` rows sorted by ``(group, side, key)`` with no
duplicate and no empty bin.  Every step is a few whole-table numpy passes
(``bincount``, a sort) over all groups at once; nothing loops over groups
in Python.

  * accumulate: raw values -> keys (vectorized mapping) -> bins summed per
    ``(group, side, key)``.
  * merge: the sparse state rows' bins flattened and summed per
    ``(group, side, key)``.  Summing bins IS the DDSketch merge (full
    mergeability, DDSketch VLDB 2019; base_sketch.rb:146-171).
  * collapsing stores: the clamp model of store.py - the final bins equal
    the multiset of ``max(k, kmax - limit + 1)`` (lowest) or
    ``min(k, kmin + limit - 1)`` (highest) over the store's final extent,
    whatever the arrival order (collapsing_lowest_dense_store_spec.rb:35-38).
  * finalize: a boundary-vectorized quantile walk with the rank arithmetic
    of ``DDSketch.get_quantile_value`` (base_sketch.rb:121-138) over each
    group's own running bin counts; each selected key's value goes through
    the mapping's SCALAR (libm) path once per distinct key, so results are
    bit-identical to the per-sketch path and the SQL oracle.

Bins, counts and sums add their terms one by one in row order, as a store
does, so a sketch of one table's rows is the per-sketch path's bit for bit,
fractional weights included.  Across tables, and in a collapsing store's
clamp, the order of the float sums can differ from a per-sketch fold's; they
are exact (so every result is bit-identical) for integer weights and
integer-valued metrics - the contract of ``include_sum_avg``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.ddsketch import InvalidSketchMergeError
from ..core.mapping import mapping_from_tag
from ..core.numeric import run_starts

__all__ = ["DDGroups", "group_reduce"]

#: state fields that must agree for two states to merge (the gamma gate)
_PARAM_FIELDS = ("alpha", "mapping_offset", "interpolation", "collapse_mode", "bin_limit")
_SIDES = (("neg_keys", "neg_counts"), ("keys", "counts"))  # side 0: negative store


def group_reduce(ufunc, values: np.ndarray, codes: np.ndarray, n_groups: int, fill):
    """``ufunc`` folded over ``values`` per group code; ``fill`` where a
    group has no value."""
    out = np.full(n_groups, fill, dtype=values.dtype)
    ufunc.at(out, codes, values)
    return out


def _sum_bins(g, side, key, cnt):
    """Bin rows in any order, duplicates allowed -> one row per distinct
    (group, side, key), sorted, counts summed.  Each row gets one int64 id;
    ``bincount`` sums over the ids themselves where they are dense, else
    over their ranks from ``np.unique`` (a sort).  The switch is where the
    two cost the same on one core: an id space of about 4x the rows, for
    10^4 to 1.5M uniform ids.  Either way a bin's counts add one by one in
    row order, as ``np.add.at`` adds them in a store."""
    if not len(key):
        return g, side, key, cnt
    kmin = int(key.min())
    span = int(key.max()) - kmin + 1
    ids = (g * 2 + side) * span + (key - kmin)
    if int(ids.max()) < 4 * len(ids):
        sums = np.bincount(ids, weights=cnt)
        ids = np.flatnonzero(sums)
        cnt = sums[ids]
    else:
        ids, inv = np.unique(ids, return_inverse=True)
        cnt = np.bincount(inv.ravel(), weights=cnt)
    gs, key = np.divmod(ids, span)
    return gs // 2, (gs % 2).astype(np.int8), key + kmin, cnt


def _field(states: pa.StructArray, name: str, dtype) -> np.ndarray:
    """A struct field as numpy, nulls (rows of null states) as 0."""
    col = states.field(name)
    if col.null_count:
        col = col.fill_null(False if pa.types.is_boolean(col.type) else 0)
    return col.to_numpy(zero_copy_only=False).astype(dtype)


def _group_cumsum(cnt: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Running sums of ``cnt`` restarted at each group's ``[lo, hi)``,
    added left to right as ``np.cumsum`` adds one store's bins, so every
    value is bit-identical to the per-sketch path's.  One vectorized step
    per bin position: step j adds to the j-th bin of every group that has
    more than j bins."""
    out = cnt.astype(np.float64, copy=True)
    size = hi - lo
    order = np.argsort(-size, kind="stable")
    first, size = lo[order], size[order]
    for j in range(1, int(size[0]) if len(size) else 0):
        at = first[: np.searchsorted(-size, -j, "left")] + j  # groups with > j bins
        out[at] += out[at - 1]
    return out


def _seg_search(local: np.ndarray, lo: np.ndarray, hi: np.ndarray, target, strict: bool):
    """Per query: first index i in [lo, hi) with ``local[i] > target``
    (``>=`` unless ``strict``), else ``hi - 1`` - ``np.searchsorted``
    within each query's own ascending segment, bisecting all at once."""
    end = hi - 1
    lo, hi = lo.copy(), hi.copy()
    while True:
        active = lo < hi
        if not active.any():
            return np.minimum(lo, end)
        mid = (lo + hi) // 2
        v = local[np.minimum(mid, len(local) - 1)]
        right = active & ((v <= target) if strict else (v < target))
        lo = np.where(right, mid + 1, lo)
        hi = np.where(active & ~right, mid, hi)


class DDGroups:
    """``n_groups`` DDSketches of one :class:`DDSketchSpec` as columns."""

    def __init__(self, spec, n_groups: int):
        self.spec = spec
        self.n = n_groups
        self.mapping = mapping_from_tag(spec.interpolation, spec.alpha)

    # -- construction ------------------------------------------------------
    @classmethod
    def from_rows(cls, spec, values, weights, codes: np.ndarray, n_groups: int) -> "DDGroups":
        """Accumulate raw values (NaN = null, dropped) per group code."""
        self = cls(spec, n_groups)
        v = np.asarray(values, dtype=np.float64)
        w = None if weights is None else np.asarray(weights, dtype=np.float64)
        keep = ~np.isnan(v)
        if not keep.all():
            v, codes = v[keep], codes[keep]
            w = None if w is None else w[keep]
        if w is None:
            w = np.ones(len(v))
        elif w.size and float(w.min()) <= 0.0:
            raise ValueError("weight must be positive")
        mp = self.mapping
        side = np.full(len(v), 2, dtype=np.int8)  # 2: zero band
        key = np.zeros(len(v), dtype=np.int64)
        for s, sel in ((1, v > mp.min_possible), (0, v < -mp.min_possible)):
            if sel.any():
                side[sel] = s
                key[sel] = mp.key(np.abs(v[sel]))
        self.present = np.ones(n_groups, dtype=bool)
        self.count = np.bincount(codes, weights=w, minlength=n_groups)
        self.sum = np.bincount(codes, weights=v * w, minlength=n_groups)
        self.min = group_reduce(np.minimum, v, codes, n_groups, np.inf)
        self.max = group_reduce(np.maximum, v, codes, n_groups, -np.inf)
        self.zero, *self.store_count = (
            np.bincount(codes[side == s], weights=w[side == s], minlength=n_groups)
            for s in (2, 0, 1)
        )
        self.collapsed = [np.zeros(n_groups, dtype=bool) for _ in (0, 1)]
        b = side != 2
        self._set_bins(codes[b], side[b], key[b], w[b])
        return self

    @classmethod
    def from_states(cls, spec, states, codes: np.ndarray, n_groups: int) -> "DDGroups":
        """Merge sparse state rows (``spec.state_type()``) per group code;
        null rows are skipped."""
        self = cls(spec, n_groups)
        if isinstance(states, pa.ChunkedArray):
            states = states.combine_chunks()
        valid = states.is_valid().to_numpy(zero_copy_only=False)
        self._check_params(states, valid)
        gv = codes[valid]

        def rows(name, dtype=np.float64):
            return _field(states, name, dtype)[valid]

        self.present = np.bincount(gv, minlength=n_groups) > 0
        self.count = np.bincount(gv, weights=rows("count"), minlength=n_groups)
        self.sum = np.bincount(gv, weights=rows("sum"), minlength=n_groups)
        self.min = group_reduce(np.minimum, rows("min"), gv, n_groups, np.inf)
        self.max = group_reduce(np.maximum, rows("max"), gv, n_groups, -np.inf)
        self.zero = np.bincount(gv, weights=rows("zero_count"), minlength=n_groups)
        self.store_count = [np.bincount(gv, weights=rows(f), minlength=n_groups)
                            for f in ("neg_store_count", "store_count")]
        self.collapsed = [np.bincount(gv, weights=rows(f, bool), minlength=n_groups) > 0
                          for f in ("neg_store_collapsed", "store_collapsed")]

        parts = []
        for s, (kf, cf) in enumerate(_SIDES):
            keys = states.field(kf)
            row = pc.list_parent_indices(keys).to_numpy(zero_copy_only=False)
            ok = valid[row]
            parts.append((
                codes[row][ok],
                np.full(int(ok.sum()), s, dtype=np.int8),
                pc.list_flatten(keys).to_numpy(zero_copy_only=False).astype(np.int64)[ok],
                pc.list_flatten(states.field(cf)).to_numpy(zero_copy_only=False)[ok],
            ))
        self._set_bins(*(np.concatenate(col) for col in zip(*parts)))
        return self

    def _check_params(self, states: pa.StructArray, valid: np.ndarray) -> None:
        want = self.spec.params()
        for f in _PARAM_FIELDS:
            col = states.field(f) if valid.all() else states.field(f).filter(pa.array(valid))
            got = pc.unique(col).to_pylist()
            if got and got != [want[f]]:
                raise InvalidSketchMergeError(
                    f"cannot merge DDSketch states with {f}={got} into {f}={want[f]!r}"
                )

    def _set_bins(self, g, side, key, cnt) -> None:
        """Bin rows -> summed per (group, side, key), collapsing-store clamp
        applied, collapse flags updated."""
        g, side, key, cnt = _sum_bins(g, side, key, cnt)
        store, limit = self.spec.store, self.spec.bin_limit
        if store != "dense" and len(key):
            run = np.flatnonzero(run_starts(g, side))
            run_len = np.diff(np.r_[run, len(key)])
            first = np.repeat(key[run], run_len)
            last = np.repeat(key[np.r_[run[1:], len(key)] - 1], run_len)
            wide = last - first + 1 > limit
            for s in (0, 1):
                self.collapsed[s][g[wide & (side == s)]] = True
            if store == "collapse_lowest":
                key = np.maximum(key, last - limit + 1)
            else:
                key = np.minimum(key, first + limit - 1)
            starts = np.flatnonzero(run_starts(g, side, key))  # the clamp keeps each run sorted
            g, side, key, cnt = g[starts], side[starts], key[starts], np.add.reduceat(cnt, starts)
        self.g, self.side, self.key, self.cnt = g, side, key, cnt

    # -- output --------------------------------------------------------------
    def to_states(self) -> pa.StructArray:
        """One ``spec.state_type()`` row per group; null for a group that
        had no state row."""
        n, params, ty = self.n, self.spec.params(), self.spec.state_type()
        cols = {f: pa.repeat(pa.scalar(params[f], ty.field(f).type), n) for f in _PARAM_FIELDS}
        for s, (kf, cf) in enumerate(_SIDES):
            sel = self.side == s
            offsets = pa.array(np.r_[0, np.cumsum(np.bincount(self.g[sel], minlength=n))]
                               .astype(np.int32))
            keys = self.key[sel]
            if len(keys) and max(-keys.min(), keys.max()) > np.iinfo(np.int32).max:
                raise OverflowError("DDSketch key outside the int32 state range")
            cols[kf] = pa.ListArray.from_arrays(offsets, pa.array(keys.astype(np.int32)))
            cols[cf] = pa.ListArray.from_arrays(offsets, pa.array(self.cnt[sel]))
        scalars = dict(
            store_count=self.store_count[1], store_collapsed=self.collapsed[1],
            neg_store_count=self.store_count[0], neg_store_collapsed=self.collapsed[0],
            zero_count=self.zero, count=self.count, sum=self.sum, min=self.min, max=self.max,
        )
        cols.update((f, pa.array(v, ty.field(f).type)) for f, v in scalars.items())
        return pa.StructArray.from_arrays(
            [cols[f.name] for f in ty], fields=list(ty), mask=pa.array(~self.present)
        )

    def finalize(self) -> dict:
        """-> ``{result field: float64 column}``, the fields and values of
        ``spec.finalize`` for every group."""
        spec, n = self.spec, self.n
        empty = self.count == 0
        out = {"count": self.count}
        if spec.include_sum_avg:
            out["sum"] = np.where(empty, 0.0, self.sum)
            with np.errstate(invalid="ignore", divide="ignore"):
                out["avg"] = np.where(empty, np.nan, self.sum / self.count)
        out["min"] = np.where(empty, np.nan, self.min)
        out["max"] = np.where(empty, np.nan, self.max)
        if not spec.quantiles:
            return out

        # per side: within-group running counts, and each group's bin range
        walk = []
        for s in (0, 1):
            sel = self.side == s
            g, cnt = self.g[sel], self.cnt[sel]
            lo = np.searchsorted(g, np.arange(n), "left")
            hi = np.searchsorted(g, np.arange(n), "right")
            walk.append((self.key[sel], _group_cumsum(cnt, lo, hi), lo, hi))

        from .specs import quantile_name

        neg_count, zero = self.store_count[0], self.zero
        for q in spec.quantiles:
            est = np.full(n, np.nan)
            if 0 <= q <= 1:
                ok = ~empty
                rank = q * (self.count - 1)
                in_neg = ok & (rank < neg_count)
                in_zero = ok & ~in_neg & (rank < zero + neg_count)
                in_pos = ok & ~in_neg & ~in_zero
                est[in_zero] = 0.0
                for s, sign, sel, target, strict in (
                    # negative store: upper rank (lower=False) on the reversed rank
                    (0, -1.0, in_neg, neg_count - rank - 1 + 1, False),
                    (1, 1.0, in_pos, rank - zero - neg_count, True),
                ):
                    keys, local, lo, hi = walk[s]
                    sel = sel & (hi > lo)
                    if not sel.any():
                        continue
                    idx = _seg_search(local, lo[sel], hi[sel], target[sel], strict)
                    uniq, inv = np.unique(keys[idx], return_inverse=True)
                    vals = np.array([self.mapping.value(int(k)) for k in uniq])
                    est[sel] = sign * vals[inv]
            out[quantile_name(q)] = est
        return out
