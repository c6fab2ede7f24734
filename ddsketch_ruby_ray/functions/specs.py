"""SketchSpec: the one interface every sketch in the family implements.

A spec describes how a sketch participates in distributed aggregation
(the contract DDSketch defines in the reference - accumulate / merge /
finalize, `/root/reference/lib/ddsketch/base_sketch.rb:96-171`) plus how its
state crosses process boundaries as an Arrow struct (the contiguous encoding
idea of `/root/reference/lib/ddsketch/proto/ddsketch.proto:58-66`, made
round-trippable).

Used by:
  * :class:`ddsketch_ruby_ray.stages.accumulate.SketchStateAccumulator` -
    actor-pool map_batches stage turning raw rows into per-(batch, group)
    state rows (so only KB-sized states ever reach a shuffle), through
    ``spec.accumulate_groups``;
  * :class:`ddsketch_ruby_ray.stages.accumulate.StateBlockMerger` - the
    per-partition fold after the one keyed state exchange, through
    ``spec.finalize_groups`` (``merge_sketch_states``, rollup/cube) or
    ``spec.merge_groups`` (``merge_states``); every state merge in the
    library runs through it;
  * the checkpoint writer/reader (state tables ARE the checkpoint format).

The DDSketch state is sparse: each store ships ascending ``keys`` (int32,
the proto's ``sint32``) and their ``counts`` (float64), never an empty bin
(the ``binCounts`` map of ddsketch.proto:58-66), so a merge is a group-by
sum of (group, side, key) counts (:mod:`.ddgroups`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa

from ..core.ddsketch import (
    DDSketch,
    LogCollapsingHighestDenseSketch,
    LogCollapsingLowestDenseSketch,
    DEFAULT_BIN_LIMIT,
    DEFAULT_REL_ACC,
)
from ..core.mapping import mapping_from_tag
from .ddgroups import DDGroups, group_reduce

__all__ = ["SketchSpec", "DDSketchSpec", "XorSigSpec", "quantile_name", "group_rows"]


def quantile_name(q: float) -> str:
    """0.5 -> 'p50', 0.99 -> 'p99', 0.999 -> 'p999'."""
    s = f"{q * 100:.10g}"
    return "p" + s.replace(".", "")


class SketchSpec:
    """Accumulate / merge / finalize + Arrow state schema for one sketch.

    A spec implements the per-sketch steps (``zero``, ``accumulate``,
    ``to_state``/``from_state``, ``merge``, ``finalize``).  The pipelines
    call the table-level steps below, each over every group of one table at
    once (groups given as dense int ``codes`` per row, ``0..n_groups-1``).
    Their defaults fold one sketch object per group; a spec whose merge is
    a columnar group-by overrides them (:class:`DDSketchSpec`,
    :class:`XorSigSpec`).  t-digest and KLL must fold per group, because
    their compactions depend on order.
    """

    name: str  # output column name for this sketch's state / result struct
    columns: tuple  # value columns consumed from each batch

    def accumulate_groups(self, arrays: dict, codes: np.ndarray, n_groups: int) -> pa.Array:
        """Value columns (numpy, or Arrow for strings) -> one
        ``state_type()`` row per group."""
        states = []
        for rows in group_rows(codes, n_groups):
            sk = self.zero()
            self.accumulate(sk, {c: _take(arrays[c], rows) for c in self.columns})
            states.append(self.to_state(sk))
        return pa.array(states, type=self.state_type())

    def merge_groups(self, states, codes: np.ndarray, n_groups: int) -> pa.Array:
        """State rows -> one merged state row per group (null where a group
        has only null states)."""
        return pa.array(
            [None if sk is None else self.to_state(sk)
             for sk in self._merged(states, codes, n_groups)],
            type=self.state_type(),
        )

    def finalize_groups(self, states, codes: np.ndarray, n_groups: int) -> pa.Array:
        """State rows -> one ``finalize`` struct per group, typed
        :meth:`result_type`."""
        return pa.array(
            [self.finalize(sk) for sk in self._merged(states, codes, n_groups)],
            type=self.result_type(),
        )

    def result_type(self) -> pa.StructType:
        """The ``finalize`` struct, fields in its key order (type inference
        would sort them), so every plan and every table - an empty one
        included - has the same schema."""
        return pa.struct([(k, pa.scalar(v).type) for k, v in self.finalize(None).items()])

    def _merged(self, states, codes, n_groups) -> list:
        merged = [None] * n_groups
        for st, g in zip(_state_rows(states), codes):
            if st is not None:
                sk = self.from_state(st)
                merged[g] = sk if merged[g] is None else self.merge(merged[g], sk)
        return merged


def group_rows(codes: np.ndarray, n_groups: int) -> list:
    """Row indices of each group code, in row order."""
    order = np.argsort(codes, kind="stable")
    bounds = np.searchsorted(codes[order], np.arange(n_groups + 1))
    return [order[bounds[g] : bounds[g + 1]] for g in range(n_groups)]


def _take(values, rows: np.ndarray):
    if isinstance(values, np.ndarray):
        return values[rows]
    return values.take(pa.array(rows))


def _state_rows(col) -> list:
    """State struct column -> one dict (or None) per row, like ``to_pylist``
    but with each list-of-numbers field as a numpy slice of one writable
    copy of its values: no Python number per list element."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    fields = {}
    for i, field in enumerate(col.type):
        child, ty = col.field(i), field.type
        if (
            pa.types.is_list(ty)
            and (pa.types.is_integer(ty.value_type) or pa.types.is_floating(ty.value_type))
            and child.values.null_count == 0
        ):
            offs = child.offsets.to_numpy()
            vals = child.values.to_numpy(zero_copy_only=False).copy()
            ok = child.is_valid().to_numpy(zero_copy_only=False)
            fields[field.name] = [
                vals[a:b] if v else None for a, b, v in zip(offs[:-1], offs[1:], ok)
            ]
        else:
            fields[field.name] = child.to_pylist()
    valid = col.is_valid().to_numpy(zero_copy_only=False)
    return [
        dict(zip(fields, row)) if ok else None
        for ok, row in zip(valid, zip(*fields.values()))
    ]


class _XorSig:
    __slots__ = ("count", "sig")

    def __init__(self, count: int = 0, sig: int = 0):
        self.count = count
        self.sig = sig


class XorSigSpec(SketchSpec):
    """Order-independent content-integrity aggregate (the sha256 invariant).

    XOR-folds a per-row 60-bit content hash (see
    :func:`ddsketch_ruby_ray.stages.derive.add_sha64`) per group.  XOR is
    associative, commutative and self-inverse, so ANY partitioning / merge
    order yields the identical signature - a distributed run proves per-row
    content equality vs the reference corpus without shipping content.
    """

    def __init__(self, on: str, *, name: str | None = None):
        self.on = on
        self.name = name or f"xorsig({on})"
        self.columns = (on,)

    def zero(self) -> _XorSig:
        return _XorSig()

    def _ints(self, vals):
        vals = np.asarray(vals)
        keep = ~np.isnan(vals) if vals.dtype.kind == "f" else None  # nullable column
        return (vals if keep is None else vals[keep]).astype(np.int64, copy=False), keep

    def accumulate(self, sketch: _XorSig, arrays: dict) -> None:
        iv, _ = self._ints(arrays[self.on])
        sketch.count += int(iv.size)
        if iv.size:
            sketch.sig ^= int(np.bitwise_xor.reduce(iv))

    def state_type(self) -> pa.DataType:
        return pa.struct([pa.field("count", pa.int64()), pa.field("sig", pa.int64())])

    def to_state(self, sketch: _XorSig) -> dict:
        return {"count": sketch.count, "sig": sketch.sig}

    def from_state(self, state: dict) -> _XorSig:
        return _XorSig(int(state["count"]), int(state["sig"]))

    def merge(self, a: _XorSig, b: _XorSig) -> _XorSig:
        return _XorSig(a.count + b.count, a.sig ^ b.sig)

    def finalize(self, sketch: _XorSig | None) -> dict:
        if sketch is None:
            sketch = _XorSig()
        # sig stays int64: it has 60 significant bits (float64 would round it)
        return {"count": float(sketch.count), "sig": int(sketch.sig)}

    # -- table-level steps: a count sum and an xor per group -----------------
    def _fold(self, counts, sigs, codes, n_groups):
        return (group_reduce(np.add, counts, codes, n_groups, 0),
                group_reduce(np.bitwise_xor, sigs, codes, n_groups, 0))

    def _states(self, states, codes, n_groups):
        if isinstance(states, pa.ChunkedArray):
            states = states.combine_chunks()
        valid = states.is_valid().to_numpy(zero_copy_only=False)
        count, sig = (states.field(f).fill_null(0).to_numpy(zero_copy_only=False)[valid]
                      for f in ("count", "sig"))
        return self._fold(count, sig, codes[valid], n_groups), codes[valid]

    def accumulate_groups(self, arrays, codes, n_groups):
        iv, keep = self._ints(arrays[self.on])
        codes = codes if keep is None else codes[keep]
        count, sig = self._fold(np.ones(len(iv), np.int64), iv, codes, n_groups)
        return pa.StructArray.from_arrays([pa.array(count), pa.array(sig)],
                                          fields=list(self.state_type()))

    def merge_groups(self, states, codes, n_groups):
        (count, sig), gv = self._states(states, codes, n_groups)
        return pa.StructArray.from_arrays(
            [pa.array(count), pa.array(sig)], fields=list(self.state_type()),
            mask=pa.array(np.bincount(gv, minlength=n_groups) == 0),
        )

    def finalize_groups(self, states, codes, n_groups):
        (count, sig), _ = self._states(states, codes, n_groups)
        return pa.StructArray.from_arrays(
            [pa.array(count.astype(np.float64)), pa.array(sig)], fields=list(self.result_type())
        )


_DD_STATE_TYPE = pa.struct(
    [
        pa.field("alpha", pa.float64()),
        pa.field("mapping_offset", pa.float64()),
        pa.field("interpolation", pa.string()),
        pa.field("collapse_mode", pa.string()),
        pa.field("bin_limit", pa.int32()),
        pa.field("keys", pa.list_(pa.int32())),
        pa.field("counts", pa.list_(pa.float64())),
        pa.field("store_count", pa.float64()),
        pa.field("store_collapsed", pa.bool_()),
        pa.field("neg_keys", pa.list_(pa.int32())),
        pa.field("neg_counts", pa.list_(pa.float64())),
        pa.field("neg_store_count", pa.float64()),
        pa.field("neg_store_collapsed", pa.bool_()),
        pa.field("zero_count", pa.float64()),
        pa.field("count", pa.float64()),
        pa.field("sum", pa.float64()),
        pa.field("min", pa.float64()),
        pa.field("max", pa.float64()),
    ]
)


class DDSketchSpec(SketchSpec):
    """DDSketch over one value column (optionally weighted).

    Semantics pinned by the reference: signed two-store routing + zero band
    (base_sketch.rb:99-105), exact count/sum/min/max riding along (:107-111),
    floor-rank quantiles (:121-138), gamma-gated pure merge (:146-171).
    The table-level steps run every group of a table in one vectorized pass
    (:class:`~.ddgroups.DDGroups`) and build no sketch object.
    """

    def __init__(
        self,
        on: str,
        *,
        name: str | None = None,
        relative_accuracy: float = DEFAULT_REL_ACC,
        quantiles: Sequence[float] = (0.5, 0.9, 0.99),
        store: str = "dense",
        bin_limit: int = DEFAULT_BIN_LIMIT,
        weight: str | None = None,
        include_sum_avg: bool = True,
        interpolation: str | None = None,
    ):
        self.on = on
        self.name = name or f"ddsketch({on})"
        self.alpha = float(relative_accuracy)
        self.quantiles = list(quantiles)
        self.store = store
        self.bin_limit = int(bin_limit)
        self.weight = weight
        self.include_sum_avg = include_sum_avg
        self.interpolation = interpolation  # None=log | "linear" | "cubic"
        self.columns = (on,) if weight is None else (on, weight)

    def _mapping(self):
        if self.interpolation is None:
            return None  # sketch ctor builds the default logarithmic mapping
        return mapping_from_tag(self.interpolation, self.alpha)

    def zero(self) -> DDSketch:
        mp = self._mapping()
        if self.store == "collapse_lowest":
            return LogCollapsingLowestDenseSketch(self.alpha, self.bin_limit, mapping=mp)
        if self.store == "collapse_highest":
            return LogCollapsingHighestDenseSketch(self.alpha, self.bin_limit, mapping=mp)
        return DDSketch(self.alpha, mapping=mp)

    def params(self) -> dict:
        """The state's mapping and store fields (equal in every state of
        this spec; merging requires them equal)."""
        return {
            "alpha": self.alpha,
            "mapping_offset": 0.0,
            "interpolation": mapping_from_tag(self.interpolation, self.alpha).interpolation,
            "collapse_mode": {"collapse_lowest": "lowest", "collapse_highest": "highest"}.get(
                self.store
            ),
            "bin_limit": None if self.store == "dense" else self.bin_limit,
        }

    def accumulate(self, sketch: DDSketch, arrays: dict) -> None:
        vals = np.asarray(arrays[self.on], dtype=np.float64)
        w = arrays[self.weight] if self.weight else None
        keep = ~np.isnan(vals)
        if not keep.all():
            vals = vals[keep]
            w = np.asarray(w, dtype=np.float64)[keep] if w is not None else None
        if vals.size:
            sketch.add_batch(vals, w)

    def state_type(self) -> pa.DataType:
        return _DD_STATE_TYPE

    def to_state(self, sketch: DDSketch) -> dict:
        st = sketch.to_state()
        st.pop("gamma", None)  # derived from alpha; not shipped
        bl = st.get("bin_limit")
        st["bin_limit"] = None if bl is None else int(bl)
        return st

    def from_state(self, state: dict) -> DDSketch:
        return DDSketch.from_state(state)

    def merge(self, a: DDSketch, b: DDSketch) -> DDSketch:
        return a.merged_with(b)

    def finalize(self, sketch: DDSketch | None) -> dict:
        if sketch is None:
            sketch = self.zero()
        empty = sketch.count == 0
        out = {"count": float(sketch.count)}
        if self.include_sum_avg:
            out["sum"] = 0.0 if empty else float(sketch.sum)
            out["avg"] = float("nan") if empty else float(sketch.avg)
        out["min"] = float("nan") if empty else float(sketch.min)
        out["max"] = float("nan") if empty else float(sketch.max)
        for q in self.quantiles:
            v = sketch.get_quantile_value(q)
            out[quantile_name(q)] = float("nan") if v is None else float(v)
        return {n: out[n] for n in self._result_names()}

    def _result_names(self) -> list:
        """The result columns in order: the one definition that ``finalize``,
        ``result_type`` and ``finalize_groups`` follow."""
        names = ["count", *(["sum", "avg"] if self.include_sum_avg else []), "min", "max"]
        return names + [quantile_name(q) for q in self.quantiles]

    def result_type(self) -> pa.StructType:
        return pa.struct([(n, pa.float64()) for n in self._result_names()])

    # -- table-level steps: one vectorized pass over all groups --------------
    def accumulate_groups(self, arrays, codes, n_groups):
        w = arrays[self.weight] if self.weight else None
        return DDGroups.from_rows(self, arrays[self.on], w, codes, n_groups).to_states()

    def merge_groups(self, states, codes, n_groups):
        return DDGroups.from_states(self, states, codes, n_groups).to_states()

    def finalize_groups(self, states, codes, n_groups):
        cols = DDGroups.from_states(self, states, codes, n_groups).finalize()
        ty = self.result_type()
        return pa.StructArray.from_arrays([pa.array(cols[f.name], f.type) for f in ty],
                                          fields=list(ty))
