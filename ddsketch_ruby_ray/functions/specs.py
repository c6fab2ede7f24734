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
    state rows (so only KB-sized states ever reach a shuffle);
  * :class:`ddsketch_ruby_ray.stages.accumulate.StateBlockMerger` - the
    per-partition fold after the one keyed state exchange: merge +
    finalize (``merge_sketch_states``) or merge back to a state
    (``merge_states``); every state merge in the library runs through it;
  * the checkpoint writer/reader (state tables ARE the checkpoint format).
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np
import pyarrow as pa

from ..core.ddsketch import (
    DDSketch,
    LogCollapsingHighestDenseSketch,
    LogCollapsingLowestDenseSketch,
    DEFAULT_BIN_LIMIT,
    DEFAULT_REL_ACC,
)

__all__ = ["SketchSpec", "DDSketchSpec", "XorSigSpec", "quantile_name"]


def quantile_name(q: float) -> str:
    """0.5 -> 'p50', 0.99 -> 'p99', 0.999 -> 'p999'."""
    s = f"{q * 100:.10g}"
    return "p" + s.replace(".", "")


class SketchSpec(Protocol):
    """Accumulate / merge / finalize + Arrow state schema for one sketch."""

    name: str  # output column name for this sketch's state / result struct
    columns: tuple  # value columns consumed from each batch

    def zero(self): ...

    def accumulate(self, sketch, arrays: dict) -> None:
        """Feed one group-slice of numpy value arrays into ``sketch``."""

    def state_type(self) -> pa.DataType: ...

    def to_state(self, sketch) -> dict: ...

    def from_state(self, state: dict): ...

    def merge(self, a, b):
        """Pure merge: returns a sketch; mutates NEITHER operand."""

    def finalize(self, sketch) -> dict:
        """Result struct for one group (plain python scalars)."""


class _XorSig:
    __slots__ = ("count", "sig")

    def __init__(self, count: int = 0, sig: int = 0):
        self.count = count
        self.sig = sig


class XorSigSpec:
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

    def accumulate(self, sketch: _XorSig, arrays: dict) -> None:
        vals = np.asarray(arrays[self.on])
        if vals.dtype.kind == "f":  # nullable column materialized as float
            vals = vals[~np.isnan(vals)]
        iv = vals.astype(np.int64, copy=False)
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


_DD_STATE_TYPE = pa.struct(
    [
        pa.field("alpha", pa.float64()),
        pa.field("mapping_offset", pa.float64()),
        pa.field("interpolation", pa.string()),
        pa.field("collapse_mode", pa.string()),
        pa.field("bin_limit", pa.int32()),
        pa.field("bins", pa.list_(pa.float64())),
        pa.field("bin_offset", pa.int64()),
        pa.field("store_count", pa.float64()),
        pa.field("store_collapsed", pa.bool_()),
        pa.field("neg_bins", pa.list_(pa.float64())),
        pa.field("neg_bin_offset", pa.int64()),
        pa.field("neg_store_count", pa.float64()),
        pa.field("neg_store_collapsed", pa.bool_()),
        pa.field("zero_count", pa.float64()),
        pa.field("count", pa.float64()),
        pa.field("sum", pa.float64()),
        pa.field("min", pa.float64()),
        pa.field("max", pa.float64()),
    ]
)


class DDSketchSpec:
    """DDSketch over one value column (optionally weighted).

    Semantics pinned by the reference: signed two-store routing + zero band
    (base_sketch.rb:99-105), exact count/sum/min/max riding along (:107-111),
    floor-rank quantiles (:121-138), gamma-gated pure merge (:146-171).
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
        from ..core.mapping import mapping_from_tag

        return mapping_from_tag(self.interpolation, self.alpha)

    def zero(self) -> DDSketch:
        mp = self._mapping()
        if self.store == "collapse_lowest":
            return LogCollapsingLowestDenseSketch(self.alpha, self.bin_limit, mapping=mp)
        if self.store == "collapse_highest":
            return LogCollapsingHighestDenseSketch(self.alpha, self.bin_limit, mapping=mp)
        return DDSketch(self.alpha, mapping=mp)

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
        st["bins"] = np.asarray(st["bins"], dtype=np.float64)
        st["neg_bins"] = np.asarray(st["neg_bins"], dtype=np.float64)
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
        return out
