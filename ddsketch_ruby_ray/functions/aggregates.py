"""Mergeable Ray Data aggregations (the UDAF surface).

Every sketch in the family is exposed as a ``ray.data.aggregate.AggregateFnV2``
subclass sharing one contract (the contract DDSketch defines in the reference:
accumulate / merge / finalize - `/root/reference/lib/ddsketch/base_sketch.rb`):

  * ``aggregate_block(block)``: vectorized partial aggregation of one Arrow (or
    pandas) block -> a small mergeable state.  Ray Data's sort-aggregate runs
    this map-side per (block x group), so only KB-sized sketch states ever
    cross the shuffle - raw rows never do.
  * ``combine(a, b)``: associative + commutative merge.  NEVER mutates its
    operands (the reference's merge-consistency contract,
    `spec/support/shared_examples_for_sketch.rb:203-250`); Ray may merge
    partial states in an arbitrary tree order.
  * ``finalize(state)``: per-group result row (a struct column; use
    :func:`ddsketch_ruby_ray.stages.unnest_struct` to flatten).

Use ``ds.groupby(keys).aggregate(DDSketchAgg(on=...), HLLAgg(on=...), ...)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ray.data.aggregate import AggregateFnV2

from ..core.ddsketch import (
    DDSketch,
    LogCollapsingHighestDenseSketch,
    LogCollapsingLowestDenseSketch,
    DEFAULT_BIN_LIMIT,
    DEFAULT_REL_ACC,
)
from .specs import quantile_name

__all__ = ["SketchAgg", "DDSketchAgg"]


def _column_numpy(block, col: str) -> np.ndarray:
    """Extract a column as a float64 numpy array from an Arrow or pandas block."""
    if hasattr(block, "column_names"):  # pyarrow.Table
        arr = block.column(col)
        if arr.null_count:
            arr = arr.drop_null()
        return arr.to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
    vals = block[col].to_numpy()  # pandas
    vals = vals[~np.isnan(vals)] if vals.dtype.kind == "f" else vals
    return vals.astype(np.float64, copy=False)


class SketchAgg(AggregateFnV2):
    """Base class: subclasses provide a sketch factory + vectorized accumulate.

    Partial states cross the shuffle as Arrow-native ``to_state()`` struct
    dicts (scalars + sparse key/count lists), NOT pickled DDSketch objects - Ray's
    sort-aggregate packs partial states into a block column, and an opaque
    Python object forces its "falling back to serialize as pickled python
    objects" path (slower, and unreadable to any other Arrow consumer).
    ``combine``/``finalize`` accept either form and never mutate operands
    (the reference's merge-consistency contract,
    `spec/support/shared_examples_for_sketch.rb:203-250`).
    """

    def __init__(self, on: str, name: str, ignore_nulls: bool = True):
        super().__init__(name=name, zero_factory=self._zero, on=on, ignore_nulls=ignore_nulls)

    def _zero(self):  # pragma: no cover - overridden
        raise NotImplementedError

    @staticmethod
    def _to_wire(sk: DDSketch) -> dict:
        """Arrow-struct-friendly state: no None values (schema-stable keys)."""
        st = sk.to_state()
        st["bin_limit"] = -1 if st["bin_limit"] is None else int(st["bin_limit"])
        st["interpolation"] = st["interpolation"] or "none"
        st["collapse_mode"] = st["collapse_mode"] or "none"
        return st

    @staticmethod
    def _from_wire(st) -> DDSketch:
        if not isinstance(st, dict):
            return st  # already a sketch (e.g. zero_factory output)
        st = dict(st)
        if st.get("bin_limit") == -1:
            st["bin_limit"] = None
        if st.get("collapse_mode") == "none":
            st["collapse_mode"] = None
        return DDSketch.from_state(st)

    def combine(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        sa, sb = self._from_wire(a), self._from_wire(b)
        if sa.count == 0:
            merged = sb
        elif sb.count == 0:
            merged = sa
        else:
            merged = sa.merged_with(sb)  # pure: mutates neither operand
        return self._to_wire(merged)


class DDSketchAgg(SketchAgg):
    """DDSketch as a distributed UDAF.

    Computes, per group: relative-error-bounded quantiles plus the exact
    count/sum/min/max/avg the sketch carries alongside the histogram
    (base_sketch.rb:107-111 - only quantiles are approximate).

    Args:
        on: value column (float/int).
        relative_accuracy: alpha (default 0.01 per base_sketch.rb:33).
        quantiles: quantiles to emit at finalize.
        store: "dense" | "collapse_lowest" | "collapse_highest".
        bin_limit: bound for collapsing stores (default 2048, base_sketch.rb:36).
        weight: optional weight column (disables Ray's column pruning -
            project the dataset to the needed columns first).
        name: output (struct) column name.
    """

    def __init__(
        self,
        on: str,
        relative_accuracy: float = DEFAULT_REL_ACC,
        quantiles: Sequence[float] = (0.5, 0.9, 0.99),
        store: str = "dense",
        bin_limit: int = DEFAULT_BIN_LIMIT,
        weight: str | None = None,
        name: str | None = None,
        ignore_nulls: bool = True,
    ):
        self._alpha = float(relative_accuracy)
        self._quantiles = list(quantiles)
        self._store = store
        self._bin_limit = int(bin_limit)
        self._weight_col = weight
        self._on_col = on
        super().__init__(on=on, name=name or f"ddsketch({on})", ignore_nulls=ignore_nulls)

    def get_target_column(self):
        # With a weight column we need two columns -> opt out of Ray's
        # single-column pruning (SortAggregateTaskSpec._prune_unused_columns).
        return None if self._weight_col else self._on_col

    def _zero(self) -> DDSketch:
        if self._store == "collapse_lowest":
            return LogCollapsingLowestDenseSketch(self._alpha, self._bin_limit)
        if self._store == "collapse_highest":
            return LogCollapsingHighestDenseSketch(self._alpha, self._bin_limit)
        return DDSketch(self._alpha)

    def aggregate_block(self, block) -> dict:
        sk = self._zero()
        if self._weight_col is None:
            sk.add_batch(_column_numpy(block, self._on_col))
            return self._to_wire(sk)
        else:
            # aligned extraction (no null drop when weighted; assume non-null)
            if hasattr(block, "column_names"):
                vals = block.column(self._on_col).to_numpy(zero_copy_only=False)
                w = block.column(self._weight_col).to_numpy(zero_copy_only=False)
            else:
                vals = block[self._on_col].to_numpy()
                w = block[self._weight_col].to_numpy()
            sk.add_batch(np.asarray(vals, dtype=np.float64), np.asarray(w, dtype=np.float64))
        return self._to_wire(sk)

    def finalize(self, acc) -> dict:
        acc = self._zero() if acc is None else self._from_wire(acc)
        empty = acc.count == 0
        out = {
            "count": float(acc.count),
            "sum": 0.0 if empty else float(acc.sum),
            "min": float("nan") if empty else float(acc.min),
            "max": float("nan") if empty else float(acc.max),
            "avg": float("nan") if empty else float(acc.avg),
        }
        for q in self._quantiles:
            v = acc.get_quantile_value(q)
            out[quantile_name(q)] = float("nan") if v is None else float(v)
        return out


class SketchStateMergeAgg(AggregateFnV2):
    """Merges pre-accumulated sketch-state rows as a Ray aggregate.

    Input: the state table produced by
    :class:`ddsketch_ruby_ray.stages.accumulate.SketchStateAccumulator` - one
    Arrow struct column per sketch; ``finalize`` returns the sketch's result
    struct.  The library itself merges states through one keyed exchange
    (:func:`ddsketch_ruby_ray.pipelines.merge_states`); this is the same
    merge for callers that want Ray's ``aggregate``.  Merge stays
    associative and commutative and never mutates operands
    (base_sketch.rb:146-171 semantics).
    """

    def __init__(self, spec, name: str | None = None):
        self._spec = spec
        super().__init__(
            name=name or spec.name, zero_factory=lambda: None, on=spec.name, ignore_nulls=True
        )

    def aggregate_block(self, block):
        if hasattr(block, "column_names"):  # pyarrow.Table
            col = block.column(self._spec.name)
            states = col.to_pylist()
        else:  # pandas
            states = list(block[self._spec.name])
        acc = None
        for st in states:
            if st is None:
                continue
            sk = self._spec.from_state(st)
            acc = sk if acc is None else self._spec.merge(acc, sk)
        return None if acc is None else self._spec.to_state(acc)

    def _unwire(self, st):
        return self._spec.from_state(st) if isinstance(st, dict) else st

    def combine(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return self._spec.to_state(self._spec.merge(self._unwire(a), self._unwire(b)))

    def finalize(self, acc) -> dict:
        if acc is not None:
            acc = self._unwire(acc)
        return self._spec.finalize(acc)
