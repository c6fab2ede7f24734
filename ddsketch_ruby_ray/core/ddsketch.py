"""DDSketch: quantile sketch with relative-error guarantee alpha.

Semantics derived from the reference (DataDog/ddsketch-ruby):
  - ``BaseSketch``: `/root/reference/lib/ddsketch/base_sketch.rb:70-194`
    * signed values via two stores + zero band: val > min_possible -> positive
      store at key(val); val < -min_possible -> negative store at key(-val);
      else zero_count += weight (base_sketch.rb:99-105)
    * exact running count/sum/min/max alongside the histogram (:107-111)
    * quantile: rank = q*(count-1); negative store first with reversed rank and
      upper ("lower=false") key_at_rank; zero band returns exactly 0; else
      positive store; value = +-mapping.value(key) (:121-138)
    * merge gated on gamma equality -> InvalidSketchMergeError (:146-149);
      other operand is never mutated; empty-self copies deep (:186-194)
  - concrete classes `/root/reference/lib/ddsketch/sketch.rb:10-16`,
    `log_collapsing_lowest_dense_sketch.rb:13-19`,
    `log_collapsing_highest_dense_sketch.rb:13-19` (all hardcode the
    logarithmic mapping)

From-scratch numpy design: ``add_batch(values, weights)`` is the hot path (one
call per Arrow batch): sign-band masks, vectorized key computation, one
scatter-add per store.  Scalar ``add`` exists for conformance tests only.
"""

from __future__ import annotations

import numpy as np

from .mapping import KeyMapping, LogarithmicKeyMapping, mapping_from_tag
from .store import (
    CollapsingHighestDenseStore,
    CollapsingLowestDenseStore,
    DenseStore,
    store_from_state,
)

__all__ = [
    "DDSketch",
    "LogCollapsingLowestDenseSketch",
    "LogCollapsingHighestDenseSketch",
    "InvalidSketchMergeError",
    "DEFAULT_REL_ACC",
    "DEFAULT_BIN_LIMIT",
]

DEFAULT_REL_ACC = 0.01  # base_sketch.rb:33
DEFAULT_BIN_LIMIT = 2048  # base_sketch.rb:36


class InvalidSketchMergeError(ValueError):
    """Raised when merging sketches with different relative accuracy (gamma)."""


class DDSketch:
    """Unbounded-store DDSketch (reference ``DDSketch::Sketch``)."""

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_REL_ACC,
        *,
        mapping: KeyMapping | None = None,
        _store_factory=DenseStore,
    ):
        self.mapping = mapping or LogarithmicKeyMapping(relative_accuracy)
        self.store = _store_factory()
        self.negative_store = _store_factory()
        self.zero_count = 0.0
        self.count = 0.0
        self.sum = 0.0
        self.min = np.inf
        self.max = -np.inf

    # -- properties --------------------------------------------------------
    @property
    def relative_accuracy(self) -> float:
        return self.mapping.relative_accuracy

    @property
    def gamma(self) -> float:
        return self.mapping.gamma

    @property
    def avg(self) -> float:
        return self.sum / self.count

    @property
    def num_values(self) -> float:
        return self.count

    # -- ingestion ---------------------------------------------------------
    def add(self, val: float, weight: float = 1.0) -> None:
        """Scalar add (conformance/API parity; hot path is ``add_batch``)."""
        if weight <= 0.0:
            raise ValueError("weight must be positive")
        self.add_batch(np.asarray([val], dtype=np.float64), np.asarray([weight]))

    def add_batch(self, values, weights=None) -> None:
        """Vectorized equivalent of ``add`` per element (weights all > 0)."""
        vals = np.ascontiguousarray(values, dtype=np.float64)
        if vals.size == 0:
            return
        if weights is not None:
            w = np.ascontiguousarray(weights, dtype=np.float64)
            if w.size and float(w.min()) <= 0.0:
                raise ValueError("weight must be positive")
        else:
            w = None

        mp = self.mapping
        pos = vals > mp.min_possible
        neg = vals < -mp.min_possible

        if pos.any():
            pv = vals[pos]
            self.store.add_batch(mp.key(pv), w[pos] if w is not None else None)
        if neg.any():
            nv = -vals[neg]
            self.negative_store.add_batch(mp.key(nv), w[neg] if w is not None else None)
        zero = ~(pos | neg)
        if zero.any():
            self.zero_count += float(w[zero].sum()) if w is not None else int(zero.sum())

        if w is not None:
            self.count += float(w.sum())
            self.sum += float(np.dot(vals, w))
        else:
            self.count += vals.size
            self.sum += float(vals.sum())
        bmin = float(vals.min())
        bmax = float(vals.max())
        if bmin < self.min:
            self.min = bmin
        if bmax > self.max:
            self.max = bmax

    # -- queries -----------------------------------------------------------
    def get_quantile_value(self, quantile: float):
        """Approximate value at ``quantile`` in [0,1]; None if empty/invalid."""
        if quantile < 0 or quantile > 1 or self.count == 0:
            return None
        rank = quantile * (self.count - 1)
        neg_count = self.negative_store.count
        if rank < neg_count:
            reversed_rank = neg_count - rank - 1
            key = self.negative_store.key_at_rank(reversed_rank, lower=False)
            return -self.mapping.value(key)
        if rank < self.zero_count + neg_count:
            return 0.0
        key = self.store.key_at_rank(rank - self.zero_count - neg_count)
        return self.mapping.value(key)

    def quantiles(self, qs) -> list:
        return [self.get_quantile_value(q) for q in qs]

    # -- merge algebra -----------------------------------------------------
    def _mergeable(self, other: "DDSketch") -> bool:
        return self.mapping.gamma == other.mapping.gamma

    def merge(self, other: "DDSketch") -> "DDSketch":
        """In-place merge; ``other`` is never mutated. Returns self."""
        if not self._mergeable(other):
            raise InvalidSketchMergeError(
                "Cannot merge two sketches with different relative accuracy"
            )
        if other.count == 0:
            return self
        if self.count == 0:
            self._copy(other)
            return self
        self.store.merge(other.store)
        self.negative_store.merge(other.negative_store)
        self.zero_count += other.zero_count
        self.count += other.count
        self.sum += other.sum
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self

    def merged_with(self, other: "DDSketch") -> "DDSketch":
        """Pure merge: returns a new sketch, mutating neither operand."""
        out = self.copy()
        return out.merge(other)

    def _copy(self, other: "DDSketch") -> None:
        self.store.copy(other.store)
        self.negative_store.copy(other.negative_store)
        self.zero_count = other.zero_count
        self.count = other.count
        self.sum = other.sum
        self.min = other.min
        self.max = other.max

    def copy(self) -> "DDSketch":
        out = type(self)._empty_like(self)
        out._copy(self)
        return out

    @classmethod
    def _empty_like(cls, proto: "DDSketch") -> "DDSketch":
        return DDSketch(mapping=proto.mapping)

    # -- (de)serialization -------------------------------------------------
    def to_state(self) -> dict:
        """Arrow/pickle-friendly state: each store as sparse ascending
        ``keys``/``counts`` (the reference wire format's ``binCounts``
        map, ddsketch.proto:58-66), so empty bins never ship.

        Unlike the reference's one-way ``Proto.serialize_sketch``
        (`/root/reference/lib/ddsketch/proto.rb:18-44`) this round-trips, and it
        stores *both* alpha and gamma explicitly (the reference writes alpha into
        the proto ``gamma`` field - proto.rb:36 - a quirk we deliberately avoid).
        """
        pos_keys, pos_counts = _sparse(self.store)
        neg_keys, neg_counts = _sparse(self.negative_store)
        return {
            "alpha": self.mapping.relative_accuracy,
            "gamma": self.mapping.gamma,
            "mapping_offset": self.mapping.offset,
            "interpolation": self.mapping.interpolation,
            "collapse_mode": self.store.collapse_mode,
            "bin_limit": getattr(self.store, "bin_limit", None),
            "keys": pos_keys,
            "counts": pos_counts,
            "store_count": float(self.store.count),
            "store_collapsed": getattr(self.store, "is_collapsed", False),
            "neg_keys": neg_keys,
            "neg_counts": neg_counts,
            "neg_store_count": float(self.negative_store.count),
            "neg_store_collapsed": getattr(self.negative_store, "is_collapsed", False),
            "zero_count": self.zero_count,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @staticmethod
    def from_state(state: dict) -> "DDSketch":
        mode = state.get("collapse_mode")
        bin_limit = state.get("bin_limit")
        mapping = mapping_from_tag(
            state.get("interpolation"),
            float(state["alpha"]),
            float(state.get("mapping_offset", 0.0)),
        )
        if mode == "lowest":
            sk = LogCollapsingLowestDenseSketch(bin_limit=int(bin_limit), mapping=mapping)
        elif mode == "highest":
            sk = LogCollapsingHighestDenseSketch(bin_limit=int(bin_limit), mapping=mapping)
        else:
            sk = DDSketch(mapping=mapping)
        sk.store = _dense(state["keys"], state["counts"], state["store_count"],
                          state.get("store_collapsed", False), mode, bin_limit)
        sk.negative_store = _dense(state["neg_keys"], state["neg_counts"], state["neg_store_count"],
                                   state.get("neg_store_collapsed", False), mode, bin_limit)
        sk.zero_count = float(state["zero_count"])
        sk.count = float(state["count"])
        sk.sum = float(state["sum"])
        sk.min = float(state["min"])
        sk.max = float(state["max"])
        return sk

    def __eq__(self, other):
        if not isinstance(other, DDSketch):
            return NotImplemented
        return (
            self.mapping == other.mapping
            and self.count == other.count
            and self.sum == other.sum
            and self.zero_count == other.zero_count
            and self.min == other.min
            and self.max == other.max
            and self.store == other.store
            and self.negative_store == other.negative_store
        )

    def __hash__(self):  # pragma: no cover
        return id(self)

    def __repr__(self):
        return (
            f"{type(self).__name__}(alpha={self.relative_accuracy}, count={self.count}, "
            f"sum={self.sum}, min={self.min}, max={self.max})"
        )


class LogCollapsingLowestDenseSketch(DDSketch):
    """DDSketch with bounded stores collapsing the lowest bins."""

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_REL_ACC,
        bin_limit: int = DEFAULT_BIN_LIMIT,
        *,
        mapping: KeyMapping | None = None,
    ):
        super().__init__(
            relative_accuracy,
            mapping=mapping,
            _store_factory=lambda: CollapsingLowestDenseStore(bin_limit),
        )
        self.bin_limit = int(bin_limit)

    @classmethod
    def _empty_like(cls, proto):
        return cls(bin_limit=proto.bin_limit, mapping=proto.mapping)


class LogCollapsingHighestDenseSketch(DDSketch):
    """DDSketch with bounded stores collapsing the highest bins."""

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_REL_ACC,
        bin_limit: int = DEFAULT_BIN_LIMIT,
        *,
        mapping: KeyMapping | None = None,
    ):
        super().__init__(
            relative_accuracy,
            mapping=mapping,
            _store_factory=lambda: CollapsingHighestDenseStore(bin_limit),
        )
        self.bin_limit = int(bin_limit)

    @classmethod
    def _empty_like(cls, proto):
        return cls(bin_limit=proto.bin_limit, mapping=proto.mapping)


def _sparse(store: DenseStore):
    """-> (ascending int64 keys, float64 counts) of the non-empty bins."""
    nz = np.flatnonzero(store.bins)
    keys = nz + (int(store.min_key) if len(store.bins) else 0)
    return keys.astype(np.int64), store.bins[nz].copy()


def _dense(keys, counts, count, collapsed, mode, bin_limit) -> DenseStore:
    """Sparse ``keys``/``counts`` -> a store spanning [keys[0], keys[-1]]."""
    keys = np.asarray(keys, dtype=np.int64)
    lo = int(keys[0]) if len(keys) else 0
    bins = np.zeros(int(keys[-1]) - lo + 1 if len(keys) else 0)
    bins[keys - lo] = np.asarray(counts, dtype=np.float64)
    return store_from_state(
        {"bins": bins, "bin_offset": lo, "count": float(count), "is_collapsed": bool(collapsed)},
        mode, bin_limit,
    )
