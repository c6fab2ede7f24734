"""SketchSpec adapters for the full sketch family (HLL, Bloom, CMS, t-digest,
KLL) - one ``accumulate / merge / finalize`` contract (the one DDSketch
defines, `/root/reference/lib/ddsketch/base_sketch.rb:96-171`) for every
sketch, per north_rule.

Each spec plugs into the same machinery as DDSketchSpec:
:class:`~ddsketch_ruby_ray.stages.accumulate.SketchStateAccumulator` (actor
pool stage: rows -> per-(block, group) states),
:class:`~ddsketch_ruby_ray.stages.accumulate.StateBlockMerger` (the fold
after the one keyed exchange of KB states: ``merge_states`` /
``merge_sketch_states``), and the checkpoint writer (state tables ARE the
checkpoint format).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.ams import AMSSketch
from ..core.bloom import BloomFilter
from ..core.cms import CountMinSketch
from ..core.hashing import hash64_int, hash256_str
from ..core.hll import HyperLogLog
from ..core.kll import KLL
from ..core.kmv import KMVSketch
from ..core.tdigest import TDigest
from .specs import SketchSpec, quantile_name

__all__ = ["HLLSpec", "BloomSpec", "CMSSpec", "TDigestSpec", "KLLSpec", "KMVSpec", "AMSSpec"]


def _is_float(arr) -> bool:
    return isinstance(arr, np.ndarray) and arr.dtype.kind == "f"


def _hash_pair(arrays_val, kind: str):
    """Two independent uint64 lanes for a value array (int or str column)."""
    if kind == "int":
        v = np.asarray(arrays_val)
        if _is_float(v):
            v = v[~np.isnan(v)]
        v = v.astype(np.int64)
        return hash64_int(v, 0), hash64_int(v, 1)
    lanes = hash256_str(arrays_val, lanes=2)
    return lanes[0], lanes[1]


class HLLSpec(SketchSpec):
    """Distinct count per group via HyperLogLog (see core/hll.py).

    ``kind``: "int" (splitmix64, vectorized) or "str" (sha256 lane 0).
    """

    def __init__(self, on: str, *, name: str | None = None, p: int = 14, kind: str = "int"):
        self.on = on
        self.name = name or f"hll({on})"
        self.p = int(p)
        self.kind = kind
        self.columns = (on,)

    def zero(self) -> HyperLogLog:
        return HyperLogLog(self.p)

    def accumulate(self, sketch: HyperLogLog, arrays: dict) -> None:
        vals = arrays[self.on]
        if self.kind == "int":
            v = np.asarray(vals)
            if _is_float(v):
                v = v[~np.isnan(v)]
            sketch.add_ints(v.astype(np.int64))
        else:
            sketch.add_strings(vals)

    def state_type(self) -> pa.DataType:
        return pa.struct([pa.field("p", pa.int32()), pa.field("registers", pa.binary())])

    def to_state(self, sketch: HyperLogLog) -> dict:
        return {"p": sketch.p, "registers": sketch.registers.tobytes()}

    def from_state(self, state: dict) -> HyperLogLog:
        h = HyperLogLog(int(state["p"]))
        h.registers = np.frombuffer(state["registers"], dtype=np.uint8).copy()
        return h

    def merge(self, a: HyperLogLog, b: HyperLogLog) -> HyperLogLog:
        return a.merged_with(b)

    def finalize(self, sketch: HyperLogLog | None) -> dict:
        if sketch is None:
            sketch = self.zero()
        return {"distinct": float(sketch.estimate())}


class KMVSpec(SketchSpec):
    """Distinct count per group via a bottom-k (KMV / theta) sketch
    (see core/kmv.py).  Deterministic under any merge order -> bit-exact
    DuckDB oracle (family_oracle.kmv_sql), unlike HLL only via exact
    HUGEINT arithmetic.

    ``kind``: "int" (splitmix64, vectorized) or "str" (sha256 lane 0).
    """

    def __init__(self, on: str, *, name: str | None = None, k: int = 256, kind: str = "int"):
        self.on = on
        self.name = name or f"kmv({on})"
        self.k = int(k)
        self.kind = kind
        self.columns = (on,)

    def zero(self) -> KMVSketch:
        return KMVSketch(self.k)

    def accumulate(self, sketch: KMVSketch, arrays: dict) -> None:
        vals = arrays[self.on]
        if self.kind == "int":
            v = np.asarray(vals)
            if _is_float(v):
                v = v[~np.isnan(v)]
            sketch.add_hashes(hash64_int(v.astype(np.int64), 0))
        else:
            sketch.add_hashes(hash256_str(vals, lanes=1)[0])

    def state_type(self) -> pa.DataType:
        return pa.struct(
            [pa.field("k", pa.int32()), pa.field("hashes", pa.list_(pa.uint64()))]
        )

    def to_state(self, sketch: KMVSketch) -> dict:
        return {"k": sketch.k, "hashes": sketch.hashes}

    def from_state(self, state: dict) -> KMVSketch:
        s = KMVSketch(int(state["k"]))
        s.hashes = np.asarray(state["hashes"], dtype=np.uint64)
        return s

    def merge(self, a: KMVSketch, b: KMVSketch) -> KMVSketch:
        return a.merged_with(b)

    def finalize(self, sketch: KMVSketch | None) -> dict:
        if sketch is None:
            sketch = self.zero()
        return {"distinct": sketch.estimate(), "kept": float(sketch.hashes.size)}


class BloomSpec(SketchSpec):
    """Set membership per group via a Bloom filter (see core/bloom.py).

    finalize emits fill statistics; the filter itself is the useful product -
    use the state path (merge_sketch_states + from_state) and probe with
    :meth:`BloomFilter.contains_hash_pairs` (broadcast the filter via
    ``ray.put``, probe inside ``map_batches``).
    """

    def __init__(
        self,
        on: str,
        *,
        name: str | None = None,
        m_bits: int = 1 << 20,
        k: int = 7,
        kind: str = "int",
    ):
        self.on = on
        self.name = name or f"bloom({on})"
        self.m_bits = int(m_bits)
        self.k = int(k)
        self.kind = kind
        self.columns = (on,)

    def zero(self) -> BloomFilter:
        return BloomFilter(self.m_bits, self.k)

    def accumulate(self, sketch: BloomFilter, arrays: dict) -> None:
        h1, h2 = _hash_pair(arrays[self.on], self.kind)
        sketch.add_hash_pairs(h1, h2)

    def state_type(self) -> pa.DataType:
        return pa.struct(
            [
                pa.field("m_bits", pa.int64()),
                pa.field("k", pa.int32()),
                pa.field("bits", pa.binary()),
            ]
        )

    def to_state(self, sketch: BloomFilter) -> dict:
        return {"m_bits": sketch.m_bits, "k": sketch.k, "bits": sketch.bits.tobytes()}

    def from_state(self, state: dict) -> BloomFilter:
        b = BloomFilter(int(state["m_bits"]), int(state["k"]))
        b.bits = np.frombuffer(state["bits"], dtype=np.uint64).copy()
        return b

    def merge(self, a: BloomFilter, b: BloomFilter) -> BloomFilter:
        return a.merged_with(b)

    def finalize(self, sketch: BloomFilter | None) -> dict:
        if sketch is None:
            sketch = self.zero()
        ones = float(np.unpackbits(sketch.bits.view(np.uint8)).sum())
        return {"bits_set": ones, "fill_ratio": ones / sketch.m_bits}


class CMSSpec(SketchSpec):
    """Frequency estimation per group via count-min (see core/cms.py).

    Like Bloom, the state is the product: finalize emits only summary stats.
    Probe with :meth:`CountMinSketch.estimate_hash_pairs`.
    """

    def __init__(
        self,
        on: str,
        *,
        name: str | None = None,
        w: int = 2048,
        d: int = 4,
        weight: str | None = None,
        kind: str = "int",
    ):
        self.on = on
        self.name = name or f"cms({on})"
        self.w = int(w)
        self.d = int(d)
        self.weight = weight
        self.kind = kind
        self.columns = (on,) if weight is None else (on, weight)

    def zero(self) -> CountMinSketch:
        return CountMinSketch(self.w, self.d)

    def accumulate(self, sketch: CountMinSketch, arrays: dict) -> None:
        h1, h2 = _hash_pair(arrays[self.on], self.kind)
        w = None
        if self.weight is not None:
            w = np.asarray(arrays[self.weight], dtype=np.float64)
        sketch.add_hash_pairs(h1, h2, w)

    def state_type(self) -> pa.DataType:
        return pa.struct(
            [
                pa.field("w", pa.int32()),
                pa.field("d", pa.int32()),
                pa.field("table", pa.list_(pa.float64())),
                pa.field("total", pa.float64()),
            ]
        )

    def to_state(self, sketch: CountMinSketch) -> dict:
        return {
            "w": sketch.w,
            "d": sketch.d,
            "table": sketch.table.ravel(),
            "total": sketch.total,
        }

    def from_state(self, state: dict) -> CountMinSketch:
        return CountMinSketch.from_state(
            {"w": state["w"], "d": state["d"], "table": np.asarray(state["table"]), "total": state["total"]}
        )

    def merge(self, a: CountMinSketch, b: CountMinSketch) -> CountMinSketch:
        return a.merged_with(b)

    def finalize(self, sketch: CountMinSketch | None) -> dict:
        if sketch is None:
            sketch = self.zero()
        return {"total": float(sketch.total), "max_count": float(sketch.table.max())}


class TDigestSpec(SketchSpec):
    """Rank-accurate quantiles per group via t-digest (see core/tdigest.py).

    Result depends (within the published bound) on partition order ->
    rows-only driver check; accuracy pinned by pytest.
    """

    def __init__(
        self,
        on: str,
        *,
        name: str | None = None,
        compression: float = 200.0,
        quantiles=(0.5, 0.9, 0.99),
    ):
        self.on = on
        self.name = name or f"tdigest({on})"
        self.compression = float(compression)
        self.quantiles = list(quantiles)
        self.columns = (on,)

    def zero(self) -> TDigest:
        return TDigest(self.compression)

    def accumulate(self, sketch: TDigest, arrays: dict) -> None:
        vals = np.asarray(arrays[self.on], dtype=np.float64)
        vals = vals[~np.isnan(vals)]
        if vals.size:
            sketch.add_batch(vals)

    def state_type(self) -> pa.DataType:
        return pa.struct(
            [
                pa.field("compression", pa.float64()),
                pa.field("means", pa.list_(pa.float64())),
                pa.field("weights", pa.list_(pa.float64())),
                pa.field("count", pa.float64()),
                pa.field("min", pa.float64()),
                pa.field("max", pa.float64()),
            ]
        )

    def to_state(self, sketch: TDigest) -> dict:
        st = sketch.to_state()
        return {k: st[k] for k in ("compression", "means", "weights", "count", "min", "max")}

    def from_state(self, state: dict) -> TDigest:
        return TDigest.from_state(state)

    def merge(self, a: TDigest, b: TDigest) -> TDigest:
        return a.merged_with(b)

    def finalize(self, sketch: TDigest | None) -> dict:
        if sketch is None:
            sketch = self.zero()
        empty = sketch.count == 0
        out = {
            "count": float(sketch.count),
            "min": float("nan") if empty else float(sketch.min),
            "max": float("nan") if empty else float(sketch.max),
        }
        for q in self.quantiles:
            v = sketch.quantile(q)
            out[quantile_name(q)] = float("nan") if v is None else float(v)
        return out


class KLLSpec(SketchSpec):
    """Rank-accurate quantiles per group via KLL (see core/kll.py).

    Same rows-only caveat as t-digest (compaction depends on arrival order).
    """

    def __init__(self, on: str, *, name: str | None = None, k: int = 200, quantiles=(0.5, 0.9, 0.99)):
        self.on = on
        self.name = name or f"kll({on})"
        self.k = int(k)
        self.quantiles = list(quantiles)
        self.columns = (on,)

    def zero(self) -> KLL:
        return KLL(self.k)

    def accumulate(self, sketch: KLL, arrays: dict) -> None:
        vals = np.asarray(arrays[self.on], dtype=np.float64)
        vals = vals[~np.isnan(vals)]
        if vals.size:
            sketch.add_batch(vals)

    def state_type(self) -> pa.DataType:
        return pa.struct(
            [
                pa.field("k", pa.int32()),
                pa.field("levels", pa.list_(pa.list_(pa.float64()))),
                pa.field("count", pa.float64()),
                pa.field("min", pa.float64()),
                pa.field("max", pa.float64()),
                pa.field("coin_counter", pa.int64()),
            ]
        )

    def to_state(self, sketch: KLL) -> dict:
        st = sketch.to_state()
        return {
            "k": st["k"],
            "levels": [list(a) for a in st["levels"]],
            "count": st["count"],
            "min": st["min"],
            "max": st["max"],
            "coin_counter": st["coin_counter"],
        }

    def from_state(self, state: dict) -> KLL:
        return KLL.from_state(state)

    def merge(self, a: KLL, b: KLL) -> KLL:
        return a.merged_with(b)

    def finalize(self, sketch: KLL | None) -> dict:
        if sketch is None:
            sketch = self.zero()
        empty = sketch.count == 0
        out = {
            "count": float(sketch.count),
            "min": float("nan") if empty else float(sketch.min),
            "max": float("nan") if empty else float(sketch.max),
        }
        for q in self.quantiles:
            v = sketch.quantile(q)
            out[quantile_name(q)] = float("nan") if v is None else float(v)
        return out


class AMSSpec(SketchSpec):
    """Second frequency moment (self-join size) per group via the AMS
    tug-of-war sketch (see core/ams.py).  Exact integer signed sums ->
    deterministic under any merge order -> bit-exact DuckDB oracle
    (family_oracle.ams_f2_sql).  Int-keyed columns (splitmix64 lanes)."""

    def __init__(self, on: str, *, name: str | None = None, d: int = 5):
        self.on = on
        self.name = name or f"ams({on})"
        self.d = int(d)
        self.columns = (on,)

    def zero(self) -> AMSSketch:
        return AMSSketch(self.d)

    def accumulate(self, sketch: AMSSketch, arrays: dict) -> None:
        v = np.asarray(arrays[self.on])
        if _is_float(v):
            v = v[~np.isnan(v)]
        v = v.astype(np.int64)
        sketch.add_hash_lanes([hash64_int(v, j) for j in range(self.d)])

    def state_type(self) -> pa.DataType:
        return pa.struct(
            [
                pa.field("d", pa.int32()),
                pa.field("count", pa.int64()),
                pa.field("sums", pa.list_(pa.int64())),
            ]
        )

    def to_state(self, sketch: AMSSketch) -> dict:
        return {"d": sketch.d, "count": sketch.count, "sums": sketch.sums}

    def from_state(self, state: dict) -> AMSSketch:
        s = AMSSketch(int(state["d"]))
        s.sums = np.asarray(state["sums"], dtype=np.int64)
        s.count = int(state["count"])
        return s

    def merge(self, a: AMSSketch, b: AMSSketch) -> AMSSketch:
        return a.merged_with(b)

    def finalize(self, sketch: AMSSketch | None) -> dict:
        if sketch is None:
            sketch = self.zero()
        return {"f2": sketch.f2_estimate(), "count": float(sketch.count)}
