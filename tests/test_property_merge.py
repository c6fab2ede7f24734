"""Hypothesis property tests: the merge algebra under arbitrary inputs.

north_rule: "merge must be associative/commutative so any partition merge
order yields identical sketches" - here the property is checked against
RANDOMIZED value sets, weights, split points and merge orders, not just the
fixed cases of the conformance suite.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddsketch_ruby_ray.core.ddsketch import DDSketch
from ddsketch_ruby_ray.core.hll import HyperLogLog
from ddsketch_ruby_ray.core.cms import CountMinSketch

from .datasets import assert_matches_core_reference, core_grouped_reference

finite_values = st.lists(
    st.floats(
        min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
    ),
    min_size=1,
    max_size=200,
)


def _split(values: list[float], seed: int, parts: int):
    rng = np.random.default_rng(seed)
    arr = np.asarray(values, dtype=np.float64)
    assignment = rng.integers(0, parts, len(arr))
    return [arr[assignment == p] for p in range(parts)]


class TestDDSketchProperties:
    @given(values=finite_values, seed=st.integers(0, 2**16), parts=st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_any_partition_merge_order_identical(self, values, seed, parts):
        whole = DDSketch(0.02)
        whole.add_batch(np.asarray(values))

        chunks = _split(values, seed, parts)
        partials = []
        for c in chunks:
            s = DDSketch(0.02)
            if c.size:
                s.add_batch(c)
            partials.append(s)
        order = np.random.default_rng(seed + 1).permutation(parts)
        merged = DDSketch(0.02)
        for i in order:
            merged.merge(partials[i])

        # identical state: counts exact, bins identical
        assert merged.count == whole.count
        assert merged.zero_count == whole.zero_count
        assert merged.store == whole.store
        assert merged.negative_store == whole.negative_store
        assert merged.min == whole.min and merged.max == whole.max

    @given(values=finite_values)
    @settings(max_examples=40, deadline=None)
    def test_accuracy_guarantee(self, values):
        sk = DDSketch(0.05)
        sk.add_batch(np.asarray(values))
        sorted_v = np.sort(np.asarray(values, dtype=np.float64))
        for q in (0.0, 0.25, 0.5, 0.75, 0.99, 1.0):
            est = sk.get_quantile_value(q)
            true = sorted_v[int(q * (len(sorted_v) - 1))]
            assert abs(est - true) - 0.05 * abs(true) <= 1e-15

    @given(
        values=finite_values,
        weights_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_weighted_equals_repeated(self, values, weights_seed):
        rng = np.random.default_rng(weights_seed)
        w = rng.integers(1, 4, len(values)).astype(np.float64)
        weighted = DDSketch(0.02)
        weighted.add_batch(np.asarray(values), w)
        repeated = DDSketch(0.02)
        repeated.add_batch(np.repeat(np.asarray(values, dtype=np.float64), w.astype(int)))
        assert weighted.count == repeated.count
        assert weighted.store == repeated.store
        assert weighted.negative_store == repeated.negative_store


class TestGroupedPlanProperties:
    """The grouped sketch plan must equal a per-group fold of core sketches
    for ARBITRARY inputs - groups of size 1, all-zero groups, extreme
    magnitudes, signed values, 1 to 4 blocks - not just the fixed fixtures."""

    @given(
        data=st.lists(
            st.tuples(
                st.integers(0, 6),  # group id
                st.floats(min_value=-1e12, max_value=1e12,
                          allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=300,
        ),
        blocks=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_grouped_plan_equals_core_fold(self, ray_session, data, blocks):
        import pyarrow as pa
        import ray.data as rd

        from ddsketch_ruby_ray.functions.specs import DDSketchSpec
        from ddsketch_ruby_ray.pipelines import grouped_sketch_pipeline

        tbl = pa.table(
            {
                "g": pa.array([f"g{g}" for g, _ in data]),
                "v": pa.array([v for _, v in data], pa.float64()),
            }
        )
        spec = DDSketchSpec(on="v", name="s", quantiles=(0.0, 0.5, 1.0),
                            include_sum_avg=False)
        rows = grouped_sketch_pipeline(
            rd.from_arrow(tbl).repartition(blocks), [spec], ("g",)
        ).take_all()
        assert_matches_core_reference(rows, "g", core_grouped_reference(tbl, "g", spec, blocks))


class TestFamilyProperties:
    @given(
        keys=st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=300),
        seed=st.integers(0, 2**16),
        parts=st.integers(2, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_hll_partition_invariant(self, keys, seed, parts):
        whole = HyperLogLog(10)
        whole.add_ints(np.asarray(keys, dtype=np.int64))
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, parts, len(keys))
        merged = HyperLogLog(10)
        for p in rng.permutation(parts):
            part = HyperLogLog(10)
            sel = np.asarray(keys, dtype=np.int64)[assignment == p]
            if sel.size:
                part.add_ints(sel)
            merged.merge(part)
        assert merged == whole

    @given(
        keys=st.lists(st.integers(0, 1000), min_size=1, max_size=300),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_cms_partition_invariant_and_overestimates(self, keys, seed):
        arr = np.asarray(keys, dtype=np.int64)
        whole = CountMinSketch(64, 3)
        whole.add_hash_pairs(*whole.hash_pair_ints(arr))
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, 3, len(arr))
        merged = CountMinSketch(64, 3)
        for p in rng.permutation(3):
            part = CountMinSketch(64, 3)
            sel = arr[assignment == p]
            if sel.size:
                part.add_hash_pairs(*part.hash_pair_ints(sel))
            merged.merge(part)
        assert merged == whole
        uniq, true = np.unique(arr, return_counts=True)
        est = merged.estimate_hash_pairs(*merged.hash_pair_ints(uniq))
        assert (est >= true - 1e-9).all()


def test_grouped_plan_preserves_key_dtypes_and_nulls(ray_session):
    """Group keys keep their INPUT dtypes (not stringified), a null key is
    its own group, and result columns follow ``spec.finalize``'s order."""
    import pyarrow as pa
    import ray.data as rd

    from ddsketch_ruby_ray.functions.specs import DDSketchSpec
    from ddsketch_ruby_ray.pipelines import grouped_sketch_pipeline

    t = pa.table(
        {
            "ki": pa.array([1, 2, 1, None, 2, None], pa.int64()),
            "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        }
    )
    spec = DDSketchSpec(on="v", name="s", relative_accuracy=0.01, quantiles=(0.5,))
    ds = grouped_sketch_pipeline(rd.from_arrow(t).repartition(2), [spec], ("ki",))
    assert ds.schema().names == ["ki", *spec.finalize(None)]
    assert ds.schema().types[0] == pa.int64()
    rows = ds.take_all()
    assert {r["ki"]: r["count"] for r in rows} == {1: 2.0, 2: 2.0, None: 2.0}
    assert_matches_core_reference(rows, "ki", core_grouped_reference(t, "ki", spec, 2))


def test_grouped_plan_all_mappings_match_core_fold(ray_session):
    """Linear/cubic mappings, weighted adds and collapsing stores, over
    string keys and 1 to 5 blocks: bit-identical to a per-group core fold."""
    import pyarrow as pa
    import ray.data as rd

    from ddsketch_ruby_ray.functions.specs import DDSketchSpec
    from ddsketch_ruby_ray.pipelines import grouped_sketch_pipeline

    rng = np.random.default_rng(42)
    n = 4000
    t = pa.table(
        {
            "g": pa.array(rng.choice(["a", "b", "c"], n)),
            "v": pa.array(np.round(rng.normal(0, 100, n))),  # signed, int-valued
            "w": pa.array(rng.integers(1, 5, n).astype(np.float64)),
        }
    )
    cases = [
        dict(interpolation="linear"),
        dict(interpolation="cubic"),
        dict(weight="w", include_sum_avg=False),
        dict(store="collapse_lowest", bin_limit=32),
        dict(store="collapse_highest", bin_limit=32),
        dict(interpolation="cubic", store="collapse_lowest", bin_limit=32, weight="w",
             include_sum_avg=False),
    ]
    for i, kw in enumerate(cases):
        blocks = 1 + i % 5
        spec = DDSketchSpec(on="v", name="s", relative_accuracy=0.02,
                            quantiles=(0.1, 0.5, 0.9), **kw)
        rows = grouped_sketch_pipeline(
            rd.from_arrow(t).repartition(blocks), [spec], ("g",)
        ).take_all()
        assert_matches_core_reference(rows, "g", core_grouped_reference(t, "g", spec, blocks))

    # fractional weights: in one block the bins, counts and each group's
    # running counts add in row order as a core store's do, so bit-identical
    t = t.set_column(2, "w", pa.array(rng.choice([0.1, 0.3], n)))
    for kw in (dict(), dict(interpolation="cubic")):
        spec = DDSketchSpec(on="v", name="s", relative_accuracy=0.02, weight="w",
                            quantiles=(0.1, 0.5, 0.9, 0.99), **kw)
        rows = grouped_sketch_pipeline(rd.from_arrow(t), [spec], ("g",)).take_all()
        assert_matches_core_reference(rows, "g", core_grouped_reference(t, "g", spec, 1))


def test_group_cumsum_matches_per_store_cumsum():
    """Each group's running bin counts are ``np.cumsum`` of its own bins bit
    for bit - with fractional counts a global cumsum minus each group's
    prefix is not."""
    from ddsketch_ruby_ray.functions.ddgroups import _group_cumsum

    rng = np.random.default_rng(11)
    sizes = rng.integers(0, 40, 300)
    cnt = rng.choice([0.1, 0.3, 0.7], int(sizes.sum()))
    hi = np.cumsum(sizes)
    lo = hi - sizes
    got = _group_cumsum(cnt, lo, hi)
    want = np.concatenate([np.cumsum(cnt[a:b]) for a, b in zip(lo, hi)])
    assert got.tobytes() == want.tobytes()
    assert _group_cumsum(cnt[:0], lo[:0], hi[:0]).size == 0


def test_grouped_steps_build_no_per_group_sketch(monkeypatch):
    """Accumulate -> merge -> finalize of DDSketch and XorSig states runs with
    ``zero``/``from_state`` made to raise: the table-level steps build no
    sketch object per group, and give what they gave before."""
    import pyarrow as pa

    from ddsketch_ruby_ray.functions.specs import DDSketchSpec, XorSigSpec
    from ddsketch_ruby_ray.stages.accumulate import SketchStateAccumulator, StateBlockMerger

    rng = np.random.default_rng(3)
    specs = [
        DDSketchSpec(on="v", name="d"),
        DDSketchSpec(on="v", name="c", store="collapse_highest", bin_limit=16, weight="w",
                     interpolation="linear"),
        XorSigSpec(on="x", name="x"),
    ]
    blocks = [
        pa.table({
            "g": rng.integers(0, 50, 500),
            "v": rng.normal(0, 50, 500),
            "w": rng.integers(1, 3, 500).astype(np.float64),
            "x": rng.integers(0, 2**60, 500),
        })
        for _ in range(3)
    ]

    def run():
        states = pa.concat_tables([SketchStateAccumulator(specs, ("g",))(b) for b in blocks])
        merger = StateBlockMerger(specs, ("g",))
        merged = pa.concat_tables([merger(states.slice(0, 70)), merger(states.slice(70))])
        return merger(states), merger.finalize_groups(merged)

    want = run()

    def boom(*args, **kwargs):
        raise AssertionError("per-group sketch built")

    monkeypatch.setattr(DDSketchSpec, "zero", boom)
    monkeypatch.setattr(DDSketchSpec, "from_state", boom)
    monkeypatch.setattr(XorSigSpec, "zero", boom)
    got = run()
    assert got[0].equals(want[0]) and got[1].equals(want[1])
    assert got[1].num_rows == 50


class TestSparseState:
    """DDSketch states carry sparse ascending keys/counts per store."""

    @staticmethod
    def _sketches():
        from ddsketch_ruby_ray.core.ddsketch import (
            LogCollapsingHighestDenseSketch, LogCollapsingLowestDenseSketch,
        )

        empty = DDSketch(0.01)
        neg = DDSketch(0.01)
        neg.add_batch(np.array([-1.0, -2.5, -1e6]), np.array([1.0, 2.0, 3.0]))
        zero = DDSketch(0.01)
        zero.add_batch(np.array([0.0, 0.0, 1e-320, 3.0]))
        low = LogCollapsingLowestDenseSketch(0.01, 8)
        low.add_batch(np.array([-1e5, -1.0, 0.0, 1.0, 10.0, 1e5]))
        high = LogCollapsingHighestDenseSketch(0.01, 8)
        high.add_batch(np.array([-1e5, -1.0, 1.0, 10.0, 1e5]))
        return [empty, neg, zero, low, high]

    def test_round_trip_equals_dense_path(self):
        from ddsketch_ruby_ray.core.store import store_from_state

        for sk in self._sketches():
            st = sk.to_state()
            assert list(st["keys"]) == sorted(st["keys"])
            assert all(c > 0 for c in st["counts"]) and all(c > 0 for c in st["neg_counts"])
            rt = DDSketch.from_state(st)
            assert rt == sk and type(rt) is type(sk)
            mode, limit = st["collapse_mode"], st["bin_limit"]
            for mine, theirs in ((rt.store, sk.store), (rt.negative_store, sk.negative_store)):
                dense = store_from_state(theirs.to_state(), mode, limit)
                assert mine == dense and mine.count == dense.count
                assert getattr(mine, "is_collapsed", None) == getattr(dense, "is_collapsed", None)
        low, high = self._sketches()[3:]
        assert low.store.is_collapsed and high.negative_store.is_collapsed

    def test_merging_sparse_states_equals_merged_with(self):
        import pyarrow as pa

        from ddsketch_ruby_ray.functions.specs import DDSketchSpec

        rng = np.random.default_rng(5)
        for store in ("dense", "collapse_lowest", "collapse_highest"):
            spec = DDSketchSpec(on="v", store=store, bin_limit=16)
            parts = []
            for _ in range(4):
                sk = spec.zero()
                sk.add_batch(np.round(rng.normal(0, 1e3, 200)))
                parts.append(sk)
            parts.append(spec.zero())  # an empty state merges as a no-op
            want = parts[0]
            for sk in parts[1:]:
                want = want.merged_with(sk)
            states = pa.array([spec.to_state(sk) for sk in parts], spec.state_type())
            merged = spec.merge_groups(states, np.zeros(len(parts), dtype=np.int64), 1)
            got = DDSketch.from_state(merged[0].as_py())
            assert got == want, store
            assert got.store.count == want.store.count
            if store != "dense":
                assert got.store.is_collapsed == want.store.is_collapsed
                assert got.negative_store.is_collapsed == want.negative_store.is_collapsed

    def test_merging_states_of_another_mapping_raises(self):
        """The columnar merge keeps the gamma gate of ``merged_with``."""
        import pyarrow as pa

        from ddsketch_ruby_ray.core.ddsketch import InvalidSketchMergeError
        from ddsketch_ruby_ray.functions.specs import DDSketchSpec

        other = DDSketchSpec(on="v", relative_accuracy=0.02)
        sk = other.zero()
        sk.add_batch(np.array([1.0, 2.0]))
        states = pa.array([other.to_state(sk)], other.state_type())
        with pytest.raises(InvalidSketchMergeError):
            DDSketchSpec(on="v").merge_groups(states, np.zeros(1, dtype=np.int64), 1)
