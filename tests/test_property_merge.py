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


class TestPairsPlanProperties:
    """The vectorized pairs plan must equal the states plan for ARBITRARY
    inputs - groups of size 1, all-zero groups, extreme magnitudes, signed
    values - not just the fixed fixtures."""

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
    def test_pairs_equals_states(self, ray_session, data, blocks):
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

        def run(strategy):
            df = grouped_sketch_pipeline(
                rd.from_arrow(tbl).repartition(blocks), [spec], ("g",), strategy=strategy
            ).to_pandas()
            return df.sort_values("g").reset_index(drop=True)[sorted(df.columns)]

        a, b = run("states"), run("pairs")
        assert list(a.columns) == list(b.columns)
        for c in a.columns:
            av, bv = a[c].values, b[c].values
            if a[c].dtype.kind == "f":
                ok = (av == bv) | (np.isnan(av) & np.isnan(bv))
                assert ok.all(), (c, av[~ok], bv[~ok])
            else:
                assert (av == bv).all(), c


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


def test_pairs_plan_preserves_key_dtypes_and_nulls(ray_session):
    """ADVICE fix: the pairs plan must emit group keys in their INPUT dtypes
    (not stringified) and give null keys their own group."""
    import numpy as np
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
    names = {}
    for strategy in ["pairs", "states"]:
        ds = grouped_sketch_pipeline(
            rd.from_arrow(t).repartition(2), [spec], ("ki",), strategy=strategy
        )
        names[strategy] = ds.schema().names
        out = ds.to_pandas()
        assert len(out) == 3, strategy
        # int64 dtype (nullable) preserved, not string
        vals = {None if v != v else int(v): c for v, c in zip(out["ki"], out["count"])}
        assert vals == {1: 2.0, 2: 2.0, None: 2.0}, strategy
    # a result's column order does not depend on which plan ran
    assert names["states"] == names["pairs"], names


def test_pairs_plan_all_mappings_match_states(ray_session):
    """The pairs plan supports linear/cubic mappings, weighted adds and
    collapsing stores - bit-identical to the states strategy."""
    import numpy as np
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
    for kw in cases:
        spec = DDSketchSpec(on="v", name="s", relative_accuracy=0.02,
                            quantiles=(0.1, 0.5, 0.9), **kw)
        a = (
            grouped_sketch_pipeline(rd.from_arrow(t).repartition(5), [spec], ("g",),
                                    strategy="pairs")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        b = (
            grouped_sketch_pipeline(rd.from_arrow(t).repartition(3), [spec], ("g",),
                                    strategy="states")
            .to_pandas().sort_values("g").reset_index(drop=True)
        )
        assert set(a.columns) == set(b.columns), kw  # order differs by design
        a, b = a[sorted(a.columns)], b[sorted(b.columns)]
        for c in a.columns:
            if a[c].dtype.kind == "f":
                assert np.array_equal(a[c].to_numpy(), b[c].to_numpy(), equal_nan=True), (kw, c)
            else:
                assert (a[c] == b[c]).all(), (kw, c)
