"""Exact grouped COUNT DISTINCT tests (pipelines/distinct.py)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .partitions import partitions


def _run(t, parts=5):
    import ray.data as rd

    from ddsketch_ruby_ray.pipelines.distinct import exact_distinct_pipeline

    with partitions(parts):
        return (
            exact_distinct_pipeline(rd.from_arrow(t).repartition(6), group_col="g", value_col="v")
            .to_pandas()
            .sort_values("g")
            .reset_index(drop=True)
        )


class TestExactDistinct:
    def test_string_groups_match_pandas_nunique(self, ray_session):
        rng = np.random.default_rng(3)
        n = 8000
        t = pa.table(
            {
                "g": pa.array(rng.choice(["a", "b", "c", "dd", "ee"], n).tolist()),
                "v": pa.array(rng.integers(0, 300, n), pa.int64()),
            }
        )
        got = _run(t)
        want = (
            t.to_pandas()
            .groupby("g", as_index=False)["v"]
            .nunique()
            .rename(columns={"v": "n_distinct"})
        )
        assert got.g.tolist() == want.g.tolist()
        assert got.n_distinct.tolist() == want.n_distinct.tolist()

    def test_int_groups_and_negative_values(self, ray_session):
        rng = np.random.default_rng(4)
        n = 3000
        t = pa.table(
            {
                "g": pa.array(rng.integers(-5, 5, n), pa.int64()),
                "v": pa.array(rng.integers(-10**12, 10**12, n), pa.int64()),
            }
        )
        got = _run(t, parts=3)
        want = (
            t.to_pandas()
            .groupby("g", as_index=False)["v"]
            .nunique()
            .rename(columns={"v": "n_distinct"})
        )
        assert got.g.tolist() == want.g.tolist()
        assert got.n_distinct.tolist() == want.n_distinct.tolist()

    def test_partition_count_invariance(self, ray_session):
        rng = np.random.default_rng(5)
        t = pa.table(
            {
                "g": pa.array(rng.choice(["x", "y"], 1000).tolist()),
                "v": pa.array(rng.integers(0, 40, 1000), pa.int64()),
            }
        )
        assert _run(t, parts=2).equals(_run(t, parts=17))
