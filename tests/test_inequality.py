"""Apportionment + Gini (pipelines/inequality.py) vs brute force."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ddsketch_ruby_ray.pipelines.inequality import (
    gini_pipeline,
    largest_remainder_quota_pipeline,
)
from .partitions import partitions


class TestApportionment:
    def _run(self, groups, budget):
        import ray.data as rd

        tbl = pa.table({"g": pa.array(groups, pa.string())})
        df = largest_remainder_quota_pipeline(
            rd.from_arrow(tbl).repartition(4), group_col="g", budget=budget
        ).to_pandas()
        return dict(zip(df.g, df.quota)), int(df.quota.sum())

    def test_sums_to_budget_and_proportional(self, ray_session):
        rng = np.random.default_rng(3)
        groups = rng.choice(["a", "b", "c", "d"], 5000, p=[0.5, 0.3, 0.15, 0.05])
        q, s = self._run(groups.tolist(), 997)
        assert s == 997
        # within 1 seat of exact proportionality (Hamilton's guarantee)
        from collections import Counter

        c = Counter(groups.tolist())
        for g, n in c.items():
            exact = 997 * n / 5000
            assert abs(q[g] - exact) < 1.0

    def test_tie_goes_to_smaller_key(self, ray_session):
        # 2 groups of equal size, odd budget: the extra seat goes to 'a'
        q, s = self._run(["a"] * 10 + ["b"] * 10, 5)
        assert s == 5
        assert q == {"a": 3, "b": 2}

    def test_empty(self, ray_session):
        import ray.data as rd

        tbl = pa.table({"g": pa.array([], pa.string())})
        df = largest_remainder_quota_pipeline(
            rd.from_arrow(tbl), group_col="g", budget=10
        ).to_pandas()
        assert len(df) == 0


class TestGini:
    def _run(self, vals):
        import ray.data as rd

        tbl = pa.table({"x": pa.array(np.asarray(vals, np.int64))})
        with partitions(8):
            df = gini_pipeline(rd.from_arrow(tbl).repartition(4), value_col="x").to_pandas()
        return int(df.n[0]), int(df.total[0]), float(df.gini[0])

    def test_vs_brute(self, ray_session):
        rng = np.random.default_rng(7)
        vals = rng.integers(0, 500, 4000)
        n, total, g = self._run(vals)
        xs = sorted(int(x) for x in vals)
        s_ix = sum((i + 1) * x for i, x in enumerate(xs))
        expect = float(2 * s_ix - (len(xs) + 1) * sum(xs)) / float(len(xs) * sum(xs))
        assert (n, total) == (len(xs), sum(xs))
        assert g == expect

    def test_perfect_equality_is_zero(self, ray_session):
        assert self._run([7] * 100)[2] == 0.0

    def test_total_concentration_near_one(self, ray_session):
        n, total, g = self._run([0] * 999 + [1000])
        assert g == (1000 - 1) / 1000  # (n-1)/n for one holder of everything