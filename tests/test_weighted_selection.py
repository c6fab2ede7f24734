"""Weighted exact quantile selection vs expand-by-weight brute force."""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pytest

from ddsketch_ruby_ray.pipelines.selection import (
    sketch_exact_weighted_quantile_pipeline,
)


def _brute(groups, vals, wts, q):
    out = {}
    by_g: dict = {}
    for g, v, w in zip(groups, vals, wts):
        by_g.setdefault(g, []).append((v, w))
    for g, rows in by_g.items():
        expanded = sorted(v for v, w in rows for _ in range(w))
        k = int(math.floor(q * (len(expanded) - 1)))
        out[g] = float(expanded[k])
    return out


def _run(groups, vals, wts, q=0.5):
    import ray.data as rd

    tbl = pa.table(
        {
            "g": pa.array(groups, pa.string()),
            "v": pa.array(np.asarray(vals, np.float64)),
            "w": pa.array(np.asarray(wts, np.int64)),
        }
    )
    df = sketch_exact_weighted_quantile_pipeline(
        rd.from_arrow(tbl).repartition(4),
        group_col="g",
        value_col="v",
        weight_col="w",
        q=q,
    ).to_pandas()
    return dict(zip(df.g, df[df.columns[1]]))


class TestWeightedQuantile:
    def test_random_vs_brute(self, ray_session):
        rng = np.random.default_rng(6)
        n = 3000
        groups = rng.choice(["a", "b", "c"], n).tolist()
        vals = (rng.random(n) * 1000 + 1).round(2)
        wts = rng.integers(1, 8, n)
        for q in (0.1, 0.5, 0.9):
            assert _run(groups, vals, wts, q) == _brute(groups, vals, wts, q)

    def test_weight_one_equals_unweighted_median(self, ray_session):
        vals = [5.0, 1.0, 9.0, 3.0, 7.0]
        got = _run(["g"] * 5, vals, [1] * 5, 0.5)
        assert got == {"g": 5.0}

    def test_heavy_weight_dominates(self, ray_session):
        # one value carries 90% of the mass: it IS the median
        got = _run(["g"] * 3, [1.0, 100.0, 2.0], [1, 50, 1], 0.5)
        assert got == {"g": 100.0}

    def test_all_ones_equals_unweighted(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.selection import sketch_exact_quantile_pipeline

        rng = np.random.default_rng(11)
        n = 2000
        groups = rng.choice(["a", "b", "c"], n).tolist()
        vals = rng.integers(1, 5000, n).astype(np.float64)
        for q in (0.0, 0.1, 0.5, 0.77, 1.0):
            plain = sketch_exact_quantile_pipeline(
                rd.from_arrow(pa.table({"g": groups, "v": vals})).repartition(4),
                group_col="g",
                value_col="v",
                q=q,
            ).to_pandas()
            assert _run(groups, vals, [1] * n, q) == dict(zip(plain.g, plain[plain.columns[1]]))

    def test_zero_band(self, ray_session):
        # zeros carry 2/3 of the mass: the median is 0; the top is a bucket
        vals = [0.0] * 60 + list(np.arange(1.0, 41.0))
        wts = [2] * 60 + [1] * 40
        assert _run(["z"] * 100, vals, wts, 0.5) == {"z": 0.0}
        assert _run(["z"] * 100, vals, wts, 1.0) == {"z": 40.0}

    def test_rejects_negative_values(self, ray_session):
        with pytest.raises(ValueError, match="positive values only"):
            _run(["n"] * 3, [-1.0, 2.0, 3.0], [1, 1, 1])

    def test_bucket_cap(self, ray_session):
        import ray.data as rd

        tbl = pa.table({"g": ["c"] * 3, "v": [5.0] * 3, "w": pa.array([3, 3, 4], pa.int64())})
        kw = dict(group_col="g", value_col="v", weight_col="w")
        with pytest.raises(ValueError, match="bucket for group"):
            sketch_exact_weighted_quantile_pipeline(
                rd.from_arrow(tbl), max_candidate_mass_per_group=9, **kw
            )
        df = sketch_exact_weighted_quantile_pipeline(
            rd.from_arrow(tbl), max_candidate_mass_per_group=10, **kw
        ).to_pandas()
        assert df.exact_wp50.tolist() == [5.0]

    def test_rejects_fractional_weights(self, ray_session):
        import ray.data as rd
        from ray.exceptions import RayTaskError

        tbl = pa.table({"g": ["f"] * 3, "v": [1.0, 2.0, 3.0], "w_frac": [1.5, 1.5, 1.0]})
        out = sketch_exact_weighted_quantile_pipeline(
            rd.from_arrow(tbl), group_col="g", value_col="v", weight_col="w_frac"
        )
        # raised in the candidate scan's task: Ray wraps it, message intact
        with pytest.raises((RayTaskError, ValueError), match="ValueError: .*'w_frac'"):
            out.take_all()
        # integral weights in a float column are fine
        tbl = tbl.set_column(2, "w_frac", pa.array([1.0, 2.0, 1.0]))
        out = sketch_exact_weighted_quantile_pipeline(
            rd.from_arrow(tbl), group_col="g", value_col="v", weight_col="w_frac"
        )
        assert out.to_pandas().exact_wp50.tolist() == [2.0]
