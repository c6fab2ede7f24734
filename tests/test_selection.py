"""Sketch-guided exact quantile selection (pipelines/selection.py)."""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pytest


def _run(t, q=0.5, repartition=None):
    import ray.data as rd

    from ddsketch_ruby_ray.pipelines.selection import sketch_exact_quantile_pipeline

    ds = rd.from_arrow(t)
    if repartition:
        ds = ds.repartition(repartition)
    return (
        sketch_exact_quantile_pipeline(ds, group_col="g", value_col="v", q=q)
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )


def _floor_rank(vals, q):
    s = np.sort(vals)
    return float(s[int(math.floor(q * (len(s) - 1)))])


class TestSketchExactQuantile:
    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.9, 0.99, 1.0])
    def test_exact_at_many_quantiles(self, ray_session, q):
        rng = np.random.default_rng(int(q * 100) + 1)
        n = 4000
        t = pa.table(
            {
                "g": pa.array(rng.choice(["x", "y"], n).tolist()),
                "v": pa.array(rng.lognormal(4, 2, n)),  # continuous: all distinct
            }
        )
        df = _run(t, q=q).set_index("g")
        g = t["g"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        col = df.columns[0]
        for grp in ("x", "y"):
            assert df.loc[grp, col] == _floor_rank(v[g == grp], q)  # EXACT

    def test_zero_band_and_layout(self, ray_session):
        # majority zeros: the median rank falls inside the zero band
        v = np.concatenate([np.zeros(60), np.arange(1.0, 41.0)])
        t = pa.table({"g": pa.array(["z"] * 100), "v": pa.array(v)})
        df = _run(t)
        assert df.iloc[0]["exact_p50"] == 0.0
        t2 = pa.table(
            {
                "g": pa.array(["a"] * 101),
                "v": pa.array(np.arange(1.0, 102.0)),
            }
        )
        a = _run(t2)
        b = _run(t2, repartition=7)
        assert a.iloc[0]["exact_p50"] == 51.0  # floor-rank median of 1..101
        assert (a.values == b.values).all()

    def test_rejects_negative_values(self, ray_session):
        t = pa.table({"g": pa.array(["n"] * 4), "v": pa.array([-1.0, 2.0, 3.0, 4.0])})
        with pytest.raises(ValueError, match="positive values only"):
            _run(t)

    def test_ranks_split_between_zero_band_and_a_bucket(self, ray_session):
        # 30% zeros: p10 falls in the zero band, p90 in a bucket of the store
        rng = np.random.default_rng(3)
        v = np.concatenate([np.zeros(300), rng.integers(1, 10_000, 700).astype(np.float64)])
        t = pa.table({"g": pa.array(["m"] * v.size), "v": pa.array(rng.permutation(v))})
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.selection import sketch_exact_quantiles_pipeline

        df = sketch_exact_quantiles_pipeline(
            rd.from_arrow(t).repartition(4), group_col="g", value_col="v", qs=(0.1, 0.9)
        ).to_pandas()
        assert df.columns.tolist() == ["g", "exact_p10", "exact_p90"]
        assert df.exact_p10.iloc[0] == 0.0
        assert df.exact_p90.iloc[0] == _floor_rank(v, 0.9)

    def test_bucket_cap(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.selection import sketch_exact_quantile_pipeline

        t = pa.table({"g": pa.array(["c"] * 10), "v": pa.array([5.0] * 10)})
        with pytest.raises(ValueError, match="bucket for group"):
            sketch_exact_quantile_pipeline(
                rd.from_arrow(t), group_col="g", value_col="v", max_candidates_per_group=9
            )
        df = sketch_exact_quantile_pipeline(
            rd.from_arrow(t), group_col="g", value_col="v", max_candidates_per_group=10
        ).to_pandas()
        assert df.exact_p50.tolist() == [5.0]


class TestInterpEdges:
    def _run(self, v, q=0.5, **kw):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.selection import sketch_exact_interp_quantile_pipeline

        t = pa.table({"g": pa.array(["z"] * len(v)), "v": pa.array(np.asarray(v, np.float64))})
        return sketch_exact_interp_quantile_pipeline(
            rd.from_arrow(t).repartition(3), group_col="g", value_col="v", q=q, **kw
        ).to_pandas()

    def test_zero_band(self, ray_session):
        # both ranks in the zero band, then lo in the band and hi in a bucket
        df = self._run(np.concatenate([np.zeros(60), np.arange(1.0, 41.0)]))
        assert df[["lo", "hi", "interp"]].values.tolist() == [[0.0, 0.0, 0.0]]
        v = np.concatenate([np.zeros(50), np.arange(1.0, 51.0)])
        df = self._run(v)
        assert df[["lo", "hi", "interp"]].values.tolist() == [[0.0, 1.0, 0.5]]
        assert df.interp.iloc[0] == np.percentile(v, 50)

    def test_rejects_negative_values(self, ray_session):
        with pytest.raises(ValueError, match="positive values only"):
            self._run([-1.0, 2.0, 3.0, 4.0])

    def test_bucket_cap(self, ray_session):
        with pytest.raises(ValueError, match="bucket for group"):
            self._run([5.0] * 10, max_candidates_per_group=9)
        assert self._run([5.0] * 10, max_candidates_per_group=10).interp.tolist() == [5.0]


def test_empty_input_gives_typed_empty_tables(ray_session):
    import ray.data as rd

    from ddsketch_ruby_ray.pipelines import selection

    t = pa.table(
        {
            "g": pa.array([], pa.string()),
            "v": pa.array([], pa.float64()),
            "w": pa.array([], pa.int64()),
        }
    )
    kw = dict(group_col="g", value_col="v")
    runs = {
        ("exact_p50",): selection.sketch_exact_quantile_pipeline(rd.from_arrow(t), **kw),
        ("exact_p10", "exact_p90"): selection.sketch_exact_quantiles_pipeline(
            rd.from_arrow(t), qs=(0.1, 0.9), **kw
        ),
        ("exact_wp50",): selection.sketch_exact_weighted_quantile_pipeline(
            rd.from_arrow(t), weight_col="w", **kw
        ),
        ("lo", "hi", "interp"): selection.sketch_exact_interp_quantile_pipeline(
            rd.from_arrow(t), q=0.9, **kw
        ),
    }
    for cols, ds in runs.items():
        want = pa.schema([("g", pa.string())] + [(c, pa.float64()) for c in cols])
        assert ds.schema() is not None and ds.schema().base_schema == want, cols
        assert ds.take_all() == []
