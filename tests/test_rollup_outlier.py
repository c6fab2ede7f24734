"""Outlier filter (pipelines/outlier.py) and rollup (pipelines/rollup.py)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ddsketch_ruby_ray.core.ddsketch import DDSketch
from ddsketch_ruby_ray.functions.specs import DDSketchSpec


def _doc_table(n=3000, seed=7):
    rng = np.random.default_rng(seed)
    return pa.table(
        {
            "rid": pa.array(np.arange(n), pa.int64()),
            "g": pa.array(rng.choice(["x", "y", "z"], n).tolist()),
            "v": pa.array(np.round(rng.lognormal(4, 1.5, n)) + 1.0),
        }
    )


class TestOutlierFilter:
    def _run(self, t, mode="above", repartition=None):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.outlier import ddsketch_outlier_pipeline

        ds = rd.from_arrow(t)
        if repartition:
            ds = ds.repartition(repartition)
        return (
            ddsketch_outlier_pipeline(
                ds, group_col="g", value_col="v", carry_cols=["rid"], q=0.9, mode=mode
            )
            .to_pandas()
            .sort_values("rid")
            .reset_index(drop=True)
        )

    def test_matches_incore_sketch_and_layout(self, ray_session):
        t = _doc_table()
        df = self._run(t)
        g = t["g"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        for grp in ("x", "y", "z"):
            sk = DDSketch(0.01)
            sk.add_batch(v[g == grp])
            thr = sk.get_quantile_value(0.9)
            sel = df[df.g == grp]
            want_rid = t["rid"].to_numpy(zero_copy_only=False)[(g == grp) & (v > thr)]
            assert sorted(sel.rid.tolist()) == sorted(want_rid.tolist())
            assert (sel.thr == thr).all()  # bit-exact threshold
        df2 = self._run(t, repartition=9)
        assert (df.values == df2.values).all()

    def test_bucketize_matches_incore_thresholds(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.outlier import ddsketch_bucketize_pipeline

        t = _doc_table(n=1500, seed=21)
        df = (
            ddsketch_bucketize_pipeline(
                rd.from_arrow(t).repartition(6),
                group_col="g",
                value_col="v",
                carry_cols=["rid"],
                quantiles=(0.25, 0.5, 0.75),
            )
            .to_pandas()
            .sort_values("rid")
            .reset_index(drop=True)
        )
        assert len(df) == t.num_rows
        g = t["g"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        for grp in ("x", "y", "z"):
            sk = DDSketch(0.01)
            sk.add_batch(v[g == grp])
            thr = np.array([sk.get_quantile_value(q) for q in (0.25, 0.5, 0.75)])
            want = (v[g == grp][:, None] > thr[None, :]).sum(axis=1)
            got = df[df.g == grp].sort_values("rid").bucket.to_numpy()
            order = np.argsort(t["rid"].to_numpy(zero_copy_only=False)[g == grp])
            assert (got == want[order]).all()
            # equi-depth: each quartile holds ~25% of the group
            frac = np.bincount(want, minlength=4) / want.size
            assert (np.abs(frac - 0.25) < 0.08).all()

    def test_trim_is_complement(self, ray_session):
        t = _doc_table(n=800, seed=3)
        above = self._run(t, mode="above")
        trim = self._run(t, mode="trim")
        assert len(above) + len(trim) == t.num_rows
        assert not set(above.rid) & set(trim.rid)


class TestRollup:
    def _run(self, t, repartition=None):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.rollup import rollup_sketch_pipeline

        ds = rd.from_arrow(t)
        if repartition:
            ds = ds.repartition(repartition)
        spec = DDSketchSpec(on="v", name="s", relative_accuracy=0.01, quantiles=(0.5, 0.99))
        return (
            rollup_sketch_pipeline(ds, spec, ["a", "b"])
            .to_pandas()
            .sort_values("group_key")
            .reset_index(drop=True)
        )

    def test_levels_match_direct_builds(self, ray_session):
        rng = np.random.default_rng(11)
        n = 2500
        t = pa.table(
            {
                "a": pa.array(rng.choice(["p", "q"], n).tolist()),
                "b": pa.array(rng.choice(["1", "2", "3"], n).tolist()),
                "v": pa.array(np.round(rng.lognormal(3, 1, n)) + 1.0),
            }
        )
        df = self._run(t).set_index("group_key")
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        spec = DDSketchSpec(on="v", name="s", relative_accuracy=0.01, quantiles=(0.5, 0.99))

        def direct(mask):
            sk = DDSketch(0.01)
            sk.add_batch(v[mask])
            return spec.finalize(sk)

        cases = {}
        for ga in ("p", "q"):
            for gb in ("1", "2", "3"):
                cases[f"{ga}|{gb}"] = direct((a == ga) & (b == gb))
            cases[f"{ga}|(all)"] = direct(a == ga)
        cases["(all)|(all)"] = direct(np.ones(n, bool))
        assert set(df.index) == set(cases)
        for key, want in cases.items():
            row = df.loc[key]
            for col, val in want.items():
                assert row[col] == val, (key, col)  # bit-exact across the cascade

        df2 = self._run(t, repartition=8).set_index("group_key")
        assert (df.values == df2.loc[df.index].values).all()

    def test_cube_adds_the_second_margin(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.rollup import cube_sketch_pipeline

        rng = np.random.default_rng(19)
        n = 1200
        t = pa.table(
            {
                "a": pa.array(rng.choice(["p", "q"], n).tolist()),
                "b": pa.array(rng.choice(["1", "2"], n).tolist()),
                "v": pa.array(np.round(rng.lognormal(3, 1, n)) + 1.0),
            }
        )
        spec = DDSketchSpec(on="v", name="s", relative_accuracy=0.01, quantiles=(0.5,))
        df = (
            cube_sketch_pipeline(rd.from_arrow(t).repartition(5), spec, ["a", "b"])
            .to_pandas()
            .set_index("group_key")
        )
        # 4 fine + 2 a-margin + 2 b-margin + 1 total
        assert len(df) == 9
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        for gb in ("1", "2"):  # the margin the rollup does NOT produce
            sk = DDSketch(0.01)
            sk.add_batch(v[b == gb])
            want = spec.finalize(sk)
            row = df.loc[f"(all)|{gb}"]
            for col, val in want.items():
                assert row[col] == val


def test_rollup_and_cube_columns_follow_grouped_pipeline(ray_session):
    """rollup/cube sketch columns come out in ``spec.finalize``'s key order,
    the order ``grouped_sketch_pipeline`` emits, on every level (the grand
    total included) and on an empty input."""
    import ray.data as rd

    from ddsketch_ruby_ray.pipelines import grouped_sketch_pipeline
    from ddsketch_ruby_ray.pipelines.rollup import cube_sketch_pipeline, rollup_sketch_pipeline

    t = _doc_table(n=300).append_column("b", pa.array(["1", "2", "3"] * 100))
    spec = DDSketchSpec(on="v", name="s", relative_accuracy=0.01, quantiles=(0.5, 0.99))
    grouped = grouped_sketch_pipeline(rd.from_arrow(t), [spec], ("g",)).schema().names
    assert grouped == ["g", "count", "sum", "avg", "min", "max", "p50", "p99"]
    for pipeline in (rollup_sketch_pipeline, cube_sketch_pipeline):
        for table in (t, t.slice(0, 0)):
            rows = pipeline(rd.from_arrow(table).repartition(3), spec, ["g", "b"]).take_all()
            assert rows and all(list(r) == ["group_key", *grouped[1:]] for r in rows)
            if not table.num_rows:
                assert [r["group_key"] for r in rows] == ["(all)|(all)"]
