"""Actor-pool accumulate path (input_hint: stateful stages as actor pools).

``sketch_states(..., concurrency=N)`` runs SketchStateAccumulator as an actor
pool (setup once per actor); results must be identical to the task path.
"""

from __future__ import annotations

import numpy as np

from .datasets import assert_matches_core_reference, core_grouped_reference


class TestActorPool:
    def test_actor_pool_matches_task_path(self, ray_session, sf_dir):
        import ray.data as rd

        from ddsketch_ruby_ray.functions.specs import DDSketchSpec
        from ddsketch_ruby_ray.pipelines import grouped_sketch_pipeline

        def run(concurrency):
            ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])
            out = grouped_sketch_pipeline(
                ds,
                [DDSketchSpec(on="n_chars", name="s", quantiles=(0.5, 0.99))],
                ("lang",),
                concurrency=concurrency,
            )
            return out.to_pandas().sort_values("lang").reset_index(drop=True)

        tasks = run(None)
        actors = run(2)
        assert (tasks.values == actors.values).all()


class TestGroupedPlan:
    def test_multi_block_merge_identical_to_one_pass_build(self, ray_session, sf_dir):
        """Multi-block two-level state merge == one sketch per group built
        from all of its raw rows in one pass (merge associativity)."""
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray.data as rd

        from ddsketch_ruby_ray.functions.specs import DDSketchSpec
        from ddsketch_ruby_ray.functions.family_specs import HLLSpec
        from ddsketch_ruby_ray.pipelines import grouped_sketch_pipeline

        specs = [
            DDSketchSpec(on="n_chars", name="s", quantiles=(0.5, 0.99)),
            HLLSpec(on="doc_id", name="h", p=12),
        ]
        tbl = pq.read_table(f"{sf_dir}/documents.parquet", columns=["lang", "n_chars", "doc_id"])
        out = grouped_sketch_pipeline(
            rd.from_arrow(tbl).repartition(5), specs, ("lang",)
        ).to_pandas().set_index("lang")
        for lang in set(tbl.column("lang").to_pylist()):
            rows = tbl.filter(pc.equal(tbl.column("lang"), lang))
            arrays = {c: rows.column(c).to_numpy(zero_copy_only=False) for c in ("n_chars", "doc_id")}
            want = {}
            for spec in specs:
                sk = spec.zero()
                spec.accumulate(sk, arrays)
                want.update(spec.finalize(sk))
            got = out.loc[lang]
            assert set(want) == set(out.columns)
            for c, w in want.items():
                assert got[c] == w or (got[c] != got[c] and w != w), (lang, c)

    def test_grouped_plan_identical_incl_signed_and_zero(self, ray_session):
        """The grouped plan == a per-group core fold, with negative values, a
        zero band, many groups, and empty-side groups."""
        import pyarrow as pa
        import ray.data as rd
        import numpy as np

        from ddsketch_ruby_ray.functions.specs import DDSketchSpec
        from ddsketch_ruby_ray.pipelines import grouped_sketch_pipeline

        rng = np.random.default_rng(5)
        n = 20_000
        tbl = pa.table(
            {
                "grp": pa.array([f"g{int(i)}" for i in rng.integers(0, 500, n)]),
                "v": pa.array(
                    np.where(
                        rng.random(n) < 0.05,
                        0.0,
                        rng.normal(0, 100, n),  # signed, spans the zero band
                    )
                ),
            }
        )
        spec = DDSketchSpec(on="v", name="s", quantiles=(0.01, 0.5, 0.99))
        rows = grouped_sketch_pipeline(rd.from_arrow(tbl).repartition(7), [spec], ("grp",)).take_all()
        assert_matches_core_reference(
            rows, "grp", core_grouped_reference(tbl, "grp", spec, 7), exact_sum=False
        )

    def test_weighted_matches_core_fold(self, ray_session, sf_dir):
        import pyarrow.parquet as pq
        import ray.data as rd

        from ddsketch_ruby_ray.functions.specs import DDSketchSpec
        from ddsketch_ruby_ray.pipelines import grouped_sketch_pipeline

        spec = DDSketchSpec(
            on="l_extendedprice", weight="l_quantity", name="s",
            quantiles=(0.5, 0.99), include_sum_avg=False,
        )
        cols = ["l_returnflag", "l_extendedprice", "l_quantity"]
        rows = grouped_sketch_pipeline(
            rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=cols), [spec], ("l_returnflag",)
        ).take_all()
        tbl = pq.read_table(f"{sf_dir}/lineitem.parquet", columns=cols)
        # integer weights -> bit-exact
        assert_matches_core_reference(
            rows, "l_returnflag", core_grouped_reference(tbl, "l_returnflag", spec, 3)
        )

    def test_skewed_keys_match_core_fold(self, ray_session):
        """An 80%-of-rows hot key (it costs O(blocks) states) gives the
        per-group core fold's result."""
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from ddsketch_ruby_ray.functions.specs import DDSketchSpec
        from ddsketch_ruby_ray.pipelines import grouped_sketch_pipeline

        rng = np.random.default_rng(1)
        n = 20_000
        hot = rng.random(n) < 0.8
        keys = np.where(hot, "hotkey", np.array([f"k{i % 100}" for i in range(n)]))
        tbl = pa.table({"g": pa.array(keys.tolist()), "v": pa.array(rng.lognormal(0, 1, n))})
        spec = DDSketchSpec(on="v", name="s", quantiles=(0.5, 0.99), include_sum_avg=False)
        rows = grouped_sketch_pipeline(rd.from_arrow(tbl).repartition(7), [spec], ("g",)).take_all()
        assert len(rows) == 101
        assert_matches_core_reference(rows, "g", core_grouped_reference(tbl, "g", spec, 7))

    def test_collapsing_stores_match_core_fold(self, ray_session):
        """Collapsing clamp model at merge/finalize == collapse-during-add,
        with collapse heavily triggered on both stores (signed, limit 32)."""
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from ddsketch_ruby_ray.functions.specs import DDSketchSpec
        from ddsketch_ruby_ray.pipelines import grouped_sketch_pipeline

        rng = np.random.default_rng(2)
        n = 20_000
        v = np.where(rng.random(n) < 0.5, rng.lognormal(0, 4, n), -rng.lognormal(0, 4, n))
        v[rng.random(n) < 0.02] = 0.0
        tbl = pa.table({"g": pa.array([f"g{i % 40}" for i in range(n)]), "v": pa.array(v)})
        for store in ("collapse_lowest", "collapse_highest"):
            spec = DDSketchSpec(
                on="v", name="s", store=store, bin_limit=32,
                quantiles=(0.01, 0.5, 0.99), include_sum_avg=False,
            )
            rows = grouped_sketch_pipeline(
                rd.from_arrow(tbl).repartition(9), [spec], ("g",)
            ).take_all()
            assert_matches_core_reference(rows, "g", core_grouped_reference(tbl, "g", spec, 9))

    def test_null_keys_and_values(self, ray_session):
        """Null group keys group like SQL GROUP BY (their own group); null
        values drop per spec."""
        import pyarrow as pa
        import ray.data as rd

        from ddsketch_ruby_ray.functions.specs import DDSketchSpec
        from ddsketch_ruby_ray.pipelines import grouped_sketch_pipeline

        tbl = pa.table(
            {
                "g": pa.array(["a", None, "b", "a", None]),
                "v": pa.array([1.0, 2.0, None, 4.0, 5.0]),
            }
        )
        spec = DDSketchSpec(on="v", name="s", quantiles=(0.5,))
        df = (
            grouped_sketch_pipeline(rd.from_arrow(tbl), [spec], ("g",))
            .to_pandas()
            .set_index("g")
        )
        assert df.loc["a", "count"] == 2
        assert df.loc["b", "count"] == 0  # its only value was null
        assert df[df.index.isnull()]["count"].iloc[0] == 2
