"""Per-group top-k tests (pipelines/topk.py)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .partitions import partitions


def _run(t, k, parts=4, **kw):
    import ray.data as rd

    from ddsketch_ruby_ray.pipelines.topk import per_group_topk

    with partitions(parts):
        return (
            per_group_topk(
                rd.from_arrow(t), group_col="g", value_col="v", tiebreak_col="t", k=k, **kw
            )
            .to_pandas()
            .sort_values(["g", "v", "t"], ascending=[True, False, True])
            .reset_index(drop=True)
        )


class TestPerGroupTopk:
    def test_matches_pandas_rank(self, ray_session):
        rng = np.random.default_rng(8)
        n = 2000
        t = pa.table(
            {
                "g": pa.array(rng.choice(["a", "b", "c", "d"], n).tolist()),
                "v": pa.array(rng.integers(0, 50, n), pa.int64()),
                "t": pa.array([f"i{j:05d}" for j in range(n)], pa.string()),
            }
        )
        got = _run(t, 7)
        df = t.to_pandas().sort_values(["g", "v", "t"], ascending=[True, False, True])
        want = df.groupby("g").head(7).reset_index(drop=True)
        assert got[["g", "v", "t"]].equals(want[["g", "v", "t"]])

    def test_int_groups_and_small_groups(self, ray_session):
        t = pa.table(
            {
                "g": pa.array([1, 1, 2, 3, 3, 3], pa.int64()),
                "v": pa.array([5, 9, 1, 4, 4, 2], pa.int64()),
                "t": pa.array(list("abcdef"), pa.string()),
            }
        )
        got = _run(t, 2, parts=3)
        # group 1: 9(b),5(a); group 2: 1(c); group 3 ties v=4 -> d before e
        assert list(zip(got.g, got.t)) == [(1, "b"), (1, "a"), (2, "c"), (3, "d"), (3, "e")]


class TestGroupedSumGlobalTopk:
    def test_matches_pandas_groupsum_topk(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.topk import grouped_sum_global_topk

        rng = np.random.default_rng(31)
        n = 5000
        g = rng.integers(0, 400, n).astype(np.int64)
        v = rng.integers(-100, 1000, n).astype(np.int64)
        carry = np.char.add("c", g.astype(str))
        t = pa.table(
            {
                "g": pa.array(g),
                "v": pa.array(v),
                "label": pa.array(carry.tolist(), pa.string()),
            }
        )
        with partitions(5):
            got = (
                grouped_sum_global_topk(
                    rd.from_arrow(t).repartition(8),
                    group_col="g",
                    value_col="v",
                    carry_cols=["label"],
                    k=12,
                )
                .to_pandas()
                .reset_index(drop=True)
            )
        df = t.to_pandas().groupby("g", as_index=False).agg(v=("v", "sum"), label=("label", "first"))
        want = (
            df.sort_values(["v", "g"], ascending=[False, True])
            .head(12)
            .reset_index(drop=True)
        )
        assert got.equals(want[["g", "v", "label"]])

    def test_ties_resolve_to_smallest_group(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.topk import grouped_sum_global_topk

        t = pa.table(
            {
                "g": pa.array([7, 3, 5, 3], pa.int64()),
                "v": pa.array([10, 4, 10, 6], pa.int64()),
            }
        )
        with partitions(3):
            got = grouped_sum_global_topk(
                rd.from_arrow(t), group_col="g", value_col="v", k=2
            ).to_pandas()
        # sums: g3=10, g5=10, g7=10 -> tie on 10, smallest keys win
        assert list(got.g) == [3, 5]
        assert list(got.v) == [10, 10]


class TestGroupedMode:
    def test_matches_brute_force_with_ties(self, ray_session):
        import ray.data as rd
        from collections import Counter

        from ddsketch_ruby_ray.pipelines.topk import grouped_mode_pipeline

        rng = np.random.default_rng(31)
        g = rng.integers(0, 12, 500)
        v = rng.choice(["a", "b", "c", "aa"], 500)
        t = pa.table({"g": pa.array(g, pa.int64()), "v": pa.array(v)})
        df = (
            grouped_mode_pipeline(rd.from_arrow(t).repartition(6), group_col="g", value_col="v")
            .to_pandas()
            .sort_values("g")
            .reset_index(drop=True)
        )
        for row in df.itertuples(index=False):
            counts = Counter(v[g == row.g])
            best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            assert (row.v, row.n_mode) == best
        assert len(df) == len(np.unique(g))
