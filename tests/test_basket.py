"""Market-basket frequent pairs (pipelines/basket.py) vs brute force."""

from __future__ import annotations

import collections
import itertools

import numpy as np
import pyarrow as pa

from ddsketch_ruby_ray.pipelines.basket import frequent_pairs_pipeline
from .partitions import partitions


def _brute(baskets, items, min_support):
    members = collections.defaultdict(set)
    for b, i in zip(baskets, items):
        members[b].add(i)
    n_baskets = len(members)
    item_c = collections.Counter()
    pair_c = collections.Counter()
    for s in members.values():
        for i in s:
            item_c[i] += 1
        for a, b in itertools.combinations(sorted(s), 2):
            pair_c[(a, b)] += 1
    out = {}
    for (a, b), c in pair_c.items():
        if c >= min_support:
            out[(a, b)] = (c, float(n_baskets * c) / float(item_c[a] * item_c[b]))
    return out


def _run(baskets, items, min_support=3):
    import ray.data as rd

    tbl = pa.table(
        {
            "b": pa.array(np.asarray(baskets, np.int64)),
            "i": pa.array(np.asarray(items, np.int64)),
        }
    )
    with partitions(8):
        df = frequent_pairs_pipeline(
            rd.from_arrow(tbl).repartition(4),
            basket_col="b",
            item_col="i",
            min_support=min_support,
        ).to_pandas()
    return {
        (int(r.item_a), int(r.item_b)): (int(r.support), float(r.lift))
        for r in df.itertuples()
    }


class TestFrequentPairs:
    def test_random_vs_brute(self, ray_session):
        rng = np.random.default_rng(5)
        n = 8000
        baskets = rng.integers(0, 1200, n)
        items = rng.integers(0, 40, n)  # few items -> real pair repetition
        assert _run(baskets, items) == _brute(baskets, items, 3)

    def test_duplicate_lines_count_once(self, ray_session):
        # the same (basket, item) twice is ONE membership
        baskets = [1, 1, 1, 2, 2, 3, 3]
        items = [10, 10, 20, 10, 20, 10, 20]
        got = _run(baskets, items, min_support=3)
        assert got == {(10, 20): (3, float(3 * 3) / float(3 * 3))}

    def test_singleton_baskets_emit_nothing(self, ray_session):
        got = _run([1, 2, 3], [7, 8, 9], min_support=1)
        assert got == {}

    def test_many_distinct_pairs_exact(self, ray_session):
        """High-cardinality pair domain exercises the hash-partition
        reduceat fold (the plan that replaces native groupby('pk').sum)."""
        rng = np.random.default_rng(9)
        baskets = np.repeat(np.arange(4000), 4)
        items = rng.integers(0, 400, baskets.size)
        assert _run(baskets.tolist(), items.tolist(), 1) == _brute(
            baskets.tolist(), items.tolist(), 1
        )

    def test_item_id_out_of_bound_raises(self, ray_session):
        import pytest
        import ray.data as rd
        from ray.exceptions import RayTaskError

        tbl = pa.table(
            {
                "b": pa.array([1, 1], pa.int64()),
                "i": pa.array([5, 1 << 31], pa.int64()),
            }
        )
        with pytest.raises((RayTaskError, ValueError), match="2\\^31"):
            frequent_pairs_pipeline(
                rd.from_arrow(tbl), basket_col="b", item_col="i"
            ).to_pandas()
