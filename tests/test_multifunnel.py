"""K-stage funnel (pipelines/windows.py::multi_funnel_pipeline) vs brute force."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ddsketch_ruby_ray.pipelines.windows import multi_funnel_pipeline
from .partitions import partitions


def _brute(users, ts, types, steps, win_us):
    by_user: dict = {}
    for u, t, ty in zip(users, ts, types):
        by_user.setdefault(u, []).append((t, ty))
    counts = [0] * len(steps)
    for evs in by_user.values():
        evs.sort()
        prev = None
        for i, st in enumerate(steps):
            cand = [
                t
                for t, ty in evs
                if ty == st and (prev is None or (t >= prev and t - prev <= win_us))
            ]
            if not cand:
                break
            prev = min(cand)
            counts[i] += 1
    return counts


def _run(users, ts, types, steps, window_s):
    import ray.data as rd

    tbl = pa.table(
        {
            "u": pa.array(np.asarray(users, np.int64)),
            "ts": pa.array(np.asarray(ts, np.int64), pa.int64()).cast(
                pa.timestamp("us")
            ),
            "ty": pa.array(list(types), pa.string()),
        }
    )
    with partitions(8):
        df = (
            multi_funnel_pipeline(
                rd.from_arrow(tbl).repartition(4),
                user_col="u",
                ts_col="ts",
                type_col="ty",
                steps=steps,
                window_s=window_s,
            )
            .to_pandas()
            .sort_values("step")
        )
    return df.users.tolist()


class TestMultiFunnel:
    def test_random_vs_brute(self, ray_session):
        rng = np.random.default_rng(19)
        n = 8000
        users = rng.integers(0, 300, n)
        ts = rng.integers(0, 10_000, n) * 1_000_000
        types = rng.choice(["a", "b", "c", "x"], n)
        steps = ("a", "b", "c")
        win = 900
        assert _run(users, ts, types, steps, win) == _brute(
            users, ts, types, steps, win * 1_000_000
        )

    def test_same_instant_counts(self, ray_session):
        # b at exactly a's timestamp qualifies (inclusive >=)
        users = [1, 1]
        ts = [5_000_000, 5_000_000]
        types = ["a", "b"]
        assert _run(users, ts, types, ("a", "b"), 10) == [1, 1]

    def test_window_expiry(self, ray_session):
        users = [1, 1]
        ts = [0, 11_000_000]  # b 11 s after a, window 10 s
        types = ["a", "b"]
        assert _run(users, ts, types, ("a", "b"), 10) == [1, 0]

    def test_order_matters(self, ray_session):
        # b BEFORE a never matches
        users = [1, 1]
        ts = [5_000_000, 1_000_000]
        types = ["a", "b"]
        assert _run(users, ts, types, ("a", "b"), 100) == [1, 0]
