"""Global ordered scan / concurrency sweep (pipelines/scan.py) vs brute force."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .partitions import partitions


def _scan(tbl, parts=16):
    import ray.data as rd

    from ddsketch_ruby_ray.pipelines.scan import global_ordered_scan_pipeline

    with partitions(parts):
        return global_ordered_scan_pipeline(
            rd.from_arrow(tbl).repartition(4), order_col="o", delta_col="d"
        ).to_pandas()


def _brute(o, d):
    order = np.lexsort((-np.asarray(d), np.asarray(o)))
    o_s = np.asarray(o)[order]
    d_s = np.asarray(d)[order]
    return list(zip(o_s.tolist(), d_s.tolist(), np.cumsum(d_s).tolist()))


class TestGlobalScan:
    def test_random_vs_brute(self, ray_session):
        rng = np.random.default_rng(11)
        n = 20_000
        o = rng.integers(-1000, 1000, n)
        d = rng.integers(-3, 4, n)
        got = _scan(pa.table({"o": pa.array(o, pa.int64()), "d": pa.array(d, pa.int64())}))
        got_rows = sorted(zip(got.o, got.d, got.cum))
        assert got_rows == sorted(_brute(o, d))

    def test_single_value_domain(self, ray_session):
        # every row lands in one partition; ties sort +1 before -1
        o = np.zeros(10, dtype=np.int64)
        d = np.array([1, -1] * 5, dtype=np.int64)
        got = _scan(pa.table({"o": pa.array(o), "d": pa.array(d)}))
        assert got.cum.tolist() == [1, 2, 3, 4, 5, 4, 3, 2, 1, 0]

    def test_empty(self, ray_session):
        got = _scan(pa.table({"o": pa.array([], pa.int64()), "d": pa.array([], pa.int64())}))
        assert len(got) == 0


class TestConcurrencySweep:
    def test_vs_brute(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.scan import concurrency_sweep_pipeline

        rng = np.random.default_rng(12)
        n = 3_000
        s = rng.integers(0, 10_000, n)
        e = s + rng.integers(0, 500, n)
        iv = pa.table(
            {"start_us": pa.array(s, pa.int64()), "end_us": pa.array(e, pa.int64())}
        )
        got = concurrency_sweep_pipeline(rd.from_arrow(iv).repartition(3)).to_pandas()
        o = np.concatenate([s, e])
        d = np.concatenate([np.ones(n, np.int64), -np.ones(n, np.int64)])
        assert sorted(zip(got.us, got.delta, got.concurrency)) == sorted(_brute(o, d))
        # the sweep always returns to zero
        assert got.concurrency.min() >= 0
        last = got.sort_values(["us", "delta"], ascending=[True, False]).concurrency.iloc[-1]
        assert last == 0

    def test_inclusive_end_overlap(self, ray_session):
        # session A ends exactly when B starts: both count at that instant
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.scan import concurrency_sweep_pipeline

        iv = pa.table(
            {
                "start_us": pa.array([0, 100], pa.int64()),
                "end_us": pa.array([100, 200], pa.int64()),
            }
        )
        got = concurrency_sweep_pipeline(rd.from_arrow(iv)).to_pandas()
        assert got.concurrency.max() == 2


class TestSessionIntervals:
    def test_gap_rule_matches_sessionize(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.scan import session_intervals_pipeline

        us = np.array([0, 10, 2000, 2010, 5000], dtype=np.int64) * 1_000_000
        t = pa.table(
            {
                "k": pa.array([1] * 5, pa.int64()),
                "ts": pa.array(us, pa.timestamp("us")),
            }
        )
        got = (
            session_intervals_pipeline(
                rd.from_arrow(t), key_col="k", ts_col="ts", gap_s=1800
            )
            .to_pandas()
            .sort_values("start_us")
            .reset_index(drop=True)
        )
        # gaps: 10->2000 (1990s > 1800) splits; 2010->5000 (2990s) splits
        assert got.start_us.tolist() == [0, 2000 * 10**6, 5000 * 10**6]
        assert got.end_us.tolist() == [10 * 10**6, 2010 * 10**6, 5000 * 10**6]
