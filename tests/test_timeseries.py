"""Daily-count autocorrelation (pipelines/timeseries.py) vs brute force."""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ddsketch_ruby_ray.pipelines.timeseries import (
    US_PER_DAY,
    daily_count_autocorr_pipeline,
)
from .partitions import partitions


def _brute(days, lag):
    vals, cnt = np.unique(np.asarray(days, np.int64), return_counts=True)
    lut = dict(zip(vals.tolist(), cnt.tolist()))
    pairs = [(lut[d], lut[d + lag]) for d in vals.tolist() if d + lag in lut]
    n = len(pairs)
    sx = sum(x for x, _ in pairs)
    sy = sum(y for _, y in pairs)
    sxy = sum(x * y for x, y in pairs)
    sxx = sum(x * x for x, _ in pairs)
    syy = sum(y * y for _, y in pairs)
    d1, d2 = n * sxx - sx * sx, n * syy - sy * sy
    r = (
        float(n * sxy - sx * sy) / (math.sqrt(float(d1)) * math.sqrt(float(d2)))
        if d1 > 0 and d2 > 0
        else 0.0
    )
    return n, r


def _run(days, lag=1):
    import ray.data as rd

    us = np.asarray(days, np.int64) * US_PER_DAY + 12345
    tbl = pa.table({"ts": pa.array(us, pa.int64())})
    df = daily_count_autocorr_pipeline(
        rd.from_arrow(tbl).repartition(4), ts_col="ts", lag=lag
    ).to_pandas()
    return int(df.n_pairs[0]), float(df.r[0])


class TestDailyAutocorr:
    def test_random_vs_brute(self, ray_session):
        rng = np.random.default_rng(4)
        days = rng.integers(0, 60, 5000)
        assert _run(days) == _brute(days, 1)

    def test_gap_days_drop_pairs(self, ray_session):
        # days 0,1,2 then 10,11: pairs (0,1),(1,2),(10,11) only
        days = [0] * 3 + [1] * 5 + [2] * 2 + [10] * 4 + [11] * 4
        n, r = _run(days)
        assert n == 3
        assert r == _brute(days, 1)[1]

    def test_constant_series_r_zero(self, ray_session):
        days = [0, 1, 2, 3] * 7  # every day the same count
        n, r = _run(days)
        assert (n, r) == (3, 0.0)


class TestCusumDaily:
    def _run(self, days):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.timeseries import cusum_daily_pipeline

        us = np.asarray(days, np.int64) * US_PER_DAY + 7
        tbl = pa.table({"ts": pa.array(us, pa.int64())})
        return (
            cusum_daily_pipeline(rd.from_arrow(tbl).repartition(3), ts_col="ts")
            .to_pandas()
            .sort_values("day")
            .reset_index(drop=True)
        )

    def test_vs_brute(self, ray_session):
        rng = np.random.default_rng(23)
        days = rng.integers(0, 40, 4000)
        df = self._run(days)
        vals, cnt = np.unique(np.asarray(days, np.int64), return_counts=True)
        dense_days = list(range(int(vals[0]), int(vals[-1]) + 1))
        lut = dict(zip(vals.tolist(), cnt.tolist()))
        dense = [lut.get(d, 0) for d in dense_days]
        k = sum(dense) // len(dense)
        p = n = 0
        exp_p, exp_n = [], []
        for x in dense:
            p = max(0, p + x - k)
            n = max(0, n + k - x)
            exp_p.append(p)
            exp_n.append(n)
        assert df.day.tolist() == dense_days
        assert df.cnt.tolist() == dense
        assert df.cusum_pos.tolist() == exp_p
        assert df.cusum_neg.tolist() == exp_n

    def test_gap_days_zero_filled_and_alarm(self, ray_session):
        # steady 10/day, then a 3-day outage: cusum_neg climbs by k each day
        days = [d for d in range(10) for _ in range(10)] + [13] * 10
        df = self._run(days)
        assert len(df) == 14
        assert df.cnt.tolist()[10:13] == [0, 0, 0]
        k = (10 * 11) // 14
        assert df.cusum_neg.tolist()[10:13] == [k, 2 * k, 3 * k]

    def test_level_shift_detected(self, ray_session):
        # 5/day for 20 days then 50/day for 5 days: cusum_pos explodes late
        days = [d for d in range(20) for _ in range(5)] + [
            d for d in range(20, 25) for _ in range(50)
        ]
        df = self._run(days)
        assert df.cusum_pos.iloc[-1] > 5 * df.cusum_pos.iloc[19]


class TestEwmaDaily:
    def test_vs_brute(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.timeseries import ewma_daily_pipeline

        rng = np.random.default_rng(29)
        days = rng.integers(0, 25, 2000)
        us = np.asarray(days, np.int64) * US_PER_DAY + 3
        df = (
            ewma_daily_pipeline(
                rd.from_arrow(pa.table({"ts": pa.array(us, pa.int64())})).repartition(3),
                ts_col="ts",
                alpha=0.3,
            )
            .to_pandas()
            .sort_values("day")
            .reset_index(drop=True)
        )
        vals, cnt = np.unique(np.asarray(days, np.int64), return_counts=True)
        lut = dict(zip(vals.tolist(), cnt.tolist()))
        dense = [lut.get(d, 0) for d in range(int(vals[0]), int(vals[-1]) + 1)]
        e = float(dense[0])
        exp = [e]
        for x in dense[1:]:
            e = 0.3 * float(x) + (1.0 - 0.3) * e
            exp.append(e)
        assert df.ewma.tolist() == exp  # bit-exact: same op order

    def test_constant_series_is_fixed_point(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.timeseries import ewma_daily_pipeline

        days = [d for d in range(10) for _ in range(4)]
        us = np.asarray(days, np.int64) * US_PER_DAY
        df = ewma_daily_pipeline(
            rd.from_arrow(pa.table({"ts": pa.array(us, pa.int64())})),
            ts_col="ts",
        ).to_pandas()
        assert set(df.ewma.tolist()) == {4.0}


class TestOhlc:
    def test_vs_brute(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.timeseries import ohlc_pipeline

        rng = np.random.default_rng(31)
        n = 5000
        us = rng.integers(0, 50 * 3600, n) * 1_000_000
        eid = rng.permutation(n)
        v = rng.random(n) * 100
        tbl = pa.table(
            {
                "ts": pa.array(us, pa.int64()).cast(pa.timestamp("us")),
                "eid": pa.array(np.asarray(eid, np.int64)),
                "v": pa.array(v, pa.float64()),
            }
        )
        with partitions(8):
            df = (
                ohlc_pipeline(
                    rd.from_arrow(tbl).repartition(5),
                    ts_col="ts", value_col="v", id_col="eid", window_s=3600,
                )
                .to_pandas()
                .sort_values("w")
                .reset_index(drop=True)
            )
        rows = sorted(zip(us // 3_600_000_000, us, eid, v))
        by_w: dict = {}
        for w, t, i, x in rows:
            by_w.setdefault(w, []).append(x)
        for r in df.itertuples():
            vals = by_w[r.w]
            assert (r.open_value, r.close_value) == (vals[0], vals[-1])
            assert (r.high, r.low, r.n) == (max(vals), min(vals), len(vals))
        assert len(df) == len(by_w)

    def test_tie_on_ts_breaks_by_id(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.timeseries import ohlc_pipeline

        tbl = pa.table(
            {
                "ts": pa.array([1000, 1000, 1000], pa.int64()).cast(pa.timestamp("us")),
                "eid": pa.array([5, 1, 9], pa.int64()),
                "v": pa.array([50.0, 10.0, 90.0], pa.float64()),
            }
        )
        df = ohlc_pipeline(
            rd.from_arrow(tbl), ts_col="ts", value_col="v", id_col="eid"
        ).to_pandas()
        assert (df.open_value[0], df.close_value[0]) == (10.0, 90.0)


class TestCalendarSpanGuard:
    """One corrupt outlier timestamp must raise loudly, not OOM the
    gap-fill (MAX_CALENDAR_DAYS bound in _dense_days)."""

    def test_cusum_outlier_raises(self, ray_session):
        import ray
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.timeseries import cusum_daily_pipeline

        # year-9999-style corrupt row: span far past MAX_CALENDAR_DAYS
        days = [20_500 + d for d in range(5)] + [2_900_000]
        us = np.asarray(days, np.int64) * US_PER_DAY
        ds = rd.from_arrow(pa.table({"ts": pa.array(us, pa.int64())}))
        import pytest

        with pytest.raises((ValueError, ray.exceptions.RayTaskError), match="MAX_CALENDAR_DAYS"):
            cusum_daily_pipeline(ds, ts_col="ts").to_pandas()

    def test_ewma_outlier_raises(self, ray_session):
        import ray
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.timeseries import ewma_daily_pipeline

        days = [0, 1, 2, 3_000_000]
        us = np.asarray(days, np.int64) * US_PER_DAY
        ds = rd.from_arrow(pa.table({"ts": pa.array(us, pa.int64())}))
        import pytest

        with pytest.raises((ValueError, ray.exceptions.RayTaskError), match="MAX_CALENDAR_DAYS"):
            ewma_daily_pipeline(ds, ts_col="ts").to_pandas()

    def test_span_at_bound_ok(self, ray_session):
        from ddsketch_ruby_ray.pipelines.timeseries import MAX_CALENDAR_DAYS

        assert MAX_CALENDAR_DAYS >= 100_000  # ~274 years of daily data fits
