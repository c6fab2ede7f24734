"""Time-series primitives over event streams: lag autocorrelation.

Daily-count lag-k autocorrelation — the seasonality / burstiness check a
monitoring or curation pipeline runs over an event log.  Two stages:

  1. distributed: one keyed (day, count) fold (``_daily_counts``; the
     series table is one row per day — KB for years of data).
  2. the series meets in ONE partition (repartition(1), in-cluster, never
     the driver) where consecutive-CALENDAR-day pairs (d, d+k) form and
     the Pearson r comes from exact python-int sufficient statistics with
     the same fixed float-op order as pipelines/stats.py — bit-exact SQL.

Days with no events simply contribute no pair (calendar join, not
observed-adjacency).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..core.numeric import run_starts
from .fold import keyed_exchange, partitioned_group_agg

__all__ = [
    "daily_count_autocorr_pipeline",
    "cusum_daily_pipeline",
    "ewma_daily_pipeline",
    "ohlc_pipeline",
    "locf_daily_pipeline",
    "rolling_median_daily_pipeline",
]

US_PER_DAY = 86_400_000_000

# Gap-fill guard: cusum/ewma densify the calendar between min and max day,
# so ONE corrupt outlier timestamp (epoch 0 among 2026 data) inflates the
# dense array without bound — a data-driven OOM on the reduce task.  274
# years of daily data is far past any real event-log span; raise loudly
# instead of allocating.
MAX_CALENDAR_DAYS = 100_000


def _dense_days(day: np.ndarray) -> np.ndarray:
    span = int(day[-1]) - int(day[0]) + 1
    if span > MAX_CALENDAR_DAYS:
        raise ValueError(
            f"calendar gap-fill span {span} days exceeds MAX_CALENDAR_DAYS="
            f"{MAX_CALENDAR_DAYS} (min day {int(day[0])}, max day "
            f"{int(day[-1])}) — likely corrupt outlier timestamps; clean or "
            "clip the input day range"
        )
    return np.arange(day[0], day[-1] + 1, dtype=np.int64)


def _daily_counts(ds, ts_col: str):
    """-> Dataset[(day, count())]: events per epoch day, one keyed count
    (in no day order; each finalize sorts)."""

    def to_day(t: pa.Table) -> pa.Table:
        us = t.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"day": pa.array(us // US_PER_DAY)})

    return partitioned_group_agg(
        ds.map_batches(to_day, batch_format="pyarrow", zero_copy_batch=True),
        "day",
        [(None, "count")],
    )


def daily_count_autocorr_pipeline(ds, *, ts_col: str, lag: int = 1):
    """-> Dataset[(n_pairs, r)] — Pearson autocorrelation of daily event
    counts at ``lag`` calendar days (r = 0.0 when either variance is 0)."""

    series = _daily_counts(ds, ts_col)

    def finalize(t: pa.Table) -> pa.Table:
        day = t.column("day").to_numpy(zero_copy_only=False)
        cnt = t.column("count()").to_numpy(zero_copy_only=False)
        if not day.size:
            return pa.table(
                {
                    "n_pairs": pa.array([0], pa.int64()),
                    "r": pa.array([0.0], pa.float64()),
                }
            )
        order = np.argsort(day)
        day, cnt = day[order], cnt[order]
        pos = np.searchsorted(day, day + lag)
        pos_c = np.minimum(pos, day.size - 1)
        hit = day[pos_c] == day + lag
        x = cnt[hit]
        y = cnt[pos_c[hit]]
        n = int(x.size)
        # python ints: exact at any count magnitude
        sx, sy = int(x.sum()), int(y.sum())
        sxy = sum(int(a) * int(b) for a, b in zip(x.tolist(), y.tolist()))
        sxx = sum(int(a) * int(a) for a in x.tolist())
        syy = sum(int(b) * int(b) for b in y.tolist())
        num = n * sxy - sx * sy
        d1 = n * sxx - sx * sx
        d2 = n * syy - sy * sy
        r = (
            float(num) / (math.sqrt(float(d1)) * math.sqrt(float(d2)))
            if d1 > 0 and d2 > 0
            else 0.0
        )
        return pa.table(
            {
                "n_pairs": pa.array([n], pa.int64()),
                "r": pa.array([r], pa.float64()),
            }
        )

    return series.repartition(1).map_batches(
        finalize, batch_format="pyarrow", zero_copy_batch=True
    )


def cusum_daily_pipeline(ds, *, ts_col: str):
    """Two-sided CUSUM change-point statistic over the DENSE daily count
    series: -> Dataset[(day, cnt, cusum_pos, cusum_neg)].

    Page's cumulative-sum detector with allowance k = floor(mean daily
    count):  pos_t = max(0, pos_{t-1} + cnt_t - k),  neg_t = max(0,
    neg_{t-1} + k - cnt_t) — a spike/drought alarm raises where the
    statistic runs away.  Calendar days with no events count as ZERO
    (gap-filled between the observed min and max day), which is what makes
    a total outage visible.  All arithmetic is exact int64; the recurrence
    is inherently sequential, so it runs over the KB-sized daily series in
    the single finalize partition (the distributed work is the count
    reduction) and the SQL mirror is a recursive CTE.
    """

    series = _daily_counts(ds, ts_col)

    def finalize(t: pa.Table) -> pa.Table:
        day = t.column("day").to_numpy(zero_copy_only=False)
        cnt = t.column("count()").to_numpy(zero_copy_only=False)
        empty = pa.table(
            {
                "day": pa.array([], pa.int64()),
                "cnt": pa.array([], pa.int64()),
                "cusum_pos": pa.array([], pa.int64()),
                "cusum_neg": pa.array([], pa.int64()),
            }
        )
        if not day.size:
            return empty
        order = np.argsort(day)
        day, cnt = day[order], cnt[order]
        dense_days = _dense_days(day)
        dense = np.zeros(dense_days.size, dtype=np.int64)
        dense[np.searchsorted(dense_days, day)] = cnt
        k = int(dense.sum()) // dense.size  # floor mean over CALENDAR days
        pos = np.zeros(dense.size, dtype=np.int64)
        neg = np.zeros(dense.size, dtype=np.int64)
        p = n = 0
        for i, x in enumerate(dense.tolist()):  # sequential by nature; KB series
            p = max(0, p + x - k)
            n = max(0, n + k - x)
            pos[i] = p
            neg[i] = n
        return pa.table(
            {
                "day": pa.array(dense_days),
                "cnt": pa.array(dense),
                "cusum_pos": pa.array(pos),
                "cusum_neg": pa.array(neg),
            }
        )

    return series.repartition(1).map_batches(
        finalize, batch_format="pyarrow", zero_copy_batch=True
    )


def ewma_daily_pipeline(ds, *, ts_col: str, alpha: float = 0.3):
    """Exponentially weighted moving average of the DENSE daily count
    series: -> Dataset[(day, cnt, ewma)].

    ewma_0 = cnt_0;  ewma_t = alpha * cnt_t + (1 - alpha) * ewma_{t-1} —
    the smoothing recurrence is sequential, so like the CUSUM it runs over
    the KB daily series in the single finalize partition.  Although the
    values are floats, the recurrence evaluates the SAME IEEE ops in the
    SAME order on both sides (a recursive CTE is sequential too), so the
    mirror is bit-exact with no quantization.  Gap days count as zero.
    """

    series = _daily_counts(ds, ts_col)
    a = float(alpha)

    def finalize(t: pa.Table) -> pa.Table:
        day = t.column("day").to_numpy(zero_copy_only=False)
        cnt = t.column("count()").to_numpy(zero_copy_only=False)
        if not day.size:
            return pa.table(
                {
                    "day": pa.array([], pa.int64()),
                    "cnt": pa.array([], pa.int64()),
                    "ewma": pa.array([], pa.float64()),
                }
            )
        order = np.argsort(day)
        day, cnt = day[order], cnt[order]
        dense_days = _dense_days(day)
        dense = np.zeros(dense_days.size, dtype=np.int64)
        dense[np.searchsorted(dense_days, day)] = cnt
        out = np.empty(dense.size, dtype=np.float64)
        e = float(dense[0])
        out[0] = e
        for i in range(1, dense.size):  # sequential recurrence; KB series
            e = a * float(dense[i]) + (1.0 - a) * e
            out[i] = e
        return pa.table(
            {
                "day": pa.array(dense_days),
                "cnt": pa.array(dense),
                "ewma": pa.array(out),
            }
        )

    return series.repartition(1).map_batches(
        finalize, batch_format="pyarrow", zero_copy_batch=True
    )


def ohlc_pipeline(
    ds,
    *,
    ts_col: str,
    value_col: str,
    id_col: str,
    window_s: int = 3600,
):
    """Per-tumbling-window OHLC bars: -> Dataset[(w, open_value, high,
    low, close_value, n)].

    The order-dependent aggregate pair (open = value of the FIRST event
    by (ts, id), close = the LAST) plus plain extrema.  One keyed shuffle
    of the thin (window, ts, id, value) rows co-locates each window; a
    single lexsort + segment boundaries resolve all four stats at once.
    Comparisons and identity only — float values mirror bit-exactly.
    """
    win_us = int(window_s) * 1_000_000

    def project(t: pa.Table) -> pa.Table:
        us = t.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "w": pa.array(us // win_us),
                "us": pa.array(us),
                "eid": t.column(id_col).cast(pa.int64()),
                "v": t.column(value_col).cast(pa.float64()),
            }
        )

    projected = ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)

    def per_partition(g: pa.Table) -> pa.Table:
        w = g.column("w").to_numpy(zero_copy_only=False)
        us = g.column("us").to_numpy(zero_copy_only=False)
        eid = g.column("eid").to_numpy(zero_copy_only=False)
        v = g.column("v").to_numpy(zero_copy_only=False)
        if not w.size:
            return pa.table(
                {
                    "w": pa.array([], pa.int64()),
                    "open_value": pa.array([], pa.float64()),
                    "high": pa.array([], pa.float64()),
                    "low": pa.array([], pa.float64()),
                    "close_value": pa.array([], pa.float64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        order = np.lexsort((eid, us, w))
        w_s, v_s = w[order], v[order]
        new = run_starts(w_s)
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], w_s.size) - 1
        return pa.table(
            {
                "w": pa.array(w_s[starts]),
                "open_value": pa.array(v_s[starts]),
                "high": pa.array(np.maximum.reduceat(v_s, starts)),
                "low": pa.array(np.minimum.reduceat(v_s, starts)),
                "close_value": pa.array(v_s[ends]),
                "n": pa.array(np.diff(np.append(starts, w_s.size)).astype(np.int64)),
            }
        )

    return keyed_exchange(projected, per_partition, keys="w")


def locf_daily_pipeline(
    ds,
    *,
    key_col: str,
    ts_col: str,
    value_col: str,
    id_col: str,
    max_fill_rows: int = 50_000_000,
):
    """-> Dataset[(key, day, value)] — per key, one row for EVERY calendar
    day in the key's [first, last] observed span, carrying the day's
    CLOSING value (last event by (ts, id)) forward across gap days: the
    last-observation-carried-forward densification every daily-feature /
    as-of training table needs.

    The value column is carried by COMPARISON-ONLY selection (no float
    arithmetic), so doubles mirror SQL bit-for-bit.  Plan: one hash(key)
    co-partition of the projected (key, day, ts, id, value) columns, then
    per partition ONE lexsort picks each (key, day) close and a fully
    vectorized repeat + arange-minus-offset expansion materializes the
    gap days (no per-key Python).  Guards: a key's calendar span is
    bounded by MAX_CALENDAR_DAYS and each partition's total output by
    ``max_fill_rows`` — one corrupt epoch-0 timestamp raises loudly
    instead of OOMing the task (same contract as the cusum gap-fill)."""
    def project(t: pa.Table) -> pa.Table:
        from .fold import strict_key_int64

        us = t.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        k = strict_key_int64(t.column(key_col), name=key_col)
        return pa.table(
            {
                "key": pa.array(k),
                "day": pa.array(us // US_PER_DAY),
                "_ts": pa.array(us),
                "_id": t.column(id_col).cast(pa.int64()),
                "value": t.column(value_col),
            }
        )

    def fold(g: pa.Table) -> pa.Table:
        k = g.column("key").to_numpy(zero_copy_only=False)
        d = g.column("day").to_numpy(zero_copy_only=False)
        ts = g.column("_ts").to_numpy(zero_copy_only=False)
        ev = g.column("_id").to_numpy(zero_copy_only=False)
        o = np.lexsort((ev, ts, d, k))
        k, d = k[o], d[o]
        # last row of each (key, day) run is the close: the row before a start
        last = np.roll(run_starts(k, d), -1)
        vals = g.column("value").take(pa.array(o[last]))
        k, d = k[last], d[last]
        n = k.size
        if n == 0:
            return pa.table(
                {
                    "key": pa.array([], pa.int64()),
                    "day": pa.array([], pa.int64()),
                    "value": pa.array([], pa.float64()),
                }
            )
        new_key = run_starts(k)
        # span guard per key (vectorized: last-minus-first day per key run)
        starts = np.flatnonzero(new_key)
        ends = np.append(starts[1:], n) - 1
        spans = d[ends] - d[starts] + 1
        if spans.size and int(spans.max()) > MAX_CALENDAR_DAYS:
            raise ValueError(
                f"locf_daily_pipeline: a key spans {int(spans.max())} calendar "
                f"days (> {MAX_CALENDAR_DAYS}); clean the timestamps or clip"
            )
        # fill length of each close = days until the key's next close
        fill = np.empty(n, dtype=np.int64)
        fill[:-1] = d[1:] - d[:-1]
        fill[ends] = 1  # each key's final close emits exactly one row
        total = int(fill.sum())
        if total > max_fill_rows:
            raise ValueError(
                f"locf_daily_pipeline: partition would emit {total} filled "
                f"rows (> {max_fill_rows}); raise max_fill_rows or clean spans"
            )
        idx = np.repeat(np.arange(n, dtype=np.int64), fill)
        pos = np.arange(total, dtype=np.int64)
        offs = np.concatenate([[0], np.cumsum(fill)[:-1]])
        day_out = d[idx] + (pos - offs[idx])
        return pa.table(
            {
                "key": pa.array(k[idx]),
                "day": pa.array(day_out),
                "value": vals.take(pa.array(idx)),
            }
        )

    return keyed_exchange(
        ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
        fold,
        keys="key",
    )


def rolling_median_daily_pipeline(ds, *, ts_col: str, window: int = 7):
    """Trailing-``window``-day rolling MEDIAN of the DENSE daily count
    series: -> Dataset[(day, cnt, med)] — the robust smoother that, unlike
    the EWMA, ignores single-day spikes entirely.  Gap days count as zero
    (same densified-calendar semantic as the CUSUM); the leading days use
    the truncated window.  The median of an even-sized window is
    float(a + b) / 2.0 of the two middle EXACT ints — the same value
    DuckDB's windowed ``median()`` produces — so the float column is
    bit-exact.  The inherently-ordered scan runs over the KB daily series
    in the single finalize partition (the distributed work is the count
    reduction)."""

    series = _daily_counts(ds, ts_col)

    def finalize(t: pa.Table) -> pa.Table:
        day = t.column("day").to_numpy(zero_copy_only=False)
        cnt = t.column("count()").to_numpy(zero_copy_only=False)
        empty = pa.table(
            {
                "day": pa.array([], pa.int64()),
                "cnt": pa.array([], pa.int64()),
                "med": pa.array([], pa.float64()),
            }
        )
        if not day.size:
            return empty
        order = np.argsort(day)
        day, cnt = day[order], cnt[order]
        dense_days = _dense_days(day)
        dense = np.zeros(dense_days.size, dtype=np.int64)
        dense[np.searchsorted(dense_days, day)] = cnt
        med = np.empty(dense.size, dtype=np.float64)
        for i in range(dense.size):  # KB series; window sort is O(w log w)
            w = np.sort(dense[max(0, i - window + 1) : i + 1])
            k = w.size
            if k % 2:
                med[i] = float(int(w[k // 2]))
            else:
                med[i] = float(int(w[k // 2 - 1]) + int(w[k // 2])) / 2.0
        return pa.table(
            {
                "day": pa.array(dense_days),
                "cnt": pa.array(dense),
                "med": pa.array(med, pa.float64()),
            }
        )

    return series.repartition(1).map_batches(
        finalize, batch_format="pyarrow", zero_copy_batch=True
    )
