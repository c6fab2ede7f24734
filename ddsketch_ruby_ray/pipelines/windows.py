"""Stream-shaped operators over the ordered events log.

Ray Data has no event-time window/watermark machinery; per the standard
recipe these are expressed as batch transforms:

* tumbling windows  - window id is a derived group key (see
  queries.dd_windowed_quantiles);
* sliding windows   - each row is REPLICATED into the windows it belongs to
  inside ``map_batches`` (vectorized np.repeat), then the usual grouped
  sketch pipeline;
* session windows   - one :func:`~.fold.keyed_exchange` on the key
  (~num_partitions reduce calls, never one per key); inside a partition
  one lexsort(ts, key) + boundary reduceat yields every key's gap-based
  session stats.  Ordering assumption: within one call we sort; ACROSS
  calls nothing is needed because partitioning is by key hash.

All are deterministic and SQL-mirrorable (lag/cumsum window functions).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.numeric import round_half_away, run_starts
from .fold import keyed_exchange, partitioned_group_sum

__all__ = [
    "assign_sliding_windows",
    "sessionize_pipeline",
    "ordered_analytics_pipeline",
    "moving_window_pipeline",
    "ranked_analytics_pipeline",
    "funnel_pipeline",
    "multi_funnel_pipeline",
    "ordered_concat_pipeline",
    "longest_streak_pipeline",
    "session_table_pipeline",
    "session_ids",
]


def assign_sliding_windows(
    batch: pa.Table,
    *,
    ts_col: str,
    window_s: int,
    slide_s: int,
    out_col: str = "window_start",
) -> pa.Table:
    """Replicate each row into every sliding window containing its timestamp.

    Windows start at multiples of ``slide_s``; a row at epoch second t
    belongs to starts in (t - window_s, t], i.e. ``window_s // slide_s``
    windows.  Vectorized: one np.repeat + arange per batch.
    """
    assert window_s % slide_s == 0
    per_row = window_s // slide_s
    us = batch.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
    sec = us // 1_000_000
    last_start = (sec // slide_s) * slide_s  # latest window containing the row
    n = batch.num_rows
    idx = np.repeat(np.arange(n), per_row)
    offsets = np.tile(np.arange(per_row) * slide_s, n)
    starts = last_start[idx] - offsets
    out = batch.take(pa.array(idx))
    return out.append_column(out_col, pa.array(starts, pa.int64()))


def sessionize_pipeline(
    ds,
    *,
    key_col: str,
    ts_col: str,
    gap_s: int = 1800,
    num_partitions: int = 64,
):
    """-> Dataset[(key, n_sessions, longest_s, total_events)].

    Gap-based sessions per key: events sorted by ts; a new session starts
    when the gap to the previous event exceeds ``gap_s`` seconds.

    Keys are co-located by a hash PARTITION (~cpus reduce calls, not one
    Python map_groups call per key - at 10^9 users Ray's ~250us/group
    overhead would dominate); inside each partition ONE lexsort + boundary
    reduceat computes every key's session stats.
    """

    def per_partition(pt: pa.Table) -> pa.Table:
        keys = pt.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        us = pt.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((us, keys))
        k_s = keys[order]
        sec = us[order] / 1_000_000.0
        n = len(order)
        new_key = run_starts(k_s)
        new_sess = new_key.copy()
        new_sess[1:] |= (sec[1:] - sec[:-1]) > gap_s
        sess_starts = np.flatnonzero(new_sess)
        sess_ends = np.append(sess_starts[1:], n)
        sess_len = sec[sess_ends - 1] - sec[sess_starts]
        key_starts = np.flatnonzero(new_key)
        uk = k_s[key_starts]
        total = np.diff(np.append(key_starts, n))
        sess_new_key = new_key[sess_starts]  # session opens a new key run
        n_sessions = np.diff(
            np.append(np.flatnonzero(sess_new_key), len(sess_starts))
        )
        longest = np.maximum.reduceat(sess_len, np.flatnonzero(sess_new_key))
        return pa.table(
            {
                key_col: pa.array(uk, pa.int64()),
                "n_sessions": pa.array(n_sessions.astype(np.int64)),
                "longest_s": pa.array(longest, pa.float64()),
                "total_events": pa.array(total.astype(np.int64)),
            }
        )

    return keyed_exchange(ds, per_partition, keys=key_col, num_partitions=num_partitions)


def _int32_lane(a: np.ndarray, what: str) -> np.ndarray:
    """int64 lane -> int32, raising unless every value is in [-2^31, 2^31)."""
    if a.size and (int(a.min()) < -(2**31) or int(a.max()) >= 2**31):
        raise ValueError(
            f"ordered_analytics_pipeline(compact_lanes=True): {what} out of "
            "int32 range [-2^31, 2^31); use the default int64 lanes"
        )
    return a.astype(np.int32)


def ordered_analytics_pipeline(
    ds,
    *,
    key_col: str,
    ts_col: str,
    tiebreak_col: str,
    value_col: str | None = None,
    value_scale: float = 1e6,
    carry_cols=(),
    num_partitions: int = 64,
    compact_lanes: bool = False,
):
    """Per-key ordered window analytics: row_number, running sum, lag gap.

    The SQL ``row_number() / sum() / lag() OVER (PARTITION BY key ORDER BY
    ts, tiebreak)`` trio, which Ray Data's Dataset API cannot express.  Same
    physical plan as sessionize: ONE hash-partition shuffle of the projected
    columns, then one lexsort + boundary-vectorized scan per partition - no
    per-key Python at any key cardinality.

    Emits per input row: ``carry_cols..., key_col, rn`` (1-based rank),
    ``cum_value`` (running int64 sum of ``round(value * value_scale)`` -
    exact integer accumulation, so the result is associative and
    bit-reproducible in SQL regardless of numpy's summation order; omitted
    when ``value_col`` is None) and ``prev_gap_us`` (microseconds since the
    key's previous event; null for the first).

    Scale: output is one row per input row - stream it onward or to parquet;
    nothing materializes.  Skewed keys cost sort time only.

    ``compact_lanes=True`` ships the key and scaled-value lanes as int32
    (36 -> 28 B/row through the one exchange) and raises LOUDLY when a
    value is out of int32 range — opt in only for corpora with bounded key
    and value domains (results are bit-identical: the lanes widen back to
    int64 on the reduce side before any arithmetic).
    """
    carry_cols = list(carry_cols)

    def project(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if compact_lanes:
            keys = _int32_lane(keys, "key")
        cols = {key_col: pa.array(keys)}
        cols["_ts"] = t.column(ts_col).cast(pa.int64())
        cols["_tb"] = t.column(tiebreak_col).cast(pa.int64())
        if value_col is not None:
            v = t.column(value_col).to_numpy(zero_copy_only=False)
            v6 = round_half_away(v * value_scale).astype(np.int64)
            if compact_lanes:
                v6 = _int32_lane(v6, "scaled value")
            cols["_v"] = pa.array(v6)
        for c in carry_cols:
            cols[c] = t.column(c)
        return pa.table(cols)

    projected = ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)

    def per_partition(pt: pa.Table) -> pa.Table:
        n = pt.num_rows
        keys = pt.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        ts = pt.column("_ts").to_numpy(zero_copy_only=False)
        tb = pt.column("_tb").to_numpy(zero_copy_only=False)
        order = np.lexsort((tb, ts, keys))
        k_s, ts_s = keys[order], ts[order]
        new_key = run_starts(k_s)
        starts = np.flatnonzero(new_key)
        lens = np.diff(np.append(starts, n))
        pos = np.arange(n, dtype=np.int64)
        rn = pos - np.repeat(starts, lens) + 1
        gap = np.empty(n, dtype=np.int64)
        if n:
            gap[0] = 0
            gap[1:] = ts_s[1:] - ts_s[:-1]
        take = pa.array(order)
        out = {c: pc.take(pt.column(c), take) for c in carry_cols}
        out[key_col] = pa.array(k_s)
        out["rn"] = pa.array(rn)
        if value_col is not None:
            v_s = pt.column("_v").to_numpy(zero_copy_only=False).astype(np.int64)[order]
            cs = np.cumsum(v_s)
            base = np.repeat(cs[starts] - v_s[starts], lens)
            out["cum_value"] = pa.array(cs - base)
        # first-event gap is NULL (SQL lag semantics)
        out["prev_gap_us"] = pa.array(gap, pa.int64(), mask=new_key)
        return pa.table(out)

    return keyed_exchange(
        projected, per_partition, keys=key_col, num_partitions=num_partitions
    )


def moving_window_pipeline(
    ds,
    *,
    key_col: str,
    ts_col: str,
    tiebreak_col: str,
    value_col: str,
    frame: int,
    value_scale: float = 1e6,
    carry_cols=(),
    num_partitions: int = 64,
):
    """Per-key FRAME-based moving aggregates: sum / min / max / count over
    ``ROWS BETWEEN frame-1 PRECEDING AND CURRENT ROW`` (the feature-
    engineering staple: trailing-k averages, rolling extrema).

    Same physical plan as :func:`ordered_analytics_pipeline` — ONE
    hash-partition shuffle of the projected columns, then one lexsort +
    vectorized scan per partition.  Values are quantized to
    ``round_half_away(value * value_scale)`` int64 once at the map stage, so
    every aggregate is exact-integer and bit-reproducible in the SQL mirror
    (``sum/min/max OVER (... ROWS BETWEEN k-1 PRECEDING AND CURRENT ROW)``).

    ``frame`` is a small constant (the rolling-feature width): the moving
    min/max use ``frame - 1`` vectorized shift-and-compare passes, O(n·k)
    total work with no per-row Python; the moving sum is one cumsum.
    Emits one row per input row: ``carry_cols..., key_col, rn,
    frame_count (= min(rn, frame)), mov_sum, mov_min, mov_max``.
    """
    if frame < 1:
        raise ValueError(f"frame must be >= 1, got {frame}")
    carry_cols = list(carry_cols)

    def project(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        cols = {
            key_col: pa.array(keys),
            "_ts": t.column(ts_col).cast(pa.int64()),
            "_tb": t.column(tiebreak_col).cast(pa.int64()),
            "_v": pa.array(round_half_away(v * value_scale).astype(np.int64)),
        }
        for c in carry_cols:
            cols[c] = t.column(c)
        return pa.table(cols)

    projected = ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)

    def per_partition(pt: pa.Table) -> pa.Table:
        n = pt.num_rows
        keys = pt.column(key_col).to_numpy(zero_copy_only=False)
        ts = pt.column("_ts").to_numpy(zero_copy_only=False)
        tb = pt.column("_tb").to_numpy(zero_copy_only=False)
        v = pt.column("_v").to_numpy(zero_copy_only=False)
        order = np.lexsort((tb, ts, keys))
        k_s, v_s = keys[order], v[order]
        new_key = run_starts(k_s)
        starts = np.flatnonzero(new_key)
        lens = np.diff(np.append(starts, n))
        pos = np.arange(n, dtype=np.int64)
        key_start = np.repeat(starts, lens)
        rn = pos - key_start + 1
        # frame start: max(pos - frame + 1, key start)
        f0 = np.maximum(pos - (frame - 1), key_start)
        cnt = pos - f0 + 1
        cs = np.cumsum(v_s)
        msum = cs - np.where(f0 > 0, cs[np.maximum(f0 - 1, 0)], 0)
        mmin = v_s.copy()
        mmax = v_s.copy()
        for j in range(1, frame):
            live = rn > j  # row j-back is in the same key's frame
            idx = np.flatnonzero(live)
            if not idx.size:
                break
            # setitem form: fancy-indexed `out=` would write into a temp copy
            mmin[idx] = np.minimum(mmin[idx], v_s[idx - j])
            mmax[idx] = np.maximum(mmax[idx], v_s[idx - j])
        take = pa.array(order)
        out = {c: pc.take(pt.column(c), take) for c in carry_cols}
        out[key_col] = pa.array(k_s)
        out["rn"] = pa.array(rn)
        out["frame_count"] = pa.array(cnt)
        out["mov_sum"] = pa.array(msum)
        out["mov_min"] = pa.array(mmin)
        out["mov_max"] = pa.array(mmax)
        return pa.table(out)

    return keyed_exchange(
        projected, per_partition, keys=key_col, num_partitions=num_partitions
    )


def ranked_analytics_pipeline(
    ds,
    *,
    key_col: str,
    value_col: str,
    tiebreak_col: str,
    carry_cols=(),
    ntile: int = 4,
    num_partitions: int = 64,
):
    """Tie-aware per-key ranks: ``rank()``, ``dense_rank()``, ``ntile(B)``
    OVER (PARTITION BY key ORDER BY value DESC, tiebreak ASC).

    Complements :func:`ordered_analytics_pipeline` (whose ``rn`` is the
    tie-UNaware row_number): ``rnk`` repeats with gaps across value ties,
    ``dense_rnk`` repeats without gaps, and ``tile`` buckets each key's rows
    into ``ntile`` near-equal groups (SQL sizing: the first ``n mod B``
    buckets get one extra row).  Same physical plan as every ordered
    analytic here — ONE hash co-partition of the projected columns, then a
    single lexsort + boundary-vectorized scan per partition; skewed keys
    cost sort time only, no per-key Python at any cardinality.
    """
    carry_cols = list(carry_cols)
    if ntile < 1:
        raise ValueError("ntile must be >= 1")

    def project(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        cols = {key_col: pa.array(keys)}
        cols["_v"] = t.column(value_col)
        cols["_tb"] = t.column(tiebreak_col).cast(pa.int64())
        for c in carry_cols:
            cols[c] = t.column(c)
        return pa.table(cols)

    projected = ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)

    def per_partition(pt: pa.Table) -> pa.Table:
        n = pt.num_rows
        keys = pt.column(key_col).to_numpy(zero_copy_only=False)
        v = pt.column("_v").to_numpy(zero_copy_only=False)
        tb = pt.column("_tb").to_numpy(zero_copy_only=False)
        order = np.lexsort((tb, -v, keys))  # value DESC, tiebreak ASC per key
        k_s, v_s = keys[order], v[order]
        new_key = run_starts(k_s)
        new_val = run_starts(k_s, v_s)
        starts = np.flatnonzero(new_key)
        lens = np.diff(np.append(starts, n))
        pos = np.arange(n, dtype=np.int64)
        key_start = np.repeat(starts, lens)
        # rank(): 1 + offset of the tie-group's first row within the key
        tie_start = np.maximum.accumulate(np.where(new_val, pos, -1))
        rnk = tie_start - key_start + 1
        # dense_rank(): count of tie-group boundaries within the key so far
        nv_cum = np.cumsum(new_val.astype(np.int64))
        dense = nv_cum - np.repeat(nv_cum[starts], lens) + 1
        # ntile(B): position-based; first (n_g mod B) buckets get q+1 rows
        p = pos - key_start
        n_g = np.repeat(lens, lens)
        q, r = n_g // ntile, n_g % ntile
        cut = r * (q + 1)
        small = np.where(q > 0, q, 1)  # q==0 -> every row its own bucket
        tile = np.where(p < cut, p // np.maximum(q + 1, 1), r + (p - cut) // small) + 1
        # percent_rank() = (rank - 1) / (n - 1), 0 for single-row keys;
        # cume_dist() = rows-with-value-at-least-current / n = the tie
        # group's END offset over the key size (DESC order).  Both are one
        # int/int float64 division — the same op DuckDB performs.
        pct = np.where(
            n_g > 1,
            (rnk - 1).astype(np.float64) / np.maximum(n_g - 1, 1).astype(np.float64),
            0.0,
        )
        tstarts = np.flatnonzero(new_val)
        tlens = np.diff(np.append(tstarts, n))
        tie_end = np.repeat(np.append(tstarts[1:], n), tlens) if n else pos
        cume = (tie_end - key_start).astype(np.float64) / n_g.astype(np.float64)
        take = pa.array(order)
        out = {c: pc.take(pt.column(c), take) for c in carry_cols}
        out[key_col] = pa.array(k_s)
        out["rnk"] = pa.array(rnk)
        out["dense_rnk"] = pa.array(dense)
        out["tile"] = pa.array(tile.astype(np.int64))
        out["pct_rank"] = pa.array(pct, pa.float64())
        out["cume"] = pa.array(cume, pa.float64())
        return pa.table(out)

    return keyed_exchange(
        projected, per_partition, keys=key_col, num_partitions=num_partitions
    )


def funnel_pipeline(
    ds,
    *,
    user_col: str,
    ts_col: str,
    type_col: str,
    first_type: str,
    next_type: str,
    window_s: int,
    num_partitions: int = 64,
):
    """Two-stage event funnel: of the users whose stream contains
    ``first_type``, how many performed ``next_type`` within ``window_s``
    seconds of their FIRST ``first_type`` event (inclusive bounds)?

    -> one-row pandas DataFrame (stage1_users, stage2_users).

    The classic product-analytics sequence query, not expressible in Ray
    Data's Dataset API.  Plan: the map side filters to the two event types
    and projects (user, ts, flag) — everything else is pruned before the
    shuffle; users co-locate by hash; each partition resolves every user's
    funnel with one lexsort + two reduceats; only per-partition COUNTS
    (two ints) leave the reduce.  Skewed users cost sort time only.
    """
    import pandas as pd

    win_us = int(window_s) * 1_000_000

    def project(t: pa.Table) -> pa.Table:
        et = t.column(type_col)
        keep = pc.or_(pc.equal(et, first_type), pc.equal(et, next_type))
        t = t.filter(keep)
        users = t.column(user_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                user_col: pa.array(users),
                "_ts": t.column(ts_col).cast(pa.int64()),
                "_is_first": pc.equal(t.column(type_col), first_type),
            }
        )

    projected = ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)

    def per_partition(pt: pa.Table) -> pa.Table:
        n = pt.num_rows
        if not n:
            return pa.table(
                {"stage1_users": pa.array([0], pa.int64()),
                 "stage2_users": pa.array([0], pa.int64())}
            )
        u = pt.column(user_col).to_numpy(zero_copy_only=False)
        ts = pt.column("_ts").to_numpy(zero_copy_only=False)
        is_a = pt.column("_is_first").to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, u))
        u_s, ts_s, a_s = u[order], ts[order], is_a[order]
        new_u = run_starts(u_s)
        starts = np.flatnonzero(new_u)
        lens = np.diff(np.append(starts, n))
        pos = np.arange(n, dtype=np.int64)
        # first A per user: min position among A rows (sentinel n = none)
        a_pos = np.where(a_s, pos, n)
        first_a = np.minimum.reduceat(a_pos, starts)
        has_a = first_a < n
        # stage 2: any B row in [first_a_ts, first_a_ts + win]
        fa_ts = np.repeat(np.where(has_a, ts_s[np.minimum(first_a, n - 1)], 0), lens)
        fa_ok = np.repeat(has_a, lens)
        hit = (~a_s) & fa_ok & (ts_s >= fa_ts) & (ts_s <= fa_ts + win_us)
        s2 = np.maximum.reduceat(hit.astype(np.int64), starts)
        return pa.table(
            {
                "stage1_users": pa.array([int(has_a.sum())], pa.int64()),
                "stage2_users": pa.array([int(s2[has_a].sum())], pa.int64()),
            }
        )

    partials = keyed_exchange(
        projected, per_partition, keys=user_col, num_partitions=num_partitions
    )
    # KB-sized: one (s1, s2) row per partition
    agg = partials.sum(["stage1_users", "stage2_users"])
    return pd.DataFrame(
        [
            {
                "stage1_users": int(agg["sum(stage1_users)"]),
                "stage2_users": int(agg["sum(stage2_users)"]),
            }
        ]
    )


def ordered_concat_pipeline(
    ds,
    *,
    key_col: str,
    ts_col: str,
    tiebreak_col: str,
    value_col: str,
    sep: str = "|",
    num_partitions: int = 64,
):
    """Per-key ORDERED string aggregation — SQL's ``string_agg(value, sep
    ORDER BY ts, tiebreak)`` — the clickstream/session-path op ("what
    sequence of event types did each user produce?").

    One row per key: ``key_col, n_events, path``.  Same physical plan as
    the other ordered analytics: one hash-partition shuffle of the
    projected columns, then per partition one lexsort + segment-boundary
    pass; the concatenation itself is a single Arrow ``binary_join`` over a
    ListArray built from the sorted flat values — no per-key Python.

    Scale note: output rows are one per key but their WIDTH is the key's
    total value bytes; a pathological key (one user with millions of
    events) produces a correspondingly wide row, exactly as SQL's
    string_agg would.  Filter or cap upstream if paths must stay bounded.
    """
    def project(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                key_col: pa.array(keys),
                "_ts": t.column(ts_col).cast(pa.int64()),
                "_tb": t.column(tiebreak_col).cast(pa.int64()),
                "_v": pc.cast(t.column(value_col), pa.string()),
            }
        )

    projected = ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)

    def per_partition(pt: pa.Table) -> pa.Table:
        n = pt.num_rows
        keys = pt.column(key_col).to_numpy(zero_copy_only=False)
        ts = pt.column("_ts").to_numpy(zero_copy_only=False)
        tb = pt.column("_tb").to_numpy(zero_copy_only=False)
        order = np.lexsort((tb, ts, keys))
        k_s = keys[order]
        if not n:
            return pa.table(
                {
                    key_col: pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "path": pa.array([], pa.string()),
                }
            )
        new_key = run_starts(k_s)
        starts = np.flatnonzero(new_key)
        lens = np.diff(np.append(starts, n))
        flat = pc.take(pt.column("_v"), pa.array(order))
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        offsets = pa.array(np.append(starts, n).astype(np.int32))
        lists = pa.ListArray.from_arrays(offsets, flat)
        path = pc.binary_join(lists, sep)
        return pa.table(
            {
                key_col: pa.array(k_s[starts]),
                "n_events": pa.array(lens.astype(np.int64)),
                "path": path,
            }
        )

    return keyed_exchange(
        projected, per_partition, keys=key_col, num_partitions=num_partitions
    )


def multi_funnel_pipeline(
    ds,
    *,
    user_col: str,
    ts_col: str,
    type_col: str,
    steps,
    window_s: int,
    num_partitions: int = 64,
):
    """K-stage ordered funnel: -> Dataset[(step, event_type, users)].

    Stage 0 users = anyone with a ``steps[0]`` event (anchor = their FIRST
    such event); stage i users = stage i-1 users whose FIRST ``steps[i]``
    event at ts >= the previous matched ts lies within ``window_s``
    seconds of it (inclusive bounds, per-step window).  Generalizes
    :func:`funnel_pipeline` to arbitrary chains.

    Same physical plan: filter to the step types before the one user-hash
    shuffle; each partition resolves every resident user's whole chain
    with one lexsort per step + the joins.py merge-rank trick (no per-user
    Python); only K per-partition counts leave the reduce.
    """
    from .joins import _merge_rank

    steps = list(steps)
    if len(steps) < 2:
        raise ValueError("multi_funnel_pipeline needs >= 2 steps")
    win_us = int(window_s) * 1_000_000
    step_idx = {name: i for i, name in enumerate(steps)}

    def project(t: pa.Table) -> pa.Table:
        ty = t.column(type_col).to_numpy(zero_copy_only=False)
        sel = np.isin(ty, np.array(steps, dtype=object))
        u = t.column(user_col).to_numpy(zero_copy_only=False).astype(np.int64)[sel]
        us = t.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)[sel]
        si = np.fromiter(
            (step_idx[x] for x in ty[sel].tolist()), dtype=np.int8, count=int(sel.sum())
        )
        return pa.table({"u": pa.array(u), "us": pa.array(us), "si": pa.array(si)})

    def per_partition(g: pa.Table) -> pa.Table:
        u = g.column("u").to_numpy(zero_copy_only=False)
        us = g.column("us").to_numpy(zero_copy_only=False)
        si = g.column("si").to_numpy(zero_copy_only=False)
        counts = np.zeros(len(steps), dtype=np.int64)
        # stage 0: first anchor event per user
        m0 = si == 0
        if m0.any():
            u0, t0 = u[m0], us[m0]
            order = np.lexsort((t0, u0))
            u0, t0 = u0[order], t0[order]
            first = run_starts(u0)
            alive_u, alive_t = u0[first], t0[first]
        else:
            alive_u = u[:0]
            alive_t = us[:0]
        counts[0] = alive_u.size
        for i in range(1, len(steps)):
            if not alive_u.size:
                break
            mi = si == i
            ui, ti = u[mi], us[mi]
            order = np.lexsort((ti, ui))
            ui, ti = ui[order], ti[order]
            # first step-i event at (user, ts) >= (u, prev_ts)
            pos = _merge_rank(ui, ti, alive_u, alive_t - 1, inclusive=True)
            ok = pos < ui.size
            pos_c = np.minimum(pos, max(ui.size - 1, 0))
            ok &= ui[pos_c] == alive_u
            ok &= ti[pos_c] - alive_t <= win_us
            alive_u = alive_u[ok]
            alive_t = ti[pos_c[ok]]
            counts[i] = alive_u.size
        return pa.table(
            {
                "step": pa.array(np.arange(len(steps), dtype=np.int64)),
                "users": pa.array(counts),
            }
        )

    summed = partitioned_group_sum(
        keyed_exchange(
            ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
            per_partition,
            keys="u",
            num_partitions=num_partitions,
        ),
        "step",
        "users",
        num_partitions=1,
    )

    def finalize(t: pa.Table) -> pa.Table:
        # one fold partition: sorting the batch puts the steps in order
        t = t.sort_by("step")
        st = t.column("step").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "step": pa.array(st),
                "event_type": pa.array([steps[int(x)] for x in st], pa.string()),
                "users": pa.array(
                    t.column("sum(users)").to_numpy(zero_copy_only=False)
                ),
            }
        )

    return summed.map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)


def _gap_islands(k_sorted: np.ndarray, us_sorted: np.ndarray, gap: int):
    """(new_key, new_sess) boundary masks over key-major sorted rows: a new
    island starts at a key change or when the in-key gap exceeds ``gap``.
    Shared by the session TABLE, the per-key rollup and the session-basket
    assigner so the 30-min-gap semantics live in exactly one place."""
    new_key = run_starts(k_sorted)
    new_sess = new_key.copy()
    new_sess[1:] |= (us_sorted[1:] - us_sorted[:-1]) > gap
    return new_key, new_sess


def session_ids(k_sorted: np.ndarray, us_sorted: np.ndarray, gap: int) -> np.ndarray:
    """Per-row 1-based session index within each key (key-major sorted)."""
    new_key, new_sess = _gap_islands(k_sorted, us_sorted, gap)
    sess_global = np.cumsum(new_sess)
    key_base = np.maximum.accumulate(np.where(new_key, sess_global - 1, 0))
    return sess_global - key_base


def longest_streak_pipeline(
    ds,
    *,
    key_col: str,
    day_col: str,
    num_partitions: int = 64,
):
    """-> Dataset[(key, n_active_days, longest_streak)] — per key, the
    count of DISTINCT active days and the longest run of CONSECUTIVE days
    (the gaps-and-islands classic: engagement streaks, uptime runs,
    consecutive-trading-day windows).

    Plan: per-block Arrow group_by dedups (key, day) locally, ONE
    hash(key) co-partition, then each group task re-dedups and runs a
    single lexsort + boundary-vectorized island scan: a new island starts
    where the key changes or day − prev_day ≠ 1; island lengths come from
    one diff over island starts, per-key maxima from one
    ``np.maximum.reduceat`` (islands are contiguous per key after the
    sort).  Only (key, day) int64 pairs shuffle; no per-key Python at any
    cardinality — the same skew contract as the ordered analytics."""
    def pre(t: pa.Table) -> pa.Table:
        from .fold import strict_key_int64

        return (
            pa.table(
                {
                    "key": pa.array(strict_key_int64(t.column(key_col), name=key_col)),
                    "day": pa.array(strict_key_int64(t.column(day_col), name=day_col)),
                }
            )
            .group_by(["key", "day"])
            .aggregate([])
        )

    def fold(g: pa.Table) -> pa.Table:
        k = g.column("key").to_numpy(zero_copy_only=False)
        d = g.column("day").to_numpy(zero_copy_only=False)
        o = np.lexsort((d, k))
        k, d = k[o], d[o]
        keep = run_starts(k, d)
        k, d = k[keep], d[keep]
        n = k.size
        if n == 0:
            return pa.table(
                {
                    "key": pa.array([], pa.int64()),
                    "n_active_days": pa.array([], pa.int64()),
                    "longest_streak": pa.array([], pa.int64()),
                }
            )
        new_key = run_starts(k)
        island = new_key.copy()
        island[1:] |= d[1:] != d[:-1] + 1
        i_starts = np.flatnonzero(island)
        i_lens = np.diff(np.append(i_starts, n)).astype(np.int64)
        # islands are contiguous per key: per-key slices over the island list
        key_first_island = np.flatnonzero(new_key[i_starts])
        k_starts = np.flatnonzero(new_key)
        return pa.table(
            {
                "key": pa.array(k[k_starts]),
                "n_active_days": pa.array(
                    np.diff(np.append(k_starts, n)).astype(np.int64)
                ),
                "longest_streak": pa.array(
                    np.maximum.reduceat(i_lens, key_first_island)
                ),
            }
        )

    return keyed_exchange(
        ds.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True),
        fold,
        keys="key",
        num_partitions=num_partitions,
    )


def session_table_pipeline(
    ds,
    *,
    key_col: str,
    ts_col: str,
    gap_us: int = 1_800_000_000,
    num_partitions: int = 64,
):
    """-> Dataset[(key, session_idx, n_events, duration_us)] — one row PER
    SESSION (the session TABLE, vs :func:`sessionize_pipeline`'s per-key
    rollup): a new session starts when the gap to the previous event
    exceeds ``gap_us`` microseconds; ``session_idx`` is 1-based in time
    order and ``duration_us`` = last − first event, all exact int64.

    Same physical plan as every ordered analytic here: ONE hash(key)
    co-partition of (key, ts) int64 pairs, then a single lexsort +
    boundary-vectorized scan per partition emitting session rows via
    reduceat — no per-key Python at any cardinality.  Equal-timestamp
    ties can't change session membership (their gap is 0), so the output
    is layout-invariant without a tiebreak column."""
    def pre(t: pa.Table) -> pa.Table:
        from .fold import strict_key_int64

        k = strict_key_int64(t.column(key_col), name=key_col)
        return pa.table(
            {
                key_col: pa.array(k),
                "us": t.column(ts_col).cast(pa.int64()),
            }
        )

    def fold(g: pa.Table) -> pa.Table:
        k = g.column(key_col).to_numpy(zero_copy_only=False)
        us = g.column("us").to_numpy(zero_copy_only=False)
        n = k.size
        if n == 0:
            return pa.table(
                {
                    key_col: pa.array([], pa.int64()),
                    "session_idx": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "duration_us": pa.array([], pa.int64()),
                }
            )
        o = np.lexsort((us, k))
        k, us = k[o], us[o]
        new_key, new_sess = _gap_islands(k, us, gap_us)
        s_starts = np.flatnonzero(new_sess)
        s_ends = np.append(s_starts[1:], n) - 1
        # 1-based session index within each key
        sess_of_key = np.cumsum(new_key[s_starts])  # key ordinal per session
        idx_in_key = (
            np.arange(s_starts.size)
            - np.searchsorted(sess_of_key, sess_of_key, side="left")
            + 1
        )
        return pa.table(
            {
                key_col: pa.array(k[s_starts]),
                "session_idx": pa.array(idx_in_key.astype(np.int64)),
                "n_events": pa.array(
                    (np.append(s_starts[1:], n) - s_starts).astype(np.int64)
                ),
                "duration_us": pa.array(us[s_ends] - us[s_starts]),
            }
        )

    return keyed_exchange(
        ds.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True),
        fold,
        keys=key_col,
        num_partitions=num_partitions,
    )
