"""Temporal joins Ray Data lacks: as-of join and range (interval) join.

Neither exists in the reference (DataDog/ddsketch-ruby is a sketch library)
nor in Ray Data's Dataset API; both are staples of a training-data /
telemetry pipeline ("most recent config/order/model-version at event time",
"events within the preceding window").  Per the engine's custom-operator
policy they are expressed as a composition of map_batches + one keyed
shuffle, with the partitioning assumption documented:

  1. both sides are normalized to a shared schema (side tag, int64 key,
     int64 microsecond timestamp, int64 tie-break, payload columns padded
     with nulls crosswise) inside ``map_batches``;
  2. rows co-locate by ``hash(key) % P`` - ONE
     :func:`~.fold.keyed_exchange` of only the carried columns;
  3. inside each partition a single lexsort + merge-rank computation
     resolves every left row's match(es) - no per-key Python, no per-row
     Python; work is O((n+m) log(n+m)) vectorized numpy per partition.

Partitioning assumption: a partition must hold ALL rows of the keys hashed
to it (guaranteed by the hash co-partition); partition count bounds peak
memory (one partition holds ~ total_rows / ``fold._PARTITIONS`` rows).
Skewed keys cost only sort time, never quadratic blowup (as-of emits one
row per left row; range join emits only true interval matches).

Determinism: as-of ties on (key, ts) resolve to the MAX tie-break column
(sorted last, accumulated last), mirroring the SQL oracle's
``row_number() OVER (... ORDER BY ts DESC, tiebreak DESC) = 1``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .fold import keyed_exchange

__all__ = [
    "asof_join_pipeline",
    "broadcast_asof_join_pipeline",
    "range_join_pipeline",
    "interval_overlap_join_pipeline",
    "hash_join_pipeline",
    "broadcast_hash_join_pipeline",
    "bloom_prefilter_join_pipeline",
]

_SIDE_RIGHT = 0
_SIDE_LEFT = 1


def _merge_rank(rk, rt, qk, qt, *, inclusive: bool) -> np.ndarray:
    """For each query (qk[i], qt[i]): the number of build rows (rk, rt) that
    are lexicographically < (qk[i], qt[i]) (or <= when ``inclusive``).

    ``(rk, rt)`` must be lexsorted.  One concatenated lexsort - the classic
    merge-path trick - instead of a per-key searchsorted loop.
    """
    n, m = rk.size, qk.size
    k = np.concatenate([rk, qk])
    t = np.concatenate([rt, qt])
    # ties on (key, ts): build rows sort before queries when inclusive
    # (counted), after when exclusive (not counted)
    side = np.empty(n + m, dtype=np.int8)
    side[:n] = 0 if inclusive else 1
    side[n:] = 1 if inclusive else 0
    order = np.lexsort((side, t, k))
    inv = np.empty(n + m, dtype=np.int64)
    inv[order] = np.arange(n + m)
    prefix = np.cumsum((order < n).astype(np.int64))
    qpos = inv[n:]
    # queries occupy their own sorted slots, so prefix[qpos] counts exactly
    # the build rows at earlier slots
    return prefix[qpos]


def _normalize_side(
    ds,
    *,
    side: int,
    key_col: str,
    ts_col: str,
    tb_col: str | None,
    own_cols: Sequence[str],
    other_schema: pa.Schema,
    other_cols: Sequence[str],
    negate_ts: bool = False,
):
    """-> Dataset with schema [_side,_key,_ts,_tb, own..., other(null)...].

    ``negate_ts`` flips the sign of ``_ts``/``_tb``: a FORWARD as-of join is
    exactly a backward one on negated time (greatest ``-rts <= -lts`` ==
    smallest ``rts >= lts``; greatest ``-tb`` == smallest ``tb``).
    """
    other_types = {f.name: f.type for f in other_schema}

    def norm(t: pa.Table) -> pa.Table:
        n = t.num_rows
        keys = t.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        cols = {
            "_side": pa.array(np.full(n, side, dtype=np.int8)),
            "_key": pa.array(keys),
            "_ts": (
                pc.negate_checked(t.column(ts_col).cast(pa.int64()))
                if negate_ts
                else t.column(ts_col).cast(pa.int64())
            ),
            "_tb": (
                pa.array(np.zeros(n, dtype=np.int64))
                if tb_col is None
                else pc.negate_checked(t.column(tb_col).cast(pa.int64()))
                if negate_ts
                else t.column(tb_col).cast(pa.int64())
            ),
        }
        for c in own_cols:
            cols[c] = t.column(c)
        for c in other_cols:
            cols[c] = pa.nulls(n, type=other_types[c])
        return pa.table(cols)

    return ds.map_batches(norm, batch_format="pyarrow", zero_copy_batch=True)


def asof_join_pipeline(
    left,
    right,
    *,
    left_key: str,
    left_ts: str,
    right_key: str,
    right_ts: str,
    left_cols: Sequence[str],
    right_payload: Sequence[str],
    tiebreak: str,
    direction: str = "backward",
):
    """LEFT as-of join -> Dataset[left_cols..., right_payload...(nullable)].

    ``direction="backward"`` (default): for each left row, the right row with
    the same key and the greatest ``right_ts <= left_ts``; ties on the
    timestamp resolve to the greatest ``tiebreak``.  ``direction="forward"``:
    the smallest ``right_ts >= left_ts``, ties to the smallest ``tiebreak`` —
    implemented as the backward join on negated time (same partition +
    merge-rank machinery, zero extra passes).  Unmatched left rows keep null
    payload (LEFT semantics).
    """
    if direction not in ("backward", "forward"):
        raise ValueError(f"direction must be 'backward' or 'forward': {direction!r}")
    negate_ts = direction == "forward"
    left_cols = list(left_cols)
    right_payload = list(right_payload)
    lschema = left.schema().base_schema
    rschema = right.schema().base_schema

    ln = _normalize_side(
        left, side=_SIDE_LEFT, key_col=left_key, ts_col=left_ts, tb_col=None,
        own_cols=left_cols, other_schema=rschema, other_cols=right_payload,
        negate_ts=negate_ts,
    )
    rn = _normalize_side(
        right, side=_SIDE_RIGHT, key_col=right_key, ts_col=right_ts,
        tb_col=tiebreak, own_cols=right_payload, other_schema=lschema,
        other_cols=left_cols, negate_ts=negate_ts,
    )

    def per_partition(pt: pa.Table) -> pa.Table:
        side = pt.column("_side").to_numpy(zero_copy_only=False)
        key = pt.column("_key").to_numpy(zero_copy_only=False)
        ts = pt.column("_ts").to_numpy(zero_copy_only=False)
        tb = pt.column("_tb").to_numpy(zero_copy_only=False)
        l_idx = np.flatnonzero(side == _SIDE_LEFT)
        r_idx = np.flatnonzero(side == _SIDE_RIGHT)
        out_cols = {}
        if l_idx.size == 0:
            return pa.table(
                {c: pa.array([], type=lschema.field(c).type) for c in left_cols}
                | {c: pa.array([], type=rschema.field(c).type) for c in right_payload}
            )
        if r_idx.size == 0:
            for c in left_cols:
                out_cols[c] = pc.take(pt.column(c), pa.array(l_idx))
            for c in right_payload:
                out_cols[c] = pa.nulls(l_idx.size, type=rschema.field(c).type)
            return pa.table(out_cols)
        r_order = r_idx[np.lexsort((tb[r_idx], ts[r_idx], key[r_idx]))]
        pos = _merge_rank(
            key[r_order], ts[r_order], key[l_idx], ts[l_idx], inclusive=True
        )
        cand = pos - 1  # last right row with (key, ts) <= (lk, lt)
        matched = (cand >= 0) & (key[r_order[np.maximum(cand, 0)]] == key[l_idx])
        take_r = r_order[np.maximum(cand, 0)]
        r_indices = pa.array(take_r, mask=~matched)  # null index -> null value
        for c in left_cols:
            out_cols[c] = pc.take(pt.column(c), pa.array(l_idx))
        for c in right_payload:
            out_cols[c] = pc.take(pt.column(c), r_indices)
        return pa.table(out_cols)

    return keyed_exchange([ln, rn], per_partition, keys="_key")


def _match_expand(rk: np.ndarray, lk: np.ndarray, kvalid: np.ndarray, how: str):
    """Probe the sorted build keys ``rk`` with the left keys ``lk`` (a row
    whose ``kvalid`` is False matches nothing).  semi/anti -> mask of the left
    rows kept; else ``(li, ri, matched)`` per output row: left row, build
    position (clipped; meaningless unless matched), and whether it matched."""
    lo = np.searchsorted(rk, lk, "left")
    hi = np.searchsorted(rk, lk, "right")
    counts = np.where(kvalid, hi - lo, 0)
    if how in ("semi", "anti"):
        return counts > 0 if how == "semi" else counts == 0
    out_counts = np.maximum(counts, 1) if how in ("left", "full") else counts
    li = np.repeat(np.arange(lk.size), out_counts)
    starts = np.cumsum(out_counts) - out_counts
    offset = np.arange(li.size) - np.repeat(starts, out_counts)
    ri = np.minimum(np.repeat(lo, out_counts) + offset, max(rk.size - 1, 0))
    return li, ri, np.repeat(counts > 0, out_counts)


def hash_join_pipeline(
    left,
    right,
    *,
    left_key: str,
    right_key: str,
    left_cols: Sequence[str],
    right_payload: Sequence[str],
    how: str = "inner",
):
    """Large-large equi-join (``how`` = ``"inner"`` | ``"left"`` | ``"right"``
    | ``"full"`` | ``"semi"`` | ``"anti"``) on int64 keys.

    The relational staple neither the reference nor Ray Data 2.49's Dataset
    API provides.  Same physical plan as the temporal joins: both sides
    normalize to a shared schema, co-locate with ONE hash shuffle of only the
    carried columns, and each partition resolves all its matches with a
    single argsort + two searchsorted calls + a vectorized repeat/arange
    pair expansion — no per-key or per-row Python anywhere.

    Semantics match SQL exactly: one output row per matching (left, right)
    pair (duplicate keys multiply); ``how="left"`` keeps unmatched left rows
    with null payload, ``"right"`` keeps unmatched RIGHT rows with null left
    columns (and drops unmatched left rows), ``"full"`` keeps both.
    ``"semi"`` / ``"anti"`` emit each left row AT MOST ONCE — with EXISTS /
    NOT EXISTS semantics respectively — and require an empty
    ``right_payload`` (the curation filter shapes: keep rows whose key is /
    is not in a blocklist too large to broadcast).  NULL keys never match:
    null-key left rows are dropped for inner/right/semi and kept unmatched
    for left/anti/full; null-key right rows are dropped for
    inner/left/semi/anti and kept unmatched for right/full.

    Scale: the shuffle carries only the projected columns; skewed keys cost
    sort time within one partition, and output size is the true join
    cardinality (a caller joining two heavy duplicate-key sides gets the
    quadratic output it asked for — pre-aggregate first if that is not the
    intent).  For a small build side prefer ``pipelines/probe.py``'s
    broadcast build-then-probe instead of this shuffle.
    """
    if how not in ("inner", "left", "right", "full", "semi", "anti"):
        raise ValueError(
            f"how must be 'inner', 'left', 'right', 'full', 'semi' or 'anti', got {how!r}"
        )
    if how in ("semi", "anti") and right_payload:
        raise ValueError(f"how={how!r} joins emit no right columns; pass right_payload=()")
    left_cols = list(left_cols)
    right_payload = list(right_payload)
    lschema = left.schema().base_schema
    rschema = right.schema().base_schema
    ltypes = {f.name: f.type for f in lschema}
    rtypes = {f.name: f.type for f in rschema}

    # both sides emit the SAME column order (union requires schema agreement)
    out_order = left_cols + right_payload

    def _norm(side: int, key_col: str, own_cols, other_cols, other_types):
        keep_null_keys = (
            side == _SIDE_LEFT and how in ("left", "anti", "full")
        ) or (side == _SIDE_RIGHT and how in ("right", "full"))

        def norm(t: pa.Table) -> pa.Table:
            kcol = t.column(key_col)
            if kcol.null_count:
                if keep_null_keys:
                    # fill ONLY the shuffle-key copy: a carried key COLUMN
                    # must stay null in the output (SQL projects NULL, not 0)
                    kcol = pc.fill_null(kcol, 0)
                    valid = pc.is_valid(t.column(key_col)).combine_chunks().to_numpy(
                        zero_copy_only=False
                    )
                else:
                    t = t.filter(pc.is_valid(kcol))
                    kcol = t.column(key_col)
                    valid = np.ones(t.num_rows, dtype=bool)
            else:
                valid = np.ones(t.num_rows, dtype=bool)
            n = t.num_rows
            keys = kcol.to_numpy(zero_copy_only=False).astype(np.int64)
            cols = {
                "_side": pa.array(np.full(n, side, dtype=np.int8)),
                "_key": pa.array(keys),
                "_kvalid": pa.array(valid),
            }
            own = set(own_cols)
            for c in out_order:
                cols[c] = (
                    t.column(c) if c in own else pa.nulls(n, type=other_types[c])
                )
            return pa.table(cols)

        return norm

    ln = left.map_batches(
        _norm(_SIDE_LEFT, left_key, left_cols, right_payload, rtypes),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    rn = right.map_batches(
        _norm(_SIDE_RIGHT, right_key, right_payload, left_cols, ltypes),
        batch_format="pyarrow", zero_copy_batch=True,
    )

    def per_partition(pt: pa.Table) -> pa.Table:
        side = pt.column("_side").to_numpy(zero_copy_only=False)
        key = pt.column("_key").to_numpy(zero_copy_only=False)
        kvalid = pt.column("_kvalid").to_numpy(zero_copy_only=False)
        l_idx = np.flatnonzero(side == _SIDE_LEFT)
        r_idx = np.flatnonzero(side == _SIDE_RIGHT)
        empty = pa.table(
            {c: pa.array([], type=ltypes[c]) for c in left_cols}
            | {c: pa.array([], type=rtypes[c]) for c in right_payload}
        )
        # build side: only VALID-key right rows participate in matching
        # (null-key right rows exist only for right/full and are emitted
        # unmatched below — a filled 0 key must never match a real left 0)
        r_build = r_idx[kvalid[r_idx]] if r_idx.size else r_idx
        r_order = r_build[np.argsort(key[r_build], kind="stable")]
        rk = key[r_order]

        def _unmatched_right():
            """right/full: rows no valid left key matches + null-key rows."""
            lkv = (
                np.sort(key[l_idx][kvalid[l_idx]])
                if l_idx.size
                else np.empty(0, dtype=np.int64)
            )
            if lkv.size:
                has = np.searchsorted(lkv, rk, "right") > np.searchsorted(lkv, rk, "left")
            else:
                has = np.zeros(rk.size, dtype=bool)
            un = np.concatenate([r_order[~has], r_idx[~kvalid[r_idx]]])
            if un.size == 0:
                return None
            r_take = pa.array(un)
            out = {c: pa.nulls(un.size, type=ltypes[c]) for c in left_cols}
            out |= {c: pc.take(pt.column(c), r_take) for c in right_payload}
            return pa.table(out)

        if l_idx.size == 0:
            if how in ("right", "full") and r_idx.size:
                extra = _unmatched_right()
                return extra if extra is not None else empty
            return empty
        m = _match_expand(rk, key[l_idx], kvalid[l_idx], how)
        if how in ("semi", "anti"):
            l_take = pa.array(l_idx[m])
            return pa.table({c: pc.take(pt.column(c), l_take) for c in left_cols})
        li, ri, matched = m
        extra = _unmatched_right() if how in ("right", "full") else None
        if li.size == 0:
            return extra if extra is not None else empty
        l_take = pa.array(l_idx[li])
        out = {c: pc.take(pt.column(c), l_take) for c in left_cols}
        if rk.size:
            r_take = pa.array(r_order[ri], mask=~matched)
            out |= {c: pc.take(pt.column(c), r_take) for c in right_payload}
        else:
            out |= {c: pa.nulls(li.size, type=rtypes[c]) for c in right_payload}
        out_t = pa.table(out)
        if extra is not None:
            out_t = pa.concat_tables([out_t, extra])
        return out_t

    return keyed_exchange([ln, rn], per_partition, keys="_key")


def broadcast_hash_join_pipeline(
    left,
    right,
    *,
    left_key: str,
    right_key: str,
    left_cols: Sequence[str],
    right_payload: Sequence[str],
    how: str = "inner",
):
    """Small-side BROADCAST equi-join: the classic planner win over
    :func:`hash_join_pipeline` when one side is a dimension table.

    Physical plan: materialize the RIGHT side once (it must fit in one
    worker's memory — the caller's contract; use the AMS join-size /
    KMV distinct estimates to decide), sort it by key, ``ray.put`` the
    (sorted-keys, payload) build ONCE, and stream the left side through
    ``map_batches`` probes that ``ray.get`` the build from the LOCAL object
    store (zero-copy; the object ships to each node once, never per batch).
    The big side's payload is never shuffled — no all-to-all at all.

    Semantics are identical to ``hash_join_pipeline`` (same duplicate-key
    multiplication, null-keys-never-match, left/semi/anti row policies), so
    the two share one SQL oracle; both probe with :func:`_match_expand`,
    here against the broadcast build instead of a co-partitioned slice.
    """
    import ray

    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"how must be 'inner', 'left', 'semi' or 'anti', got {how!r}")
    if how in ("semi", "anti") and right_payload:
        raise ValueError(f"how={how!r} joins emit no right columns; pass right_payload=()")
    left_cols = list(left_cols)
    right_payload = list(right_payload)
    rtypes = {f.name: f.type for f in right.schema().base_schema}

    parts = [
        t for t in ray.get(
            right.select_columns([right_key] + right_payload).to_arrow_refs()
        )
        if t.num_rows
    ]
    if parts:
        rt = pa.concat_tables(parts).combine_chunks()
    else:
        rt = pa.table({c: pa.array([], type=rtypes[c]) for c in [right_key] + right_payload})
    kcol = rt.column(right_key)
    if kcol.null_count:  # null keys never match
        rt = rt.filter(pc.is_valid(kcol))
    rkeys = rt.column(right_key).to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(rkeys, kind="stable")
    rk = rkeys[order]
    payload = rt.select(right_payload).take(pa.array(order)) if right_payload else None
    build_ref = ray.put((rk, payload))  # ONCE; local-store zero-copy reads below

    def probe(t: pa.Table) -> pa.Table:
        rk, payload = ray.get(build_ref)
        n = t.num_rows
        kcol = t.column(left_key)
        if kcol.null_count:
            kvalid = pc.is_valid(kcol).combine_chunks().to_numpy(zero_copy_only=False)
            lk = pc.fill_null(kcol, 0).to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            kvalid = np.ones(n, dtype=bool)
            lk = kcol.to_numpy(zero_copy_only=False).astype(np.int64)
        m = _match_expand(rk, lk, kvalid, how)
        if how in ("semi", "anti"):
            take = pa.array(np.flatnonzero(m))
            return pa.table({c: pc.take(t.column(c), take) for c in left_cols})
        li, ri, matched = m
        if li.size == 0:
            return pa.table(
                {c: pa.array([], type=t.schema.field(c).type) for c in left_cols}
                | {c: pa.array([], type=rtypes[c]) for c in right_payload}
            )
        out = {c: pc.take(t.column(c), pa.array(li)) for c in left_cols}
        if rk.size:
            r_take = pa.array(ri, mask=~matched)
            out |= {c: pc.take(payload.column(c), r_take) for c in right_payload}
        else:
            out |= {c: pa.nulls(li.size, type=rtypes[c]) for c in right_payload}
        return pa.table(out)

    return left.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


def broadcast_asof_join_pipeline(
    left,
    right,
    *,
    left_key: str,
    left_ts: str,
    right_key: str,
    right_ts: str,
    left_cols: Sequence[str],
    right_payload: Sequence[str],
    tiebreak: str,
):
    """Small-side BROADCAST as-of join: semantics identical to
    :func:`asof_join_pipeline` (LEFT; greatest ``right_ts <= left_ts`` per
    key; timestamp ties -> greatest ``tiebreak``), shares its SQL oracle.

    Physical plan: the right side (a dimension-sized table by the caller's
    contract — use the AMS/KMV estimates to decide) is materialized ONCE,
    lexsorted by (key, ts, tiebreak) and ``ray.put``; the big left side
    streams through ``map_batches`` probes reading the build zero-copy from
    each node's local object store.  No all-to-all at all — the classic
    planner alternative when the shuffle plan's exchange would dominate.

    The probe math is the SAME ``_merge_rank`` the shuffle plan runs per
    partition, here per batch against the full build.
    """
    import ray

    left_cols = list(left_cols)
    right_payload = list(right_payload)
    rtypes = {f.name: f.type for f in right.schema().base_schema}
    rcols = [right_key, right_ts, tiebreak] + [
        c for c in right_payload if c not in (right_key, right_ts, tiebreak)
    ]

    parts = [
        t
        for t in ray.get(right.select_columns(rcols).to_arrow_refs())
        if t.num_rows
    ]
    if parts:
        rt_tbl = pa.concat_tables(parts).combine_chunks()
    else:
        rt_tbl = pa.table({c: pa.array([], type=rtypes[c]) for c in rcols})
    rk = rt_tbl.column(right_key).to_numpy(zero_copy_only=False).astype(np.int64)
    rts = rt_tbl.column(right_ts).cast(pa.int64()).to_numpy(zero_copy_only=False)
    rtb = rt_tbl.column(tiebreak).cast(pa.int64()).to_numpy(zero_copy_only=False)
    order = np.lexsort((rtb, rts, rk))
    rk, rts = rk[order], rts[order]
    payload = (
        rt_tbl.select(right_payload).take(pa.array(order)) if right_payload else None
    )
    build_ref = ray.put((rk, rts, payload))

    def probe(t: pa.Table) -> pa.Table:
        rk, rts, payload = ray.get(build_ref)
        lk = t.column(left_key).to_numpy(zero_copy_only=False).astype(np.int64)
        lt = t.column(left_ts).cast(pa.int64()).to_numpy(zero_copy_only=False)
        out = {c: t.column(c) for c in left_cols}
        if rk.size == 0:
            for c in right_payload:
                out[c] = pa.nulls(t.num_rows, type=rtypes[c])
            return pa.table(out)
        pos = _merge_rank(rk, rts, lk, lt, inclusive=True)
        cand = pos - 1
        matched = (cand >= 0) & (rk[np.maximum(cand, 0)] == lk)
        r_take = pa.array(np.maximum(cand, 0), mask=~matched)
        for c in right_payload:
            out[c] = pc.take(payload.column(c), r_take)
        return pa.table(out)

    return left.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


def range_join_pipeline(
    left,
    right,
    *,
    left_key: str,
    left_ts: str,
    right_key: str,
    right_ts: str,
    left_cols: Sequence[str],
    right_payload: Sequence[str],
    window_s: float,
):
    """INNER range join -> one row per (left, right) pair with the same key
    and ``left_ts - window_s <= right_ts <= left_ts`` (both ends inclusive).

    Matches per left row are a contiguous rank interval of the
    (key, ts)-sorted right side: two merge-rank passes (inclusive upper,
    exclusive lower) and a vectorized repeat/arange pair expansion.
    """
    left_cols = list(left_cols)
    right_payload = list(right_payload)
    lschema = left.schema().base_schema
    rschema = right.schema().base_schema
    window_us = int(round(window_s * 1_000_000))

    ln = _normalize_side(
        left, side=_SIDE_LEFT, key_col=left_key, ts_col=left_ts, tb_col=None,
        own_cols=left_cols, other_schema=rschema, other_cols=right_payload,
    )
    rn = _normalize_side(
        right, side=_SIDE_RIGHT, key_col=right_key, ts_col=right_ts, tb_col=None,
        own_cols=right_payload, other_schema=lschema, other_cols=left_cols,
    )

    def per_partition(pt: pa.Table) -> pa.Table:
        side = pt.column("_side").to_numpy(zero_copy_only=False)
        key = pt.column("_key").to_numpy(zero_copy_only=False)
        ts = pt.column("_ts").to_numpy(zero_copy_only=False)
        l_idx = np.flatnonzero(side == _SIDE_LEFT)
        r_idx = np.flatnonzero(side == _SIDE_RIGHT)
        empty = pa.table(
            {c: pa.array([], type=lschema.field(c).type) for c in left_cols}
            | {c: pa.array([], type=rschema.field(c).type) for c in right_payload}
        )
        if l_idx.size == 0 or r_idx.size == 0:
            return empty
        r_order = r_idx[np.lexsort((ts[r_idx], key[r_idx]))]
        rk, rt = key[r_order], ts[r_order]
        lk, lt = key[l_idx], ts[l_idx]
        hi = _merge_rank(rk, rt, lk, lt, inclusive=True)
        lo = _merge_rank(rk, rt, lk, lt - window_us, inclusive=False)
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return empty
        li = np.repeat(np.arange(l_idx.size), counts)
        starts = np.cumsum(counts) - counts
        ri = np.arange(total) - np.repeat(starts, counts) + np.repeat(lo, counts)
        l_take = pa.array(l_idx[li])
        r_take = pa.array(r_order[ri])
        out = {c: pc.take(pt.column(c), l_take) for c in left_cols}
        out |= {c: pc.take(pt.column(c), r_take) for c in right_payload}
        return pa.table(out)

    return keyed_exchange([ln, rn], per_partition, keys="_key")


def interval_overlap_join_pipeline(
    left,
    right,
    *,
    key_cols: tuple[str, str],
    left_start: str,
    left_end: str,
    right_start: str,
    right_end: str,
    left_cols: Sequence[str],
    right_payload: Sequence[str],
    max_right_duration_s: float,
):
    """INNER interval-OVERLAP join -> one row per (left, right) pair with
    the same key whose intervals intersect:
    ``l.start <= r.end AND r.start <= l.end`` (closed intervals).

    The bounded-duration plan (the classic distributed interval join):
    with every right interval no longer than ``max_right_duration_s``,
    ``r.end >= l.start`` implies ``r.start >= l.start - D``, so the
    candidates per left row are a CONTIGUOUS rank window of the
    (key, r.start)-sorted right side — two merge-rank passes + vectorized
    pair expansion, then ONE exact post-filter on ``r.end >= l.start``
    removes short intervals the bound admitted.  The result is exactly
    the unrestricted overlap join whenever the duration bound holds; a
    right interval EXCEEDING the bound raises (never a silent miss).
    Partitioning assumption: co-location by key hash, like every join
    here; skewed keys cost sort time in their partition only.
    """
    left_key, right_key = key_cols
    left_cols = list(left_cols)
    right_payload = list(right_payload)
    lschema = left.schema().base_schema
    rschema = right.schema().base_schema
    dur_us = int(round(max_right_duration_s * 1_000_000))

    ln = _normalize_side(
        left, side=_SIDE_LEFT, key_col=left_key, ts_col=left_start,
        tb_col=left_end, own_cols=left_cols, other_schema=rschema,
        other_cols=right_payload,
    )
    rn = _normalize_side(
        right, side=_SIDE_RIGHT, key_col=right_key, ts_col=right_start,
        tb_col=right_end, own_cols=right_payload, other_schema=lschema,
        other_cols=left_cols,
    )

    def per_partition(pt: pa.Table) -> pa.Table:
        side = pt.column("_side").to_numpy(zero_copy_only=False)
        key = pt.column("_key").to_numpy(zero_copy_only=False)
        ts = pt.column("_ts").to_numpy(zero_copy_only=False)   # start
        te = pt.column("_tb").to_numpy(zero_copy_only=False)   # end
        l_idx = np.flatnonzero(side == _SIDE_LEFT)
        r_idx = np.flatnonzero(side == _SIDE_RIGHT)
        empty = pa.table(
            {c: pa.array([], type=lschema.field(c).type) for c in left_cols}
            | {c: pa.array([], type=rschema.field(c).type) for c in right_payload}
        )
        if l_idx.size == 0 or r_idx.size == 0:
            return empty
        if r_idx.size and int((te[r_idx] - ts[r_idx]).max()) > dur_us:
            raise ValueError(
                "interval_overlap_join: right interval exceeds "
                f"max_right_duration_s ({max_right_duration_s})"
            )
        r_order = r_idx[np.lexsort((ts[r_idx], key[r_idx]))]
        rk, rt = key[r_order], ts[r_order]
        lk = key[l_idx]
        # candidates: r.start in [l.start - D, l.end]
        hi = _merge_rank(rk, rt, lk, te[l_idx], inclusive=True)
        lo = _merge_rank(rk, rt, lk, ts[l_idx] - dur_us, inclusive=False)
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return empty
        li = np.repeat(np.arange(l_idx.size), counts)
        starts = np.cumsum(counts) - counts
        ri = np.arange(total) - np.repeat(starts, counts) + np.repeat(lo, counts)
        # exact overlap check the duration bound over-admits: r.end >= l.start
        keep = te[r_order[ri]] >= ts[l_idx[li]]
        li, ri = li[keep], ri[keep]
        l_take = pa.array(l_idx[li])
        r_take = pa.array(r_order[ri])
        out = {c: pc.take(pt.column(c), l_take) for c in left_cols}
        out |= {c: pc.take(pt.column(c), r_take) for c in right_payload}
        return pa.table(out)

    return keyed_exchange([ln, rn], per_partition, keys="_key")


def bloom_prefilter_join_pipeline(
    left,
    right,
    *,
    left_key: str,
    right_key: str,
    left_cols: Sequence[str],
    right_payload: Sequence[str],
    how: str = "inner",
    m_bits: int = 1 << 23,
    k: int = 7,
):
    """Bloom-semi-join pushdown: a sketch as a PLANNER optimization.

    When the right side is selective but too large (or too hot) to broadcast
    whole, the classic 100-TB plan is: build a Bloom filter over the right
    side's join keys (KB-MB state, distributed OR-merge), broadcast the
    FILTER, and drop every left row whose key cannot match BEFORE the join's
    all-to-all — the big side's shuffle volume shrinks by the join
    selectivity while the result is bit-identical to the plain join (Bloom
    filters have no false negatives, and the exact join removes the false
    positives the filter lets through).  Oracle = the plain SQL JOIN.

    Restricted to ``how in ("inner", "semi")``: those are the modes where a
    non-matching left row produces no output, so dropping it early is
    semantics-preserving (a left/full/anti join must KEEP unmatched rows).

    Sizing: ``m_bits`` defaults to 8 Mbit (1 MiB) ≈ 1% false positives at
    ~800k distinct build keys; at 100 TB size it from the KMV distinct
    estimate of the build side and keep the broadcast ≤ a few hundred MB.
    """
    import ray

    from ..functions.family_specs import BloomSpec
    from .probe import _broadcast, build_sketch

    if how not in ("inner", "semi"):
        raise ValueError(
            f"bloom prefilter preserves semantics only for 'inner'/'semi', got {how!r}"
        )

    filt = build_sketch(right, BloomSpec(right_key, m_bits=m_bits, k=k, kind="int"))
    ref = _broadcast(filt)

    def prefilter(t: pa.Table) -> pa.Table:
        f = ray.get(ref)  # local object store, zero-copy after first fetch
        kcol = t.column(left_key)
        if kcol.null_count:  # null keys never match inner/semi
            valid = pc.is_valid(kcol).combine_chunks().to_numpy(zero_copy_only=False)
            v = pc.fill_null(kcol, 0).to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            valid = None
            v = kcol.to_numpy(zero_copy_only=False).astype(np.int64)
        h1, h2 = f.hash_pair_ints(v)
        keep = f.contains_hash_pairs(h1, h2)
        if valid is not None:
            keep &= valid
        return t if keep.all() else t.filter(pa.array(keep))

    pre = left.map_batches(prefilter, batch_format="pyarrow", zero_copy_batch=True)
    return hash_join_pipeline(
        pre,
        right,
        left_key=left_key,
        right_key=right_key,
        left_cols=left_cols,
        right_payload=right_payload,
        how=how,
    )
