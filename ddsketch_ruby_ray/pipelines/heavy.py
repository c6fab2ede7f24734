"""Heavy hitters (frequent items) as a two-pass candidates-then-verify pipeline.

The reference has no frequency operator; north_rule's training-data tier needs
one ("which tokens / users / domains exceed phi of the stream").  The naive
answer — ``groupby(key).count()`` then filter — shuffles EVERY distinct key
(10^12-key cardinality at 100 TB).  This pipeline never does:

  pass 1 (candidates): each block folds to a Misra-Gries-style summary of at
      most ``counters`` (key, count) rows — exact in-block counts via
      ``pyarrow.compute.value_counts``, then the MG decrement applied in one
      shot: subtract the (counters+1)-th largest count and keep the positive
      remainder.  Guarantee (Misra-Gries 1982; mergeable-summaries form,
      Agarwal et al. PODS'12): the summed summary count of any key x is
      >= f(x) - total/(counters+1), so with counters >= 2/phi every true
      phi-heavy hitter survives with summed count >= phi*total/2 > 0.
      The summaries groupby-shuffle moves <= blocks x counters tiny rows.
  pass 2 (verify): the candidate key set (<= ~2/phi keys by a mass argument)
      is broadcast via ``ray.put``; one ``map_batches`` pass filters each
      block to candidate keys, one keyed count (``fold``) sums them, and an
      exact integer threshold ``ceil(phi * total)`` filters.

The OUTPUT is therefore exact and layout-independent — identical to SQL's
``GROUP BY key HAVING count(*) >= ceil(phi * total)`` — even though the
intermediate candidate set depends on block boundaries.  This is the same
candidates-generation + exact-verification shape as the LSH->Jaccard dedup
pipelines.

Scale: pass 1 state is O(counters) per block; pass 2 shuffles only candidate
keys (bounded by 2/phi, independent of data size).  Two full scans of the
key column are the price of exactness; callers that can tolerate
approximation can stop after pass 1.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["heavy_hitters_pipeline"]


def _block_summary(t: pa.Table, key_col: str, counters: int) -> pa.Table:
    """(key, c, n) rows: MG-decremented in-block counts + one total-carrier row."""
    n = t.num_rows
    kcol = t.column(key_col)
    key_type = kcol.type
    if n == 0:
        return pa.table(
            {
                key_col: pa.array([], type=key_type),
                "_c": pa.array([], type=pa.int64()),
                "_n": pa.array([], type=pa.int64()),
            }
        )
    vc = pc.value_counts(kcol.combine_chunks())
    values, counts = vc.field("values"), vc.field("counts").to_numpy(zero_copy_only=False)
    if counts.size > counters:
        # MG decrement: t = (counters+1)-th largest count; keep count - t > 0.
        # t <= n/(counters+1) because counters+1 keys have count >= t.
        thresh = np.partition(counts, counts.size - (counters + 1))[
            counts.size - (counters + 1)
        ]
        keep = counts - thresh > 0
        values = values.filter(pa.array(keep))
        counts = counts[keep] - thresh
    # one extra row (first key, c=0) carries the block's row count for the
    # global total; c=0 keeps it out of every candidate decision.
    out_keys = pa.concat_arrays([values, values.slice(0, 1)])
    out_c = np.concatenate([counts, [0]])
    out_n = np.zeros(out_c.size, dtype=np.int64)
    out_n[-1] = n
    return pa.table(
        {key_col: out_keys, "_c": pa.array(out_c, type=pa.int64()), "_n": pa.array(out_n)}
    )


def heavy_hitters_pipeline(ds, *, key_col: str, phi: float, counters: int | None = None):
    """-> Dataset[(key_col, count)] of keys with exact count >= ceil(phi * n).

    ``counters`` is clamped to >= ceil(2/phi) (the coverage guarantee);
    ``phi`` must be in (0, 1).
    """
    import ray
    import ray.data as rd

    if not 0.0 < phi < 1.0:
        raise ValueError(f"phi must be in (0, 1), got {phi}")
    need = math.ceil(2.0 / phi)
    counters = max(int(counters or 0), need)

    summaries = ds.map_batches(
        lambda t: _block_summary(t, key_col, counters),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    # distinct keys across block summaries grow with block count at scale
    # -> bounded-partition fold
    from ddsketch_ruby_ray.pipelines.fold import partitioned_group_agg, partitioned_group_sum

    agg = partitioned_group_sum(summaries, key_col, ["_c", "_n"])
    # small by construction: <= blocks x counters rows pre-groupby, and the
    # candidate filter below keeps <= ~2/phi keys — a legitimate driver-side
    # take (same broadcast-small-side pattern as pipelines/probe.py).
    tables = [ray.get(r) for r in agg.to_arrow_refs()]
    tables = [t for t in tables if t.num_rows]
    total = (
        int(pc.sum(pa.concat_tables(tables).column("sum(_n)")).as_py() or 0)
        if tables
        else 0
    )
    if total == 0:
        return rd.from_arrow(
            pa.table(
                {
                    key_col: pa.array([], type=ds.schema().base_schema.field(key_col).type),
                    "count": pa.array([], type=pa.int64()),
                }
            )
        )
    summary_tbl = pa.concat_tables(tables)
    threshold = math.ceil(phi * total)
    undercount = total // (counters + 1)
    cand_mask = pc.greater_equal(summary_tbl.column("sum(_c)"), threshold - undercount)
    candidates = summary_tbl.column(key_col).filter(cand_mask).combine_chunks()
    cand_ref = ray.put(candidates)

    def candidate_rows(t: pa.Table) -> pa.Table:
        kcol = t.column(key_col)
        return t.select([key_col]).filter(pc.is_in(kcol, value_set=ray.get(cand_ref)))

    hits = ds.map_batches(candidate_rows, batch_format="pyarrow", zero_copy_batch=True)
    exact = partitioned_group_agg(hits, key_col, [(None, "count")])

    def finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t.column("count()"), threshold))
        return pa.table(
            {key_col: t.column(key_col), "count": t.column("count()").cast(pa.int64())}
        )

    return exact.map_batches(finish, batch_format="pyarrow")
