"""Driver-facing query registry: Ray pipelines + matching DuckDB oracle SQL.

Each entry in :func:`QUERIES` is a callable ``(sf_dir) -> Dataset``; the
matching key in :func:`ORACLE_SQL` is ANSI SQL DuckDB runs over the same
parquet tables (pre-registered views).  Column names are kept identical on
both sides; sketch quantile estimates are mirrored in SQL via
``functions.oracle`` (deterministic, bit-exact), so even the approximate
operators get full value-hash verification.

None of these functions calls ray.init(); the driver owns the session.
"""

from __future__ import annotations

from .core.numeric import round_half_away, run_starts
from .functions import ddsketch_group_sql, ddsketch_quantile_sql
from .functions.specs import DDSketchSpec
from .pipelines import documents_sketch_pipeline, grouped_sketch_pipeline
from .pipelines.fold import partitioned_group_agg, partitioned_group_sum
from .stages import unnest

ALPHA = 0.01
QUANTILES = (0.5, 0.9, 0.99)


def _read(sf_dir: str, table: str, columns):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=list(columns))


def _dd_by(ds, group_col: str, on: str, *, quantiles=QUANTILES, include_sum_avg=True, derive=None):
    """One DDSketch of ``on`` per ``group_col`` value, flat result columns
    (count/sum/avg/min/max + quantiles), through the two-level state merge."""
    spec = DDSketchSpec(
        on=on, name="s", relative_accuracy=ALPHA, quantiles=quantiles,
        include_sum_avg=include_sum_avg,
    )
    return grouped_sketch_pipeline(ds, [spec], (group_col,), derive=derive)


# -- sketch queries ----------------------------------------------------------

def dd_stats_by_lang(sf_dir: str):
    """Exact side stats carried by the sketch (count/sum/min/max/avg)."""
    return _dd_by(_read(sf_dir, "documents", ["lang", "n_chars"]), "lang", "n_chars", quantiles=())


def dd_quantiles_by_lang(sf_dir: str):
    """DDSketch quantiles of document length by language."""
    return _dd_by(_read(sf_dir, "documents", ["lang", "n_chars"]), "lang", "n_chars")


def dd_quantiles_by_event_type(sf_dir: str):
    """DDSketch quantiles of event value by type (fractional values ->
    sum/avg omitted: their fp accumulation order is not SQL-reproducible)."""
    ds = _read(sf_dir, "events", ["event_type", "value"])
    return _dd_by(ds, "event_type", "value", include_sum_avg=False)


def flagship_docs_metrics(sf_dir: str):
    """Flagship: text -> derived byte/line metrics -> per-lang twin sketches."""
    return documents_sketch_pipeline(sf_dir, alpha=ALPHA, quantiles=QUANTILES)


def flagship_by_lang_source(sf_dir: str):
    """Two-key grouping (north_star: 'grouped by lang and repo' - here the
    documents table's lang x source).  Emitted as a composite key so the
    single-group-column SQL oracle template applies."""
    import pyarrow.compute as pc

    from .functions.specs import DDSketchSpec
    from .pipelines import grouped_sketch_pipeline

    ds = _read(sf_dir, "documents", ["lang", "source", "n_chars"])

    def derive(t):
        key = pc.binary_join_element_wise(t.column("lang"), t.column("source"), "|")
        return t.append_column("group_key", key).drop_columns(["lang", "source"])

    spec = DDSketchSpec(on="n_chars", name="s", relative_accuracy=ALPHA, quantiles=QUANTILES)
    return grouped_sketch_pipeline(ds, [spec], ("group_key",), derive=derive)


def sha256_invariant_by_lang(sf_dir: str):
    """Per-row content invariant: order-independent XOR-fold of sha256(text)
    per lang. Any block split / merge order yields the same signature, so this
    proves per-row content equality vs a reference copy at any scale."""
    from .pipelines import grouped_sketch_pipeline
    from .functions.specs import XorSigSpec
    from .stages.derive import add_sha64

    ds = _read(sf_dir, "documents", ["lang", "text"])
    return grouped_sketch_pipeline(
        ds,
        [XorSigSpec(on="sha64", name="sig")],
        ("lang",),
        derive=lambda t: add_sha64(t, content_col="text").drop_columns(["text"]),
    )


# -- DDSketch edge cases (north_star: weighted, signed, collapsing) ----------

def dd_weighted_price_by_flag(sf_dir: str):
    """Add-with-weight: l_extendedprice weighted by l_quantity, per returnflag.
    (base_sketch.rb:96 weighted add; counts are weight sums, floats.)"""
    from .functions.specs import DDSketchSpec
    from .pipelines import grouped_sketch_pipeline

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice", "l_quantity"])
    spec = DDSketchSpec(
        on="l_extendedprice",
        weight="l_quantity",
        name="s",
        relative_accuracy=ALPHA,
        quantiles=QUANTILES,
        include_sum_avg=False,
    )
    return grouped_sketch_pipeline(ds, [spec], ("l_returnflag",))


def dd_signed_quantiles_by_event_type(sf_dir: str):
    """Signed two-store model: quantiles of (value - 50.0) per event type -
    negative store, zero band and positive store all exercised
    (base_sketch.rb:99-105, :121-138)."""
    import pyarrow.compute as pc

    from .functions.specs import DDSketchSpec
    from .pipelines import grouped_sketch_pipeline

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def derive(t):
        return t.append_column("signed", pc.subtract(t.column("value"), 50.0))

    spec = DDSketchSpec(
        on="signed", name="s", relative_accuracy=ALPHA, quantiles=QUANTILES,
        include_sum_avg=False,
    )
    return grouped_sketch_pipeline(ds, [spec], ("event_type",), derive=derive)


def dd_collapsed_quantiles_by_event_type(sf_dir: str):
    """Bounded-memory collapsing-lowest store (bin_limit=64 over a ~540-key
    range - collapse genuinely triggers; spec clamp model
    collapsing_lowest_dense_store_spec.rb:35-38)."""
    from .functions.specs import DDSketchSpec
    from .pipelines import grouped_sketch_pipeline

    ds = _read(sf_dir, "events", ["event_type", "value"])
    spec = DDSketchSpec(
        on="value", name="s", relative_accuracy=ALPHA, quantiles=QUANTILES,
        store="collapse_lowest", bin_limit=64, include_sum_avg=False,
    )
    return grouped_sketch_pipeline(ds, [spec], ("event_type",))


def dd_linear_mapping_by_lang(sf_dir: str):
    """LinearlyInterpolatedKeyMapping variant (frexp interpolation,
    linear_interpolated_key_mapping.rb:35-49) - faster keys, same guarantee."""
    from .functions.specs import DDSketchSpec
    from .pipelines import grouped_sketch_pipeline

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    spec = DDSketchSpec(
        on="n_chars", name="s", relative_accuracy=ALPHA, quantiles=QUANTILES,
        interpolation="linear",
    )
    return grouped_sketch_pipeline(ds, [spec], ("lang",))


def dd_cubic_mapping_by_lang(sf_dir: str):
    """CubicallyInterpolatedKeyMapping variant (cubic mantissa interpolation,
    cubically_interpolated_key_mapping.rb:10-67; Cardano inverse) - ~1% fewer
    buckets than linear, same guarantee.  SQL-mirrored end-to-end."""
    from .functions.specs import DDSketchSpec
    from .pipelines import grouped_sketch_pipeline

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    spec = DDSketchSpec(
        on="n_chars", name="s", relative_accuracy=ALPHA, quantiles=QUANTILES,
        interpolation="cubic",
    )
    return grouped_sketch_pipeline(ds, [spec], ("lang",))


def dd_nullkey_quantiles(sf_dir: str):
    """NULL group key through the grouped sketch plan: lang 'en' is mapped
    to null, which must survive the state exchange as its own group (SQL
    GROUP BY semantics: merge_sketch_states shuffles on a hash partition id,
    and its per-partition fold groups null apart from every value).  The
    null is labelled '(null)' only in the final projection so the oracle's
    hash compare stays null-free."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .functions.specs import DDSketchSpec
    from .pipelines import grouped_sketch_pipeline

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])

    def derive(t):
        key = pc.if_else(
            pc.equal(t.column("lang"), "en"),
            pa.scalar(None, type=pa.string()),
            t.column("lang"),
        )
        return t.append_column("lang_or_null", key).drop_columns(["lang"])

    spec = DDSketchSpec(on="n_chars", name="s", relative_accuracy=ALPHA, quantiles=QUANTILES)
    out = grouped_sketch_pipeline(ds, [spec], ("lang_or_null",), derive=derive)

    def label(t):
        idx = t.schema.get_field_index("lang_or_null")
        return t.set_column(
            idx, "lang_or_null", pc.fill_null(t.column("lang_or_null"), "(null)")
        )

    return out.map_batches(label, batch_format="pyarrow", zero_copy_batch=True)


def dd_collapsed_highest_by_event_type(sf_dir: str):
    """Collapsing-HIGHEST mirror case (bin_limit=64; folds the top bins)."""
    from .functions.specs import DDSketchSpec
    from .pipelines import grouped_sketch_pipeline

    ds = _read(sf_dir, "events", ["event_type", "value"])
    spec = DDSketchSpec(
        on="value", name="s", relative_accuracy=ALPHA, quantiles=QUANTILES,
        store="collapse_highest", bin_limit=64, include_sum_avg=False,
    )
    return grouped_sketch_pipeline(ds, [spec], ("event_type",))


def dd_windowed_quantiles(sf_dir: str):
    """Tumbling-window (1 h) DDSketch quantiles per (window, event_type) - the
    streaming-window pattern: the window id is just another derived group key,
    so the same two-level state merge handles it (sketches stay mergeable
    across late/out-of-order data)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .functions.specs import DDSketchSpec
    from .pipelines import grouped_sketch_pipeline

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def derive(t):
        us = pc.cast(t.column("ts"), pa.int64())
        hour = pc.multiply(pc.divide(pc.divide(us, 1_000_000), 3600), 3600)
        key = pc.binary_join_element_wise(
            pc.cast(hour, pa.string()), t.column("event_type"), "|"
        )
        return t.append_column("window_key", key).drop_columns(["ts", "event_type"])

    spec = DDSketchSpec(
        on="value", name="s", relative_accuracy=ALPHA, quantiles=QUANTILES,
        include_sum_avg=False,
    )
    return grouped_sketch_pipeline(ds, [spec], ("window_key",), derive=derive)


def dd_incremental_windowed(sf_dir: str):
    """Incremental maintenance end-to-end: the windowed result is kept up to
    date by MERGING a late-arriving delta's sketch states into the base
    run's states - no recompute of the base.  Base = events with
    hash64(event_id) % 3 != 0, delta = the rest; the merged result is
    bit-identical to a from-scratch build over all events (the oracle is
    the full-data mirror), proving the reference's central merge contract
    (base_sketch.rb:140-171) through two independent distributed builds."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from .core.hashing import hash64_int
    from .functions.specs import DDSketchSpec
    from .pipelines.corpus import merge_sketch_states, sketch_states
    from .stages import unnest

    ds = _read(sf_dir, "events", ["event_id", "ts", "event_type", "value"])

    def derive(t):
        us = pc.cast(t.column("ts"), pa.int64())
        hour = pc.multiply(pc.divide(pc.divide(us, 1_000_000), 3600), 3600)
        key = pc.binary_join_element_wise(
            pc.cast(hour, pa.string()), t.column("event_type"), "|"
        )
        return t.append_column("window_key", key).drop_columns(["ts", "event_type"])

    def side(is_delta: bool):
        def f(t: pa.Table) -> pa.Table:
            ids = t.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
            in_delta = (hash64_int(ids, 5) % np.uint64(3)) == 0
            return t.filter(pa.array(in_delta if is_delta else ~in_delta))

        return f

    spec = DDSketchSpec(
        on="value", name="s", relative_accuracy=ALPHA, quantiles=QUANTILES,
        include_sum_avg=False,
    )
    base = ds.map_batches(side(False), batch_format="pyarrow", zero_copy_batch=True)
    delta = ds.map_batches(side(True), batch_format="pyarrow", zero_copy_batch=True)
    # two INDEPENDENT distributed builds (in production: yesterday's
    # checkpointed state table + today's delta run), merged state-to-state
    st_base = sketch_states(base, [spec], ("window_key",), derive=derive)
    st_delta = sketch_states(delta, [spec], ("window_key",), derive=derive)
    out = merge_sketch_states(st_base.union(st_delta), [spec], ("window_key",))
    return unnest(out, columns=["s"])


def dd_sliding_window_quantiles(sf_dir: str):
    """Sliding windows (1 h window / 30 min slide): rows replicate into their
    2 windows inside map_batches, then the usual grouped sketch pipeline."""
    from .functions.specs import DDSketchSpec
    from .pipelines import grouped_sketch_pipeline
    from .pipelines.windows import assign_sliding_windows

    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def derive(t):
        t = assign_sliding_windows(t, ts_col="ts", window_s=3600, slide_s=1800)
        key = pc.binary_join_element_wise(
            pc.cast(t.column("window_start"), pa.string()), t.column("event_type"), "|"
        )
        return t.append_column("window_key", key).drop_columns(
            ["ts", "event_type", "window_start"]
        )

    spec = DDSketchSpec(
        on="value", name="s", relative_accuracy=ALPHA, quantiles=QUANTILES,
        include_sum_avg=False,
    )
    return grouped_sketch_pipeline(ds, [spec], ("window_key",), derive=derive)


def dd_ship_latency_by_priority(sf_dir: str):
    """Join-then-sketch composition: per-lineitem fulfillment latency
    (whole days between o_orderdate and l_shipdate) sketched per order
    priority.  The dimension side (orders) takes the BROADCAST plan — the
    fact side's rows never cross an all-to-all; the only shuffle is the
    KB-sized per-(block, priority) sketch states."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .pipelines.joins import broadcast_hash_join_pipeline

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])
    joined = broadcast_hash_join_pipeline(
        li,
        orders,
        left_key="l_orderkey",
        right_key="o_orderkey",
        left_cols=["l_shipdate"],
        right_payload=["o_orderdate", "o_orderpriority"],
        how="inner",
    )

    def derive(t: pa.Table) -> pa.Table:
        # timestamps are µs; latencies are non-negative, so Arrow's
        # truncating int division == the SQL mirror's floor division
        ship = t.column("l_shipdate").cast(pa.int64())
        placed = t.column("o_orderdate").cast(pa.int64())
        days = pc.divide(pc.subtract(ship, placed), 86_400_000_000)
        return pa.table(
            {"o_orderpriority": t.column("o_orderpriority"), "latency_days": days}
        )

    return _dd_by(joined, "o_orderpriority", "latency_days", derive=derive)


def dd_interarrival_by_event_type(sf_dir: str):
    """Window-then-sketch composition: per-user inter-arrival gaps (lag µs,
    ordered by ts with event_id tie-break) sketched per event type of the
    LATER event.  One hash shuffle for the ordering; the sketch aggregate
    drops the per-user first events (null lag), matching SQL lag()."""
    from .pipelines.windows import ordered_analytics_pipeline

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    ordered = ordered_analytics_pipeline(
        ds,
        key_col="user_id",
        ts_col="ts",
        tiebreak_col="event_id",
        carry_cols=["event_type"],
    )
    return _dd_by(ordered, "event_type", "prev_gap_us")


def rfm_customer_segments(sf_dir: str):
    """RFM segmentation over the orders log: per-customer recency (last
    order µs) / frequency (order count) / monetary (exact cent sum), each
    bucketed 1-4 by EXACT floor-rank quartiles of the customer population.
    Thresholds come from the sketch-guided exact selection (one sketch build
    + one candidate scan per metric — no global sort), broadcast once; the
    bucketing pass is a vectorized compare."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from .core.numeric import round_half_away
    from .pipelines.selection import sketch_exact_quantiles_pipeline

    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])

    def derive(t: pa.Table) -> pa.Table:
        cents = round_half_away(
            t.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "o_custkey": t.column("o_custkey"),
                "r_us": t.column("o_orderdate").cast(pa.int64()),
                "cents": pa.array(cents),
            }
        )

    rows = ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)
    # customer domain is open-ended at scale -> bounded-partition fold
    # (r_us is never null, so count(r_us) == Count())
    cust = partitioned_group_agg(
        rows,
        "o_custkey",
        [("r_us", "max"), ("r_us", "count"), ("cents", "sum")],
    )

    def rename(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": t.column("o_custkey"),
                "recency_us": pc.cast(t.column("max(r_us)"), pa.int64()),
                "frequency": pc.cast(t.column("count(r_us)"), pa.int64()),
                "monetary_c": pc.cast(t.column("sum(cents)"), pa.int64()),
                "_all": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
            }
        )

    # one row per customer — the aggregated table is re-read by three
    # threshold selections + the final bucketing pass, so pin it once
    cust = cust.map_batches(rename, batch_format="pyarrow").materialize()

    th = {}
    for col in ("recency_us", "frequency", "monetary_c"):
        row = sketch_exact_quantiles_pipeline(
            cust, group_col="_all", value_col=col, qs=(0.25, 0.5, 0.75), alpha=ALPHA
        ).take_all()[0]
        th[col] = (row["exact_p25"], row["exact_p50"], row["exact_p75"])

    def bucket(t: pa.Table) -> pa.Table:
        out = {
            c: t.column(c)
            for c in ("o_custkey", "recency_us", "frequency", "monetary_c")
        }
        codes = {}
        for col, short in (("recency_us", "r"), ("frequency", "f"), ("monetary_c", "m")):
            # int64 -> float64 is exact here (values < 2^53)
            v = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
            q25, q50, q75 = th[col]
            b = (1 + (v > q25) + (v > q50) + (v > q75)).astype(np.int64)
            codes[short] = b
            out[f"{short}_bucket"] = pa.array(b)
        out["rfm_code"] = pa.array(codes["r"] * 100 + codes["f"] * 10 + codes["m"])
        return pa.table(out)

    return cust.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True)


def sq8_covariance_by_label(sf_dir: str):
    """Exact integer feature-covariance Gram components per label over the
    SQ8-quantized embeddings (upper triangle, long form): the
    representation-drift statistic, bit-reproducible at any block order
    because every accumulation is int64."""
    from .pipelines.covariance import sq8_covariance_pipeline

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    return sq8_covariance_pipeline(ds, label_col="label", vec_col="embedding")


def markov_event_transitions(sf_dir: str):
    """First-order Markov transition matrix over each user's event timeline:
    counts of adjacent (event_type, next event_type) pairs plus the
    from-state row totals.  One hash shuffle + per-partition lexsort; the
    matrix itself is |event_types|² rows, so the n_from column is added on
    the materialized (KB-sized) result."""
    from .pipelines.transitions import keyed_transition_counts_pipeline

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    out = keyed_transition_counts_pipeline(
        ds,
        key_col="user_id",
        ts_col="ts",
        tiebreak_col="event_id",
        state_col="event_type",
    )
    df = out.to_pandas()  # <= |event_types|^2 rows — KB-sized by construction
    df["n_from"] = df.groupby("from_state")["n_pair"].transform("sum").astype("int64")
    return df.sort_values(["from_state", "to_state"]).reset_index(drop=True)


def user_sessions(sf_dir: str):
    """Gap-based sessionization (30 min) per user over the events log."""
    from .pipelines.windows import sessionize_pipeline

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    return sessionize_pipeline(ds, key_col="user_id", ts_col="ts", gap_s=1800)


def session_concurrency_timeline(sf_dir: str):
    """Global concurrent-session timeline: gap-based session intervals per
    user, swept (+1 at start, −1 at inclusive end) through the two-phase
    distributed prefix scan (pipelines/scan.py) — the un-keyed running sum
    Ray Data cannot express and per-key windowing cannot emulate."""
    from .pipelines.scan import concurrency_sweep_pipeline, session_intervals_pipeline

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    iv = session_intervals_pipeline(ds, key_col="user_id", ts_col="ts", gap_s=1800)
    return concurrency_sweep_pipeline(iv)


def user_running_totals(sf_dir: str):
    """Per-user ordered analytics over the events log: row_number, exact
    running value sum (integer 1e-6 units), lag gap to the previous event —
    the SQL window-function trio via one hash-partition + lexsort."""
    from .pipelines.windows import ordered_analytics_pipeline

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    return ordered_analytics_pipeline(
        ds,
        key_col="user_id",
        ts_col="ts",
        tiebreak_col="event_id",
        value_col="value",
        carry_cols=["event_id"],
    )


def user_running_totals_compact(sf_dir: str):
    """user_running_totals through the COMPACT int32 lanes (28 B/row
    exchange instead of 36; pipelines/windows.py compact_lanes): the lanes
    widen back to int64 before any arithmetic, so the result — and the SQL
    oracle — are identical to the default-lane query.  Gate-proves the
    round-5 exchange diet bit-exact; the range guards raise loudly if a
    corpus ever exceeds the int32 key/value domain."""
    from .pipelines.windows import ordered_analytics_pipeline

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    return ordered_analytics_pipeline(
        ds,
        key_col="user_id",
        ts_col="ts",
        tiebreak_col="event_id",
        value_col="value",
        carry_cols=["event_id"],
        compact_lanes=True,
    )


def user_event_paths(sf_dir: str):
    """Per-user ordered event-type PATH (clickstream sequence): SQL's
    string_agg(event_type, '|' ORDER BY ts, event_id) per user — one
    hash-partition shuffle, then one lexsort + a single Arrow binary_join
    over the segment ListArray per partition (no per-key Python)."""
    from .pipelines.windows import ordered_concat_pipeline

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    return ordered_concat_pipeline(
        ds,
        key_col="user_id",
        ts_col="ts",
        tiebreak_col="event_id",
        value_col="event_type",
    )


def user_moving_stats(sf_dir: str):
    """Per-user FRAME-based rolling features over the events log: trailing-5
    sum/min/max of the (1e-6-quantized) value — the feature-engineering
    rolling-window staple, one hash-partition + lexsort + O(frame) vectorized
    shift passes (pipelines/windows.py::moving_window_pipeline)."""
    from .pipelines.windows import moving_window_pipeline

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    return moving_window_pipeline(
        ds,
        key_col="user_id",
        ts_col="ts",
        tiebreak_col="event_id",
        value_col="value",
        frame=5,
        carry_cols=["event_id"],
    )


def asof_last_urgent_order(sf_dir: str):
    """LEFT as-of join: for each event, the user's most recent URGENT order
    at/before the event time (ties on o_orderdate -> max o_orderkey, matching
    the oracle's row_number ordering); events whose user has no urgent order
    keep null payload.  Urgency is filtered AT THE READ (parquet row-group
    pushdown) - the join shuffles only 5 int64 columns per side."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from .pipelines.joins import asof_join_pipeline

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    urgent = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"],
        filter=pads.field("o_orderpriority") == "1-URGENT",
    )
    return asof_join_pipeline(
        events,
        urgent,
        left_key="user_id",
        left_ts="ts",
        right_key="o_custkey",
        right_ts="o_orderdate",
        left_cols=["event_id", "user_id"],
        right_payload=["o_orderkey", "o_totalprice"],
        tiebreak="o_orderkey",
    )


def asof_last_urgent_order_broadcast(sf_dir: str):
    """Same as-of join as :func:`asof_last_urgent_order`, but through the
    BROADCAST plan: the urgent-order dimension side is ray.put once and every
    event batch probes it locally — no all-to-all at all.  Shares the
    shuffle variant's oracle verbatim; both green proves plan-equivalence."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from .pipelines.joins import broadcast_asof_join_pipeline

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    urgent = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"],
        filter=pads.field("o_orderpriority") == "1-URGENT",
    )
    return broadcast_asof_join_pipeline(
        events,
        urgent,
        left_key="user_id",
        left_ts="ts",
        right_key="o_custkey",
        right_ts="o_orderdate",
        left_cols=["event_id", "user_id"],
        right_payload=["o_orderkey", "o_totalprice"],
        tiebreak="o_orderkey",
    )


def asof_next_urgent_order(sf_dir: str):
    """FORWARD as-of join: for each event, the user's EARLIEST urgent order
    at/after the event time (ties on o_orderdate -> min o_orderkey) — the
    'next scheduled action' shape.  Same one-shuffle merge-rank plan as the
    backward join, running on negated time."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from .pipelines.joins import asof_join_pipeline

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    urgent = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"],
        filter=pads.field("o_orderpriority") == "1-URGENT",
    )
    return asof_join_pipeline(
        events,
        urgent,
        left_key="user_id",
        left_ts="ts",
        right_key="o_custkey",
        right_ts="o_orderdate",
        left_cols=["event_id", "user_id"],
        right_payload=["o_orderkey", "o_totalprice"],
        tiebreak="o_orderkey",
        direction="forward",
    )


def events_within_hour_pairs(sf_dir: str):
    """INNER range join (self): all (event a, event b) pairs of the SAME user
    with b.ts in [a.ts - 1h, a.ts] - the 'recent context per event' shape of
    a session-feature pipeline.  Includes the self pair (a, a) by definition
    of the closed interval."""
    from .pipelines.joins import range_join_pipeline

    a = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    b = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def rename(t):
        return t.rename_columns(["b_event_id", "b_user_id", "b_ts"])

    b = b.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)
    return range_join_pipeline(
        a,
        b,
        left_key="user_id",
        left_ts="ts",
        right_key="b_user_id",
        right_ts="b_ts",
        left_cols=["event_id", "user_id"],
        right_payload=["b_event_id"],
        window_s=3600,
    )


SESSION_HALF_LIFE_S = 1800  # synthetic activity-window length for overlap join


def overlapping_click_purchase_windows(sf_dir: str):
    """Interval-OVERLAP join: every (click, purchase) pair of the SAME user
    whose 30-minute activity windows [ts, ts+30min] intersect — the
    concurrent-behavior detector.  Bounded-duration plan: candidates per
    left row are a contiguous rank window of the (key, start)-sorted right
    side (two merge-rank passes), one exact end>=start post-filter."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import ray.data as rd

    from .pipelines.joins import interval_overlap_join_pipeline

    half = SESSION_HALF_LIFE_S * 1_000_000

    def windows(name: str):
        def f(t: pa.Table) -> pa.Table:
            us = pc.cast(t.column("ts"), pa.int64())
            return pa.table(
                {
                    f"{name}_id": t.column("event_id"),
                    f"{name}_user": t.column("user_id"),
                    f"{name}_start": us,
                    f"{name}_end": pc.add(us, half),
                }
            )

        return f

    clicks = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts"],
        filter=pads.field("event_type") == "click",
    ).map_batches(windows("a"), batch_format="pyarrow", zero_copy_batch=True)
    buys = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts"],
        filter=pads.field("event_type") == "purchase",
    ).map_batches(windows("b"), batch_format="pyarrow", zero_copy_batch=True)

    return interval_overlap_join_pipeline(
        clicks,
        buys,
        key_cols=("a_user", "b_user"),
        left_start="a_start",
        left_end="a_end",
        right_start="b_start",
        right_end="b_end",
        left_cols=["a_id", "a_user"],
        right_payload=["b_id"],
        max_right_duration_s=SESSION_HALF_LIFE_S,
    )


def lineitem_urgent_left_join(sf_dir: str):
    """Large-large LEFT hash equi-join: returned lineitems against URGENT
    orders.  Both sides pruned AT THE READ (returnflag / priority row-group
    pushdown); the shuffle carries 3 + 2 projected columns, never the full
    tables.  Lineitems of non-urgent orders keep null payload."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from .pipelines.joins import hash_join_pipeline

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
        filter=pads.field("l_returnflag") == "R",
    )
    urgent = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
        filter=pads.field("o_orderpriority") == "1-URGENT",
    )
    return hash_join_pipeline(
        li,
        urgent,
        left_key="l_orderkey",
        right_key="o_orderkey",
        left_cols=["l_orderkey", "l_linenumber", "l_extendedprice"],
        right_payload=["o_custkey", "o_totalprice"],
        how="left",
    )


def customers_no_urgent_orders(sf_dir: str):
    """ANTI hash join: customers with NO urgent order (NOT EXISTS) — the
    blocklist-filter shape when the blocklist is too large to broadcast."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from .pipelines.joins import hash_join_pipeline

    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal", "c_mktsegment"])
    urgent = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey"],
        filter=pads.field("o_orderpriority") == "1-URGENT",
    )
    return hash_join_pipeline(
        cust,
        urgent,
        left_key="c_custkey",
        right_key="o_custkey",
        left_cols=["c_custkey", "c_acctbal", "c_mktsegment"],
        right_payload=(),
        how="anti",
    )


def customers_with_big_orders(sf_dir: str):
    """SEMI hash join: customers having at least one order over $200k
    (EXISTS); each customer emitted once however many orders match."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from .pipelines.joins import hash_join_pipeline

    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    big = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey"],
        filter=pads.field("o_totalprice") > 200000.0,
    )
    return hash_join_pipeline(
        cust,
        big,
        left_key="c_custkey",
        right_key="o_custkey",
        left_cols=["c_custkey", "c_acctbal"],
        right_payload=(),
        how="semi",
    )


def urgent_orders_right_join(sf_dir: str):
    """RIGHT hash equi-join: high-quantity returned lineitems against URGENT
    orders — every urgent order appears at least once; orders with no such
    lineitem carry null lineitem columns.  The mirror of the LEFT join's
    unmatched-row policy, exercised as its own mode so BOTH unmatched-side
    paths of ``hash_join_pipeline`` are driver-verified."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from .pipelines.joins import hash_join_pipeline

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity"],
        filter=pads.field("l_quantity") > 45.0,
    )
    urgent = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice"],
        filter=pads.field("o_orderpriority") == "1-URGENT",
    )
    return hash_join_pipeline(
        li,
        urgent,
        left_key="l_orderkey",
        right_key="o_orderkey",
        left_cols=["l_orderkey", "l_linenumber", "l_quantity"],
        right_payload=["o_orderkey", "o_totalprice"],
        how="right",
    )


def customer_orders_full_join(sf_dir: str):
    """FULL OUTER hash equi-join: BUILDING-segment customers × orders over
    $300k.  Unmatched rows survive on BOTH sides (customers with no big
    order; big orders of non-BUILDING customers) — the reconciliation shape
    (set union with payload) the snapshot-diff pipeline uses on content
    identity, here as a first-class join mode on an integer key."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from .pipelines.joins import hash_join_pipeline

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_acctbal"],
        filter=pads.field("c_mktsegment") == "BUILDING",
    )
    big = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_totalprice"],
        filter=pads.field("o_totalprice") > 300000.0,
    )
    return hash_join_pipeline(
        cust,
        big,
        left_key="c_custkey",
        right_key="o_custkey",
        left_cols=["c_custkey", "c_acctbal"],
        right_payload=["o_custkey", "o_orderkey", "o_totalprice"],
        how="full",
    )


def _revenue_by_priority_reduce(joined):
    """Shared reduce for the shuffle and broadcast revenue-join plans: exact
    integer 1e-4 currency units (round(price * (1 - discount) * 1e4) is
    within 1e-9 of an integer because both factors carry <= 2 decimals), so
    the sum is associative and bit-reproducible in SQL regardless of Ray's
    block/merge order.  One body for both plans keeps the rounding/casting
    conventions in lockstep - the pair exists to prove plan-equivalence."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    def to_cents(t: pa.Table) -> pa.Table:
        price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        rev = round_half_away(price * (1.0 - disc) * 1e4).astype(np.int64)
        return pa.table(
            {
                "o_orderpriority": t.column("o_orderpriority"),
                "revenue_e4": pa.array(rev),
            }
        )

    agg = joined.map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True)
    out = partitioned_group_agg(
        agg, "o_orderpriority", [("revenue_e4", "sum"), (None, "count")]
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "o_orderpriority": t.column("o_orderpriority"),
                "revenue_e4": pc.cast(t.column("sum(revenue_e4)"), pa.int64()),
                "n_items": pc.cast(t.column("count()"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def revenue_by_priority_join(sf_dir: str):
    """INNER hash join lineitem x orders -> exact revenue per order priority
    through the SHUFFLE plan (both sides hash co-partitioned); reduce shared
    with the broadcast plan (see _revenue_by_priority_reduce)."""
    from .pipelines.joins import hash_join_pipeline

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    joined = hash_join_pipeline(
        li,
        orders,
        left_key="l_orderkey",
        right_key="o_orderkey",
        left_cols=["l_extendedprice", "l_discount"],
        right_payload=["o_orderpriority"],
        how="inner",
    )
    return _revenue_by_priority_reduce(joined)


def revenue_by_priority_broadcast_join(sf_dir: str):
    """Same join + aggregate as :func:`revenue_by_priority_join`, but through
    the BROADCAST plan: orders (the dimension side) is ray.put once and every
    lineitem batch probes it locally — the fact side's payload never crosses
    an all-to-all shuffle.  Shares the shuffle variant's oracle SQL verbatim;
    the driver comparing both green proves plan-equivalence."""
    from .pipelines.joins import broadcast_hash_join_pipeline

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    joined = broadcast_hash_join_pipeline(
        li,
        orders,
        left_key="l_orderkey",
        right_key="o_orderkey",
        left_cols=["l_extendedprice", "l_discount"],
        right_payload=["o_orderpriority"],
        how="inner",
    )
    return _revenue_by_priority_reduce(joined)


def building_top_orders(sf_dir: str):
    """TPC-H-Q3-shaped composition: the 10 highest-revenue unshipped orders
    of BUILDING-segment customers.  Exercises the engine pieces end-to-end —
    a SEMI join (orders of qualifying customers), an INNER join carrying
    typed payload (orderdate timestamp + priority), block-local combining of
    the fact side BEFORE any shuffle, and the top-k pushdown (each hash
    partition emits only its local top-10; the global sort sees P x 10 rows).
    Revenue in exact 1e-4 currency units (same convention as
    revenue_by_priority_join) so the sums are associative and the SQL mirror
    is bit-exact."""
    import datetime

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from .pipelines.joins import hash_join_pipeline
    from .pipelines.topk import grouped_sum_global_topk

    cutoff = pa.scalar(datetime.datetime(1998, 6, 1), type=pa.timestamp("us"))

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    cust = cust.map_batches(
        lambda t: t.filter(pc.equal(t.column("c_mktsegment"), "BUILDING")).select(
            ["c_custkey"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"]
    )
    orders = orders.map_batches(
        lambda t: t.filter(pc.less(t.column("o_orderdate"), cutoff)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    qualifying = hash_join_pipeline(
        orders,
        cust,
        left_key="o_custkey",
        right_key="c_custkey",
        left_cols=["o_orderkey", "o_orderdate", "o_orderpriority"],
        right_payload=(),
        how="semi",
    )

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
    )

    def li_partials(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t.column("l_shipdate"), cutoff))
        price = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        rev = round_half_away(price * (1.0 - disc) * 1e4).astype(np.int64)
        g = t.column("l_orderkey").to_numpy(zero_copy_only=False)
        order = np.argsort(g, kind="stable")
        g_s = g[order]
        new_g = run_starts(g_s)
        starts = np.flatnonzero(new_g)
        sums = np.add.reduceat(rev[order], starts) if starts.size else rev[:0]
        return pa.table(
            {"l_orderkey": pa.array(g_s[starts]), "revenue_e4": pa.array(sums)}
        )

    partials = li.map_batches(li_partials, batch_format="pyarrow", zero_copy_batch=True)

    joined = hash_join_pipeline(
        partials,
        qualifying,
        left_key="l_orderkey",
        right_key="o_orderkey",
        left_cols=["l_orderkey", "revenue_e4"],
        right_payload=["o_orderdate", "o_orderpriority"],
        how="inner",
    )
    return grouped_sum_global_topk(
        joined,
        group_col="l_orderkey",
        value_col="revenue_e4",
        carry_cols=["o_orderdate", "o_orderpriority"],
        k=10,
    )


def frequent_part_pairs(sf_dir: str):
    """Market-basket mining: part pairs co-occurring in >= 3 orders, with
    lift vs independence — bounded per-basket pair generation, packed-key
    pre-aggregated shuffle, broadcast item supports (pipelines/basket.py)."""
    from .pipelines.basket import frequent_pairs_pipeline

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    return frequent_pairs_pipeline(
        ds, basket_col="l_orderkey", item_col="l_partkey", min_support=3
    )


def trending_event_types_daily(sf_dir: str):
    """Trending detection: each day's top-3 event types by count (ties ->
    lexicographically smaller type).  Block-local count pre-aggregation,
    one small (day, type) keyed sum, then the per-group top-k pushdown."""
    import pyarrow as pa

    from .pipelines.topk import per_group_topk

    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def with_day(t: pa.Table) -> pa.Table:
        us = t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {"day": pa.array(us // 86_400_000_000), "event_type": t.column("event_type")}
        )

    counts = partitioned_group_agg(
        ds.map_batches(with_day, batch_format="pyarrow", zero_copy_batch=True),
        ["day", "event_type"],
        [(None, "count")],
    )

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(["day", "event_type", "cnt"])

    counts = counts.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)
    return per_group_topk(
        counts, group_col="day", value_col="cnt", tiebreak_col="event_type", k=3
    )


def daily_count_autocorr(sf_dir: str):
    """Lag-1 autocorrelation of the daily event-count series (calendar-day
    pairs; exact integer sufficient statistics, one float conversion per
    term — pipelines/timeseries.py)."""
    from .pipelines.timeseries import daily_count_autocorr_pipeline

    ds = _read(sf_dir, "events", ["ts"])
    return daily_count_autocorr_pipeline(ds, ts_col="ts", lag=1)


BM25_QUERY_TERMS = ("hash", "join", "vector", "stream")


def bm25_top_docs(sf_dir: str):
    """Okapi BM25 retrieval: global top-20 documents for a fixed 4-term
    query — one stats pass (block partials -> scalar sum -> idfs computed
    once), one vectorized scoring pass with FIXED-ORDER float summation,
    and the block top-k pushdown (pipelines/bm25.py)."""
    from .pipelines.bm25 import bm25_topk_pipeline

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return bm25_topk_pipeline(
        ds, key_col="doc_id", text_col="text", query_terms=BM25_QUERY_TERMS, k=20
    )


def ohlc_hourly_values(sf_dir: str):
    """Per-hour OHLC bars over the event value stream (open/close = the
    order-dependent first/last by (ts, event_id); high/low/n plain) — one
    keyed shuffle + one lexsort per partition resolves all four stats
    (pipelines/timeseries.py::ohlc_pipeline)."""
    from .pipelines.timeseries import ohlc_pipeline

    ds = _read(sf_dir, "events", ["ts", "event_id", "value"])
    return ohlc_pipeline(
        ds, ts_col="ts", value_col="value", id_col="event_id", window_s=3600
    )


def ab_event_mix_zscores(sf_dir: str):
    """A/B experiment readout: users hash-split 50/50 (seed 1); for each
    event type, the two-proportion z-score of its share of each arm's
    traffic.  Counts are exact ints through one tiny (type, arm) shuffle;
    the z expression is evaluated in a fixed IEEE op order, so the float
    column is bit-exact vs SQL."""
    import math

    import pyarrow as pa
    import ray.data as rd

    from .stages.sampling import assign_split

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    ds = assign_split(
        ds, id_col="user_id", splits={"A": 0.5, "B": 0.5}, seed=1, out_col="grp"
    )

    counts = partitioned_group_agg(
        ds, ["event_type", "grp"], [(None, "count")]
    ).take_all()  # <= #types x 2 rows
    ca: dict = {}
    cb: dict = {}
    for r in counts:
        (ca if r["grp"] == "A" else cb)[r["event_type"]] = int(r["count()"])
    ta = sum(ca.values())
    tb = sum(cb.values())
    rows = {"event_type": [], "n_a": [], "n_b": [], "z": []}
    for ty in sorted(set(ca) | set(cb)):
        na, nb = ca.get(ty, 0), cb.get(ty, 0)
        if ta == 0 or tb == 0:
            z = 0.0
        else:
            pp = float(na + nb) / float(ta + tb)
            if pp <= 0.0 or pp >= 1.0:
                z = 0.0
            else:
                z = (float(na) / float(ta) - float(nb) / float(tb)) / math.sqrt(
                    pp * (1.0 - pp) * (1.0 / float(ta) + 1.0 / float(tb))
                )
        rows["event_type"].append(ty)
        rows["n_a"].append(na)
        rows["n_b"].append(nb)
        rows["z"].append(z)
    return rd.from_arrow(
        pa.table(
            {
                "event_type": pa.array(rows["event_type"], pa.string()),
                "n_a": pa.array(rows["n_a"], pa.int64()),
                "n_b": pa.array(rows["n_b"], pa.int64()),
                "z": pa.array(rows["z"], pa.float64()),
            }
        )
    )


def ewma_daily_events(sf_dir: str):
    """EWMA smoothing (alpha=0.3) of the gap-filled daily event-count
    series — the sequential float recurrence evaluates identical IEEE ops
    in identical order on both sides (recursive CTE mirror), so even the
    float column is bit-exact (pipelines/timeseries.py)."""
    from .pipelines.timeseries import ewma_daily_pipeline

    ds = _read(sf_dir, "events", ["ts"])
    return ewma_daily_pipeline(ds, ts_col="ts", alpha=0.3)


def cusum_daily_events(sf_dir: str):
    """Page's two-sided CUSUM change-point statistic over the gap-filled
    daily event-count series (allowance = floor mean; exact int64; the
    inherently-sequential recurrence runs over the KB daily series —
    pipelines/timeseries.py::cusum_daily_pipeline)."""
    from .pipelines.timeseries import cusum_daily_pipeline

    ds = _read(sf_dir, "events", ["ts"])
    return cusum_daily_pipeline(ds, ts_col="ts")


def funnel_view_click_purchase(sf_dir: str):
    """Three-stage ordered funnel view -> click -> purchase (each stage's
    FIRST qualifying event within 1 h of the previous match, inclusive) —
    the k-step generalization of the two-stage funnel, resolved per user
    partition with one lexsort per stage + the merge-rank trick
    (pipelines/windows.py::multi_funnel_pipeline)."""
    from .pipelines.windows import multi_funnel_pipeline

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    return multi_funnel_pipeline(
        ds,
        user_col="user_id",
        ts_col="ts",
        type_col="event_type",
        steps=("view", "click", "purchase"),
        window_s=3600,
    )


def vocab_jaccard_sources(sf_dir: str):
    """EXACT vocabulary Jaccard between every source pair — per-token
    G-bit membership masks collapse all pairwise set ops into one KB
    mask-count table; the shuffle carries distinct (token, source)
    incidences, never the token stream (pipelines/setsim.py).  The exact
    companion to the KMV overlap estimates."""
    from .pipelines.setsim import vocab_jaccard_pipeline

    ds = _read(sf_dir, "documents", ["source", "text"])
    return vocab_jaccard_pipeline(ds, group_col="source", text_col="text")


def weighted_median_price_by_flag(sf_dir: str):
    """EXACT quantity-weighted median of l_extendedprice per returnflag:
    the weighted sketch's exact bucket masses locate the target bucket,
    one filtered re-scan selects the crossing value — no global sort
    (pipelines/selection.py::sketch_exact_weighted_quantile_pipeline)."""
    from .pipelines.selection import sketch_exact_weighted_quantile_pipeline

    ds = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_extendedprice", "l_quantity"]
    )
    return sketch_exact_weighted_quantile_pipeline(
        ds,
        group_col="l_returnflag",
        value_col="l_extendedprice",
        weight_col="l_quantity",
        q=0.5,
        alpha=ALPHA,
    )


def bootstrap_mean_chars_by_lang(sf_dir: str):
    """Poisson-bootstrap 95% confidence interval for the mean doc length
    per lang (Chamandy et al.): deterministic splitmix64-derived Poisson(1)
    weights make every resample an exact-int one-pass partial sum — the
    streaming bootstrap (pipelines/bootstrap.py), B=64 resamples."""
    from .pipelines.bootstrap import poisson_bootstrap_ci_pipeline

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return poisson_bootstrap_ci_pipeline(
        ds, group_col="lang", value_col="n_chars", id_col="doc_id",
        n_resamples=64,
    )


def copurchase_triangles(sf_dir: str):
    """Triangle count + transitivity of the thresholded co-purchase graph
    (parts sharing >= 2 orders).  Degree-ordered orientation generates each
    triangle once at its lowest-rank vertex; the wedge set SEMI-joins the
    oriented edges (pipelines/graph.py::triangle_count_pipeline)."""
    import pyarrow as pa

    from .pipelines.basket import frequent_pairs_pipeline
    from .pipelines.graph import triangle_count_pipeline

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    pairs = frequent_pairs_pipeline(
        ds, basket_col="l_orderkey", item_col="l_partkey", min_support=2
    )
    edges = pairs.map_batches(
        lambda t: pa.table({"a": t.column("item_a"), "b": t.column("item_b")}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return triangle_count_pipeline(edges)


def rrf_hybrid_retrieval(sf_dir: str):
    """Hybrid retrieval: reciprocal-rank fusion (Cormack et al., constant
    60) of the BM25 top-50 lexical list and the cosine top-50 semantic
    list for doc/vec 0 — both lists are KB-sized pipeline outputs that
    meet in ONE partition for the fuse; doc text and embeddings never
    co-shuffle.  RRF = 1/(60+r_lex) + 1/(60+r_sem), fixed addition order,
    bit-exact vs SQL."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from .pipelines.bm25 import bm25_topk_pipeline
    from .pipelines.similarity import knn_bruteforce_pipeline

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    lex = bm25_topk_pipeline(
        docs, key_col="doc_id", text_col="text", query_terms=BM25_QUERY_TERMS, k=50
    )
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qtbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", [0])],
    )
    sem = knn_bruteforce_pipeline(
        emb, id_col="vec_id", vec_col="embedding", query_ids=(0,), k=50,
        queries_table=qtbl,
    )

    def lex_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id").cast(pa.int64()),
                "kind": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
                "val": t.column("rank").cast(pa.int64()),
            }
        )

    def sem_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("neighbor_id").cast(pa.int64()),
                "kind": pa.array(np.ones(t.num_rows, dtype=np.int8)),
                "val": t.column("cos4").cast(pa.int64()),
            }
        )

    both = lex.map_batches(
        lex_rows, batch_format="pyarrow", zero_copy_batch=True
    ).union(sem.map_batches(sem_rows, batch_format="pyarrow", zero_copy_batch=True))

    def fuse(t: pa.Table) -> pa.Table:
        doc = t.column("doc_id").to_numpy(zero_copy_only=False)
        kind = t.column("kind").to_numpy(zero_copy_only=False)
        val = t.column("val").to_numpy(zero_copy_only=False)
        lex_m = kind == 0
        l_doc, l_rank = doc[lex_m], val[lex_m]
        s_doc, s_cos = doc[~lex_m], val[~lex_m]
        s_order = np.lexsort((s_doc, -s_cos))  # (cos4 DESC, doc ASC) -> rank
        s_doc = s_doc[s_order]
        s_rank = np.arange(1, s_doc.size + 1, dtype=np.int64)
        all_docs = np.unique(np.concatenate([l_doc, s_doc]))
        rrf = np.zeros(all_docs.size, dtype=np.float64)
        li = np.searchsorted(all_docs, l_doc)
        rrf[li] = rrf[li] + 1.0 / (60.0 + l_rank.astype(np.float64))
        si = np.searchsorted(all_docs, s_doc)
        rrf[si] = rrf[si] + 1.0 / (60.0 + s_rank.astype(np.float64))
        order = np.lexsort((all_docs, -rrf))[:20]
        return pa.table(
            {
                "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
                "doc_id": pa.array(all_docs[order]),
                "rrf": pa.array(rrf[order]),
            }
        )

    return both.repartition(1).map_batches(
        fuse, batch_format="pyarrow", zero_copy_batch=True
    )


def apportion_sample_quota_by_lang(sf_dir: str):
    """Hamilton largest-remainder apportionment of a 1000-doc sample
    budget across languages proportionally to corpus share — all-integer
    quotas, identical on every layout (pipelines/inequality.py)."""
    from .pipelines.inequality import largest_remainder_quota_pipeline

    ds = _read(sf_dir, "documents", ["lang"])
    return largest_remainder_quota_pipeline(ds, group_col="lang", budget=1000)


def gini_price_inequality(sf_dir: str):
    """Gini inequality coefficient of line-item prices (exact cents;
    sorted-rank identity over the distinct-value count table — python-int
    rank·value sums, one float divide; pipelines/inequality.py)."""
    import pyarrow as pa

    from .core.numeric import round_half_away
    from .pipelines.inequality import gini_pipeline

    ds = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def cents(t: pa.Table) -> pa.Table:
        import numpy as np

        v = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        return pa.table(
            {"cents": pa.array(round_half_away(v * 100.0).astype(np.int64))}
        )

    return gini_pipeline(
        ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
        value_col="cents",
    )


def supply_latency_sssp(sf_dir: str):
    """Weighted shortest paths (4-round Bellman-Ford min-plus) from the
    nation-0 customers over the undirected supply graph, edge weight =
    MINIMUM ship latency in days between a customer and a supplier — the
    min-per-pair dedup and the relaxation are both exact-int and
    order-free (pipelines/graph.py::sssp_pipeline)."""
    import numpy as np
    import pyarrow as pa

    from .pipelines.graph import sssp_pipeline
    from .pipelines.joins import broadcast_hash_join_pipeline

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    joined = broadcast_hash_join_pipeline(
        li,
        orders,
        left_key="l_orderkey",
        right_key="o_orderkey",
        left_cols=["l_suppkey", "l_shipdate"],
        right_payload=["o_custkey", "o_orderdate"],
        how="inner",
    )

    def encode(t: pa.Table) -> pa.Table:
        c = t.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        s = t.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        ship = t.column("l_shipdate").cast(pa.int64()).to_numpy(zero_copy_only=False)
        od = t.column("o_orderdate").cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": pa.array(c * 2),
                "dst": pa.array(s * 2 + 1),
                "w": pa.array((ship - od) // 86_400_000_000),
            }
        )

    edges = joined.map_batches(encode, batch_format="pyarrow", zero_copy_batch=True)
    seeds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def pick(t):
        c = t.column("c_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.column("c_nationkey").to_numpy(zero_copy_only=False)
        return pa.table({"node": pa.array(c[n == 0] * 2)})

    seed_nodes = seeds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)
    return sssp_pipeline(edges, seed_nodes, max_rounds=4)


def pareto_orders(sf_dir: str):
    """Pareto frontier of orders — cheapest-for-their-recency: no other
    order is both <= in price and >= in date with one strict.  Two-level
    skyline: lossless per-block prune, then one candidate-only merge pass
    (pipelines/skyline.py); comparisons only, so floats mirror bit-exactly."""
    from .pipelines.skyline import skyline_pipeline

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderdate"])
    return skyline_pipeline(
        ds, minimize_col="o_totalprice", maximize_col="o_orderdate"
    )


def _cust_supp_edges(sf_dir: str):
    """Directed customer -> supplier purchase edges (orders ⋈ lineitem on
    orderkey), node-encoded disjointly (customer = 2k, supplier = 2k+1).
    The orderkey dimension side (orders) broadcasts; lineitem streams."""
    import numpy as np
    import pyarrow as pa

    from .pipelines.joins import broadcast_hash_join_pipeline

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    joined = broadcast_hash_join_pipeline(
        li,
        orders,
        left_key="l_orderkey",
        right_key="o_orderkey",
        left_cols=["l_suppkey"],
        right_payload=["o_custkey"],
        how="inner",
    )

    def encode(t: pa.Table) -> pa.Table:
        c = t.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        s = t.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"src": pa.array(c * 2), "dst": pa.array(s * 2 + 1)})

    return joined.map_batches(encode, batch_format="pyarrow", zero_copy_batch=True)


def pagerank_customer_supplier(sf_dir: str):
    """Exact fixed-point PageRank (3 iterations, damping 0.85, SCALE=1e12,
    dangling mass redistributed) over the distinct customer->supplier
    purchase graph — iterative message passing as partition-vectorized
    Dataset shuffles (pipelines/graph.py); all-integer arithmetic, so any
    merge/execution order is bit-identical and the oracle is plain
    unrolled SQL."""
    from .pipelines.graph import pagerank_pipeline

    return pagerank_pipeline(_cust_supp_edges(sf_dir), iters=3)


def bfs_hops_customer_supplier(sf_dir: str):
    """Multi-source BFS (seed expansion): minimum hop count <= 3 from the
    nation-0 customers over the UNDIRECTED purchase graph — frontier-only
    min-propagation (pipelines/graph.py), the "everything within k hops of
    a trusted set" curation primitive."""
    from .pipelines.graph import bfs_hops_pipeline

    seeds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def pick(t):
        import numpy as np
        import pyarrow as pa

        c = t.column("c_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.column("c_nationkey").to_numpy(zero_copy_only=False)
        return pa.table({"node": pa.array(c[n == 0] * 2)})

    seed_nodes = seeds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)
    return bfs_hops_pipeline(
        _cust_supp_edges(sf_dir), seed_nodes, max_hops=3
    )


# -- sketch family (HLL / Bloom / CMS / t-digest / KLL) ----------------------

def exact_distinct_users_by_event_type(sf_dir: str):
    """Exact COUNT(DISTINCT user_id) per event_type — the exact baseline the
    HLL/KMV estimates are judged against (pipelines/distinct.py: block-local
    pair dedup, pair-keyed shuffle so hot groups spread, partial counts)."""
    from .pipelines.distinct import exact_distinct_pipeline

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    return exact_distinct_pipeline(ds, group_col="event_type", value_col="user_id")


def argmax_events_by_type(sf_dir: str):
    """Per event_type, the single highest-value event row (SQL arg_max with
    a deterministic event_id tiebreak) — per_group_topk with k=1."""
    from .pipelines.topk import per_group_topk

    ds = _read(sf_dir, "events", ["event_id", "event_type", "user_id", "value"])
    return per_group_topk(
        ds,
        group_col="event_type",
        value_col="value",
        tiebreak_col="event_id",
        k=1,
    )


def hll_users_by_event_type(sf_dir: str):
    """HLL distinct user_id per event_type (splitmix64 int hashing)."""
    from .functions.family_specs import HLLSpec
    from .pipelines import grouped_sketch_pipeline

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    return grouped_sketch_pipeline(
        ds, [HLLSpec(on="user_id", name="h", p=14, kind="int")], ("event_type",)
    )


def hll_users_per_window(sf_dir: str):
    """Sketch-family x window composition: HLL distinct users per tumbling
    hour x event_type - the window id is a derived group key, so the same
    two-level state merge that handles the DDSketch windows handles HLL
    (distinct counts stay mergeable across late/out-of-order data).  p=12:
    4 KB registers per (window, type) group."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .functions.family_specs import HLLSpec
    from .pipelines import grouped_sketch_pipeline

    ds = _read(sf_dir, "events", ["ts", "event_type", "user_id"])

    def derive(t):
        us = pc.cast(t.column("ts"), pa.int64())
        hour = pc.multiply(pc.divide(pc.divide(us, 1_000_000), 3600), 3600)
        key = pc.binary_join_element_wise(
            pc.cast(hour, pa.string()), t.column("event_type"), "|"
        )
        return t.append_column("window_key", key).drop_columns(["ts", "event_type"])

    return grouped_sketch_pipeline(
        ds,
        [HLLSpec(on="user_id", name="h", p=12, kind="int")],
        ("window_key",),
        derive=derive,
    )


def hll_props_by_event_type(sf_dir: str):
    """HLL distinct props-string per event_type (sha256 string hashing)."""
    from .functions.family_specs import HLLSpec
    from .pipelines import grouped_sketch_pipeline

    ds = _read(sf_dir, "events", ["event_type", "props"])
    return grouped_sketch_pipeline(
        ds, [HLLSpec(on="props", name="h", p=14, kind="str")], ("event_type",)
    )


def heavy_hitter_users(sf_dir: str):
    """Exact phi-heavy hitters over events.user_id (phi=0.008): MG-style
    per-block candidates -> broadcast -> exact verify; output layout-
    independent and identical to SQL's HAVING count >= ceil(phi*n)."""
    from .pipelines.heavy import heavy_hitters_pipeline

    ds = _read(sf_dir, "events", ["user_id"])
    return heavy_hitters_pipeline(ds, key_col="user_id", phi=0.008)


def heavy_hitter_props(sf_dir: str):
    """Exact phi-heavy hitters over the string props column (phi=0.0113)."""
    from .pipelines.heavy import heavy_hitters_pipeline

    ds = _read(sf_dir, "events", ["props"])
    return heavy_hitters_pipeline(ds, key_col="props", phi=0.0113)


def kmv_users_by_event_type(sf_dir: str):
    """KMV (bottom-k theta) distinct user_id per event_type, k=64 — the
    estimation path ((k-1)/U_(k)); deterministic, bit-exact vs SQL."""
    from .functions.family_specs import KMVSpec
    from .pipelines import grouped_sketch_pipeline

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    return grouped_sketch_pipeline(
        ds, [KMVSpec(on="user_id", name="m", k=64, kind="int")], ("event_type",)
    )


def ams_f2_users_by_event_type(sf_dir: str):
    """AMS tug-of-war F2 (self-join size) of user_id per event_type - the
    quantity a planner wants before hash-joining a key.  Exact integer
    signed sums, median-of-5 estimators, bit-exact vs SQL."""
    from .functions.family_specs import AMSSpec
    from .pipelines import grouped_sketch_pipeline

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    return grouped_sketch_pipeline(
        ds, [AMSSpec(on="user_id", name="a", d=5)], ("event_type",)
    )


def ams_join_size_events_orders(sf_dir: str):
    """Join cardinality BEFORE the join: |events JOIN orders ON user| =
    sum_u f_e(u) * f_o(u), estimated as the median of the products of two
    independent AMS sketches' signed sums (E[Se_j * So_j] = join size) -
    the planner statistic for broadcast-vs-shuffle decisions, from one
    streaming pass over each side.  Exact integers -> bit-exact SQL."""
    import pyarrow as pa
    import ray.data as rd

    from .functions.family_specs import AMSSpec
    from .pipelines.probe import build_sketch

    d = 5
    sides = {
        tbl: build_sketch(_read(sf_dir, tbl, [col]), AMSSpec(on=col, name="s", d=d))
        for tbl, col in (("events", "user_id"), ("orders", "o_custkey"))
    }
    a, b = sides["events"], sides["orders"]
    prods = sorted(int(x) * int(y) for x, y in zip(a.sums, b.sums))
    return rd.from_arrow(
        pa.table(
            {
                "join_size_est": pa.array([float(prods[d // 2])], pa.float64()),
                "n_events": pa.array([float(a.count)], pa.float64()),
                "n_orders": pa.array([float(b.count)], pa.float64()),
            }
        )
    )


def kmv_user_overlap_by_event_type(sf_dir: str):
    """KMV set operations: pairwise distinct-user overlap between event
    types (union estimate, Jaccard, intersection) via the theta-sketch
    sample property - G tiny sketches on the driver, never a row shuffle
    between groups."""
    from .pipelines.setops import kmv_overlap_pipeline

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    return kmv_overlap_pipeline(
        ds, group_col="event_type", value_col="user_id", k=64, kind="int"
    )


def kmv_props_by_event_type(sf_dir: str):
    """KMV distinct props-string per event_type, k=256 — the exact
    (below-k) path, sha256 string hashing."""
    from .functions.family_specs import KMVSpec
    from .pipelines import grouped_sketch_pipeline

    ds = _read(sf_dir, "events", ["event_type", "props"])
    return grouped_sketch_pipeline(
        ds, [KMVSpec(on="props", name="m", k=256, kind="str")], ("event_type",)
    )


def bloom_customer_membership(sf_dir: str):
    """Bloom filter over customer keys, probed by distinct event user_ids."""
    from .functions.family_specs import BloomSpec
    from .pipelines.probe import bloom_membership_pipeline

    build = _read(sf_dir, "customer", ["c_custkey"])
    probe = _read(sf_dir, "events", ["user_id"])
    return bloom_membership_pipeline(
        build,
        probe,
        build_spec=BloomSpec(on="c_custkey", m_bits=1 << 14, k=7, kind="int"),
        probe_col="user_id",
        out_key="user_id",
    )


def bloom_text_membership(sf_dir: str):
    """STRING-kind Bloom: filter built over document texts, probed by distinct
    event props (mostly non-members; false positives deterministic)."""
    from .functions.family_specs import BloomSpec
    from .pipelines.probe import bloom_membership_pipeline

    build = _read(sf_dir, "documents", ["text"])
    probe = _read(sf_dir, "events", ["props"])
    return bloom_membership_pipeline(
        build,
        probe,
        build_spec=BloomSpec(on="text", m_bits=1 << 14, k=5, kind="str"),
        probe_col="props",
        out_key="props",
    )


def cms_user_frequencies(sf_dir: str):
    """Count-min estimate vs exact count of events per user_id."""
    from .functions.family_specs import CMSSpec
    from .pipelines.probe import cms_frequency_pipeline

    ds = _read(sf_dir, "events", ["user_id"])
    return cms_frequency_pipeline(
        ds, spec=CMSSpec(on="user_id", w=256, d=4, kind="int"), out_key="user_id"
    )


def cms_weighted_part_quantities(sf_dir: str):
    """Weighted count-min: total l_quantity shipped per part (weights are
    first-class floats, matching the DDSketch weighted-add convention)."""
    from .functions.family_specs import CMSSpec
    from .pipelines.probe import cms_frequency_pipeline

    ds = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity"])
    return cms_frequency_pipeline(
        ds,
        spec=CMSSpec(on="l_partkey", weight="l_quantity", w=4096, d=4, kind="int"),
        out_key="l_partkey",
    )


def tdigest_chars_by_lang(sf_dir: str):
    """t-digest quantiles of doc length by lang through the canonical
    SINGLE-COMPACTION build (pipelines/canonical.py, buckets=1: per group one
    batched insert of the ascending-sorted values).  With the k_sqrt scale
    function (core/tdigest.py - IEEE-exact ops only) the whole digest is a
    closed-form window-function expression, so the ESTIMATE itself is
    oracle-backed (functions/rank_oracle.py) - round 2's last rows-only
    sketch gap.  buckets=1 trades the per-group bucket parallelism for SQL
    mirrorability; the bucketed variant stays exercised end-to-end by
    tdigest_exact_fields_by_lang."""
    from .functions.family_specs import TDigestSpec
    from .pipelines.canonical import canonical_sketch_pipeline

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return canonical_sketch_pipeline(
        ds,
        TDigestSpec(on="n_chars", name="t", quantiles=QUANTILES),
        ("lang",),
        id_col="doc_id",
        buckets=1,
    )


def kll_chars_by_lang(sf_dir: str):
    """KLL quantiles of doc length by lang through the canonical
    single-insert build (buckets=1).  One batched insert keeps exactly one
    compactor level nonempty, so the survivors are closed-form positions of
    the sorted group (deterministic counter-based coins) and the ESTIMATE is
    oracle-backed via the unrolled cascade SQL (functions/rank_oracle.py);
    see tdigest_chars_by_lang for the buckets=1 tradeoff."""
    from .functions.family_specs import KLLSpec
    from .pipelines.canonical import canonical_sketch_pipeline

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return canonical_sketch_pipeline(
        ds,
        KLLSpec(on="n_chars", name="k", quantiles=QUANTILES),
        ("lang",),
        id_col="doc_id",
        buckets=1,
    )


def tdigest_exact_fields_by_lang(sf_dir: str):
    """The SAME canonical t-digest build as tdigest_chars_by_lang, projected
    onto the sketch's exactly-maintained fields (count/min/max).  Those are
    SQL-expressible, so this gives the t-digest pipeline an oracle-backed
    end-to-end driver row (distributed accumulate + canonical merge tree all
    execute; only the finalize projection differs), per VERDICT.md item 5's
    'oracle the exact fields' guidance.  Estimate accuracy stays pytest-pinned
    (alpha-band sweeps in tests/test_sketch_family.py)."""
    from .functions.family_specs import TDigestSpec
    from .pipelines.canonical import canonical_sketch_pipeline

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return canonical_sketch_pipeline(
        ds,
        TDigestSpec(on="n_chars", name="t", quantiles=()),
        ("lang",),
        id_col="doc_id",
    )


def kll_exact_fields_by_lang(sf_dir: str):
    """KLL twin of tdigest_exact_fields_by_lang: oracle-backed count/min/max
    through the full distributed KLL build (compaction included)."""
    from .functions.family_specs import KLLSpec
    from .pipelines.canonical import canonical_sketch_pipeline

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return canonical_sketch_pipeline(
        ds,
        KLLSpec(on="n_chars", name="k", quantiles=()),
        ("lang",),
        id_col="doc_id",
    )


# -- dedup suite -------------------------------------------------------------

def _docs(sf_dir):
    return _read(sf_dir, "documents", ["doc_id", "text"])


def exact_dedup_docs(sf_dir: str):
    """Keep min doc_id per exact text (128-bit hash identity, no text shuffle)."""
    from .pipelines.dedup import exact_dedup_pipeline

    return exact_dedup_pipeline(_docs(sf_dir), key_col="doc_id", text_col="text")


def chunk_documents(sf_dir: str):
    """Fixed-size overlapping chunks (200 chars, 50 overlap) per document —
    the context-window precursor to sequence packing.  One vectorized
    byte-gather per block builds every chunk; no shuffle at all
    (pipelines/chunk.py)."""
    from .pipelines.chunk import chunk_documents_pipeline

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return chunk_documents_pipeline(
        ds, key_col="doc_id", text_col="text", chunk_size=200, overlap=50
    )


def normalized_dedup_docs(sf_dir: str):
    """Near-exact dedup under case/whitespace normalization.  The synthetic
    corpus carries no case/space variants, so a deterministic variant copy
    of every doc (doc_id + 10^7, upper(text) + trailing spaces) is unioned
    in first — mirrored verbatim in the oracle — and the normalize(lower,
    collapse \\s+, trim) + min-key dedup collapses each variant back onto
    its original (pipelines/dedup.py::normalized_dedup_pipeline)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .pipelines.dedup import normalized_dedup_pipeline

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def variant(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.add(
                    t.column("doc_id"), pa.scalar(10_000_000, pa.int64())
                ),
                "text": pc.binary_join_element_wise(
                    pc.utf8_upper(t.column("text")), "  ", ""
                ),
            }
        )

    variants = ds.map_batches(variant, batch_format="pyarrow", zero_copy_batch=True)
    return normalized_dedup_pipeline(
        ds.union(variants), key_col="doc_id", text_col="text"
    )


def exact_dedup_rows(sf_dir: str):
    """Full-row dedup: the surviving (doc_id, lang, n_chars) rows themselves."""
    from .pipelines.dedup import exact_dedup_rows_pipeline

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars", "text"])
    out = exact_dedup_rows_pipeline(ds, key_col="doc_id", text_col="text")
    return out.drop_columns(["text"])


def minhash_signatures_docs(sf_dir: str):
    """16-permutation MinHash signature per document (word 3-gram shingles)."""
    from .pipelines.dedup import minhash_signatures

    return minhash_signatures(_docs(sf_dir), key_col="doc_id", text_col="text")


def lsh_candidate_pairs(sf_dir: str):
    """MinHash-LSH near-duplicate candidate pairs (4 bands x 4 rows)."""
    from .pipelines.dedup import lsh_candidate_pairs_pipeline

    return lsh_candidate_pairs_pipeline(_docs(sf_dir), key_col="doc_id", text_col="text")


def jaccard_dedup_pairs(sf_dir: str):
    """LSH candidates verified by exact shingle Jaccard >= 0.5."""
    from .pipelines.dedup import jaccard_pairs_pipeline

    return jaccard_pairs_pipeline(_docs(sf_dir), key_col="doc_id", text_col="text")


def containment_dedup_pairs(sf_dir: str):
    """Asymmetric shingle CONTAINMENT >= 0.5 over LSH candidates — the
    quote/boilerplate detector symmetric Jaccard misses (a short doc fully
    embedded in a long one).  pipelines/dedup.py::containment_pairs_pipeline."""
    from .pipelines.dedup import containment_pairs_pipeline

    return containment_pairs_pipeline(
        _docs(sf_dir), key_col="doc_id", text_col="text", threshold=0.5
    )


def levenshtein_dedup_pairs(sf_dir: str):
    """LSH candidates verified by exact EDIT distance <= 40 — the
    character-level near-dup verify (pipelines/dedup.py::
    edit_distance_pairs_pipeline); texts attach to pairs via two hash
    co-partition joins, DP per candidate pair only."""
    from .pipelines.dedup import edit_distance_pairs_pipeline

    return edit_distance_pairs_pipeline(
        _docs(sf_dir), key_col="doc_id", text_col="text", max_dist=40
    )


def jaro_dedup_pairs(sf_dir: str):
    """LSH candidates verified by JARO-WINKLER similarity >= 0.90 (the
    record-linkage metric: prefix-weighted, typo tolerant), quantized to
    1e-4 like the cosine verifies; DuckDB's own jaro_winkler_similarity is
    the mirror (byte-level parity pinned by fuzz in tests)."""
    from .pipelines.dedup import jaro_winkler_pairs_pipeline

    return jaro_winkler_pairs_pipeline(
        _docs(sf_dir), key_col="doc_id", text_col="text", threshold=0.90
    )


def damerau_dedup_pairs(sf_dir: str):
    """LSH candidates verified by FULL Damerau-Levenshtein distance <= 40
    (adjacent transpositions cost 1 — the typo/OCR near-dup metric).  Same
    two-join pair-attach plan as the Levenshtein verify; the DL DP is one
    vectorized numpy row per step with a fancy-indexed transposition
    gather (pipelines/dedup.py::_damerau_levenshtein)."""
    from .pipelines.dedup import edit_distance_pairs_pipeline

    return edit_distance_pairs_pipeline(
        _docs(sf_dir), key_col="doc_id", text_col="text", max_dist=40, metric="damerau"
    )


def simhash_hamming_pairs(sf_dir: str):
    """LSH candidates verified by SimHash Hamming distance <= 16 — the
    constant-cost near-dup verify (one XOR + popcount per pair regardless
    of doc length; pipelines/dedup.py::simhash_hamming_pairs_pipeline).
    Fingerprints attach to pairs via two hash co-partition joins."""
    from .pipelines.dedup import simhash_hamming_pairs_pipeline

    return simhash_hamming_pairs_pipeline(
        _docs(sf_dir), key_col="doc_id", text_col="text", max_hamming=16
    )


def dedup_clusters(sf_dir: str):
    """Near-dup CLUSTER assignment: the verified Jaccard pairs are edges of
    a similarity graph; every clustered doc maps to its component's minimum
    doc id via distributed min-label propagation (pipelines/cc.py) - the
    step that turns pairwise dedup output into keep/drop decisions."""
    from .pipelines.cc import connected_components_pipeline
    from .pipelines.dedup import jaccard_pairs_pipeline

    pairs = jaccard_pairs_pipeline(_docs(sf_dir), key_col="doc_id", text_col="text")
    return connected_components_pipeline(pairs, a_col="a", b_col="b")


def dup_rate_by_source(sf_dir: str):
    """Exact duplication-health report per source: how many docs' text
    occurs >= 2 times anywhere in the corpus, and the rate.  One 24-byte
    (hash, source) row per doc through a hash-partitioned shuffle; text
    never moves (pipelines/dedup.py::dup_rate_by_group_pipeline)."""
    from .pipelines.dedup import dup_rate_by_group_pipeline

    ds = _read(sf_dir, "documents", ["source", "text"])
    return dup_rate_by_group_pipeline(ds, group_col="source", text_col="text")


def neardup_kept_counts(sf_dir: str):
    """End-to-end near-dup REMOVAL: Jaccard-verified pairs -> connected
    components -> keep each cluster's MINIMUM doc id -> surviving doc
    counts per lang.  The drop set (clustered non-minimum ids) broadcasts
    once — it is small by construction (only near-duplicates); the final
    pass streams the corpus with a membership filter + block group_by."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from .pipelines.cc import connected_components_pipeline
    from .pipelines.dedup import jaccard_pairs_pipeline

    pairs = jaccard_pairs_pipeline(_docs(sf_dir), key_col="doc_id", text_col="text")
    labels = connected_components_pipeline(pairs, a_col="a", b_col="b")
    rows = labels.take_all()  # one row per CLUSTERED doc only — KB side
    drop = np.sort(
        np.asarray(
            [r["node"] for r in rows if r["cluster"] != r["node"]], dtype=np.int64
        )
    )
    ref = ray.put(drop)
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def keep_rows(t: pa.Table) -> pa.Table:
        d = ray.get(ref)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        if d.size:
            idx = np.minimum(np.searchsorted(d, ids), d.size - 1)
            m = d[idx] != ids
        else:
            m = np.ones(ids.size, dtype=bool)
        return t.filter(pa.array(m)).select(["lang"])

    kept = ds.map_batches(keep_rows, batch_format="pyarrow", zero_copy_batch=True)
    out = partitioned_group_agg(kept, "lang", [(None, "count")])
    return out.map_batches(
        lambda t: pa.table(
            {
                "lang": t.column("lang"),
                "n_kept": pc.cast(t.column("count()"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def ngram_jaccard_pairs(sf_dir: str):
    """Postings-based exact n-gram Jaccard pairs (inverted-index candidate
    generation, df_cap=5 stop-shingle guard, threshold 0.5) - the third
    near-dup family next to MinHash-LSH and SimHash; the Jaccard comes
    straight out of co-occurrence counts, so neither text nor shingle sets
    ever reship."""
    from .pipelines.postings import ngram_jaccard_pairs_pipeline

    return ngram_jaccard_pairs_pipeline(_docs(sf_dir), key_col="doc_id", text_col="text")


def pivot_split_counts(sf_dir: str):
    """Pivot/crosstab: per-lang document counts widened to one column per
    split - block-local pre-agg, one tiny groupby-sum shuffle, vectorized
    per-partition scatter (no per-group Python)."""
    from .pipelines.pivot import pivot_counts_pipeline
    from .stages.sampling import assign_split

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    ds = assign_split(ds, id_col="doc_id", splits=SPLITS, seed=0)
    return pivot_counts_pipeline(
        ds, group_col="lang", pivot_col="split", values=list(SPLITS)
    )


def snapshot_diff_docs(sf_dir: str):
    """Corpus snapshot reconciliation: diff today's corpus against
    yesterday's by 128-bit content identity - emits only the delta
    (added/removed/changed doc ids), text never shuffles.  The 'today'
    side is derived deterministically: test-split docs removed, val-split
    docs edited, test docs re-added under shifted ids."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .pipelines.diff import snapshot_diff_pipeline
    from .stages.sampling import assign_split

    a = _read(sf_dir, "documents", ["doc_id", "text"])
    bsrc = assign_split(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        id_col="doc_id",
        splits=SPLITS,
        seed=0,
    )

    def make_b(t: pa.Table) -> pa.Table:
        is_test = pc.equal(t.column("split"), "test")
        keep = t.filter(pc.invert(is_test))
        is_val = pc.equal(keep.column("split"), "val")
        text = pc.if_else(
            is_val,
            pc.binary_join_element_wise(keep.column("text"), " EDITED", ""),
            keep.column("text"),
        )
        kept = pa.table({"doc_id": keep.column("doc_id"), "text": text})
        addt = t.filter(is_test)
        added = pa.table(
            {
                "doc_id": pc.add(addt.column("doc_id"), 10_000_000),
                "text": addt.column("text"),
            }
        )
        return pa.concat_tables([kept, added])

    b = bsrc.map_batches(make_b, batch_format="pyarrow", zero_copy_batch=True)
    return snapshot_diff_pipeline(a, b, key_col="doc_id", text_col="text")


def duplicate_spans_docs(sf_dir: str):
    """Substring-level dedup (Lee et al., ACL'22 shape): the exact 8-token
    spans occurring >= 2 times corpus-wide, merged to maximal per-doc
    regions - cut the span, keep the document.  One postings row per token
    position; two keyed shuffles; no per-window Python in the reduces."""
    from .pipelines.spans import duplicate_spans_pipeline

    ds = _docs(sf_dir)
    return duplicate_spans_pipeline(ds, key_col="doc_id", text_col="text", n=8)


def multimodal_media_features(sf_dir: str):
    """Driver-exercised multimodal path (rows-only: media decode has no SQL
    mirror): deterministic media payloads synthesized from doc_id in REAL
    uncompressed formats (PPM/PGM/PNG/WAV/Y4M + a stub jpeg lane), routed to
    the three actor-pool stages - image decode -> pixel-block embeddings,
    audio -> windowed-RMS features, video -> sampled-frame digests - and
    summarized to one deterministic fingerprint row per media id."""
    import numpy as np
    import pyarrow as pa

    from .stages.multimodal import (
        AudioFeatureStage,
        FrameSampleStage,
        ImageDecodeStage,
        synthesize_media_batch,
    )

    docs = _read(sf_dir, "documents", ["doc_id"])

    def synth(t: pa.Table) -> pa.Table:
        return synthesize_media_batch(
            {"id": t.column("doc_id").to_numpy(zero_copy_only=False)}
        )

    media = docs.map_batches(synth, batch_format="pyarrow", zero_copy_batch=True)

    def only(formats):
        fs = set(formats)

        def f(t: pa.Table) -> pa.Table:
            mask = pa.array([x in fs for x in t.column("format").to_pylist()])
            return t.filter(mask)

        return f

    imgs = media.map_batches(only(("ppm", "pgm", "png", "jpeg", "gif", "bmp")),
                             batch_format="pyarrow", zero_copy_batch=True)
    auds = media.map_batches(only(("wav",)), batch_format="pyarrow", zero_copy_batch=True)
    vids = media.map_batches(only(("y4m",)), batch_format="pyarrow", zero_copy_batch=True)

    img_out = imgs.map_batches(
        ImageDecodeStage, concurrency=2, batch_format="pyarrow", zero_copy_batch=True
    )
    aud_out = auds.map_batches(
        AudioFeatureStage, concurrency=2, batch_format="pyarrow", zero_copy_batch=True
    )
    vid_out = vids.map_batches(
        FrameSampleStage, concurrency=2, batch_format="pyarrow", zero_copy_batch=True
    )

    def img_sum(t: pa.Table) -> pa.Table:
        emb = t.column("embedding").to_pylist()
        return pa.table(
            {
                "media_id": t.column("media_id"),
                "kind": pa.array(["image"] * t.num_rows),
                "n_values": pa.array([len(e) for e in emb], pa.int64()),
                "fingerprint": pa.array(
                    [float(np.sum(e)) for e in emb], pa.float64()
                ),
            }
        )

    def aud_sum(t: pa.Table) -> pa.Table:
        f = t.column("features").to_pylist()
        return pa.table(
            {
                "media_id": t.column("media_id"),
                "kind": pa.array(["audio"] * t.num_rows),
                "n_values": pa.array([len(x) for x in f], pa.int64()),
                "fingerprint": pa.array([float(np.sum(x)) for x in f], pa.float64()),
            }
        )

    def vid_sum(t: pa.Table) -> pa.Table:
        # one row per sampled frame -> count frames + fold digests per media
        mids = t.column("media_id").to_numpy(zero_copy_only=False)
        digs = np.array(
            [int(d, 16) for d in t.column("digest").to_pylist()], dtype=np.uint64
        )
        order = np.argsort(mids, kind="stable")
        m_s, d_s = mids[order], digs[order]
        new = run_starts(m_s)
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, m_s.size))
        folded = [
            float(np.bitwise_xor.reduce(d_s[a:a + l].astype(np.uint64)) >> np.uint64(32))
            for a, l in zip(starts, lens)
        ]
        return pa.table(
            {
                "media_id": pa.array(m_s[starts], pa.int64()),
                "kind": pa.array(["video"] * len(starts)),
                "n_values": pa.array(lens.astype(np.int64)),
                "fingerprint": pa.array(folded, pa.float64()),
            }
        )

    out = (
        img_out.map_batches(img_sum, batch_format="pyarrow", zero_copy_batch=True)
        .union(aud_out.map_batches(aud_sum, batch_format="pyarrow", zero_copy_batch=True))
        .union(vid_out.map_batches(vid_sum, batch_format="pyarrow", zero_copy_batch=True))
    )
    return out


def dup_fraction_docs(sf_dir: str):
    """Per-doc duplication score: fraction of each doc's distinct shingles
    shared with at least one other doc (the RefinedWeb-style curation
    signal).  Two 24-byte postings shuffles, text never moves, exact
    integer output."""
    from .pipelines.postings import dup_fraction_pipeline

    ds = _docs(sf_dir)
    return dup_fraction_pipeline(ds, key_col="doc_id", text_col="text", ngram=3)


def simhash_docs(sf_dir: str):
    """64-bit SimHash per document (emitted as two 32-bit halves)."""
    from .pipelines.dedup import simhash_pipeline

    return simhash_pipeline(_docs(sf_dir), key_col="doc_id", text_col="text")


# -- similarity search -------------------------------------------------------

KNN_QUERY_IDS = tuple(range(10))
NEARDUP_COS_THRESHOLD = 0.4


def _query_vectors(sf_dir: str):
    """Pushed-down parquet read of just the query rows (prune at the read)."""
    import pyarrow.parquet as pq

    return pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", list(KNN_QUERY_IDS))],
    )


def knn_cosine_top5(sf_dir: str):
    """Exact top-5 cosine neighbors for the first 10 vectors (broadcast matmul)."""
    from .pipelines.similarity import knn_bruteforce_pipeline

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return knn_bruteforce_pipeline(
        ds, id_col="vec_id", vec_col="embedding", query_ids=KNN_QUERY_IDS, k=5,
        queries_table=_query_vectors(sf_dir),
    )


def ivf_knn_top5(sf_dir: str):
    """IVF approximate top-5 (scale path).  Oracle-backed: the hash-sampled,
    integer-quantized k-means quantizer is deterministic and replayed in SQL
    (unrolled iterations); recall vs brute force is pytest-pinned.
    n_lists="auto" sizes the quantizer from the measured corpus count
    (n_lists ~ sqrt(N), 32 training vectors per centroid) so the same call
    is scale-honest at 10^6 or 10^12 rows."""
    from .pipelines.similarity import ivf_knn_pipeline

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return ivf_knn_pipeline(
        ds, id_col="vec_id", vec_col="embedding", query_ids=KNN_QUERY_IDS, k=5,
        n_lists="auto", n_probe=3, queries_table=_query_vectors(sf_dir),
    )


def embedding_quantize_stats(sf_dir: str):
    """Symmetric int8 quantization of the embedding table (the ANN
    shuffle-volume scale path, pipelines/quantize.py): per-vector exact
    integer summaries of the int8 codes of the row-normalized vectors.
    Calibration (global max |v6|) is an exact integer distributed reduce;
    the encode mirrors the SQL oracle's float64 expression tree op-for-op,
    so every code - and these stats - is bit-exact."""
    from .pipelines.quantize import embedding_quantize_pipeline

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return embedding_quantize_pipeline(ds, id_col="vec_id", vec_col="embedding")


def quantized_knn_top5(sf_dir: str):
    """Top-5 neighbors by EXACT int64 dot product of the int8 codes - the
    quantized ANN baseline (4x less broadcast + shuffle volume than float32;
    rank-equivalent to approximate cosine since codes quantize the
    NORMALIZED vectors symmetrically; recall vs exact cosine pytest-pinned
    in test_quantize.py)."""
    from .pipelines.quantize import quantized_knn_pipeline

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return quantized_knn_pipeline(
        ds, id_col="vec_id", vec_col="embedding", query_ids=KNN_QUERY_IDS, k=5,
        queries_table=_query_vectors(sf_dir),
    )


def srp_neardup(sf_dir: str):
    """SRP-LSH near-dup pairs (the 10^12-row scale path: only same-bucket
    pairs are scored).  Oracle-backed: exact-integer projections make the
    buckets bit-for-bit SQL-mirrorable (see pipeline docstring)."""
    from .pipelines.similarity import srp_neardup_pipeline

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return srp_neardup_pipeline(
        ds, id_col="vec_id", vec_col="embedding",
        threshold=NEARDUP_COS_THRESHOLD, n_planes=6,
    )


def embedding_neardup_pairs(sf_dir: str):
    """All vector pairs with cosine >= 0.4: exact chunk-pair block join (no
    driver materialization; srp_neardup is the subquadratic scale path)."""
    from .pipelines.similarity import cosine_neardup_pipeline

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return cosine_neardup_pipeline(
        ds, id_col="vec_id", vec_col="embedding", threshold=NEARDUP_COS_THRESHOLD
    )


def top_tokens_by_lang(sf_dir: str):
    """Per-LANGUAGE top-10 tokens: vectorized explode -> keyed (lang, token)
    count (fold pre-aggregates each block, so the wide step moves
    (lang, token, n) partials) -> per-group top-k via one lexsort + boundary
    rank per hash partition (pipelines/topk.py) - no global sort, no
    per-group Python."""
    import pyarrow as pa

    from .pipelines.topk import per_group_topk

    ds = _read(sf_dir, "documents", ["lang", "text"])

    def explode(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = pc.split_pattern(t.column("text"), " ")
        lang = t.column("lang").take(pc.list_parent_indices(toks))
        flat = pc.list_flatten(toks)
        ok = pc.not_equal(flat, "")
        return pa.table({"lang": lang.filter(ok), "token": flat.filter(ok)})

    counted = partitioned_group_agg(
        ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True),
        ["lang", "token"],
        [(None, "count")],
    )

    def rename(t: pa.Table) -> pa.Table:
        return pa.table(
            {"lang": t.column("lang"), "token": t.column("token"), "n": t.column("count()")}
        )

    counted = counted.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)
    return per_group_topk(
        counted, group_col="lang", value_col="n", tiebreak_col="token", k=10,
    )


def dd_rank_transform_prices(sf_dir: str):
    """Quantile normalization via DDSketch: every lineitem row maps to
    rank_lt = how many same-returnflag prices landed in strictly lower
    sketch buckets.  The build is the flagship two-level state merge; the
    transform is a broadcast probe; the output is exact integers over
    bucket counts - bit-exact against the SQL bucket mirror."""
    from .pipelines.rank import ddsketch_rank_pipeline

    ds = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_returnflag", "l_extendedprice"]
    )
    return ddsketch_rank_pipeline(
        ds,
        group_col="l_returnflag",
        value_col="l_extendedprice",
        carry_cols=["l_orderkey", "l_linenumber"],
        alpha=ALPHA,
    )


def dd_outlier_orders(sf_dir: str):
    """Quantile-threshold outlier filter: per-priority p99 DDSketch thresholds
    (pass 1, KB states over the shuffle) broadcast to a stateless pass-2
    filter - rows strictly above their group's p99 estimate survive.  The
    threshold is a deterministic function of the data, so survivors AND the
    threshold column are bit-exact vs the SQL bucket mirror."""
    from .pipelines.outlier import ddsketch_outlier_pipeline

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"])
    return ddsketch_outlier_pipeline(
        ds,
        group_col="o_orderpriority",
        value_col="o_totalprice",
        carry_cols=["o_orderkey"],
        q=0.99,
        alpha=ALPHA,
    )


def exact_median_chars_by_lang(sf_dir: str):
    """Sketch-guided EXACT selection: the exact floor-rank median of n_chars
    per lang from two streaming passes - the sketch's exact bucket counts
    locate the median's single bucket, and only that bucket's rows are
    scanned.  No global sort anywhere."""
    from .pipelines.selection import sketch_exact_quantile_pipeline

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return sketch_exact_quantile_pipeline(
        ds, group_col="lang", value_col="n_chars", q=0.5, alpha=ALPHA
    )


def dd_rollup_lang_source(sf_dir: str):
    """GROUP BY ROLLUP over the mergeability hierarchy: (lang, source) ->
    (lang) -> grand total, reading the corpus ONCE - each coarser level
    re-merges the previous level's KB-sized states.  Bit-exact at every
    level because bin counts / count / min / max / integer sums merge
    exactly in any order."""
    from .functions.specs import DDSketchSpec
    from .pipelines.rollup import rollup_sketch_pipeline

    ds = _read(sf_dir, "documents", ["lang", "source", "n_chars"])
    spec = DDSketchSpec(on="n_chars", name="s", relative_accuracy=ALPHA, quantiles=QUANTILES)
    return rollup_sketch_pipeline(ds, spec, ["lang", "source"])


def dd_cube_lang_source(sf_dir: str):
    """GROUP BY CUBE over the mergeability algebra: all four groupings of
    (lang, source) - (lang,source), (lang), (source), () - from ONE corpus
    read; every subset re-merges the same finest-level KB states."""
    from .functions.specs import DDSketchSpec
    from .pipelines.rollup import cube_sketch_pipeline

    ds = _read(sf_dir, "documents", ["lang", "source", "n_chars"])
    spec = DDSketchSpec(on="n_chars", name="s", relative_accuracy=ALPHA, quantiles=QUANTILES)
    return cube_sketch_pipeline(ds, spec, ["lang", "source"])


def dd_histogram_by_lang(sf_dir: str):
    """Sketch histogram export: the per-lang DDSketch bin tables as rows
    (lang, k, cnt) - the queryable twin of the proto store serialization.
    Bin counts are exact-in-any-order adds -> bit-exact GROUP BY mirror."""
    from .pipelines.histogram import sketch_histogram_pipeline

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return sketch_histogram_pipeline(ds, group_col="lang", value_col="n_chars", alpha=ALPHA)


SAMPLE_K_GLOBAL = 64
SAMPLE_K_PER_LANG = 10
SAMPLE_SEED = 11


def uniform_sample_docs(sf_dir: str):
    """Exactly-64 global uniform sample: the 64 docs with the smallest
    hash64(doc_id) - layout/run/cluster-invariant, per-block prefiltered so
    the sort sees at most 64 x blocks rows."""
    from .stages.sampling import bottomk_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return bottomk_sample(ds, id_col="doc_id", k=SAMPLE_K_GLOBAL, seed=SAMPLE_SEED)


def uniform_sample_per_lang(sf_dir: str):
    """Exactly-10-per-lang uniform sample (bottom-k by hash within each
    group): per-(block, group) prefilter -> tiny rank shuffle."""
    from .stages.sampling import bottomk_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return bottomk_sample(
        ds, id_col="doc_id", k=SAMPLE_K_PER_LANG, seed=SAMPLE_SEED, group_col="lang"
    )


MIX_SEED = 17


def mixture_rebalance_docs(sf_dir: str):
    """Rebalance the corpus to TARGET language proportions (the training-mix
    step): integer weights w = 1 + ascii(lang's last char) % 3 per lang, the
    binding lang chosen by exact rational argmin c/w (cross-multiplied
    Python ints), per-lang quota k = w * c*/w* by integer floor division,
    and each lang keeps its k docs with the smallest hash64(doc_id) — all
    mirrored bit-for-bit in SQL."""
    from .stages.sampling import mixture_rebalance

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    langs = [r["lang"] for r in partitioned_group_agg(ds, "lang", []).take_all()]
    weights = {l: 1 + ord(l[-1]) % 3 for l in langs}
    return mixture_rebalance(
        ds, id_col="doc_id", group_col="lang", weights=weights, seed=MIX_SEED
    )


def dd_bucketize_prices(sf_dir: str):
    """Equi-depth discretization: every lineitem price maps to its
    returnflag-group quartile bucket (thresholds = the group sketch's
    p25/p50/p75 estimates, broadcast once)."""
    from .pipelines.outlier import ddsketch_bucketize_pipeline

    ds = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_returnflag", "l_extendedprice"]
    )
    return ddsketch_bucketize_pipeline(
        ds,
        group_col="l_returnflag",
        value_col="l_extendedprice",
        carry_cols=["l_orderkey", "l_linenumber"],
        quantiles=(0.25, 0.5, 0.75),
        alpha=ALPHA,
    )


def dd_drift_train_val(sf_dir: str):
    """Distribution drift between two corpus snapshots (here: the train and
    val splits) from sketch bucket histograms alone - exact-integer total
    variation (cross-multiplied counts), no raw-row comparison anywhere."""
    import pyarrow.compute as pc

    from .pipelines.drift import sketch_drift_pipeline
    from .stages.sampling import assign_split

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    ds = assign_split(ds, id_col="doc_id", splits=SPLITS, seed=0)

    def keep(name):
        def f(t):
            return t.filter(pc.equal(t.column("split"), name))

        return f

    a = ds.map_batches(keep("train"), batch_format="pyarrow", zero_copy_batch=True)
    b = ds.map_batches(keep("val"), batch_format="pyarrow", zero_copy_batch=True)
    return sketch_drift_pipeline(
        a, b, group_col="lang", value_col="n_chars", alpha=ALPHA
    )


def dd_ks_train_val(sf_dir: str):
    """Kolmogorov-Smirnov drift between the train and val splits from
    sketch bucket histograms: max cross-multiplied cumulative gap (exact
    integers), one float division — WHERE the mass shifted, complementing
    the TVD's how-much."""
    import pyarrow.compute as pc

    from .pipelines.drift import sketch_ks_pipeline
    from .stages.sampling import assign_split

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    ds = assign_split(ds, id_col="doc_id", splits=SPLITS, seed=0)

    def keep(name):
        def f(t):
            return t.filter(pc.equal(t.column("split"), name))

        return f

    a = ds.map_batches(keep("train"), batch_format="pyarrow", zero_copy_batch=True)
    b = ds.map_batches(keep("val"), batch_format="pyarrow", zero_copy_batch=True)
    return sketch_ks_pipeline(a, b, group_col="lang", value_col="n_chars", alpha=ALPHA)


WEIGHTED_SAMPLE_K = 32
WEIGHTED_SAMPLE_SEED = 13


def weighted_sample_docs(sf_dir: str):
    """Exactly-32 weighted sample without replacement (Efraimidis-Spirakis
    priorities, weight = n_chars): sample documents proportional to length,
    deterministically - the log2/div priority is bit-identical in numpy and
    DuckDB, so membership is oracle-verified row-for-row."""
    from .stages.sampling import weighted_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return weighted_sample(
        ds, id_col="doc_id", weight_col="n_chars",
        k=WEIGHTED_SAMPLE_K, seed=WEIGHTED_SAMPLE_SEED,
    )


LM_TOP_K = 1000


def bigram_lm_scores(sf_dir: str):
    """LM-proxy quality score per document: global top-1000 bigram table
    (one groupby-sum shuffle + sort-limit, broadcast once) -> per-doc sum of
    floor(log2(1+count)*1000) over its bigrams.  Integer weights make the
    sums exact in any order; numpy log2 == DuckDB log2 on this platform, so
    the whole scorer is oracle-verified bit-for-bit."""
    from .pipelines.lmscore import bigram_lm_score_pipeline

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return bigram_lm_score_pipeline(
        ds, id_col="doc_id", text_col="text", top_k=LM_TOP_K
    )


# -- deterministic splitting / sampling --------------------------------------

SPLITS = {"train": 0.8, "val": 0.1, "test": 0.1}
STRAT_RATES = {"en": 0.25, "zh": 1.0}  # keep all rare zh, 1/4 of en
STRAT_DEFAULT = 0.5


def split_counts_by_lang(sf_dir: str):
    """Deterministic train/val/test routing (hash64(doc_id) vs exact integer
    thresholds - reproducible across any layout/run/cluster size), counted
    per (lang, split).  Per-block pre-agg -> tiny (lang, split, n) shuffle."""
    import pyarrow as pa

    from .stages.sampling import assign_split

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    ds = assign_split(ds, id_col="doc_id", splits=SPLITS, seed=0)
    counted = partitioned_group_agg(ds, ["lang", "split"], [(None, "count")])

    def rename(t: pa.Table) -> pa.Table:
        return pa.table(
            {"lang": t.column("lang"), "split": t.column("split"), "n": t.column("count()")}
        )

    return counted.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


PACK_MAX_TOKENS = 4096
PACK_PARTITIONS = 16


def pack_sequences_docs(sf_dir: str):
    """Concat-and-split sequence packing of documents into 4096-token
    training sequences (n_chars as the token proxy), packed in deterministic
    doc-id order inside 16 hash partitions.  The per-partition prefix sum is
    a SQL window cumsum, so the full packing is verified row-for-row."""
    from .pipelines.packing import pack_sequences_pipeline

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return pack_sequences_pipeline(
        ds, id_col="doc_id", tokens_col="n_chars",
        max_tokens=PACK_MAX_TOKENS, num_partitions=PACK_PARTITIONS,
    )


def stratified_sample_docs(sf_dir: str):
    """Per-lang deterministic sampling (25% of en, 100% of zh, 50% default):
    the exact row subset is a pure function of doc_id - verified row-for-row
    against the SQL mirror of the same integer thresholds."""
    from .stages.sampling import stratified_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    return stratified_sample(
        ds, id_col="doc_id", group_col="lang",
        rates=STRAT_RATES, default_rate=STRAT_DEFAULT, seed=7,
    )


# -- text analysis -----------------------------------------------------------

def token_stats_by_lang(sf_dir: str):
    """Per-lang token/char totals (RE2 token runs, vectorized)."""
    import pyarrow as pa

    from .stages.text import token_stats

    ds = _read(sf_dir, "documents", ["lang", "text"])
    with_counts = ds.map_batches(
        lambda t: token_stats(t, text_col="text").drop_columns(["text"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    agg = partitioned_group_agg(
        with_counts, "lang", [(None, "count"), ("n_tokens", "sum"), ("n_chars_", "sum")]
    )
    return agg.map_batches(_token_stats_finalize, batch_format="pyarrow")


def _token_stats_finalize(t):
    import pyarrow as pa
    import pyarrow.compute as pc

    docs = pc.cast(t.column("count()"), pa.int64())
    toks = pc.cast(t.column("sum(n_tokens)"), pa.int64())
    chars = pc.cast(t.column("sum(n_chars_)"), pa.int64())
    mean = pc.divide(pc.cast(toks, pa.float64()), pc.cast(docs, pa.float64()))
    return pa.Table.from_arrays(
        [t.column("lang"), docs, toks, chars, mean],
        names=["lang", "docs", "total_tokens", "total_chars", "mean_tokens"],
    )


def top_tokens(sf_dir: str):
    """Exact top-20 tokens by corpus frequency: vectorized token explosion in
    map_batches -> groupby count (the wide step moves (token,count) partials,
    not text) -> global sort + limit.  Ties break by token asc."""
    import pyarrow as pa

    ds = _read(sf_dir, "documents", ["text"])

    def explode(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        flat = pc.list_flatten(pc.split_pattern(t.column("text"), " "))
        return pa.table({"token": flat.filter(pc.not_equal(flat, ""))})

    # token domain is open-ended: bounded-partition fold (pipelines/fold.py),
    # which ships per-block (token, partial count) rows, never raw tokens
    counted = partitioned_group_agg(
        ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True),
        "token",
        [(None, "count")],
    )

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"token": t.column("token"), "n": t.column("count()")})

    counted = counted.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)
    return counted.sort(["n", "token"], descending=[True, False]).limit(20)


def curation_counts_by_lang(sf_dir: str):
    """Composed training-data curation pipeline: quality filter (vectorized
    predicate inside map_batches) -> full-row exact dedup -> per-lang counts.
    The end-to-end shape a dataset-curation job takes at 100 TB."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .pipelines.dedup import exact_dedup_rows_pipeline
    from .stages.text import quality_scores

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def filter_quality(t: pa.Table) -> pa.Table:
        t = quality_scores(t, text_col="text")
        keep = pc.and_(
            pc.greater_equal(t.column("alpha_ratio"), 0.5),
            pc.greater_equal(t.column("n_tokens"), 20),
        )
        return t.filter(keep).select(["doc_id", "lang", "text"])

    filtered = ds.map_batches(filter_quality, batch_format="pyarrow", zero_copy_batch=True)
    deduped = exact_dedup_rows_pipeline(filtered, key_col="doc_id", text_col="text")
    counted = partitioned_group_agg(deduped, "lang", [(None, "count")])
    return counted.map_batches(
        lambda t: pa.table({"lang": t.column("lang"),
                            "kept": pc.cast(t.column("count()"), pa.int64())}),
        batch_format="pyarrow",
    )


def curation_split_counts(sf_dir: str):
    """The FULL curation composition a pretraining-data job runs: quality
    filter -> full-row exact dedup -> deterministic train/val/test routing ->
    counts per (lang, split).  Every stage is the scale-shaped operator the
    individual queries verify; this query verifies their composition."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .pipelines.dedup import exact_dedup_rows_pipeline
    from .stages.sampling import assign_split
    from .stages.text import quality_scores

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def filter_quality(t: pa.Table) -> pa.Table:
        t = quality_scores(t, text_col="text")
        keep = pc.and_(
            pc.greater_equal(t.column("alpha_ratio"), 0.5),
            pc.greater_equal(t.column("n_tokens"), 20),
        )
        return t.filter(keep).select(["doc_id", "lang", "text"])

    filtered = ds.map_batches(filter_quality, batch_format="pyarrow", zero_copy_batch=True)
    deduped = exact_dedup_rows_pipeline(filtered, key_col="doc_id", text_col="text")
    split = assign_split(deduped, id_col="doc_id", splits=SPLITS, seed=0)
    counted = partitioned_group_agg(split, ["lang", "split"], [(None, "count")])
    return counted.map_batches(
        lambda t: pa.table(
            {
                "lang": t.column("lang"),
                "split": t.column("split"),
                "kept": pc.cast(t.column("count()"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def corr_tokens_chars_by_lang(sf_dir: str):
    """Pearson correlation of (n_chars, n_tokens) per lang via the exact
    sufficient-statistics aggregate: six integer sums merge in any order,
    finalized with python-int arithmetic and ONE float conversion - the
    correlation itself is bit-exact vs SQL."""
    import pyarrow as pa

    from .pipelines.stats import grouped_corr_pipeline
    from .stages.text import _re_count

    ds = _read(sf_dir, "documents", ["lang", "text", "n_chars"])

    def derive(t: pa.Table) -> pa.Table:
        t = t.append_column("n_tokens", _re_count(t.column("text"), "[^ ]+"))
        return t.drop_columns(["text"])

    return grouped_corr_pipeline(
        ds, group_col="lang", x_col="n_chars", y_col="n_tokens", derive=derive
    )


def trimmed_mean_chars_by_lang(sf_dir: str):
    """Per-lang 10%-trimmed mean of doc length: both trim cutoffs are EXACT
    floor-rank quantiles from the sketch-guided selection (no global sort),
    the band filter pre-aggregates exact int64 (count, sum) per block, and
    the mean is one float division of two exact integers."""
    from .pipelines.robust import trimmed_mean_pipeline

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return trimmed_mean_pipeline(
        ds, group_col="lang", value_col="n_chars", lo_q=0.1, hi_q=0.9, alpha=ALPHA
    )


PMI_TOP_K = 100
PMI_MIN_COUNT = 3


def pmi_collocations_docs(sf_dir: str):
    """Top-100 PMI collocations over adjacent-token bigrams (count >= 3,
    ranked count DESC / bigram ASC): two block-preaggregated count
    shuffles, KB top-K + needed-unigram broadcasts, PMI = one exact-int
    divide + one libm ln per pair (pipelines/pmi.py)."""
    from .pipelines.pmi import pmi_collocations_pipeline

    ds = _read(sf_dir, "documents", ["text"])
    return pmi_collocations_pipeline(
        ds, text_col="text", top_k=PMI_TOP_K, min_count=PMI_MIN_COUNT
    )


def mode_event_type_by_user(sf_dir: str):
    """Per-user MODE of event_type with deterministic ties (most frequent
    type, ties -> smallest string): block Arrow group_by pre-agg -> tiny
    (user, type, count) shuffle -> the per-group top-1 pushdown plan."""
    from .pipelines.topk import grouped_mode_pipeline

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    return grouped_mode_pipeline(ds, group_col="user_id", value_col="event_type")


def gini_event_diversity_by_user(sf_dir: str):
    """Per-user Gini diversity of the event-type mix — the exact-rational
    entropy surrogate ((n^2 - sum c^2)/n^2, one float divide of exact
    integers).  Two count-only shuffles, no rows move."""
    from .pipelines.stats import grouped_gini_pipeline

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    return grouped_gini_pipeline(ds, group_col="user_id", value_col="event_type")


def token_frequency_spectrum(sf_dir: str):
    """Corpus count-of-counts (Zipf) spectrum: how many distinct tokens
    occur exactly freq times — the vocabulary-growth diagnostic and the
    Good-Turing smoothing input.  Two tiny count shuffles."""
    from .pipelines.pmi import token_frequency_spectrum_pipeline

    ds = _read(sf_dir, "documents", ["text"])
    return token_frequency_spectrum_pipeline(ds, text_col="text")


def lang_confusion_matrix(sf_dir: str):
    """Language-ID CONFUSION MATRIX: labeled lang x heuristic pred_lang
    cross counts — the model-eval staple, computed with the same RE2
    marker scoring as lang_id_docs (one keyed (lang, pred) count: block
    pre-agg, tiny (lang, pred, count) shuffle)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .stages.text import lang_id

    ds = _read(sf_dir, "documents", ["lang", "text"])

    def stage(t: pa.Table) -> pa.Table:
        return lang_id(t, text_col="text").select(["lang", "pred_lang"])

    labeled = ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)
    out = partitioned_group_agg(labeled, ["lang", "pred_lang"], [(None, "count")])
    return out.map_batches(
        lambda t: pa.table(
            {
                "lang": t.column("lang"),
                "pred_lang": t.column("pred_lang"),
                "n": pc.cast(t.column("count()"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


WEEK_US = 7 * 86400 * 1_000_000
_COHORT_M = 1_000_000  # composite key multiplier; epoch weeks < 10^4 << M


def cohort_retention(sf_dir: str):
    """Cohort RETENTION analysis: users bucket by first-activity week; each
    (cohort_week, active_week) cell counts DISTINCT active users — the
    product-analytics staple.  Composition of existing scale shapes: a
    keyed min-fold finds each user's cohort, one hash equi-join
    attaches it to every event, and the exact-distinct pair plan counts
    users per composite (cohort, week) cell without a hot-group bottleneck."""
    import pyarrow as pa

    from .pipelines.distinct import exact_distinct_pipeline
    from .pipelines.joins import hash_join_pipeline

    events = _read(sf_dir, "events", ["user_id", "ts"])

    def to_weeks(t: pa.Table) -> pa.Table:
        us = t.column("ts").cast(pa.int64())
        import pyarrow.compute as pc

        return pa.table(
            {
                "user_id": t.column("user_id"),
                "week": pc.divide(us, WEEK_US),  # int64 floor divide (ts >= 0)
            }
        )

    ev = events.map_batches(to_weeks, batch_format="pyarrow", zero_copy_batch=True)
    # user domain is open-ended at corpus scale -> bounded-partition fold
    firsts = partitioned_group_agg(ev, "user_id", [("week", "min")])

    def rename_first(t: pa.Table) -> pa.Table:
        return pa.table(
            {"_ku": t.column("user_id"), "cohort": t.column("min(week)")}
        )

    fr = firsts.map_batches(rename_first, batch_format="pyarrow", zero_copy_batch=True)
    joined = hash_join_pipeline(
        ev, fr, left_key="user_id", right_key="_ku",
        left_cols=["user_id", "week"], right_payload=["cohort"], how="inner",
    )

    def composite(t: pa.Table) -> pa.Table:
        import numpy as np

        w = t.column("week").to_numpy(zero_copy_only=False).astype(np.int64)
        c = t.column("cohort").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "gw": pa.array(c * _COHORT_M + w),
                "user_id": t.column("user_id"),
            }
        )

    cells = exact_distinct_pipeline(
        joined.map_batches(composite, batch_format="pyarrow", zero_copy_batch=True),
        group_col="gw",
        value_col="user_id",
    )

    def finalize(t: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        gw = t.column("gw").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "cohort_week": pa.array(gw // _COHORT_M),
                "active_week": pa.array(gw % _COHORT_M),
                "active_users": pc.cast(t.column("n_distinct"), pa.int64()),
            }
        )

    return cells.map_batches(finalize, batch_format="pyarrow")


def chi2_lang_source(sf_dir: str):
    """Pearson chi-square independence cells for lang x source — the
    corpus-composition drift test.  Per observed cell: count, row/col
    totals, grand total and the chi2 contribution in the overflow-free
    rational form (obs*n - rt*ct)^2 / (rt*ct*n): exact Python-int
    numerator/denominator, one correctly-rounded double conversion each
    and one divide, mirroring the SQL op order exactly."""
    from .pipelines.stats import chi2_contingency_pipeline

    ds = _read(sf_dir, "documents", ["lang", "source"])
    return chi2_contingency_pipeline(ds, a_col="lang", b_col="source")


def quality_scores_docs(sf_dir: str):
    """Per-doc quality signals (alpha/digit/punct/space ratios, token stats)."""
    from .stages.text import quality_scores

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda t: quality_scores(t, text_col="text").drop_columns(["text"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def lang_id_docs(sf_dir: str):
    """Heuristic language ID per doc (marker-regex argmax)."""
    from .stages.text import lang_id

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda t: lang_id(t, text_col="text").drop_columns(["text"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def tfidf_top_terms(sf_dir: str):
    """Each document's top-3 TF-IDF terms: distributed DF pass -> broadcast
    vocab -> per-doc ranking by IEEE-exact tf/df with term tie-break."""
    from .pipelines.tfidf import tfidf_topk_pipeline

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return tfidf_topk_pipeline(ds, key_col="doc_id", text_col="text", k=3)


def decontaminate_docs(sf_dir: str):
    """Benchmark decontamination: training docs (all documents) sharing any
    word 8-gram with the 'benchmark' subset doc_id % 23 == 0.  Benchmark
    grams broadcast via ray.put; training side streams one map_batches."""
    import numpy as np
    import pyarrow as pa

    from .pipelines.decontam import decontaminate_pipeline

    train = _read(sf_dir, "documents", ["doc_id", "text"])

    def pick_bench(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(did % 23 == 0))

    bench = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        pick_bench, batch_format="pyarrow", zero_copy_batch=True
    )
    return decontaminate_pipeline(
        train, bench, key_col="doc_id", text_col="text", ngram=8
    )



def repetition_scores_docs(sf_dir: str):
    """Gopher-style within-doc repetition signals (exact integer
    numerators): duplicate tokens/trigrams + top-bigram coverage, one
    stateless vectorized map pass (pipelines/repetition.py)."""
    from .pipelines.repetition import repetition_scores_pipeline

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return repetition_scores_pipeline(ds, key_col="doc_id", text_col="text")



def kmeans_clusters_embeddings(sf_dir: str):
    """Integer k-means (k=8, 3 Lloyd rounds) over the SQ8-quantized
    embeddings: each round is one streaming assignment pass + a KB
    centroid reduce; distances/centroids exact integers end-to-end
    (pipelines/kmeans.py)."""
    from .pipelines.kmeans import kmeans_pipeline

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return kmeans_pipeline(ds, id_col="vec_id", vec_col="embedding", k=8, iters=3)



def funnel_click_purchase(sf_dir: str):
    """Two-stage funnel: users with a click, and those purchasing within an
    hour of their FIRST click (pipelines/windows.py::funnel_pipeline —
    filter-projected shuffle, per-partition vectorized funnel, counts only)."""
    from .pipelines.windows import funnel_pipeline

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    return funnel_pipeline(
        ds,
        user_col="user_id",
        ts_col="ts",
        type_col="event_type",
        first_type="click",
        next_type="purchase",
        window_s=3600,
    )


def user_value_ranks(sf_dir: str):
    """Tie-aware window ranks per user: rank / dense_rank / ntile(4) over
    event value DESC (pipelines/windows.py::ranked_analytics_pipeline) —
    the tie-handling complement of user_running_totals' row_number."""
    from .pipelines.windows import ranked_analytics_pipeline

    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])
    return ranked_analytics_pipeline(
        ds,
        key_col="user_id",
        value_col="value",
        tiebreak_col="event_id",
        carry_cols=["event_id"],
        ntile=4,
    )


def semdedup_embeddings(sf_dir: str):
    """SemDeDup semantic dedup (cluster-then-prune, Abbas et al. 2023):
    integer k-means buckets the embedding space, then each cluster prunes
    rows whose cosine to a smaller-id cluster-mate rounds to >= 0.35
    (pipelines/semdedup.py).  is_dup=0 rows are the curated corpus."""
    from .pipelines.semdedup import semdedup_pipeline

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return semdedup_pipeline(
        ds, id_col="vec_id", vec_col="embedding", k=8, iters=3, threshold=0.35
    )


def zscore_chars_by_lang(sf_dir: str):
    """Per-lang z-score standardization of doc lengths in exact milli-units:
    two streaming passes, exact integer group sums, one float divide/sqrt
    in SQL-identical order (pipelines/stats.py::grouped_zscore_pipeline)."""
    from .pipelines.stats import grouped_zscore_pipeline

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return grouped_zscore_pipeline(
        ds, group_col="lang", value_col="n_chars", carry_cols=["doc_id"]
    )


def mad_outlier_docs(sf_dir: str):
    """Robust outlier filter: docs whose n_chars deviates from their lang's
    EXACT median by more than 2x the lang's EXACT median-absolute-deviation.
    Both medians via the sketch-guided exact selection (no global sort);
    integer compare end-to-end (pipelines/robust.py)."""
    from .pipelines.robust import mad_outlier_pipeline

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return mad_outlier_pipeline(
        ds, group_col="lang", value_col="n_chars", k=2, alpha=ALPHA,
        carry_cols=["doc_id"],
    )


def bloom_prefiltered_revenue_join(sf_dir: str):
    """Bloom-semi-join pushdown: the HIGH-VALUE orders subset (~13% of
    orders) is sketched into a broadcast Bloom filter that prunes lineitem
    rows BEFORE the join's all-to-all; the exact hash join then removes the
    filter's false positives, so the result — and the oracle — is the plain
    JOIN with a WHERE on the build side (pipelines/joins.py::
    bloom_prefilter_join_pipeline).  Same reduce as the other revenue-join
    plans; a third driver-green plan-equivalence proof."""
    import pyarrow.compute as pc_

    from .pipelines.joins import bloom_prefilter_join_pipeline

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"])

    def high_value(t):
        keep = pc_.greater_equal(t.column("o_totalprice"), 400000.0)
        return t.filter(keep).select(["o_orderkey", "o_orderpriority"])

    build = orders.map_batches(high_value, batch_format="pyarrow", zero_copy_batch=True)
    joined = bloom_prefilter_join_pipeline(
        li,
        build,
        left_key="l_orderkey",
        right_key="o_orderkey",
        left_cols=["l_extendedprice", "l_discount"],
        right_payload=["o_orderpriority"],
        how="inner",
    )
    return _revenue_by_priority_reduce(joined)


def top_priced_lineitems(sf_dir: str):
    """Global distributed sort + limit: the 100 most expensive lineitems
    with a fully deterministic tiebreak — Ray Data's native sort operator
    (range-partitioned exchange) surfaced directly."""
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_extendedprice"])
    return ds.sort(
        ["l_extendedprice", "l_orderkey", "l_linenumber"],
        descending=[True, False, False],
    ).limit(100)


_PII_ENRICH_SQL = (
    "coalesce(text,'') || ' contact user' || CAST(doc_id AS VARCHAR)"
    " || '@mail.example.com at 10.' || CAST(doc_id % 200 AS VARCHAR)"
    " || '.0.42 or 555-123-4567'"
    " || CASE WHEN doc_id % 3 = 0 THEN ' also bob@example.org' ELSE '' END"
)


def gopher_quality_filter_docs(sf_dir: str):
    """Gopher-rule quality gate (Rae et al. 2021 §A1.1 style): per doc a
    rule-failure BITMASK over the exact quality signals (token count band,
    mean token length band, alpha ratio floor, punct ratio cap) and the
    resulting keep flag.  All thresholds compare bit-identical float64s on
    both sides, so the mask is SQL-exact."""
    import numpy as np
    import pyarrow as pa

    from .stages.text import quality_scores

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def stage(t: pa.Table) -> pa.Table:
        q = quality_scores(t, text_col="text")
        toks = q.column("n_tokens").to_numpy(zero_copy_only=False)
        mtl = q.column("mean_token_len").to_numpy(zero_copy_only=False)
        alpha = q.column("alpha_ratio").to_numpy(zero_copy_only=False)
        punct = q.column("punct_ratio").to_numpy(zero_copy_only=False)
        mask = (
            ((toks < 10) | (toks > 1000)).astype(np.int64)
            | (((mtl < 2.0) | (mtl > 12.0)).astype(np.int64) << 1)
            | ((alpha < 0.55).astype(np.int64) << 2)
            | ((punct > 0.2).astype(np.int64) << 3)
        )
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "fail_mask": pa.array(mask),
                "keep": pa.array((mask == 0).astype(np.int64)),
            }
        )

    return ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)


_BPE_ISH = r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+"


def bpe_token_counts_docs(sf_dir: str):
    """Whitespace vs BPE-ish token counts per doc.  The BPE-ish count uses a
    GPT-2-style segmentation regex (letters / digits / punctuation runs with
    leading-space absorption; RE2 has no lookahead so contraction splits are
    approximated) — the standard cheap estimator of trained-tokenizer token
    counts for data budgeting.  Both sides count the SAME RE2 pattern."""
    import pyarrow as pa

    from .stages.text import _re_count

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def stage(t: pa.Table) -> pa.Table:
        col = t.column("text")
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "ws_tokens": _re_count(col, "[^ ]+"),
                "bpe_ish_tokens": _re_count(col, _BPE_ISH),
            }
        )

    return ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)


def _c4_enrich_lines(flat, ord1):
    """Ordinal-keyed rule-hit synthesis for the C4 filter's driver query.

    The synthetic corpus is punctuation-free prose, so every raw line would
    fail the terminal-punctuation rule; this transform (mirrored verbatim in
    the oracle's CTE) appends '.' to every 3rd line and a boilerplate ' {'
    to every 5th so all three C4 rules fire on real data."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    lut = np.array(["", ".", " {", ". {"], dtype=object)
    idx = (ord1 % 3 == 0).astype(np.int64) + 2 * (ord1 % 5 == 0).astype(np.int64)
    return pc.binary_join_element_wise(flat, pa.array(lut[idx].tolist(), pa.string()), "")


def c4_line_filter_docs(sf_dir: str):
    """C4-style line-level quality filter (Raffel et al. 2020 §2.2): per doc
    the line count, kept-line count and the XOR sha-fold of the exact kept
    (ordinal, bytes) pairs.  The single-line synthetic docs are first
    rewritten into multi-line form (newline after every 7th token, via ONE
    RE2 replace mirrored in the oracle), then `_c4_enrich_lines` plants
    deterministic rule hits.  All predicates are single Arrow RE2 kernels
    over every line of the batch."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .stages.text import line_filter_stats

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def stage(t: pa.Table) -> pa.Table:
        txt = pc.replace_substring_regex(
            pc.fill_null(pc.cast(t.column("text"), pa.string()), ""),
            pattern=r"((?:[^ ]+ ){6}[^ ]+) ",
            replacement="\\1\n",
        )
        t2 = pa.table({"doc_id": t.column("doc_id"), "text": txt})
        return line_filter_stats(
            t2, key_col="doc_id", text_col="text", line_transform=_c4_enrich_lines
        )

    return ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)


def p99_length_filter_by_lang(sf_dir: str):
    """Sketch-guided per-group percentile OUTLIER filter: the exact per-lang
    p99 of n_chars from two streaming passes (no global sort — the sketch's
    exact bucket counts locate the p99 bucket, one filtered scan selects it),
    then a broadcast cutoff filter keeps docs at-or-below their lang's p99
    and counts the survivors.  The standard 'truncate pathological lengths'
    curation gate, exact at any scale."""
    import numpy as np
    import pyarrow as pa
    import ray

    from .pipelines.corpus import group_lookup
    from .pipelines.selection import sketch_exact_quantile_pipeline

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    cuts_ds = sketch_exact_quantile_pipeline(
        ds, group_col="lang", value_col="n_chars", q=0.99, alpha=ALPHA
    )
    cuts = {r["lang"]: r["exact_p99"] for r in cuts_ds.take_all()}  # one row/lang
    ref = ray.put(cuts)

    def keep_rows(t: pa.Table) -> pa.Table:
        codes, _, cut = group_lookup(t, "lang", ray.get(ref), np.inf, np.float64)
        vals = t.column("n_chars").to_numpy(zero_copy_only=False).astype(np.float64)
        return t.filter(pa.array(vals <= cut[codes]))

    import pyarrow.compute as pc

    kept = ds.map_batches(keep_rows, batch_format="pyarrow", zero_copy_batch=True)
    out = partitioned_group_agg(kept, "lang", [(None, "count"), ("n_chars", "sum")])
    return out.map_batches(
        lambda t: pa.table(
            {
                "lang": t.column("lang"),
                "n_kept": pc.cast(t.column("count()"), pa.int64()),
                "kept_chars": pc.cast(t.column("sum(n_chars)"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def pii_scrub_docs(sf_dir: str):
    """PII detect + redact over documents.  The synthetic corpus carries no
    PII, so each row is first enriched with deterministic doc_id-derived
    email/IP/phone strings (mirrored verbatim in the oracle's text_expr);
    the scrub then counts and redacts them, and the redacted-text sha64
    verifies the exact output bytes."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from .stages.text import pii_scrub

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def enrich_and_scrub(t: pa.Table) -> pa.Table:
        did = t.column("doc_id").to_numpy(zero_copy_only=False)
        add = np.char.add
        suffix = add(" contact user", did.astype(np.str_))
        suffix = add(suffix, "@mail.example.com at 10.")
        suffix = add(suffix, (did % 200).astype(np.str_))
        suffix = add(suffix, ".0.42 or 555-123-4567")
        suffix = add(
            suffix, np.where(did % 3 == 0, " also bob@example.org", "")
        )
        text2 = pc.binary_join_element_wise(
            pc.fill_null(t.column("text"), ""),
            pa.array(suffix.astype(object), pa.string()),
            "",
        )
        t2 = pa.table({"doc_id": t.column("doc_id"), "text": text2})
        return pii_scrub(t2, key_col="doc_id", text_col="text")

    return ds.map_batches(enrich_and_scrub, batch_format="pyarrow", zero_copy_batch=True)


def line_dedup_docs(sf_dir: str):
    """Corpus-wide duplicated-line removal (CCNet/RefinedWeb boilerplate
    pass): lines whose exact bytes occur >= 3 times anywhere in the corpus
    are dropped from every doc.  Two streaming passes — a (hash, count)
    pre-agg shuffle finds the boilerplate set, which broadcasts once; the
    filter pass emits per doc the line count, kept count and the XOR
    sha-fold of the exact kept (ordinal, bytes) pairs.  The single-line
    synthetic docs are first rewritten into multi-line form (newline after
    every 7th token — same RE2 rewrite as the C4 filter query, mirrored in
    the oracle CTE)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .pipelines.linededup import line_dedup_pipeline

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def to_lines(t: pa.Table) -> pa.Table:
        txt = pc.replace_substring_regex(
            pc.fill_null(pc.cast(t.column("text"), pa.string()), ""),
            pattern=r"((?:[^ ]+ ){6}[^ ]+) ",
            replacement="\\1\n",
        )
        return pa.table({"doc_id": t.column("doc_id"), "text": txt})

    ds2 = ds.map_batches(to_lines, batch_format="pyarrow", zero_copy_batch=True)
    return line_dedup_pipeline(ds2, key_col="doc_id", text_col="text", min_count=3)


def winnow_fingerprints_docs(sf_dir: str):
    """Winnowing fingerprints per doc (char 8-grams, window 4)."""
    from .stages.text import winnow_fingerprints

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda t: winnow_fingerprints(t, key_col="doc_id", text_col="text"),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def moments_chars_by_lang(sf_dir: str):
    """Per-lang exact population moments (mean, variance, skewness, excess
    kurtosis) of doc length via 16-bit-limb-decomposed 128-bit power sums
    (pipelines/stats.py, vectorized umul128): S1..S4 are exact integers at
    ANY corpus size, merged by pure addition; every float is a
    fixed-op-order expression mirrored verbatim in the SQL oracle."""
    from .pipelines.stats import grouped_moments_pipeline

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return grouped_moments_pipeline(ds, group_col="lang", value_col="n_chars")


def mannwhitney_chars_en_de(sf_dir: str):
    """Mann–Whitney U (doc length, 'en' vs 'de'): tie-aware midrank algebra
    over per-VALUE counts, so 2·U1 is an exact integer and the tie-corrected
    z is one fixed-op-order float chain (pipelines/stats.py) — the
    nonparametric 'did the length distribution shift?' test."""
    from .pipelines.stats import mannwhitney_u_pipeline

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return mannwhitney_u_pipeline(
        ds, group_col="lang", value_col="n_chars", group_a="en", group_b="de"
    )


def winsorized_mean_chars_by_lang(sf_dir: str):
    """Per-lang 10% winsorized mean of doc length: exact floor-rank
    cutoffs from the sketch-guided selection, values CLAMPED (not dropped)
    in a map-only pass, one tiny counts shuffle (pipelines/robust.py)."""
    from .pipelines.robust import winsorized_mean_pipeline

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return winsorized_mean_pipeline(
        ds, group_col="lang", value_col="n_chars", lo_q=0.1, hi_q=0.9, alpha=ALPHA
    )


def iqr_chars_by_lang(sf_dir: str):
    """Per-lang exact interquartile range of doc length: BOTH floor-rank
    quartiles from ONE sketch build + ONE candidate scan
    (pipelines/selection.py); iqr is pure integer subtraction."""
    import pyarrow as pa

    from .pipelines.selection import sketch_exact_quantiles_pipeline

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    quarts = sketch_exact_quantiles_pipeline(
        ds, group_col="lang", value_col="n_chars", qs=(0.25, 0.75), alpha=ALPHA
    )

    def derive(t: pa.Table) -> pa.Table:
        import numpy as np

        q1 = t.column("exact_p25").to_numpy(zero_copy_only=False).astype(np.int64)
        q3 = t.column("exact_p75").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "lang": t.column("lang"),
                "q1": pa.array(q1),
                "q3": pa.array(q3),
                "iqr": pa.array(q3 - q1),
            }
        )

    return quarts.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)


def customer_degree_histogram(sf_dir: str):
    """Distinct-supplier out-degree histogram of the customer->supplier
    purchase graph (pipelines/graph.py degree_histogram_pipeline): the
    power-law / super-node diagnostic run before choosing a graph
    partitioning; only id pairs shuffle, histograms fold as KB partials."""
    from .pipelines.graph import degree_histogram_pipeline

    return degree_histogram_pipeline(_cust_supp_edges(sf_dir))


def cc_components_graph(sf_dir: str):
    """Connected components of the UNDIRECTED customer–supplier purchase
    graph (node = 2·custkey / 2·suppkey+1): cluster = component's min node
    id via the dedup clustering engine (pipelines/cc.py — local contraction
    + pointer jumping); the oracle is a recursive-CTE min-label reachability
    (sf0.01-sized: the CTE materializes O(component²) pairs)."""
    from .pipelines.cc import connected_components_pipeline

    return connected_components_pipeline(
        _cust_supp_edges(sf_dir), a_col="src", b_col="dst"
    )


def spearman_chars_tokens(sf_dir: str):
    """Exact tie-aware Spearman rank correlation between doc length and
    token count (pipelines/stats.py): doubled midranks keep everything
    integer; the cross sum rides the umul128 16-bit limb lanes, marginal
    squares come from the domain-bounded per-value count folds; one
    KB lookup-array broadcast + a map-only second pass."""
    import pyarrow as pa

    from .pipelines.stats import spearman_rho_pipeline
    from .stages.text import _re_count

    ds = _read(sf_dir, "documents", ["text", "n_chars"])

    def derive(t: pa.Table) -> pa.Table:
        t = t.append_column("n_tokens", _re_count(t.column("text"), "[^ ]+"))
        return t.drop_columns(["text"])

    return spearman_rho_pipeline(ds, x_col="n_chars", y_col="n_tokens", derive=derive)


def ks_exact_chars_en_de(sf_dir: str):
    """EXACT two-sample Kolmogorov–Smirnov D between the 'en' and 'de' doc
    length distributions — integer cross-multiplied CDF gap max over the
    distinct-value domain (pipelines/stats.py), the exact companion to the
    sketch-histogram drift tests."""
    from .pipelines.stats import ks_exact_pipeline

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return ks_exact_pipeline(
        ds, group_col="lang", value_col="n_chars", group_a="en", group_b="de"
    )


def user_longest_daily_streak(sf_dir: str):
    """Per-user longest run of CONSECUTIVE active days + distinct active
    days (the gaps-and-islands engagement classic) via one (user, day)
    id-pair exchange and a boundary-vectorized island scan
    (pipelines/windows.py longest_streak_pipeline)."""
    import numpy as np
    import pyarrow as pa

    from .pipelines.windows import longest_streak_pipeline

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def derive(t: pa.Table) -> pa.Table:
        us = t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "day": pa.array(us // 86_400_000_000),
            }
        )

    days = ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)
    out = longest_streak_pipeline(days, key_col="user_id", day_col="day")
    return out.map_batches(
        lambda t: pa.table(
            {
                "user_id": t.column("key"),
                "n_active_days": t.column("n_active_days"),
                "longest_streak": t.column("longest_streak"),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def decile_table_chars_by_lang(sf_dir: str):
    """All nine exact floor-rank deciles of doc length per lang from ONE
    sketch build + ONE candidate scan (the multi-quantile exact selection
    unions every target bucket into a single broadcast filter) — the
    quantile-table primitive feeding length-bucket routing."""
    from .pipelines.selection import sketch_exact_quantiles_pipeline

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return sketch_exact_quantiles_pipeline(
        ds,
        group_col="lang",
        value_col="n_chars",
        qs=tuple(i / 10 for i in range(1, 10)),
        alpha=ALPHA,
    )


def users_active_even_and_odd_days(sf_dir: str):
    """Users active on BOTH an even and an odd calendar day (the set-
    intersection shape: activity-cohort overlap without shipping user
    lists — one per-(user, parity) count fold, filter both > 0)."""
    import numpy as np
    import pyarrow as pa

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def parity_counts(t: pa.Table) -> pa.Table:
        us = t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = us // 86_400_000_000
        u = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        odd = (day & 1).astype(np.int64)
        order = np.argsort(u, kind="stable")
        u_s, odd_s = u[order], odd[order]
        new = run_starts(u_s)
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, u_s.size)).astype(np.int64)
        n_odd = (
            np.add.reduceat(odd_s, starts) if starts.size else np.zeros(0, np.int64)
        )
        return pa.table(
            {
                "user_id": pa.array(u_s[starts]),
                "n_even": pa.array(lens - n_odd),
                "n_odd": pa.array(n_odd),
            }
        )

    summed = partitioned_group_sum(
        ds.map_batches(parity_counts, batch_format="pyarrow", zero_copy_batch=True),
        "user_id",
        ["n_even", "n_odd"],
    )

    def finalize(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ne = t.column("sum(n_even)")
        no = t.column("sum(n_odd)")
        keep = pc.and_(pc.greater(ne, 0), pc.greater(no, 0))
        return pa.table(
            {"user_id": t.column("user_id"), "n_even": ne, "n_odd": no}
        ).filter(keep)

    return summed.map_batches(finalize, batch_format="pyarrow")


def user_daily_value_locf(sf_dir: str):
    """Per-user daily closing value, forward-filled across every calendar
    day of the user's observed span (last-observation-carried-forward —
    the daily-feature densification; pipelines/timeseries.py
    locf_daily_pipeline).  Value doubles are carried by comparison-only
    selection, so they mirror SQL bit-for-bit."""
    from .pipelines.timeseries import locf_daily_pipeline

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    out = locf_daily_pipeline(
        ds, key_col="user_id", ts_col="ts", value_col="value", id_col="event_id"
    )
    import pyarrow as pa

    return out.map_batches(
        lambda t: pa.table(
            {
                "user_id": t.column("key"),
                "day": t.column("day"),
                "value": t.column("value"),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def gini_price_by_flag(sf_dir: str):
    """Per-returnflag Gini inequality of line-item prices (exact cents):
    the grouped Lorenz-concentration operator — distinct-value count fold
    co-located by group, rank·value sums on the umul128 limb lanes
    (pipelines/inequality.py grouped_value_gini_pipeline)."""
    import pyarrow as pa

    from .core.numeric import round_half_away
    from .pipelines.inequality import grouped_value_gini_pipeline

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def cents(t: pa.Table) -> pa.Table:
        import numpy as np

        v = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "flag": t.column("l_returnflag"),
                "cents": pa.array(round_half_away(v * 100.0).astype(np.int64)),
            }
        )

    return grouped_value_gini_pipeline(
        ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
        group_col="flag",
        value_col="cents",
    )


def welch_t_chars_en_de(sf_dir: str):
    """Welch unequal-variance t-test (doc length, 'en' vs 'de') with
    Welch-Satterthwaite df: exact per-group (n, Σx, Σx²) integer fold,
    every float a fixed-op-order expression mirrored in SQL
    (pipelines/stats.py welch_t_pipeline)."""
    from .pipelines.stats import welch_t_pipeline

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return welch_t_pipeline(
        ds, group_col="lang", value_col="n_chars", group_a="en", group_b="de"
    )


def anova_chars_by_lang(sf_dir: str):
    """One-way ANOVA F of doc length across ALL langs: exact per-group
    sufficient statistics; the per-group float terms accumulate in
    group-key-sorted order on BOTH sides (the SQL mirror is a recursive
    CTE, the same sequential-recurrence device as the EWMA oracle) so the
    F statistic is bit-exact (pipelines/stats.py anova_f_pipeline)."""
    from .pipelines.stats import anova_f_pipeline

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return anova_f_pipeline(ds, group_col="lang", value_col="n_chars")


def lang_token_cosine(sf_dir: str):
    """Pairwise cosine similarity between the langs' token-COUNT vectors
    (the counted sibling of vocab_jaccard's membership overlap): exact
    integer dot products on the umul128 limb lanes, one vocab-bounded
    fold + one hash(token) re-exchange (pipelines/setsim.py
    group_count_cosine_pipeline).  Tokenizer = split on single space,
    empties dropped (the top_tokens convention)."""
    import numpy as np
    import pyarrow as pa

    from .pipelines.setsim import group_count_cosine_pipeline

    ds = _read(sf_dir, "documents", ["lang", "text"])

    def explode(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = pc.split_pattern(t.column("text"), " ")
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        lang = t.column("lang").take(
            pa.array(np.repeat(np.arange(t.num_rows), lens))
        )
        keep = pc.not_equal(flat, "")
        return pa.table({"lang": lang, "tok": flat}).filter(keep)

    return group_count_cosine_pipeline(
        ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True),
        group_col="lang",
        token_col="tok",
    )


def psi_chars_train_val(sf_dir: str):
    """Population Stability Index (the industry drift score) between the
    train and val splits' doc-length distributions: equal-frequency
    bucket edges from the TRAIN side's exact deciles, exact bucket counts
    both sides, ordered float accumulation mirrored by a recursive-CTE
    oracle (pipelines/drift.py psi_pipeline).  Completes the drift family
    (TVD how-much, KS where, PSI industry-standard how-bad)."""
    import pyarrow.compute as pc

    from .pipelines.drift import psi_pipeline
    from .stages.sampling import assign_split

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    ds = assign_split(ds, id_col="doc_id", splits=SPLITS, seed=0)

    def keep(name):
        def f(t):
            return t.filter(pc.equal(t.column("split"), name))

        return f

    ref = ds.map_batches(keep("train"), batch_format="pyarrow", zero_copy_batch=True)
    cur = ds.map_batches(keep("val"), batch_format="pyarrow", zero_copy_batch=True)
    return psi_pipeline(ref, cur, value_col="n_chars", n_buckets=10, alpha=ALPHA)


def rolling_median_daily_events(sf_dir: str):
    """Trailing-7-day rolling median of the dense daily event-count
    series (gap days zero; truncated leading windows) — the spike-immune
    smoother beside the EWMA (pipelines/timeseries.py)."""
    from .pipelines.timeseries import rolling_median_daily_pipeline

    ds = _read(sf_dir, "events", ["ts"])
    return rolling_median_daily_pipeline(ds, ts_col="ts", window=7)


def _user_day_distinct(sf_dir: str):
    import pyarrow as pa

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def pre(t: pa.Table) -> pa.Table:
        from .pipelines.fold import null_safe_int64

        us = t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        return (
            pa.table(
                {
                    "user_id": pa.array(null_safe_int64(t.column("user_id"))),
                    "day": pa.array(us // 86_400_000_000),
                }
            )
            .group_by(["user_id", "day"])
            .aggregate([])
        )

    return ds.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True)


def new_vs_returning_daily(sf_dir: str):
    """Per-day NEW vs RETURNING active users (new = the user's first
    active day): one hash(user) exchange of distinct (user, day) id
    pairs — the per-user first-day and the day counts both resolve
    inside the partition — then a KB per-day fold.  The growth-accounting
    companion to cohort_retention."""
    import numpy as np
    import pyarrow as pa

    from .pipelines.fold import keyed_exchange

    def fold(g: pa.Table) -> pa.Table:
        u = g.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        d = g.column("day").to_numpy(zero_copy_only=False)
        o = np.lexsort((d, u))
        u, d = u[o], d[o]
        keep = run_starts(u, d)
        u, d = u[keep], d[keep]
        first = run_starts(u)
        nd, nc = np.unique(d[first], return_counts=True)
        rd_, rc_ = np.unique(d[~first], return_counts=True)
        return pa.table(
            {
                "day": pa.array(np.concatenate([nd, rd_])),
                "n_new": pa.array(
                    np.concatenate([nc, np.zeros(rd_.size, np.int64)]).astype(np.int64)
                ),
                "n_returning": pa.array(
                    np.concatenate([np.zeros(nd.size, np.int64), rc_]).astype(np.int64)
                ),
            }
        )

    parts = keyed_exchange(_user_day_distinct(sf_dir), fold, keys="user_id")
    summed = partitioned_group_sum(parts, "day", ["n_new", "n_returning"])
    return summed.map_batches(
        lambda t: pa.table(
            {
                "day": t.column("day"),
                "n_new": t.column("sum(n_new)"),
                "n_returning": t.column("sum(n_returning)"),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def cumulative_unique_users_daily(sf_dir: str):
    """Cumulative distinct-user growth curve: per first-seen day, the
    number of NEW users and the running total — per-user min-day fold,
    KB per-day counts, ordered cumsum in one finalize partition."""
    import numpy as np
    import pyarrow as pa

    mins = partitioned_group_agg(
        _user_day_distinct(sf_dir),
        "user_id",
        [("day", "min")],
    )

    def day_counts(t: pa.Table) -> pa.Table:
        d = t.column("min(day)").to_numpy(zero_copy_only=False)
        vals, cnt = np.unique(d, return_counts=True)
        return pa.table(
            {"day": pa.array(vals), "n_new": pa.array(cnt.astype(np.int64))}
        )

    summed = partitioned_group_sum(
        mins.map_batches(day_counts, batch_format="pyarrow", zero_copy_batch=True),
        "day",
        "n_new",
    )

    def finalize(t: pa.Table) -> pa.Table:
        d = t.column("day").to_numpy(zero_copy_only=False)
        n = t.column("sum(n_new)").to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(d)
        d, n = d[o], n[o]
        return pa.table(
            {
                "day": pa.array(d),
                "n_new": pa.array(n),
                "cum_users": pa.array(np.cumsum(n).astype(np.int64)),
            }
        )

    return summed.repartition(1).map_batches(
        finalize, batch_format="pyarrow", batch_size=None
    )


def props_k_quantiles_by_type(sf_dir: str):
    """Semi-structured field extraction: pull the integer ``k`` field out
    of the props JSON string with ONE vectorized RE2 kernel
    (pc.extract_regex — no per-row Python, no JSON parser), then DDSketch
    quantiles + exact integer sum/avg per event_type.  The oracle runs
    the same regex via DuckDB's regexp_extract, so extraction semantics
    match byte-for-byte."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["event_type", "props"])

    def derive(t: pa.Table) -> pa.Table:
        ex = pc.extract_regex(t.column("props"), r'"k": (?P<k>\d+)')
        kv = pc.struct_field(ex, "k")
        out = pa.table(
            {
                "event_type": t.column("event_type"),
                "k": pc.cast(kv, pa.int64()),
            }
        )
        return out.filter(pc.is_valid(kv))

    return _dd_by(ds, "event_type", "k", derive=derive)


def tukey_outlier_events(sf_dir: str):
    """Tukey IQR-fence outliers per event type: rows whose value (exact
    cents) falls outside [q1 − 1.5·IQR, q3 + 1.5·IQR], both quartiles
    exact floor-rank values from ONE sketch-guided selection; the fence
    compare runs in doubled integer units (2v < 2q1 − 3·iqr), so it
    mirrors SQL bit-for-bit — the box-plot sibling of the MAD rule."""
    import numpy as np
    import pyarrow as pa
    import ray

    from .core.numeric import round_half_away
    from .pipelines.selection import sketch_exact_quantiles_pipeline

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def cents(t: pa.Table) -> pa.Table:
        v = t.column("value").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "event_type": t.column("event_type"),
                "cents": pa.array(round_half_away(v * 100.0).astype(np.int64)),
            }
        )

    ds2 = ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)
    cut_rows = sketch_exact_quantiles_pipeline(
        ds2, group_col="event_type", value_col="cents", qs=(0.25, 0.75), alpha=ALPHA
    ).take_all()  # one KB row per type
    q1 = {r["event_type"]: int(r["exact_p25"]) for r in cut_rows}
    q3 = {r["event_type"]: int(r["exact_p75"]) for r in cut_rows}
    cuts_ref = ray.put((q1, q3))

    def flag(t: pa.Table) -> pa.Table:
        lo_m, hi_m = ray.get(cuts_ref)
        col = t.column("event_type")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        de = col.dictionary_encode()  # one dict probe per DISTINCT type
        lut_lo = np.array([lo_m.get(x, 0) for x in de.dictionary.to_pylist()], np.int64)
        lut_hi = np.array([hi_m.get(x, 0) for x in de.dictionary.to_pylist()], np.int64)
        idx = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        v = t.column("cents").to_numpy(zero_copy_only=False)
        gq1 = lut_lo[idx]
        gq3 = lut_hi[idx]
        iqr = gq3 - gq1
        keep = (2 * v < 2 * gq1 - 3 * iqr) | (2 * v > 2 * gq3 + 3 * iqr)
        return t.filter(pa.array(keep))

    return ds2.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


def user_session_table(sf_dir: str):
    """The SESSION TABLE (one row per gap-based session, 30-min gap):
    per-user 1-based session index, event count, exact µs duration —
    gaps-and-islands at the session grain, the input every funnel /
    bounce-rate / dwell-time analysis starts from
    (pipelines/windows.py session_table_pipeline)."""
    from .pipelines.windows import session_table_pipeline

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    return session_table_pipeline(ds, key_col="user_id", ts_col="ts")


def metric_corr_matrix_by_lang(sf_dir: str):
    """Per-lang correlation MATRIX over the three doc metrics (chars,
    tokens, lines): ONE pass over the text derives all metrics and emits
    the ten exact sufficient sums (n, Σa, Σb, Σc, all squares and cross
    products) per (block, lang); the cross-block fold accumulates the
    per-block partial rows in PYTHON INTS inside the partition fold
    (grouped_corr_pipeline's shape — an Arrow int64 re-sum would wrap
    silently even when every block passes its own gate), then finalizes
    all three pairwise Pearson r's + OLS fits with grouped_corr's exact
    op order — the feature-redundancy screen, at one text scan instead
    of three."""
    import math as _math

    import numpy as np
    import pyarrow as pa

    from .pipelines.fold import keyed_exchange
    from .stages.text import _re_count

    ds = _read(sf_dir, "documents", ["lang", "text", "n_chars"])
    _PAIRS = (
        ("chars_tokens", 0, 1),
        ("chars_lines", 0, 2),
        ("tokens_lines", 1, 2),
    )

    def preagg(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = [
            t.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64),
            _re_count(t.column("text"), "[^ ]+").to_numpy(zero_copy_only=False).astype(np.int64),
            pc.add(_re_count(t.column("text"), "\n"), 1).to_numpy(zero_copy_only=False).astype(np.int64),
        ]
        mx = max((max(int(x.max()), 1) if x.size else 1) for x in m)
        if m[0].size and mx * mx * m[0].size >= 2**63:
            raise ValueError("metric_corr_matrix: block pre-agg would overflow int64")
        g = t.column("lang").to_numpy(zero_copy_only=False)
        order = np.argsort(g, kind="stable")
        g_s = g[order]
        ms = [x[order] for x in m]
        new = run_starts(g_s)
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, g_s.size))

        def seg(x):
            return np.add.reduceat(x, starts) if starts.size else np.zeros(0, np.int64)

        cols = {
            "lang": pa.array(g_s[starts].tolist()),
            "n": pa.array(lens.astype(np.int64)),
        }
        for i, nm in enumerate("abc"):
            cols[f"s_{nm}"] = pa.array(seg(ms[i]))
            cols[f"s_{nm}{nm}"] = pa.array(seg(ms[i] * ms[i]))
        for (i, j), nm in (((0, 1), "ab"), ((0, 2), "ac"), ((1, 2), "bc")):
            cols[f"s_{nm}"] = pa.array(seg(ms[i] * ms[j]))
        return pa.table(cols)

    sums_cols = ["n", "s_a", "s_b", "s_c", "s_aa", "s_bb", "s_cc", "s_ab", "s_ac", "s_bc"]

    partials = ds.map_batches(preagg, batch_format="pyarrow", zero_copy_batch=True)

    def finalize(t: pa.Table) -> pa.Table:
        # Cross-block fold in PYTHON INTS (exact at any scale): one tiny
        # partial row per (block, lang) — an Arrow int64 sum here would
        # wrap silently past 2^63 (ADVICE r4).
        groups: dict = {}
        for row in t.to_pylist():
            acc = groups.setdefault(row["lang"], dict.fromkeys(sums_cols, 0))
            for c in sums_cols:
                acc[c] += int(row[c])
        out = {k: [] for k in ("lang", "n", "r", "slope", "intercept", "pair")}
        for lang in sorted(groups):
            s = groups[lang]
            n = s["n"]
            vals = [
                (s["s_a"], s["s_aa"]),
                (s["s_b"], s["s_bb"]),
                (s["s_c"], s["s_cc"]),
            ]
            cross = {(0, 1): s["s_ab"], (0, 2): s["s_ac"], (1, 2): s["s_bc"]}
            for pname, i, j in _PAIRS:
                sx, sxx = vals[i]
                sy, syy = vals[j]
                sxy = cross[(i, j)]
                num = n * sxy - sx * sy
                d1 = n * sxx - sx * sx
                d2 = n * syy - sy * sy
                rr = (
                    float(num) / (_math.sqrt(float(d1)) * _math.sqrt(float(d2)))
                    if d1 > 0 and d2 > 0
                    else 0.0
                )
                slope = float(num) / float(d1) if d1 > 0 else 0.0
                icpt = (float(sy) - slope * float(sx)) / float(n) if n else 0.0
                out["lang"].append(lang)
                out["n"].append(float(n))
                out["r"].append(rr)
                out["slope"].append(slope)
                out["intercept"].append(icpt)
                out["pair"].append(pname)
        return pa.table(
            {
                "lang": pa.array(out["lang"]),
                "n": pa.array(out["n"], pa.float64()),
                "r": pa.array(out["r"], pa.float64()),
                "slope": pa.array(out["slope"], pa.float64()),
                "intercept": pa.array(out["intercept"], pa.float64()),
                "pair": pa.array(out["pair"], pa.string()),
            }
        )

    return keyed_exchange(partials, finalize, keys="lang")


def interp_p90_chars_by_lang(sf_dir: str):
    """TYPE-7 linearly interpolated p90 of doc length per lang (the
    numpy/pandas default and SQL percentile_cont convention): both
    bracketing EXACT order statistics from one sketch build + candidate
    scan, blended in a fixed float-op chain mirrored verbatim in SQL
    (pipelines/selection.py sketch_exact_interp_quantile_pipeline)."""
    from .pipelines.selection import sketch_exact_interp_quantile_pipeline

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return sketch_exact_interp_quantile_pipeline(
        ds, group_col="lang", value_col="n_chars", q=0.9, alpha=ALPHA
    )


def session_event_pairs(sf_dir: str):
    """Event-type co-occurrence WITHIN 30-min sessions: the A-priori
    2-itemset engine (pipelines/basket.py) run over session baskets from
    the gap-island scan — 'which event types happen together in one
    sitting' (support >= 3, lift vs independence).  Session ids pack as
    user·2^20 + idx (guarded); type codes are the sorted-distinct index,
    so code order == lexicographic type order and the oracle's string
    join mirrors exactly."""
    import numpy as np
    import pyarrow as pa
    import ray

    from .pipelines.basket import frequent_pairs_pipeline
    from .pipelines.fold import keyed_exchange

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    type_rows = partitioned_group_agg(ds, "event_type", []).take_all()
    # one row per DISTINCT type reaches the driver
    types = sorted(r["event_type"] for r in type_rows)
    code = {t: i for i, t in enumerate(types)}
    code_ref = ray.put(code)

    def pre(t: pa.Table) -> pa.Table:
        from .pipelines.fold import null_safe_int64

        u = null_safe_int64(t.column("user_id"))
        return pa.table(
            {
                "u": pa.array(u),
                "us": t.column("ts").cast(pa.int64()),
                "ty": t.column("event_type"),
            }
        )

    def assign(g: pa.Table) -> pa.Table:
        cmap = ray.get(code_ref)
        u = g.column("u").to_numpy(zero_copy_only=False)
        us = g.column("us").to_numpy(zero_copy_only=False)
        col = g.column("ty")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        de = col.dictionary_encode()
        lut = np.array([cmap[x] for x in de.dictionary.to_pylist()], np.int64)
        ty = lut[de.indices.to_numpy(zero_copy_only=False).astype(np.int64)]
        o = np.lexsort((us, u))
        u, us, ty = u[o], us[o], ty[o]
        n = u.size
        if n == 0:
            return pa.table(
                {"basket": pa.array([], pa.int64()), "item": pa.array([], pa.int64())}
            )
        from .pipelines.windows import session_ids

        sid = session_ids(u, us, 1_800_000_000)  # 1-based per user
        if int(sid.max()) >= 1 << 20 or int(u.max()) >= 1 << 42:
            raise OverflowError(
                "session_event_pairs: packed basket id needs sid < 2^20 "
                "and user < 2^42"
            )
        return pa.table(
            {
                "basket": pa.array(u * np.int64(1 << 20) + sid),
                "item": pa.array(ty),
            }
        )

    baskets = keyed_exchange(
        ds.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True),
        assign,
        keys="u",
    )
    pairs = frequent_pairs_pipeline(
        baskets, basket_col="basket", item_col="item", min_support=3
    )
    inv_ref = ray.put(types)

    def decode(t: pa.Table) -> pa.Table:
        inv = ray.get(inv_ref)
        a = t.column("item_a").to_numpy(zero_copy_only=False)
        b = t.column("item_b").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "item_a": pa.array([inv[int(x)] for x in a], pa.string()),
                "item_b": pa.array([inv[int(x)] for x in b], pa.string()),
                "support": t.column("support"),
                "lift": t.column("lift"),
            }
        )

    return pairs.map_batches(decode, batch_format="pyarrow", zero_copy_batch=True)


def exact_users_per_window(sf_dir: str):
    """EXACT distinct users per tumbling hour x event_type — the ground
    truth twin of hll_users_per_window: per-block distinct pre-agg, one
    bounded-partition fold of (window, type, user) incidences, per-group
    count.  Shuffle carries id triples, never events."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["ts", "event_type", "user_id"])

    def derive(t: pa.Table) -> pa.Table:
        us = pc.cast(t.column("ts"), pa.int64())
        hour = pc.multiply(pc.divide(pc.divide(us, 1_000_000), 3600), 3600)
        # the fold's own pre() block-dedups; just project
        return pa.table(
            {
                "hour": hour,
                "event_type": t.column("event_type"),
                "user_id": t.column("user_id"),
            }
        )

    dist = partitioned_group_agg(
        ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True),
        ["hour", "event_type", "user_id"],
        [],  # empty aggs = exact global distinct
    )

    def ones(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "hour": t.column("hour"),
                "event_type": t.column("event_type"),
                "u": pa.array(np.ones(t.num_rows, np.int64)),
            }
        )

    summed = partitioned_group_sum(
        dist.map_batches(ones, batch_format="pyarrow", zero_copy_batch=True),
        ["hour", "event_type"],
        "u",
    )
    return summed.map_batches(
        lambda t: pa.table(
            {
                "hour": t.column("hour"),
                "event_type": t.column("event_type"),
                "n_users": t.column("sum(u)"),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def dd_session_duration_quantiles(sf_dir: str):
    """DDSketch quantiles of SESSION duration (seconds, zero-duration
    singleton sessions included): the session table feeding the sketch
    family — dwell-time percentiles without a global sort; the oracle
    chains the gap-island CTE into the canonical bucket mirror."""
    import pyarrow as pa

    from .pipelines.windows import session_table_pipeline

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    sess = session_table_pipeline(ds, key_col="user_id", ts_col="ts")

    def secs(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # global sketch: the constant group key "g" keeps the output column
        return pa.table(
            {
                "g": pa.array(["all"] * t.num_rows, pa.string()),
                "dur_s": pc.divide(t.column("duration_us"), 1_000_000),
            }
        )

    return _dd_by(sess, "g", "dur_s", derive=secs)


def ks_exact_by_lang_train_val(sf_dir: str):
    """Per-lang EXACT two-sample KS between the train and val splits' doc
    lengths — the grouped exact companion to the sketch-histogram per-lang
    KS (dd_ks_train_val): where did each language's distribution shift,
    measured without approximation (pipelines/stats.py
    grouped_ks_exact_pipeline)."""
    from .pipelines.stats import grouped_ks_exact_pipeline
    from .stages.sampling import assign_split

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    ds = assign_split(ds, id_col="doc_id", splits=SPLITS, seed=0)
    return grouped_ks_exact_pipeline(
        ds,
        group_col="lang",
        value_col="n_chars",
        split_col="split",
        split_a="train",
        split_b="val",
    )


def weighted_avg_price_by_flag(sf_dir: str):
    """Quantity-weighted mean price per returnflag in exact cents: two
    exact integer sums (Σ cents·qty, Σ qty) — block partials gated
    against int64 wrap (max|p|·max|q|·rows < 2^63, the grouped_corr
    contract) and folded cross-block in PYTHON INTS in the finalize, ONE
    float division — the weighted-mean staple beside the weighted
    median."""
    import numpy as np
    import pyarrow as pa

    from .core.numeric import round_half_away
    from .pipelines.fold import keyed_exchange

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice", "l_quantity"])

    def pre(t: pa.Table) -> pa.Table:
        p = round_half_away(
            t.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        q = round_half_away(
            t.column("l_quantity").to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        if p.size:
            mp = max(int(p.max()), -int(p.min()))
            mq = max(int(q.max()), -int(q.min()))
            if mp * mq * p.size >= 2**63:
                raise ValueError(
                    "weighted_avg_price_by_flag: block pre-agg would overflow "
                    f"int64 (max|cents|={mp}, max|qty|={mq}, rows={p.size}); "
                    "shrink the batch size"
                )
        g = t.column("l_returnflag").to_numpy(zero_copy_only=False)
        order = np.argsort(g, kind="stable")
        g_s, p_s, q_s = g[order], p[order], q[order]
        new = run_starts(g_s)
        starts = np.flatnonzero(new)
        return pa.table(
            {
                "flag": pa.array(g_s[starts].tolist()),
                "wsum": pa.array(
                    np.add.reduceat(p_s * q_s, starts)
                    if starts.size
                    else np.zeros(0, np.int64)
                ),
                "w": pa.array(
                    np.add.reduceat(q_s, starts)
                    if starts.size
                    else np.zeros(0, np.int64)
                ),
            }
        )

    partials = ds.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True)

    def finalize(t: pa.Table) -> pa.Table:
        # Python-int cross-block fold: exact at any corpus scale (an
        # Arrow int64 re-sum of the partials would wrap silently).
        groups: dict = {}
        for row in t.to_pylist():  # tiny: one row per (block, flag)
            acc = groups.setdefault(row["flag"], [0, 0])
            acc[0] += int(row["wsum"])
            acc[1] += int(row["w"])
        flags = sorted(groups)
        return pa.table(
            {
                "flag": pa.array(flags, pa.string()),
                "wsum": pa.array([groups[f][0] for f in flags], pa.int64()),
                "w": pa.array([groups[f][1] for f in flags], pa.int64()),
                "wavg_cents": pa.array(
                    [float(groups[f][0]) / float(groups[f][1]) for f in flags],
                    pa.float64(),
                ),
            }
        )

    return keyed_exchange(partials, finalize, keys="flag")


QUERIES = {
    "dd_stats_by_lang": dd_stats_by_lang,
    "dd_quantiles_by_lang": dd_quantiles_by_lang,
    "dd_quantiles_by_event_type": dd_quantiles_by_event_type,
    "flagship_docs_metrics": flagship_docs_metrics,
    "flagship_by_lang_source": flagship_by_lang_source,
    "sha256_invariant_by_lang": sha256_invariant_by_lang,
    "dd_weighted_price_by_flag": dd_weighted_price_by_flag,
    "dd_signed_quantiles_by_event_type": dd_signed_quantiles_by_event_type,
    "dd_collapsed_quantiles_by_event_type": dd_collapsed_quantiles_by_event_type,
    "dd_linear_mapping_by_lang": dd_linear_mapping_by_lang,
    "dd_cubic_mapping_by_lang": dd_cubic_mapping_by_lang,
    "dd_nullkey_quantiles": dd_nullkey_quantiles,
    "dd_collapsed_highest_by_event_type": dd_collapsed_highest_by_event_type,
    "dd_windowed_quantiles": dd_windowed_quantiles,
    "dd_incremental_windowed": dd_incremental_windowed,
    "dd_sliding_window_quantiles": dd_sliding_window_quantiles,
    "dd_ship_latency_by_priority": dd_ship_latency_by_priority,
    "dd_interarrival_by_event_type": dd_interarrival_by_event_type,
    "markov_event_transitions": markov_event_transitions,
    "rfm_customer_segments": rfm_customer_segments,
    "sq8_covariance_by_label": sq8_covariance_by_label,
    "session_concurrency_timeline": session_concurrency_timeline,
    "user_sessions": user_sessions,
    "user_running_totals": user_running_totals,
    "user_running_totals_compact": user_running_totals_compact,
    "user_event_paths": user_event_paths,
    "user_moving_stats": user_moving_stats,
    "user_value_ranks": user_value_ranks,
    "funnel_click_purchase": funnel_click_purchase,
    "asof_last_urgent_order": asof_last_urgent_order,
    "asof_next_urgent_order": asof_next_urgent_order,
    "asof_last_urgent_order_broadcast": asof_last_urgent_order_broadcast,
    "events_within_hour_pairs": events_within_hour_pairs,
    "overlapping_click_purchase_windows": overlapping_click_purchase_windows,
    "lineitem_urgent_left_join": lineitem_urgent_left_join,
    "revenue_by_priority_join": revenue_by_priority_join,
    "revenue_by_priority_broadcast_join": revenue_by_priority_broadcast_join,
    "building_top_orders": building_top_orders,
    "pagerank_customer_supplier": pagerank_customer_supplier,
    "bfs_hops_customer_supplier": bfs_hops_customer_supplier,
    "frequent_part_pairs": frequent_part_pairs,
    "pareto_orders": pareto_orders,
    "bm25_top_docs": bm25_top_docs,
    "trending_event_types_daily": trending_event_types_daily,
    "daily_count_autocorr": daily_count_autocorr,
    "rrf_hybrid_retrieval": rrf_hybrid_retrieval,
    "copurchase_triangles": copurchase_triangles,
    "bootstrap_mean_chars_by_lang": bootstrap_mean_chars_by_lang,
    "weighted_median_price_by_flag": weighted_median_price_by_flag,
    "vocab_jaccard_sources": vocab_jaccard_sources,
    "funnel_view_click_purchase": funnel_view_click_purchase,
    "cusum_daily_events": cusum_daily_events,
    "ewma_daily_events": ewma_daily_events,
    "ab_event_mix_zscores": ab_event_mix_zscores,
    "ohlc_hourly_values": ohlc_hourly_values,
    "supply_latency_sssp": supply_latency_sssp,
    "apportion_sample_quota_by_lang": apportion_sample_quota_by_lang,
    "gini_price_inequality": gini_price_inequality,
    "bloom_prefiltered_revenue_join": bloom_prefiltered_revenue_join,
    "urgent_orders_right_join": urgent_orders_right_join,
    "customer_orders_full_join": customer_orders_full_join,
    "customers_no_urgent_orders": customers_no_urgent_orders,
    "customers_with_big_orders": customers_with_big_orders,
    "split_counts_by_lang": split_counts_by_lang,
    "stratified_sample_docs": stratified_sample_docs,
    "pack_sequences_docs": pack_sequences_docs,
    "top_tokens_by_lang": top_tokens_by_lang,
    "bigram_lm_scores": bigram_lm_scores,
    "dd_rank_transform_prices": dd_rank_transform_prices,
    "dd_outlier_orders": dd_outlier_orders,
    "dd_rollup_lang_source": dd_rollup_lang_source,
    "exact_median_chars_by_lang": exact_median_chars_by_lang,
    "mad_outlier_docs": mad_outlier_docs,
    "dd_cube_lang_source": dd_cube_lang_source,
    "dd_histogram_by_lang": dd_histogram_by_lang,
    "dd_drift_train_val": dd_drift_train_val,
    "dd_ks_train_val": dd_ks_train_val,
    "dd_bucketize_prices": dd_bucketize_prices,
    "uniform_sample_docs": uniform_sample_docs,
    "uniform_sample_per_lang": uniform_sample_per_lang,
    "mixture_rebalance_docs": mixture_rebalance_docs,
    "weighted_sample_docs": weighted_sample_docs,
    "exact_distinct_users_by_event_type": exact_distinct_users_by_event_type,
    "argmax_events_by_type": argmax_events_by_type,
    "hll_users_by_event_type": hll_users_by_event_type,
    "hll_users_per_window": hll_users_per_window,
    "hll_props_by_event_type": hll_props_by_event_type,
    "kmv_users_by_event_type": kmv_users_by_event_type,
    "kmv_props_by_event_type": kmv_props_by_event_type,
    "kmv_user_overlap_by_event_type": kmv_user_overlap_by_event_type,
    "ams_f2_users_by_event_type": ams_f2_users_by_event_type,
    "ams_join_size_events_orders": ams_join_size_events_orders,
    "heavy_hitter_users": heavy_hitter_users,
    "heavy_hitter_props": heavy_hitter_props,
    "bloom_customer_membership": bloom_customer_membership,
    "bloom_text_membership": bloom_text_membership,
    "cms_user_frequencies": cms_user_frequencies,
    "cms_weighted_part_quantities": cms_weighted_part_quantities,
    "tdigest_chars_by_lang": tdigest_chars_by_lang,
    "kll_chars_by_lang": kll_chars_by_lang,
    "tdigest_exact_fields_by_lang": tdigest_exact_fields_by_lang,
    "kll_exact_fields_by_lang": kll_exact_fields_by_lang,
    "exact_dedup_docs": exact_dedup_docs,
    "exact_dedup_rows": exact_dedup_rows,
    "normalized_dedup_docs": normalized_dedup_docs,
    "chunk_documents": chunk_documents,
    "minhash_signatures_docs": minhash_signatures_docs,
    "lsh_candidate_pairs": lsh_candidate_pairs,
    "jaccard_dedup_pairs": jaccard_dedup_pairs,
    "levenshtein_dedup_pairs": levenshtein_dedup_pairs,
    "simhash_hamming_pairs": simhash_hamming_pairs,
    "damerau_dedup_pairs": damerau_dedup_pairs,
    "jaro_dedup_pairs": jaro_dedup_pairs,
    "containment_dedup_pairs": containment_dedup_pairs,
    "ngram_jaccard_pairs": ngram_jaccard_pairs,
    "dup_fraction_docs": dup_fraction_docs,
    "duplicate_spans_docs": duplicate_spans_docs,
    "multimodal_media_features": multimodal_media_features,  # rows-only (no oracle_sql)
    "snapshot_diff_docs": snapshot_diff_docs,
    "pivot_split_counts": pivot_split_counts,
    "dedup_clusters": dedup_clusters,
    "neardup_kept_counts": neardup_kept_counts,
    "dup_rate_by_source": dup_rate_by_source,
    "simhash_docs": simhash_docs,
    "knn_cosine_top5": knn_cosine_top5,
    "embedding_quantize_stats": embedding_quantize_stats,
    "quantized_knn_top5": quantized_knn_top5,
    "kmeans_clusters_embeddings": kmeans_clusters_embeddings,
    "semdedup_embeddings": semdedup_embeddings,
    "ivf_knn_top5": ivf_knn_top5,
    "embedding_neardup_pairs": embedding_neardup_pairs,
    "srp_neardup": srp_neardup,
    "top_tokens": top_tokens,
    "token_stats_by_lang": token_stats_by_lang,
    "quality_scores_docs": quality_scores_docs,
    "corr_tokens_chars_by_lang": corr_tokens_chars_by_lang,
    "chi2_lang_source": chi2_lang_source,
    "trimmed_mean_chars_by_lang": trimmed_mean_chars_by_lang,
    "winsorized_mean_chars_by_lang": winsorized_mean_chars_by_lang,
    "iqr_chars_by_lang": iqr_chars_by_lang,
    "moments_chars_by_lang": moments_chars_by_lang,
    "mannwhitney_chars_en_de": mannwhitney_chars_en_de,
    "customer_degree_histogram": customer_degree_histogram,
    "cc_components_graph": cc_components_graph,
    "spearman_chars_tokens": spearman_chars_tokens,
    "ks_exact_chars_en_de": ks_exact_chars_en_de,
    "user_longest_daily_streak": user_longest_daily_streak,
    "decile_table_chars_by_lang": decile_table_chars_by_lang,
    "users_active_even_and_odd_days": users_active_even_and_odd_days,
    "user_daily_value_locf": user_daily_value_locf,
    "gini_price_by_flag": gini_price_by_flag,
    "welch_t_chars_en_de": welch_t_chars_en_de,
    "anova_chars_by_lang": anova_chars_by_lang,
    "lang_token_cosine": lang_token_cosine,
    "psi_chars_train_val": psi_chars_train_val,
    "rolling_median_daily_events": rolling_median_daily_events,
    "new_vs_returning_daily": new_vs_returning_daily,
    "cumulative_unique_users_daily": cumulative_unique_users_daily,
    "props_k_quantiles_by_type": props_k_quantiles_by_type,
    "tukey_outlier_events": tukey_outlier_events,
    "user_session_table": user_session_table,
    "metric_corr_matrix_by_lang": metric_corr_matrix_by_lang,
    "interp_p90_chars_by_lang": interp_p90_chars_by_lang,
    "session_event_pairs": session_event_pairs,
    "exact_users_per_window": exact_users_per_window,
    "dd_session_duration_quantiles": dd_session_duration_quantiles,
    "ks_exact_by_lang_train_val": ks_exact_by_lang_train_val,
    "weighted_avg_price_by_flag": weighted_avg_price_by_flag,
    "pmi_collocations_docs": pmi_collocations_docs,
    "mode_event_type_by_user": mode_event_type_by_user,
    "token_frequency_spectrum": token_frequency_spectrum,
    "lang_confusion_matrix": lang_confusion_matrix,
    "gini_event_diversity_by_user": gini_event_diversity_by_user,
    "cohort_retention": cohort_retention,
    "zscore_chars_by_lang": zscore_chars_by_lang,
    "top_priced_lineitems": top_priced_lineitems,
    "curation_counts_by_lang": curation_counts_by_lang,
    "curation_split_counts": curation_split_counts,
    "lang_id_docs": lang_id_docs,
    "pii_scrub_docs": pii_scrub_docs,
    "bpe_token_counts_docs": bpe_token_counts_docs,
    "gopher_quality_filter_docs": gopher_quality_filter_docs,
    "c4_line_filter_docs": c4_line_filter_docs,
    "line_dedup_docs": line_dedup_docs,
    "p99_length_filter_by_lang": p99_length_filter_by_lang,
    "decontaminate_docs": decontaminate_docs,
    "repetition_scores_docs": repetition_scores_docs,
    "tfidf_top_terms": tfidf_top_terms,
    "winnow_fingerprints_docs": winnow_fingerprints_docs,
}

# Subset bench.py times per round (keep the total under ~60 s at sf0.1 / 32 cpus).
BENCH_QUERIES = [
    "flagship_docs_metrics",
    "dd_quantiles_by_lang",
    "dd_quantiles_by_event_type",
    "dd_weighted_price_by_flag",
    "hll_users_by_event_type",
    "cms_user_frequencies",
    "exact_dedup_docs",
    "lsh_candidate_pairs",
    "knn_cosine_top5",
]

# Flagship job used for the two-cluster-size scaling evidence.
SCALING_QUERIES = ["flagship_docs_metrics"]


ORACLE_SQL = {
    "asof_last_urgent_order": """
        WITH urgent AS (
            SELECT * FROM orders WHERE o_orderpriority = '1-URGENT'
        ), j AS (
            SELECT e.event_id, e.user_id, o.o_orderkey, o.o_totalprice,
                   row_number() OVER (
                       PARTITION BY e.event_id
                       ORDER BY o.o_orderdate DESC, o.o_orderkey DESC
                   ) AS rn
            FROM events e
            JOIN urgent o
              ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
        )
        SELECT event_id, user_id, o_orderkey, o_totalprice FROM j WHERE rn = 1
        UNION ALL
        SELECT e.event_id, e.user_id,
               CAST(NULL AS BIGINT) AS o_orderkey,
               CAST(NULL AS DOUBLE) AS o_totalprice
        FROM events e
        WHERE NOT EXISTS (
            SELECT 1 FROM urgent o
            WHERE o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
        )
    """,
    "asof_next_urgent_order": """
        WITH urgent AS (
            SELECT * FROM orders WHERE o_orderpriority = '1-URGENT'
        ), j AS (
            SELECT e.event_id, e.user_id, o.o_orderkey, o.o_totalprice,
                   row_number() OVER (
                       PARTITION BY e.event_id
                       ORDER BY o.o_orderdate ASC, o.o_orderkey ASC
                   ) AS rn
            FROM events e
            JOIN urgent o
              ON o.o_custkey = e.user_id AND o.o_orderdate >= e.ts
        )
        SELECT event_id, user_id, o_orderkey, o_totalprice FROM j WHERE rn = 1
        UNION ALL
        SELECT e.event_id, e.user_id,
               CAST(NULL AS BIGINT) AS o_orderkey,
               CAST(NULL AS DOUBLE) AS o_totalprice
        FROM events e
        WHERE NOT EXISTS (
            SELECT 1 FROM urgent o
            WHERE o.o_custkey = e.user_id AND o.o_orderdate >= e.ts
        )
    """,
    "overlapping_click_purchase_windows": """
        WITH a AS (
            SELECT event_id AS a_id, user_id AS a_user,
                   epoch_us(ts) AS s, epoch_us(ts) + 1800000000 AS e
            FROM events WHERE event_type = 'click'
        ), b AS (
            SELECT event_id AS b_id, user_id AS b_user,
                   epoch_us(ts) AS s, epoch_us(ts) + 1800000000 AS e
            FROM events WHERE event_type = 'purchase'
        )
        SELECT a.a_id, a.a_user, b.b_id
        FROM a JOIN b
          ON b.b_user = a.a_user AND a.s <= b.e AND b.s <= a.e
    """,
    "events_within_hour_pairs": """
        SELECT a.event_id, a.user_id, b.event_id AS b_event_id
        FROM events a
        JOIN events b
          ON b.user_id = a.user_id
         AND b.ts BETWEEN a.ts - INTERVAL 1 HOUR AND a.ts
    """,
    "cohort_retention": """
        WITH ev AS (
            SELECT user_id,
                   epoch_us(ts) // 604800000000::BIGINT AS week
            FROM events
        ), f AS (
            SELECT user_id, min(week) AS cohort FROM ev GROUP BY user_id
        )
        SELECT f.cohort AS cohort_week,
               ev.week AS active_week,
               CAST(count(DISTINCT ev.user_id) AS BIGINT) AS active_users
        FROM ev JOIN f USING (user_id)
        GROUP BY 1, 2
    """,
    "user_event_paths": """
        SELECT user_id,
               CAST(count(*) AS BIGINT) AS n_events,
               string_agg(event_type, '|' ORDER BY ts, event_id) AS path
        FROM events GROUP BY user_id
    """,
    "user_running_totals": """
        SELECT event_id, user_id,
               row_number() OVER w AS rn,
               CAST(sum(CAST(round(value * 1000000.0) AS BIGINT)) OVER w
                    AS BIGINT) AS cum_value,
               epoch_us(ts) - lag(epoch_us(ts)) OVER w AS prev_gap_us
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    """,
    "user_running_totals_compact": """
        SELECT event_id, user_id,
               row_number() OVER w AS rn,
               CAST(sum(CAST(round(value * 1000000.0) AS BIGINT)) OVER w
                    AS BIGINT) AS cum_value,
               epoch_us(ts) - lag(epoch_us(ts)) OVER w AS prev_gap_us
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    """,
    "funnel_click_purchase": """
        WITH a AS (
          SELECT user_id, min(ts) AS first_a FROM events
          WHERE event_type = 'click' GROUP BY user_id
        ),
        s2 AS (
          SELECT a.user_id FROM a WHERE EXISTS (
            SELECT 1 FROM events b
            WHERE b.user_id = a.user_id AND b.event_type = 'purchase'
              AND b.ts >= a.first_a
              AND b.ts <= a.first_a + INTERVAL 3600 SECOND
          )
        )
        SELECT (SELECT count(*) FROM a) AS stage1_users,
               (SELECT count(*) FROM s2) AS stage2_users
    """,
    "user_value_ranks": """
        SELECT event_id, user_id,
               CAST(rank() OVER v AS BIGINT) AS rnk,
               CAST(dense_rank() OVER v AS BIGINT) AS dense_rnk,
               CAST(ntile(4) OVER w AS BIGINT) AS tile,
               percent_rank() OVER v AS pct_rank,
               cume_dist() OVER v AS cume
        FROM events
        WINDOW v AS (PARTITION BY user_id ORDER BY value DESC),
               w AS (PARTITION BY user_id ORDER BY value DESC, event_id ASC)
    """,
    "user_moving_stats": """
        SELECT event_id, user_id,
               rn, frame_count, mov_sum, mov_min, mov_max
        FROM (
          SELECT event_id, user_id,
                 row_number() OVER w AS rn,
                 CAST(least(row_number() OVER w, 5) AS BIGINT) AS frame_count,
                 CAST(sum(v) OVER f AS BIGINT) AS mov_sum,
                 CAST(min(v) OVER f AS BIGINT) AS mov_min,
                 CAST(max(v) OVER f AS BIGINT) AS mov_max
          FROM (SELECT event_id, user_id, ts,
                       CAST(round(value * 1000000.0) AS BIGINT) AS v
                FROM events)
          WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id),
                 f AS (PARTITION BY user_id ORDER BY ts, event_id
                       ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
        )
    """,
    "lineitem_urgent_left_join": """
        SELECT l.l_orderkey, l.l_linenumber, l.l_extendedprice,
               o.o_custkey, o.o_totalprice
        FROM lineitem l
        LEFT JOIN (SELECT * FROM orders WHERE o_orderpriority = '1-URGENT') o
          ON o.o_orderkey = l.l_orderkey
        WHERE l.l_returnflag = 'R'
    """,
    "zscore_chars_by_lang": """
        WITH s AS (
          SELECT lang, count(*) AS n,
                 sum(n_chars) AS sx, sum(n_chars * n_chars) AS q
          FROM documents GROUP BY lang
        )
        SELECT d.doc_id, d.lang, d.n_chars,
               CASE WHEN s.n >= 2 AND (s.n * s.q - s.sx * s.sx) > 0
                    THEN CAST(round(1000.0 * ((s.n * d.n_chars - s.sx)::DOUBLE
                              / sqrt((s.n * s.q - s.sx * s.sx)::DOUBLE)))
                         AS BIGINT)
                    ELSE NULL END AS z_e3
        FROM documents d JOIN s USING (lang)
    """,
    "top_priced_lineitems": """
        SELECT l_orderkey, l_linenumber, l_extendedprice
        FROM lineitem
        ORDER BY l_extendedprice DESC, l_orderkey ASC, l_linenumber ASC
        LIMIT 100
    """,
    "urgent_orders_right_join": """
        SELECT l.l_orderkey, l.l_linenumber, l.l_quantity,
               o.o_orderkey, o.o_totalprice
        FROM (SELECT * FROM lineitem WHERE l_quantity > 45.0) l
        RIGHT JOIN (SELECT * FROM orders WHERE o_orderpriority = '1-URGENT') o
          ON o.o_orderkey = l.l_orderkey
    """,
    "customer_orders_full_join": """
        SELECT c.c_custkey, c.c_acctbal,
               o.o_custkey, o.o_orderkey, o.o_totalprice
        FROM (SELECT * FROM customer WHERE c_mktsegment = 'BUILDING') c
        FULL JOIN (SELECT * FROM orders WHERE o_totalprice > 300000.0) o
          ON o.o_custkey = c.c_custkey
    """,
    "customers_no_urgent_orders": """
        SELECT c_custkey, c_acctbal, c_mktsegment FROM customer c
        WHERE NOT EXISTS (
            SELECT 1 FROM orders o
            WHERE o.o_custkey = c.c_custkey AND o.o_orderpriority = '1-URGENT'
        )
    """,
    "customers_with_big_orders": """
        SELECT c_custkey, c_acctbal FROM customer c
        WHERE EXISTS (
            SELECT 1 FROM orders o
            WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 200000.0
        )
    """,
    "exact_distinct_users_by_event_type": """
        SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct
        FROM events GROUP BY event_type
    """,
    "argmax_events_by_type": """
        SELECT event_id, event_type, user_id, value FROM (
          SELECT e.*, row_number() OVER (
                   PARTITION BY event_type ORDER BY value DESC, event_id ASC
                 ) AS rn
          FROM events e
        ) WHERE rn = 1
    """,
    "building_top_orders": """
        SELECT l.l_orderkey,
               CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 1e4)
                             AS BIGINT)) AS BIGINT) AS revenue_e4,
               o.o_orderdate, o.o_orderpriority
        FROM customer c
        JOIN orders o ON c.c_custkey = o.o_custkey
        JOIN lineitem l ON l.l_orderkey = o.o_orderkey
        WHERE c.c_mktsegment = 'BUILDING'
          AND o.o_orderdate < TIMESTAMP '1998-06-01'
          AND l.l_shipdate > TIMESTAMP '1998-06-01'
        GROUP BY l.l_orderkey, o.o_orderdate, o.o_orderpriority
        ORDER BY revenue_e4 DESC, l.l_orderkey
        LIMIT 10
    """,
    "revenue_by_priority_join": """
        SELECT o.o_orderpriority,
               CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 1e4)
                             AS BIGINT)) AS BIGINT) AS revenue_e4,
               count(*) AS n_items
        FROM lineitem l
        JOIN orders o ON o.o_orderkey = l.l_orderkey
        GROUP BY o.o_orderpriority
    """,
    "bloom_prefiltered_revenue_join": """
        SELECT o.o_orderpriority,
               CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 1e4)
                             AS BIGINT)) AS BIGINT) AS revenue_e4,
               count(*) AS n_items
        FROM lineitem l
        JOIN orders o ON o.o_orderkey = l.l_orderkey
        WHERE o.o_totalprice >= 400000.0
        GROUP BY o.o_orderpriority
    """,
    "mad_outlier_docs": """
        WITH med AS (
          SELECT lang, n_chars AS med FROM (
            SELECT lang, n_chars,
                   row_number() OVER (PARTITION BY lang ORDER BY n_chars) AS rn,
                   count(*) OVER (PARTITION BY lang) AS n
            FROM documents
          ) WHERE rn = CAST(floor((n - 1) * 0.5) AS BIGINT) + 1
        ),
        dev AS (
          SELECT d.doc_id, d.lang, d.n_chars,
                 abs(d.n_chars - m.med) AS dev
          FROM documents d JOIN med m USING (lang)
        ),
        mad AS (
          SELECT lang, dev AS mad FROM (
            SELECT lang, dev,
                   row_number() OVER (PARTITION BY lang ORDER BY dev) AS rn,
                   count(*) OVER (PARTITION BY lang) AS n
            FROM dev
          ) WHERE rn = CAST(floor((n - 1) * 0.5) AS BIGINT) + 1
        )
        SELECT v.doc_id, v.lang, v.n_chars, v.dev, m.mad
        FROM dev v JOIN mad m USING (lang)
        WHERE v.dev > 2 * m.mad
    """,
    "dd_stats_by_lang": """
        SELECT lang,
               CAST(count(*) AS DOUBLE) AS "count",
               CAST(sum(n_chars) AS DOUBLE) AS "sum",
               CAST(min(n_chars) AS DOUBLE) AS "min",
               CAST(max(n_chars) AS DOUBLE) AS "max",
               CAST(sum(n_chars) AS DOUBLE) / CAST(count(*) AS DOUBLE) AS "avg"
        FROM documents GROUP BY lang
    """,
    "dd_quantiles_by_lang": ddsketch_quantile_sql(
        table="documents",
        group_col="lang",
        value_expr="n_chars",
        alpha=ALPHA,
        quantiles=QUANTILES,
    ),
    "dd_quantiles_by_event_type": ddsketch_quantile_sql(
        table="events",
        group_col="event_type",
        value_expr="value",
        alpha=ALPHA,
        quantiles=QUANTILES,
        include_sum_avg=False,
    ),
    "flagship_docs_metrics": ddsketch_group_sql(
        table="documents",
        group_col="lang",
        metrics={
            "bytes_": ("strlen(text)", True),
            "lines_": ("length(text) - length(replace(text, chr(10), '')) + 1", True),
        },
        alpha=ALPHA,
        quantiles=QUANTILES,
    ),
    "sha256_invariant_by_lang": """
        SELECT lang,
               CAST(count(*) AS DOUBLE) AS "count",
               bit_xor(('0x' || substr(sha256(coalesce(text, '')), 1, 15))::BIGINT) AS sig
        FROM documents GROUP BY lang
    """,
}


def _family_oracles() -> dict:
    from .functions.family_oracle import (
        bloom_membership_sql,
        cms_frequency_sql,
        ams_f2_sql,
        ams_join_size_sql,
        hll_sql,
        kmv_overlap_sql,
        kmv_sql,
    )
    from .functions.dedup_oracle import (
        containment_pairs_sql,
        decontam_sql,
        dup_fraction_sql,
        duplicate_spans_sql,
        exact_dedup_sql,
        jaccard_pairs_sql,
        lsh_pairs_sql,
        minhash_signature_sql,
        ngram_jaccard_sql,
        repetition_scores_sql,
        simhash_hamming_pairs_sql,
        simhash_sql,
    )
    from .functions.similarity_oracle import (
        ivf_knn_sql,
        kmeans_sql,
        knn_sql,
        neardup_sql,
        semdedup_sql,
        srp_neardup_sql,
    )
    from .functions.text_oracle import (
        lang_id_sql,
        pii_scrub_sql,
        quality_scores_sql,
        tfidf_sql,
        token_stats_by_group_sql,
        winnow_sql,
    )

    from .core.hashing import splitmix64_sql
    from .stages.sampling import split_thresholds

    _TWO64 = 1 << 64
    h0 = splitmix64_sql("doc_id", 0)
    names = list(SPLITS.keys())
    ths = split_thresholds(SPLITS.values())
    split_case = "CASE " + " ".join(
        f"WHEN {h0} < {t}::HUGEINT THEN '{n}'" for n, t in zip(names[:-1], ths[:-1])
    ) + f" ELSE '{names[-1]}' END"
    split_counts_sql = f"""
        SELECT lang, {split_case} AS split, count(*) AS n
        FROM documents GROUP BY 1, 2
    """
    pivot_sql = f"""
        WITH sp AS (SELECT lang, {split_case} AS split FROM documents)
        SELECT lang,
               coalesce(count(*) FILTER (WHERE split = 'test'), 0)::BIGINT AS test,
               coalesce(count(*) FILTER (WHERE split = 'train'), 0)::BIGINT AS train,
               coalesce(count(*) FILTER (WHERE split = 'val'), 0)::BIGINT AS val
        FROM sp GROUP BY lang
    """
    snapshot_diff_sql = f"""
        WITH sp AS (SELECT doc_id, text, {split_case} AS split FROM documents),
        b AS (
          SELECT doc_id,
                 CASE WHEN split = 'val' THEN text || ' EDITED' ELSE text END AS text
          FROM sp WHERE split <> 'test'
          UNION ALL
          SELECT doc_id + 10000000 AS doc_id, text FROM sp WHERE split = 'test'
        ),
        a AS (SELECT doc_id, text FROM documents)
        SELECT coalesce(a.doc_id, b.doc_id) AS doc_id,
               CASE WHEN a.doc_id IS NULL THEN 'added'
                    WHEN b.doc_id IS NULL THEN 'removed'
                    ELSE 'changed' END AS status
        FROM a FULL JOIN b ON a.doc_id = b.doc_id
        WHERE a.doc_id IS NULL OR b.doc_id IS NULL OR a.text <> b.text
    """
    h7 = splitmix64_sql("doc_id", 7)
    rate_case = "CASE lang " + " ".join(
        f"WHEN '{g}' THEN {min(int(r * _TWO64), _TWO64 - 1)}::HUGEINT"
        for g, r in STRAT_RATES.items()
    ) + f" ELSE {min(int(STRAT_DEFAULT * _TWO64), _TWO64 - 1)}::HUGEINT END"
    stratified_sql = f"""
        SELECT doc_id, lang FROM documents WHERE {h7} < {rate_case}
    """
    from .functions.oracle import _consts

    _, _m_log, _, _ = _consts(ALPHA, "log")
    rank_sql = f"""
        WITH keyed AS (
            SELECT l_orderkey, l_linenumber, l_returnflag,
                   CAST(ceil(log2(CAST(l_extendedprice AS DOUBLE)) * {_m_log:.17e}) AS BIGINT) AS k
            FROM lineitem
        ), binned AS (
            SELECT l_returnflag, k, CAST(count(*) AS DOUBLE) AS c
            FROM keyed GROUP BY 1, 2
        ), cum AS (
            SELECT l_returnflag, k, c,
                   sum(c) OVER (PARTITION BY l_returnflag ORDER BY k) AS running
            FROM binned
        )
        SELECT x.l_orderkey, x.l_linenumber, x.l_returnflag,
               CAST(cu.running - cu.c AS BIGINT) AS rank_lt
        FROM keyed x
        JOIN cum cu ON cu.l_returnflag = x.l_returnflag AND cu.k = x.k
    """
    lm_sql = f"""
        WITH toks AS (
            SELECT doc_id,
                   list_filter(string_split(text, ' '), x -> x <> '') AS tokens
            FROM documents
        ), bi AS (
            SELECT doc_id,
                   unnest(list_zip(tokens[1:length(tokens)-1],
                                   tokens[2:length(tokens)])) AS z
            FROM toks WHERE length(tokens) >= 2
        ), occ AS (
            SELECT doc_id, z[1] || ' ' || z[2] AS bigram FROM bi
        ), cnt AS (
            SELECT bigram, count(*) AS n FROM occ GROUP BY bigram
        ), topk AS (
            SELECT bigram, CAST(floor(log2(1 + n) * 1000) AS BIGINT) AS w
            FROM cnt ORDER BY n DESC, bigram ASC LIMIT {LM_TOP_K}
        ), per_doc AS (
            SELECT o.doc_id,
                   CAST(count(*) AS BIGINT) AS n_bigrams,
                   CAST(coalesce(sum(t.w), 0) AS BIGINT) AS score_milli
            FROM occ o LEFT JOIN topk t USING (bigram)
            GROUP BY o.doc_id
        )
        SELECT d.doc_id,
               coalesce(p.n_bigrams, 0) AS n_bigrams,
               coalesce(p.score_milli, 0) AS score_milli
        FROM documents d LEFT JOIN per_doc p USING (doc_id)
    """
    pack_sql = f"""
        WITH p AS (
            SELECT doc_id,
                   CAST({splitmix64_sql('doc_id', 0)} % {PACK_PARTITIONS} AS INTEGER) AS part,
                   greatest(n_chars, 1) AS tokens
            FROM documents
        ), c AS (
            SELECT doc_id, part, tokens,
                   coalesce(sum(tokens) OVER (
                       PARTITION BY part ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                   ), 0) AS cum_before
            FROM p
        )
        SELECT doc_id, part, CAST(tokens AS BIGINT) AS tokens,
               CAST(cum_before // {PACK_MAX_TOKENS} AS BIGINT) AS seq_first,
               CAST((cum_before + tokens - 1) // {PACK_MAX_TOKENS} AS BIGINT) AS seq_last
        FROM c
    """

    dedup_kw = dict(table="documents", key="doc_id", text="text")
    # t-digest / KLL exactly-maintained fields: plain SQL aggregates.  The
    # estimates themselves stay rows-only (sequential compaction schedules).
    exact_fields_sql = """
        SELECT lang,
               CAST(count(n_chars) AS DOUBLE) AS "count",
               CAST(min(n_chars) AS DOUBLE) AS "min",
               CAST(max(n_chars) AS DOUBLE) AS "max"
        FROM documents
        GROUP BY lang
    """
    # outlier filter: per-group p99 via the bucket mirror, then the strict
    # filter + threshold column (pipelines/outlier.py)
    outlier_thr_sql = ddsketch_quantile_sql(
        table="orders",
        group_col="o_orderpriority",
        value_expr="o_totalprice",
        alpha=ALPHA,
        quantiles=(0.99,),
        include_sum_avg=False,
    )
    outlier_sql = f"""
        WITH thr AS ({outlier_thr_sql})
        SELECT o.o_orderkey, o.o_orderpriority, o.o_totalprice, t.p99 AS thr
        FROM orders o JOIN thr t USING (o_orderpriority)
        WHERE o.o_totalprice > t.p99
    """
    # rollup: UNION ALL of the bucket mirror at each level (pipelines/rollup.py)
    rollup_levels = [
        "(SELECT lang || '|' || source AS group_key, n_chars FROM documents) g",
        "(SELECT lang || '|(all)' AS group_key, n_chars FROM documents) g",
        "(SELECT '(all)|(all)' AS group_key, n_chars FROM documents) g",
    ]
    cube_levels = [
        "(SELECT lang || '|' || source AS group_key, n_chars FROM documents) g",
        "(SELECT lang || '|(all)' AS group_key, n_chars FROM documents) g",
        "(SELECT '(all)|' || source AS group_key, n_chars FROM documents) g",
        "(SELECT '(all)|(all)' AS group_key, n_chars FROM documents) g",
    ]
    cube_sql = "\nUNION ALL\n".join(
        "SELECT * FROM ("
        + ddsketch_quantile_sql(
            table=lvl,
            group_col="group_key",
            value_expr="n_chars",
            alpha=ALPHA,
            quantiles=QUANTILES,
        )
        + ")"
        for lvl in cube_levels
    )
    rollup_sql = "\nUNION ALL\n".join(
        "SELECT * FROM ("
        + ddsketch_quantile_sql(
            table=lvl,
            group_col="group_key",
            value_expr="n_chars",
            alpha=ALPHA,
            quantiles=QUANTILES,
        )
        + ")"
        for lvl in rollup_levels
    )
    # histogram export: GROUP BY the bucket-key expression (zero band filtered)
    from .functions.oracle import ddsketch_key_sql

    hist_key, hist_minp = ddsketch_key_sql("n_chars", ALPHA)
    hist_sql = f"""
        SELECT lang, {hist_key} AS k, CAST(count(*) AS DOUBLE) AS cnt
        FROM documents WHERE n_chars > {hist_minp:.17e}
        GROUP BY lang, 2
    """
    # equi-depth bucketize: thresholds via the bucket mirror, then the
    # per-row strict-comparison sum (pipelines/outlier.py)
    bucketize_thr_sql = ddsketch_quantile_sql(
        table="lineitem",
        group_col="l_returnflag",
        value_expr="l_extendedprice",
        alpha=ALPHA,
        quantiles=(0.25, 0.5, 0.75),
        include_sum_avg=False,
    )
    bucketize_sql = f"""
        WITH thr AS ({bucketize_thr_sql})
        SELECT l.l_orderkey, l.l_linenumber, l.l_returnflag, l.l_extendedprice,
               (CAST(l.l_extendedprice > t.p25 AS BIGINT)
                + CAST(l.l_extendedprice > t.p50 AS BIGINT)
                + CAST(l.l_extendedprice > t.p75 AS BIGINT)) AS bucket
        FROM lineitem l JOIN thr t USING (l_returnflag)
    """
    # drift: exact-integer TVD numerator over the two splits' bucket tables
    drift_ctes = f"""
        WITH keyed AS (
          SELECT lang, {split_case} AS split, {hist_key} AS k
          FROM documents WHERE n_chars > {hist_minp:.17e}
        ),
        a AS (SELECT lang, k, count(*)::HUGEINT AS c FROM keyed
              WHERE split = 'train' GROUP BY 1, 2),
        b AS (SELECT lang, k, count(*)::HUGEINT AS c FROM keyed
              WHERE split = 'val' GROUP BY 1, 2),
        na AS (SELECT lang, sum(c) AS n FROM a GROUP BY 1),
        nb AS (SELECT lang, sum(c) AS n FROM b GROUP BY 1),
        j AS (
          SELECT coalesce(a.lang, b.lang) AS lang, coalesce(a.k, b.k) AS k,
                 coalesce(a.c, 0) AS ca, coalesce(b.c, 0) AS cb
          FROM a FULL JOIN b ON a.lang = b.lang AND a.k = b.k
        )"""
    drift_sql = drift_ctes + """,
        agg AS (
          SELECT j.lang, count(*) AS buckets,
                 sum(abs(j.ca * nb.n - j.cb * na.n)) AS l1
          FROM j JOIN na ON na.lang = j.lang JOIN nb ON nb.lang = j.lang
          GROUP BY 1
        )
        SELECT agg.lang, na.n::DOUBLE AS n_a, nb.n::DOUBLE AS n_b,
               buckets::BIGINT AS buckets, l1::DOUBLE AS l1_num,
               l1::DOUBLE / (2 * na.n * nb.n)::DOUBLE AS tvd
        FROM agg JOIN na ON na.lang = agg.lang JOIN nb ON nb.lang = agg.lang
    """
    ks_sql = drift_ctes + """,
        cum AS (
          SELECT lang, k,
                 sum(ca) OVER (PARTITION BY lang ORDER BY k) AS cca,
                 sum(cb) OVER (PARTITION BY lang ORDER BY k) AS ccb
          FROM j
        ),
        ksm AS (
          SELECT cum.lang, max(abs(cca * nb.n - ccb * na.n)) AS ks_num
          FROM cum JOIN na ON na.lang = cum.lang JOIN nb ON nb.lang = cum.lang
          GROUP BY 1
        )
        SELECT ksm.lang, na.n::DOUBLE AS n_a, nb.n::DOUBLE AS n_b,
               ks_num::DOUBLE AS ks_num,
               ks_num::DOUBLE / (na.n * nb.n)::DOUBLE AS ks
        FROM ksm JOIN na ON na.lang = ksm.lang JOIN nb ON nb.lang = ksm.lang
    """
    hw = splitmix64_sql("doc_id", WEIGHTED_SAMPLE_SEED)
    weighted_sample_sql = f"""
        SELECT doc_id, lang, n_chars FROM (
            SELECT doc_id, lang, n_chars,
                   row_number() OVER (
                       ORDER BY log2(({hw} + 1.0) / 18446744073709551616.0)
                                / CAST(greatest(n_chars, 1) AS DOUBLE) DESC,
                                doc_id
                   ) AS rn
            FROM documents
        ) WHERE rn <= {WEIGHTED_SAMPLE_K}
    """
    hm = splitmix64_sql("doc_id", MIX_SEED)
    mixture_sql = f"""
        WITH counts AS (
          SELECT lang, count(*)::HUGEINT AS c,
                 (1 + ascii(substr(lang, -1, 1)) % 3)::HUGEINT AS w
          FROM documents GROUP BY lang
        ), star AS (
          SELECT lang, c, w FROM counts j1
          WHERE NOT EXISTS (
            SELECT 1 FROM counts j2
            WHERE j2.c * j1.w < j1.c * j2.w
               OR (j2.c * j1.w = j1.c * j2.w AND j2.lang < j1.lang)
          )
        ), quota AS (
          SELECT counts.lang, (counts.w * star.c) // star.w AS k
          FROM counts CROSS JOIN star
        ), ranked AS (
          SELECT doc_id, lang, n_chars,
                 row_number() OVER (PARTITION BY lang ORDER BY {hm}, doc_id) AS rn
          FROM documents
        )
        SELECT r.doc_id, r.lang, r.n_chars
        FROM ranked r JOIN quota q USING (lang)
        WHERE r.rn <= q.k
    """
    hs = splitmix64_sql("doc_id", SAMPLE_SEED)
    sample_global_sql = f"""
        SELECT doc_id, lang, n_chars FROM (
            SELECT doc_id, lang, n_chars,
                   row_number() OVER (ORDER BY {hs}, doc_id) AS rn
            FROM documents
        ) WHERE rn <= {SAMPLE_K_GLOBAL}
    """
    sample_lang_sql = f"""
        SELECT doc_id, lang, n_chars FROM (
            SELECT doc_id, lang, n_chars,
                   row_number() OVER (PARTITION BY lang ORDER BY {hs}, doc_id) AS rn
            FROM documents
        ) WHERE rn <= {SAMPLE_K_PER_LANG}
    """
    return {
        "split_counts_by_lang": split_counts_sql,
        "snapshot_diff_docs": snapshot_diff_sql,
        "pivot_split_counts": pivot_sql,
        "stratified_sample_docs": stratified_sql,
        "pack_sequences_docs": pack_sql,
        "bigram_lm_scores": lm_sql,
        "pmi_collocations_docs": f"""
            WITH toks AS (
                SELECT doc_id,
                       list_filter(string_split(text, ' '), x -> x <> '') AS tokens
                FROM documents
            ), bi AS (
                SELECT unnest(list_zip(tokens[1:length(tokens)-1],
                                       tokens[2:length(tokens)])) AS z
                FROM toks WHERE length(tokens) >= 2
            ), occ AS (
                SELECT z[1] || ' ' || z[2] AS bigram, z[1] AS x, z[2] AS y FROM bi
            ), cnt AS (
                SELECT bigram, x, y, count(*)::HUGEINT AS c
                FROM occ GROUP BY bigram, x, y
            ), uni AS (
                SELECT unnest(tokens) AS tok FROM toks
            ), ucnt AS (
                SELECT tok, count(*)::HUGEINT AS c FROM uni GROUP BY tok
            ), ntok AS (
                SELECT count(*)::HUGEINT AS n FROM uni
            ), top AS (
                SELECT bigram, x, y, c FROM cnt
                WHERE c >= {PMI_MIN_COUNT}
                ORDER BY c DESC, bigram ASC LIMIT {PMI_TOP_K}
            )
            SELECT t.bigram,
                   CAST(t.c AS BIGINT) AS c_xy,
                   CAST(ux.c AS BIGINT) AS c_x,
                   CAST(uy.c AS BIGINT) AS c_y,
                   CAST(n.n AS BIGINT) AS n_tokens,
                   ln(CAST(t.c * n.n AS DOUBLE) / CAST(ux.c * uy.c AS DOUBLE)) AS pmi
            FROM top t
            JOIN ucnt ux ON ux.tok = t.x
            JOIN ucnt uy ON uy.tok = t.y
            CROSS JOIN ntok n
        """,
        "dd_rank_transform_prices": rank_sql,
        "dd_outlier_orders": outlier_sql,
        "dd_rollup_lang_source": rollup_sql,
        "exact_median_chars_by_lang": """
            WITH r AS (
              SELECT lang, n_chars,
                     row_number() OVER (PARTITION BY lang ORDER BY n_chars) AS rn,
                     count(*) OVER (PARTITION BY lang) AS n
              FROM documents
            )
            SELECT lang, CAST(n_chars AS DOUBLE) AS exact_p50
            FROM r WHERE rn = CAST(floor(0.5 * (n - 1)) AS BIGINT) + 1
        """,
        "dd_cube_lang_source": cube_sql,
        "dd_histogram_by_lang": hist_sql,
        "dd_drift_train_val": drift_sql,
        "dd_ks_train_val": ks_sql,
        "dd_bucketize_prices": bucketize_sql,
        "uniform_sample_docs": sample_global_sql,
        "uniform_sample_per_lang": sample_lang_sql,
        "mixture_rebalance_docs": mixture_sql,
        "weighted_sample_docs": weighted_sample_sql,
        "tdigest_exact_fields_by_lang": exact_fields_sql,
        "kll_exact_fields_by_lang": exact_fields_sql,
        "dd_weighted_price_by_flag": ddsketch_quantile_sql(
            table="lineitem",
            group_col="l_returnflag",
            value_expr="l_extendedprice",
            weight_expr="l_quantity",
            alpha=ALPHA,
            quantiles=QUANTILES,
            include_sum_avg=False,
        ),
        "dd_signed_quantiles_by_event_type": ddsketch_quantile_sql(
            table="events",
            group_col="event_type",
            value_expr="value - 50.0",
            alpha=ALPHA,
            quantiles=QUANTILES,
            include_sum_avg=False,
            signed=True,
        ),
        "dd_collapsed_quantiles_by_event_type": ddsketch_quantile_sql(
            table="events",
            group_col="event_type",
            value_expr="value",
            alpha=ALPHA,
            quantiles=QUANTILES,
            include_sum_avg=False,
            collapse="lowest",
            bin_limit=64,
        ),
        "dd_linear_mapping_by_lang": ddsketch_quantile_sql(
            table="documents",
            group_col="lang",
            value_expr="n_chars",
            alpha=ALPHA,
            quantiles=QUANTILES,
            mapping="linear",
        ),
        "dd_cubic_mapping_by_lang": ddsketch_quantile_sql(
            table="documents",
            group_col="lang",
            value_expr="n_chars",
            alpha=ALPHA,
            quantiles=QUANTILES,
            mapping="cubic",
        ),
        "dd_nullkey_quantiles": ddsketch_quantile_sql(
            table=(
                "(SELECT coalesce(nullif(lang, 'en'), '(null)') AS lang_or_null,"
                " n_chars FROM documents)"
            ),
            group_col="lang_or_null",
            value_expr="n_chars",
            alpha=ALPHA,
            quantiles=QUANTILES,
        ),
        "dd_collapsed_highest_by_event_type": ddsketch_quantile_sql(
            table="events",
            group_col="event_type",
            value_expr="value",
            alpha=ALPHA,
            quantiles=QUANTILES,
            include_sum_avg=False,
            collapse="highest",
            bin_limit=64,
        ),
        "flagship_by_lang_source": ddsketch_quantile_sql(
            table="(SELECT lang || '|' || source AS group_key, n_chars FROM documents) g",
            group_col="group_key",
            value_expr="n_chars",
            alpha=ALPHA,
            quantiles=QUANTILES,
        ),
        "dd_incremental_windowed": ddsketch_quantile_sql(
            table="(SELECT ((epoch_us(ts) // 1000000 // 3600) * 3600)::VARCHAR"
            " || '|' || event_type AS window_key, value FROM events) w",
            group_col="window_key",
            value_expr="value",
            alpha=ALPHA,
            quantiles=QUANTILES,
            include_sum_avg=False,
        ),
        "dd_windowed_quantiles": ddsketch_quantile_sql(
            table="(SELECT ((epoch_us(ts) // 1000000 // 3600) * 3600)::VARCHAR"
            " || '|' || event_type AS window_key, value FROM events) w",
            group_col="window_key",
            value_expr="value",
            alpha=ALPHA,
            quantiles=QUANTILES,
            include_sum_avg=False,
        ),
        "dd_sliding_window_quantiles": ddsketch_quantile_sql(
            table="(SELECT ((epoch_us(ts) // 1000000 // 1800) * 1800 - o.o)::VARCHAR"
            " || '|' || event_type AS window_key, value"
            " FROM events CROSS JOIN (SELECT unnest([0, 1800]) AS o) o) w",
            group_col="window_key",
            value_expr="value",
            alpha=ALPHA,
            quantiles=QUANTILES,
            include_sum_avg=False,
        ),
        "dd_ship_latency_by_priority": ddsketch_quantile_sql(
            table="(SELECT o.o_orderpriority,"
            " (epoch_us(l.l_shipdate) - epoch_us(o.o_orderdate)) // 86400000000"
            " AS latency_days"
            " FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey) j",
            group_col="o_orderpriority",
            value_expr="latency_days",
            alpha=ALPHA,
            quantiles=QUANTILES,
        ),
        "dd_interarrival_by_event_type": ddsketch_quantile_sql(
            table="(SELECT event_type,"
            " epoch_us(ts) - lag(epoch_us(ts)) OVER"
            " (PARTITION BY user_id ORDER BY ts, event_id) AS gap_us"
            " FROM events) g",
            group_col="event_type",
            value_expr="gap_us",
            where="gap_us IS NOT NULL",
            alpha=ALPHA,
            quantiles=QUANTILES,
        ),
        "session_concurrency_timeline": """
            WITH e AS (SELECT user_id, epoch_us(ts) AS us FROM events),
            ordered AS (
              SELECT user_id, us,
                     lag(us) OVER (PARTITION BY user_id ORDER BY us) AS prev
              FROM e
            ),
            flags AS (
              SELECT user_id, us,
                     CASE WHEN prev IS NULL OR us - prev > 1800000000
                          THEN 1 ELSE 0 END AS new_s
              FROM ordered
            ),
            sess AS (
              SELECT user_id, us,
                     sum(new_s) OVER (
                       PARTITION BY user_id ORDER BY us
                       ROWS UNBOUNDED PRECEDING
                     ) AS sid
              FROM flags
            ),
            iv AS (
              SELECT user_id, sid, min(us) AS s_us, max(us) AS e_us
              FROM sess GROUP BY user_id, sid
            ),
            sweep AS (
              SELECT s_us AS us, CAST(1 AS BIGINT) AS delta FROM iv
              UNION ALL
              SELECT e_us AS us, CAST(-1 AS BIGINT) AS delta FROM iv
            )
            SELECT us, delta,
                   CAST(sum(delta) OVER (
                     ORDER BY us, delta DESC ROWS UNBOUNDED PRECEDING
                   ) AS BIGINT) AS concurrency
            FROM sweep
        """,
        "sq8_covariance_by_label": """
            WITH vz AS (
              SELECT vec_id, CAST(label AS BIGINT) AS label,
                     (embedding)::DOUBLE[] AS v
              FROM embeddings
            ),
            nz AS (
              SELECT vec_id, label, v,
                     CASE WHEN sqrt(list_dot_product(v, v)) = 0 THEN 1.0
                          ELSE sqrt(list_dot_product(v, v)) END AS nrm
              FROM vz
            ),
            -- mirrors pipelines/quantize.py::_normalized_e6 / _encode
            flat AS (
              SELECT vec_id, label, generate_subscripts(v, 1) AS d,
                     CAST(round(unnest(v) / nrm * 1000000.0) AS BIGINT) AS v6
              FROM nz
            ),
            amax AS (SELECT greatest(max(abs(v6)), 1) AS a6 FROM flat),
            codes AS (
              SELECT vec_id, label, d,
                     CAST(round(v6 * 127.0 / a6) AS BIGINT) AS q
              FROM flat, amax
            ),
            pairs AS (
              SELECT a.label, CAST(a.d AS BIGINT) AS i, CAST(b.d AS BIGINT) AS j,
                     a.q AS qi, b.q AS qj
              FROM codes a JOIN codes b
                ON a.vec_id = b.vec_id AND b.d >= a.d
            ),
            g AS (
              SELECT label, i, j,
                     CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(qi) AS BIGINT) AS sum_i,
                     CAST(sum(qj) AS BIGINT) AS sum_j,
                     CAST(sum(qi * qj) AS BIGINT) AS sum_ij
              FROM pairs GROUP BY label, i, j
            )
            SELECT label, i, j, n, sum_i, sum_j, sum_ij,
                   CAST(n * sum_ij - sum_i * sum_j AS BIGINT) AS cov_num
            FROM g
        """,
        "rfm_customer_segments": """
            WITH cust AS (
              SELECT o_custkey,
                     max(epoch_us(o_orderdate)) AS recency_us,
                     CAST(count(*) AS BIGINT) AS frequency,
                     CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
                       AS monetary_c
              FROM orders GROUP BY o_custkey
            ),
            rq AS (
              SELECT
                max(CASE WHEN rn = CAST(floor((n-1)*0.25) AS BIGINT)+1 THEN v END) AS q25,
                max(CASE WHEN rn = CAST(floor((n-1)*0.50) AS BIGINT)+1 THEN v END) AS q50,
                max(CASE WHEN rn = CAST(floor((n-1)*0.75) AS BIGINT)+1 THEN v END) AS q75
              FROM (SELECT recency_us AS v,
                           row_number() OVER (ORDER BY recency_us) AS rn,
                           count(*) OVER () AS n FROM cust)
            ),
            fq AS (
              SELECT
                max(CASE WHEN rn = CAST(floor((n-1)*0.25) AS BIGINT)+1 THEN v END) AS q25,
                max(CASE WHEN rn = CAST(floor((n-1)*0.50) AS BIGINT)+1 THEN v END) AS q50,
                max(CASE WHEN rn = CAST(floor((n-1)*0.75) AS BIGINT)+1 THEN v END) AS q75
              FROM (SELECT frequency AS v,
                           row_number() OVER (ORDER BY frequency) AS rn,
                           count(*) OVER () AS n FROM cust)
            ),
            mq AS (
              SELECT
                max(CASE WHEN rn = CAST(floor((n-1)*0.25) AS BIGINT)+1 THEN v END) AS q25,
                max(CASE WHEN rn = CAST(floor((n-1)*0.50) AS BIGINT)+1 THEN v END) AS q50,
                max(CASE WHEN rn = CAST(floor((n-1)*0.75) AS BIGINT)+1 THEN v END) AS q75
              FROM (SELECT monetary_c AS v,
                           row_number() OVER (ORDER BY monetary_c) AS rn,
                           count(*) OVER () AS n FROM cust)
            ),
            coded AS (
              SELECT c.o_custkey, c.recency_us, c.frequency, c.monetary_c,
                     1 + CAST(c.recency_us > rq.q25 AS BIGINT)
                       + CAST(c.recency_us > rq.q50 AS BIGINT)
                       + CAST(c.recency_us > rq.q75 AS BIGINT) AS r_bucket,
                     1 + CAST(c.frequency > fq.q25 AS BIGINT)
                       + CAST(c.frequency > fq.q50 AS BIGINT)
                       + CAST(c.frequency > fq.q75 AS BIGINT) AS f_bucket,
                     1 + CAST(c.monetary_c > mq.q25 AS BIGINT)
                       + CAST(c.monetary_c > mq.q50 AS BIGINT)
                       + CAST(c.monetary_c > mq.q75 AS BIGINT) AS m_bucket
              FROM cust c, rq, fq, mq
            )
            SELECT *, r_bucket*100 + f_bucket*10 + m_bucket AS rfm_code FROM coded
        """,
        "markov_event_transitions": """
            WITH nxt AS (
              SELECT event_type AS from_state,
                     lead(event_type) OVER
                       (PARTITION BY user_id ORDER BY ts, event_id) AS to_state
              FROM events
            )
            SELECT from_state, to_state,
                   CAST(count(*) AS BIGINT) AS n_pair,
                   CAST(sum(count(*)) OVER (PARTITION BY from_state) AS BIGINT)
                     AS n_from
            FROM nxt WHERE to_state IS NOT NULL
            GROUP BY from_state, to_state
        """,
        "user_sessions": """
            WITH e AS (
              SELECT user_id, epoch_us(ts) / 1000000.0 AS sec FROM events
            ),
            ordered AS (
              SELECT user_id, sec,
                     lag(sec) OVER (PARTITION BY user_id ORDER BY sec) AS prev
              FROM e
            ),
            flags AS (
              SELECT user_id, sec,
                     CASE WHEN prev IS NULL OR sec - prev > 1800 THEN 1 ELSE 0 END AS new_s
              FROM ordered
            ),
            sess AS (
              SELECT user_id, sec,
                     sum(new_s) OVER (
                       PARTITION BY user_id ORDER BY sec
                       ROWS UNBOUNDED PRECEDING
                     ) AS sid
              FROM flags
            ),
            per_sess AS (
              SELECT user_id, sid, max(sec) - min(sec) AS len, count(*) AS n
              FROM sess GROUP BY user_id, sid
            )
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n_sessions,
                   max(len) AS longest_s,
                   CAST(sum(n) AS BIGINT) AS total_events
            FROM per_sess GROUP BY user_id
        """,
        "exact_dedup_docs": exact_dedup_sql(**dedup_kw),
        "chunk_documents": """
            WITH mx AS (
              SELECT CAST(ceil(max(length(text)) / 150.0) AS BIGINT) AS m
              FROM documents
            ),
            ids AS (SELECT unnest(range((SELECT m FROM mx))) AS i)
            SELECT d.doc_id, ids.i AS chunk_id,
                   substring(d.text, CAST(ids.i * 150 + 1 AS BIGINT), 200) AS chunk,
                   length(substring(d.text, CAST(ids.i * 150 + 1 AS BIGINT), 200))
                     AS chunk_len
            FROM documents d JOIN ids ON ids.i * 150 < length(d.text)
        """,
        "normalized_dedup_docs": r"""
            SELECT min(doc_id) AS doc_id FROM (
              SELECT doc_id, text FROM documents
              UNION ALL
              SELECT doc_id + 10000000, upper(text) || '  ' FROM documents
            )
            GROUP BY sha256(trim(regexp_replace(lower(text), '\s+', ' ', 'g')))
        """,
        "exact_dedup_rows": """
            SELECT doc_id, lang, n_chars FROM (
              SELECT doc_id, lang, n_chars,
                     row_number() OVER (PARTITION BY text ORDER BY doc_id) AS rn
              FROM documents
            ) WHERE rn = 1
        """,
        "minhash_signatures_docs": minhash_signature_sql(**dedup_kw),
        "lsh_candidate_pairs": lsh_pairs_sql(**dedup_kw),
        "levenshtein_dedup_pairs": f"""
            WITH lev_pairs AS ({lsh_pairs_sql(**dedup_kw)})
            SELECT p.a, p.b, CAST(levenshtein(da.text, db.text) AS BIGINT) AS lev
            FROM lev_pairs p
            JOIN documents da ON da.doc_id = p.a
            JOIN documents db ON db.doc_id = p.b
            WHERE levenshtein(da.text, db.text) <= 40
        """,
        "jaro_dedup_pairs": f"""
            WITH jw_pairs AS ({lsh_pairs_sql(**dedup_kw)})
            SELECT p.a, p.b,
                   CAST(floor(jaro_winkler_similarity(da.text, db.text)
                              * 10000 + 0.5) AS BIGINT) AS jw4
            FROM jw_pairs p
            JOIN documents da ON da.doc_id = p.a
            JOIN documents db ON db.doc_id = p.b
            WHERE floor(jaro_winkler_similarity(da.text, db.text)
                        * 10000 + 0.5) >= 9000
        """,
        "damerau_dedup_pairs": f"""
            WITH dl_pairs AS ({lsh_pairs_sql(**dedup_kw)})
            SELECT p.a, p.b,
                   CAST(damerau_levenshtein(da.text, db.text) AS BIGINT) AS dl
            FROM dl_pairs p
            JOIN documents da ON da.doc_id = p.a
            JOIN documents db ON db.doc_id = p.b
            WHERE damerau_levenshtein(da.text, db.text) <= 40
        """,
        "jaccard_dedup_pairs": jaccard_pairs_sql(**dedup_kw),
        "containment_dedup_pairs": containment_pairs_sql(threshold=0.5, **dedup_kw),
        "ngram_jaccard_pairs": ngram_jaccard_sql(**dedup_kw),
        "dup_fraction_docs": dup_fraction_sql(**dedup_kw),
        "duplicate_spans_docs": duplicate_spans_sql(**dedup_kw, n=8),
        "decontaminate_docs": decontam_sql(
            table="documents",
            key="doc_id",
            text="text",
            bench_where="doc_id % 23 = 0",
            n=8,
        ),
        "repetition_scores_docs": repetition_scores_sql(
            table="documents", key="doc_id", text="text"
        ),
        "dedup_clusters": (_cluster_sql := f"""
            WITH RECURSIVE pairs AS ({jaccard_pairs_sql(**dedup_kw)}),
            und(x, y) AS (
                SELECT a, b FROM pairs UNION SELECT b, a FROM pairs
            ),
            nodes(node) AS (SELECT DISTINCT x FROM und),
            reach(node, anc) AS (
                SELECT node, node FROM nodes
                UNION
                SELECT r.node, u.y FROM reach r JOIN und u ON u.x = r.anc
            )
            SELECT node, min(anc) AS cluster FROM reach GROUP BY node
        """),
        "dup_rate_by_source": """
            WITH h AS (
              SELECT source, sha256(coalesce(text, '')) AS hh FROM documents
            ), c AS (
              SELECT hh, count(*) AS c FROM h GROUP BY hh
            )
            SELECT h.source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(CASE WHEN c.c >= 2 THEN 1 ELSE 0 END) AS BIGINT)
                     AS n_dup,
                   CAST(CAST(sum(CASE WHEN c.c >= 2 THEN 1 ELSE 0 END)
                             AS BIGINT) AS DOUBLE)
                     / CAST(count(*) AS DOUBLE) AS dup_rate
            FROM h JOIN c USING (hh)
            GROUP BY h.source
        """,
        "neardup_kept_counts": f"""
            WITH cl AS ({_cluster_sql})
            SELECT d.lang, CAST(count(*) AS BIGINT) AS n_kept
            FROM documents d
            WHERE NOT EXISTS (
                SELECT 1 FROM cl
                WHERE cl.node = d.doc_id AND cl.cluster <> d.doc_id
            )
            GROUP BY d.lang
        """,
        "simhash_docs": simhash_sql(**dedup_kw),
        "simhash_hamming_pairs": simhash_hamming_pairs_sql(max_hamming=16, **dedup_kw),
        "embedding_quantize_stats": "WITH qz_vecs AS (\n  SELECT vec_id, (embedding)::DOUBLE[] AS v FROM embeddings\n),\nqz_nrm AS (\n  SELECT vec_id, v,\n         CASE WHEN sqrt(list_dot_product(v, v)) = 0 THEN 1.0\n              ELSE sqrt(list_dot_product(v, v)) END AS nrm\n  FROM qz_vecs\n),\n-- mirrors pipelines/quantize.py::_normalized_e6: v6 = round(x_hat * 1e6)\n-- (1e-6 pre-rounding absorbs the <=1-ulp norm disagreement, the repo's\n-- standing normalization-mirror convention; round() is half-away on both)\nqz_flat AS (\n  SELECT vec_id, generate_subscripts(v, 1) AS d,\n         CAST(round(unnest(v) / nrm * 1000000.0) AS BIGINT) AS v6\n  FROM qz_nrm\n),\nqz_amax AS (SELECT greatest(max(abs(v6)), 1) AS a6 FROM qz_flat),\n-- mirrors _encode: q = round(v6 * 127.0 / a6), exact-integer operands\nqz_codes AS (\n  SELECT vec_id, d, CAST(round(v6 * 127.0 / a6) AS BIGINT) AS q\n  FROM qz_flat, qz_amax\n)\nSELECT vec_id, CAST(sum(q) AS BIGINT) AS q_sum, min(q) AS q_min,\n       max(q) AS q_max, max(CASE WHEN d = 1 THEN q END) AS q_first\nFROM qz_codes GROUP BY vec_id\n",
        "quantized_knn_top5": "WITH qz_vecs AS (\n  SELECT vec_id, (embedding)::DOUBLE[] AS v FROM embeddings\n),\nqz_nrm AS (\n  SELECT vec_id, v,\n         CASE WHEN sqrt(list_dot_product(v, v)) = 0 THEN 1.0\n              ELSE sqrt(list_dot_product(v, v)) END AS nrm\n  FROM qz_vecs\n),\n-- mirrors pipelines/quantize.py::_normalized_e6: v6 = round(x_hat * 1e6)\n-- (1e-6 pre-rounding absorbs the <=1-ulp norm disagreement, the repo's\n-- standing normalization-mirror convention; round() is half-away on both)\nqz_flat AS (\n  SELECT vec_id, generate_subscripts(v, 1) AS d,\n         CAST(round(unnest(v) / nrm * 1000000.0) AS BIGINT) AS v6\n  FROM qz_nrm\n),\nqz_amax AS (SELECT greatest(max(abs(v6)), 1) AS a6 FROM qz_flat),\n-- mirrors _encode: q = round(v6 * 127.0 / a6), exact-integer operands\nqz_codes AS (\n  SELECT vec_id, d, CAST(round(v6 * 127.0 / a6) AS BIGINT) AS q\n  FROM qz_flat, qz_amax\n),\nqz_scores AS (\n  SELECT cq.vec_id AS query_id, cd.vec_id AS neighbor_id,\n         CAST(sum(cq.q * cd.q) AS BIGINT) AS score\n  FROM qz_codes cq JOIN qz_codes cd USING (d)\n  WHERE cq.vec_id IN (0, 1, 2, 3, 4, 5, 6, 7, 8, 9) AND cd.vec_id <> cq.vec_id\n  GROUP BY 1, 2\n)\nSELECT query_id, neighbor_id, score FROM (\n  SELECT qz_scores.*, row_number() OVER (\n           PARTITION BY query_id ORDER BY score DESC, neighbor_id) AS rn\n  FROM qz_scores) qz_ranked\nWHERE rn <= 5\n",
        "knn_cosine_top5": knn_sql(
            table="embeddings",
            id_col="vec_id",
            vec_col="embedding",
            query_ids=KNN_QUERY_IDS,
            k=5,
        ),
        "ivf_knn_top5": ivf_knn_sql(
            table="embeddings",
            id_col="vec_id",
            vec_col="embedding",
            query_ids=KNN_QUERY_IDS,
            k=5,
            auto_size=True,
            n_probe=3,
        ),
        "kmeans_clusters_embeddings": kmeans_sql(
            table="embeddings",
            id_col="vec_id",
            vec_col="embedding",
            k=8,
            iters=3,
        ),
        "semdedup_embeddings": semdedup_sql(
            table="embeddings",
            id_col="vec_id",
            vec_col="embedding",
            k=8,
            iters=3,
            threshold=0.35,
        ),
        "embedding_neardup_pairs": neardup_sql(
            table="embeddings",
            id_col="vec_id",
            vec_col="embedding",
            threshold=NEARDUP_COS_THRESHOLD,
        ),
        "srp_neardup": srp_neardup_sql(
            table="embeddings",
            id_col="vec_id",
            vec_col="embedding",
            dim=64,  # the embeddings table's fixed dimension (TESTDATA.md)
            threshold=NEARDUP_COS_THRESHOLD,
            n_planes=6,
        ),
        "top_tokens": """
            SELECT tok AS token, CAST(count(*) AS BIGINT) AS n
            FROM (SELECT unnest(string_split(text, ' ')) AS tok FROM documents)
            WHERE tok <> ''
            GROUP BY tok
            ORDER BY n DESC, token ASC
            LIMIT 20
        """,
        "top_tokens_by_lang": """
            WITH c AS (
                SELECT lang, tok AS token, CAST(count(*) AS BIGINT) AS n
                FROM (
                    SELECT lang, unnest(string_split(text, ' ')) AS tok
                    FROM documents
                )
                WHERE tok <> ''
                GROUP BY lang, tok
            )
            SELECT lang, token, n FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY lang ORDER BY n DESC, token ASC
                ) AS rn FROM c
            ) WHERE rn <= 10
        """,
        "mode_event_type_by_user": """
            SELECT user_id, event_type, n_mode FROM (
              SELECT user_id, event_type,
                     CAST(count(*) AS BIGINT) AS n_mode,
                     row_number() OVER (
                         PARTITION BY user_id
                         ORDER BY count(*) DESC, event_type ASC
                     ) AS rn
              FROM events GROUP BY user_id, event_type
            ) WHERE rn = 1
        """,
        "gini_event_diversity_by_user": """
            WITH c AS (
              SELECT user_id, event_type, count(*)::HUGEINT AS c
              FROM events GROUP BY user_id, event_type
            ), a AS (
              SELECT user_id, sum(c * c) AS s2, sum(c) AS n FROM c GROUP BY user_id
            )
            SELECT user_id,
                   CAST(n AS BIGINT) AS n,
                   CAST(s2 AS BIGINT) AS sum_sq,
                   CAST(n * n - s2 AS DOUBLE) / CAST(n * n AS DOUBLE) AS gini
            FROM a
        """,
        "trimmed_mean_chars_by_lang": """
            WITH r AS (
              SELECT lang, n_chars,
                     row_number() OVER (PARTITION BY lang ORDER BY n_chars) AS rn,
                     count(*) OVER (PARTITION BY lang) AS n
              FROM documents
            ), lo AS (
              SELECT lang, n_chars AS lo
              FROM r WHERE rn = CAST(floor(0.1 * (n - 1)) AS BIGINT) + 1
            ), hi AS (
              SELECT lang, n_chars AS hi
              FROM r WHERE rn = CAST(floor(0.9 * (n - 1)) AS BIGINT) + 1
            )
            SELECT d.lang,
                   CAST(count(*) AS BIGINT) AS n_kept,
                   CAST(sum(d.n_chars) AS BIGINT) AS kept_sum,
                   CAST(CAST(sum(d.n_chars) AS BIGINT) AS DOUBLE)
                     / CAST(count(*) AS DOUBLE) AS trimmed_mean
            FROM documents d
            JOIN lo USING (lang)
            JOIN hi USING (lang)
            WHERE d.n_chars BETWEEN lo.lo AND hi.hi
            GROUP BY d.lang
        """,
        "winsorized_mean_chars_by_lang": """
            WITH r AS (
              SELECT lang, n_chars,
                     row_number() OVER (PARTITION BY lang ORDER BY n_chars) AS rn,
                     count(*) OVER (PARTITION BY lang) AS n
              FROM documents
            ), lo AS (
              SELECT lang, n_chars AS lo
              FROM r WHERE rn = CAST(floor(0.1 * (n - 1)) AS BIGINT) + 1
            ), hi AS (
              SELECT lang, n_chars AS hi
              FROM r WHERE rn = CAST(floor(0.9 * (n - 1)) AS BIGINT) + 1
            )
            SELECT d.lang,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CASE WHEN d.n_chars < lo.lo THEN lo.lo
                                 WHEN d.n_chars > hi.hi THEN hi.hi
                                 ELSE d.n_chars END) AS BIGINT) AS win_sum,
                   CAST(CAST(sum(CASE WHEN d.n_chars < lo.lo THEN lo.lo
                                      WHEN d.n_chars > hi.hi THEN hi.hi
                                      ELSE d.n_chars END) AS BIGINT) AS DOUBLE)
                     / CAST(count(*) AS DOUBLE) AS win_mean
            FROM documents d
            JOIN lo USING (lang)
            JOIN hi USING (lang)
            GROUP BY d.lang
        """,
        "iqr_chars_by_lang": """
            WITH r AS (
              SELECT lang, n_chars,
                     row_number() OVER (PARTITION BY lang ORDER BY n_chars) AS rn,
                     count(*) OVER (PARTITION BY lang) AS n
              FROM documents
            ), q1 AS (
              SELECT lang, n_chars AS q1
              FROM r WHERE rn = CAST(floor(0.25 * (n - 1)) AS BIGINT) + 1
            ), q3 AS (
              SELECT lang, n_chars AS q3
              FROM r WHERE rn = CAST(floor(0.75 * (n - 1)) AS BIGINT) + 1
            )
            SELECT lang, CAST(q1 AS BIGINT) AS q1, CAST(q3 AS BIGINT) AS q3,
                   CAST(q3 - q1 AS BIGINT) AS iqr
            FROM q1 JOIN q3 USING (lang)
        """,
        "moments_chars_by_lang": """
            WITH s AS (
              SELECT lang, count(*)::HUGEINT AS n,
                     sum(n_chars::HUGEINT) AS s1,
                     sum(n_chars::HUGEINT * n_chars) AS s2,
                     sum(n_chars::HUGEINT * n_chars * n_chars) AS s3,
                     sum(n_chars::HUGEINT * n_chars * n_chars * n_chars) AS s4
              FROM documents GROUP BY lang
            ), m AS (
              SELECT lang, n, s1,
                     n*s2 - s1*s1 AS m2n,
                     n*n*s3 - 3*n*s1*s2 + 2*s1*s1*s1 AS m3n,
                     n*n*n*s4 - 4*n*n*s1*s3 + 6*n*s1*s1*s2 - 3*s1*s1*s1*s1 AS m4n
              FROM s
            )
            SELECT lang,
                   CAST(n AS DOUBLE) AS n,
                   CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE) AS mean,
                   CAST(m2n AS DOUBLE) / CAST(n*n AS DOUBLE) AS var_pop,
                   CASE WHEN m2n > 0 THEN
                     (CAST(m3n AS DOUBLE) / CAST(n*n*n AS DOUBLE))
                       / ((CAST(m2n AS DOUBLE) / CAST(n*n AS DOUBLE))
                          * sqrt(CAST(m2n AS DOUBLE) / CAST(n*n AS DOUBLE)))
                   ELSE 0.0 END AS skewness,
                   CASE WHEN m2n > 0 THEN
                     (CAST(m4n AS DOUBLE) / CAST(n*n*n*n AS DOUBLE))
                       / ((CAST(m2n AS DOUBLE) / CAST(n*n AS DOUBLE))
                          * (CAST(m2n AS DOUBLE) / CAST(n*n AS DOUBLE))) - 3.0
                   ELSE 0.0 END AS kurtosis
            FROM m
        """,
        "mannwhitney_chars_en_de": """
            WITH f AS (
              SELECT lang, n_chars AS v FROM documents WHERE lang IN ('en', 'de')
            ), c AS (
              SELECT v,
                     sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)::HUGEINT AS c1,
                     count(*)::HUGEINT AS c
              FROM f GROUP BY v
            ), o AS (
              SELECT v, c1, c, sum(c) OVER (ORDER BY v) - c AS cb FROM c
            ), a AS (
              SELECT sum(c1) AS n1, sum(c) - sum(c1) AS n2,
                     sum(c1 * (2*cb + c + 1)) AS r1x2,
                     sum(c*c*c - c) AS t
              FROM o
            )
            SELECT CAST(coalesce(n1, 0) AS BIGINT) AS n1,
                   CAST(coalesce(n2, 0) AS BIGINT) AS n2,
                   CAST(coalesce(r1x2 - n1*(n1+1), 0) AS BIGINT) AS u1_x2,
                   CASE WHEN n1 > 0 AND n2 > 0 AND n1 + n2 >= 2
                             AND CAST(n1*n2 AS DOUBLE) / 12.0
                                 * (CAST(n1+n2+1 AS DOUBLE)
                                    - CAST(t AS DOUBLE)
                                      / CAST((n1+n2)*(n1+n2-1) AS DOUBLE)) > 0
                   THEN CAST(r1x2 - n1*(n1+1) - n1*n2 AS DOUBLE) / 2.0
                        / sqrt(CAST(n1*n2 AS DOUBLE) / 12.0
                               * (CAST(n1+n2+1 AS DOUBLE)
                                  - CAST(t AS DOUBLE)
                                    / CAST((n1+n2)*(n1+n2-1) AS DOUBLE)))
                   ELSE 0.0 END AS z_stat
            FROM a
        """,
        "customer_degree_histogram": """
            WITH e AS (
              SELECT DISTINCT o.o_custkey*2 AS src, l.l_suppkey*2+1 AS dst
              FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            ), d AS (
              SELECT src, count(*) AS degree FROM e GROUP BY src
            )
            SELECT CAST(degree AS BIGINT) AS degree,
                   CAST(count(*) AS BIGINT) AS n_nodes
            FROM d GROUP BY degree
        """,
        "cc_components_graph": """
            WITH RECURSIVE e AS (
              SELECT DISTINCT o.o_custkey*2 AS c, l.l_suppkey*2+1 AS s
              FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            ), se AS (
              -- supplier–supplier 'share a customer' contraction: recursing
              -- over the 100-node supplier side keeps the label closure at
              -- O(|suppliers|²) instead of O(|component|²)
              SELECT DISTINCT a.s AS s1, b.s AS s2 FROM e a JOIN e b ON a.c = b.c
            ), r(node, lab) AS (
              SELECT s1, s1 FROM se
              UNION
              SELECT se.s2, r.lab FROM r JOIN se ON se.s1 = r.node
              WHERE r.lab < se.s2
            ), scomp AS (
              SELECT node, min(lab) AS comp FROM r GROUP BY node
            ), ccomp AS (
              SELECT e.c AS node, min(scomp.comp) AS comp
              FROM e JOIN scomp ON e.s = scomp.node GROUP BY e.c
            ), allnodes AS (
              SELECT node, comp FROM scomp
              UNION ALL
              SELECT node, comp FROM ccomp
            ), lab AS (
              SELECT comp, min(node) AS cluster FROM allnodes GROUP BY comp
            )
            SELECT CAST(a.node AS BIGINT) AS node,
                   CAST(l2.cluster AS BIGINT) AS cluster
            FROM allnodes a JOIN lab l2 USING (comp)
        """,
        "chi2_lang_source": """
            WITH cells AS (
              SELECT lang, source, count(*)::HUGEINT AS obs
              FROM documents GROUP BY lang, source
            ), tot AS (
              SELECT sum(obs) AS n FROM cells
            ), rtot AS (
              SELECT lang, sum(obs) AS rt FROM cells GROUP BY lang
            ), ctot AS (
              SELECT source, sum(obs) AS ct FROM cells GROUP BY source
            )
            SELECT c.lang, c.source,
                   CAST(c.obs AS BIGINT) AS obs,
                   CAST(r.rt AS BIGINT) AS rt,
                   CAST(co.ct AS BIGINT) AS ct,
                   CAST(t.n AS BIGINT) AS n,
                   (CAST((c.obs * t.n - r.rt * co.ct)
                         * (c.obs * t.n - r.rt * co.ct) AS DOUBLE)
                    / CAST(r.rt * co.ct * t.n AS DOUBLE)) AS chi2_cell
            FROM cells c
            JOIN rtot r USING (lang)
            JOIN ctot co USING (source)
            CROSS JOIN tot t
        """,
        "corr_tokens_chars_by_lang": """
WITH b AS (
  SELECT lang, n_chars AS x,
         len(regexp_extract_all(text, '[^ ]+')) AS y
  FROM documents
),
s AS (
  SELECT lang, count(*)::HUGEINT AS n,
         sum(x)::HUGEINT AS sx, sum(y)::HUGEINT AS sy,
         sum(x*y)::HUGEINT AS sxy, sum(x*x)::HUGEINT AS sxx,
         sum(y*y)::HUGEINT AS syy
  FROM b GROUP BY lang
)
SELECT lang, n::DOUBLE AS n,
       CASE WHEN (n*sxx - sx*sx) > 0 AND (n*syy - sy*sy) > 0
            THEN (n*sxy - sx*sy)::DOUBLE /
                 (sqrt((n*sxx - sx*sx)::DOUBLE) * sqrt((n*syy - sy*sy)::DOUBLE))
            ELSE 0.0 END AS r,
       CASE WHEN (n*sxx - sx*sx) > 0
            THEN (n*sxy - sx*sy)::DOUBLE / (n*sxx - sx*sx)::DOUBLE
            ELSE 0.0 END AS slope,
       CASE WHEN n > 0
            THEN (sy::DOUBLE - (CASE WHEN (n*sxx - sx*sx) > 0
                                     THEN (n*sxy - sx*sy)::DOUBLE / (n*sxx - sx*sx)::DOUBLE
                                     ELSE 0.0 END) * sx::DOUBLE) / n::DOUBLE
            ELSE 0.0 END AS intercept
FROM s
""",
        "token_stats_by_lang": token_stats_by_group_sql(
            table="documents", group_col="lang", text_col="text"
        ),
        "quality_scores_docs": quality_scores_sql(
            table="documents", key_col="doc_id", text_col="text"
        ),
        "curation_split_counts": f"""
            WITH q AS (
              SELECT doc_id, lang, text,
                     len(regexp_extract_all(text, '[a-zA-Z]'))
                       / greatest(length(text), 1)::DOUBLE AS alpha_ratio,
                     len(regexp_extract_all(text, '[^ ]+')) AS n_tokens
              FROM documents
            ),
            filtered AS (
              SELECT doc_id, lang, text FROM q
              WHERE alpha_ratio >= 0.5 AND n_tokens >= 20
            ),
            deduped AS (
              SELECT doc_id, lang FROM (
                SELECT doc_id, lang,
                       row_number() OVER (PARTITION BY text ORDER BY doc_id) AS rn
                FROM filtered
              ) WHERE rn = 1
            )
            SELECT lang, {split_case} AS split, CAST(count(*) AS BIGINT) AS kept
            FROM deduped GROUP BY 1, 2
        """,
        "curation_counts_by_lang": """
            WITH q AS (
              SELECT doc_id, lang, text,
                     len(regexp_extract_all(text, '[a-zA-Z]'))
                       / greatest(length(text), 1)::DOUBLE AS alpha_ratio,
                     len(regexp_extract_all(text, '[^ ]+')) AS n_tokens
              FROM documents
            ),
            filtered AS (
              SELECT doc_id, lang, text FROM q
              WHERE alpha_ratio >= 0.5 AND n_tokens >= 20
            ),
            deduped AS (
              SELECT doc_id, lang FROM (
                SELECT doc_id, lang,
                       row_number() OVER (PARTITION BY text ORDER BY doc_id) AS rn
                FROM filtered
              ) WHERE rn = 1
            )
            SELECT lang, CAST(count(*) AS BIGINT) AS kept
            FROM deduped GROUP BY lang
        """,
        "lang_id_docs": lang_id_sql(table="documents", key_col="doc_id", text_col="text"),
        "lang_confusion_matrix": f"""
            WITH p AS ({lang_id_sql(table="documents", key_col="doc_id", text_col="text")})
            SELECT d.lang, p.pred_lang, CAST(count(*) AS BIGINT) AS n
            FROM documents d JOIN p USING (doc_id)
            GROUP BY d.lang, p.pred_lang
        """,
        "token_frequency_spectrum": """
            WITH toks AS (
                SELECT unnest(list_filter(string_split(text, ' '), x -> x <> ''))
                  AS tok
                FROM documents
            ), c AS (
                SELECT tok, count(*) AS freq FROM toks GROUP BY tok
            )
            SELECT CAST(freq AS BIGINT) AS freq,
                   CAST(count(*) AS BIGINT) AS n_tokens
            FROM c GROUP BY freq
        """,
        "gopher_quality_filter_docs": r"""
            WITH gq AS (
              SELECT doc_id,
                CAST(len(regexp_extract_all(text, '[^ ]+')) AS BIGINT) AS toks,
                (length(text) - len(regexp_extract_all(text, ' ')))
                  / greatest(len(regexp_extract_all(text, '[^ ]+')), 1)::DOUBLE
                  AS mtl,
                len(regexp_extract_all(text, '[a-zA-Z]'))
                  / greatest(length(text), 1)::DOUBLE AS alpha,
                len(regexp_extract_all(text, '[.,;:!?''"()\[\]{}-]'))
                  / greatest(length(text), 1)::DOUBLE AS punct
              FROM documents
            )
            SELECT doc_id,
              CAST(
                (CASE WHEN toks < 10 OR toks > 1000 THEN 1 ELSE 0 END)
                + 2 * (CASE WHEN mtl < 2.0 OR mtl > 12.0 THEN 1 ELSE 0 END)
                + 4 * (CASE WHEN alpha < 0.55 THEN 1 ELSE 0 END)
                + 8 * (CASE WHEN punct > 0.2 THEN 1 ELSE 0 END)
              AS BIGINT) AS fail_mask,
              CAST(CASE WHEN
                (toks >= 10 AND toks <= 1000)
                AND (mtl >= 2.0 AND mtl <= 12.0)
                AND alpha >= 0.55 AND punct <= 0.2
              THEN 1 ELSE 0 END AS BIGINT) AS keep
            FROM gq
        """,
        "bpe_token_counts_docs": f"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '[^ ]+')) AS BIGINT)
                     AS ws_tokens,
                   CAST(len(regexp_extract_all(text, '{_BPE_ISH}')) AS BIGINT)
                     AS bpe_ish_tokens
            FROM documents
        """,
        "c4_line_filter_docs": r"""
            WITH src AS (
              SELECT doc_id,
                     regexp_replace(coalesce(text, ''),
                                    '((?:[^ ]+ ){6}[^ ]+) ',
                                    '\1' || chr(10), 'g') AS t2
              FROM documents
            ), lx AS (
              SELECT doc_id,
                     unnest(string_split(t2, chr(10))) AS line0,
                     generate_subscripts(string_split(t2, chr(10)), 1) AS ord
              FROM src
            ), marked AS (
              SELECT doc_id, ord,
                     line0 || (CASE WHEN ord % 3 = 0 THEN '.' ELSE '' END)
                           || (CASE WHEN ord % 5 = 0 THEN ' {' ELSE '' END) AS line
              FROM lx
            ), judged AS (
              SELECT doc_id, ord, line,
                     (regexp_matches(line, '[.!?"'']$')
                      AND len(regexp_extract_all(line, '[^ ]+')) >= 5
                      AND NOT regexp_matches(line, '(?i)javascript|lorem ipsum|[{}]')
                     ) AS keep
              FROM marked
            )
            SELECT doc_id,
                   CAST(count(*) AS BIGINT) AS n_lines,
                   CAST(coalesce(sum(CASE WHEN keep THEN 1 ELSE 0 END), 0) AS BIGINT)
                     AS n_kept,
                   CAST(coalesce(bit_xor(CASE WHEN keep THEN
                       ('0x' || substr(sha256(CAST(ord AS VARCHAR) || '|' || line),
                                       1, 15))::BIGINT END), 0) AS BIGINT) AS kept_sig
            FROM judged GROUP BY doc_id
        """,
        "line_dedup_docs": r"""
            WITH src AS (
              SELECT doc_id,
                     regexp_replace(coalesce(text, ''),
                                    '((?:[^ ]+ ){6}[^ ]+) ',
                                    '\1' || chr(10), 'g') AS t2
              FROM documents
            ), lx AS (
              SELECT doc_id,
                     unnest(string_split(t2, chr(10))) AS line,
                     generate_subscripts(string_split(t2, chr(10)), 1) AS ord
              FROM src
            ), hx AS (
              SELECT doc_id, ord, line,
                     ('0x' || substr(sha256(line), 1, 16))::UBIGINT AS lh
              FROM lx
            ), boiler AS (
              SELECT lh FROM hx GROUP BY lh HAVING count(*) >= 3
            )
            SELECT doc_id,
                   CAST(count(*) AS BIGINT) AS n_lines,
                   CAST(coalesce(sum(CASE WHEN b.lh IS NULL THEN 1 ELSE 0 END), 0)
                     AS BIGINT) AS n_kept,
                   CAST(coalesce(bit_xor(CASE WHEN b.lh IS NULL THEN
                       ('0x' || substr(sha256(CAST(ord AS VARCHAR) || '|' || line),
                                       1, 15))::BIGINT END), 0) AS BIGINT) AS kept_sig
            FROM hx h LEFT JOIN boiler b USING (lh)
            GROUP BY doc_id
        """,
        "p99_length_filter_by_lang": """
            WITH r AS (
              SELECT lang, n_chars,
                     row_number() OVER (PARTITION BY lang ORDER BY n_chars) AS rn,
                     count(*) OVER (PARTITION BY lang) AS n
              FROM documents
            ), cut AS (
              SELECT lang, n_chars AS p99
              FROM r WHERE rn = CAST(floor(0.99 * (n - 1)) AS BIGINT) + 1
            )
            SELECT d.lang,
                   CAST(count(*) AS BIGINT) AS n_kept,
                   CAST(sum(d.n_chars) AS BIGINT) AS kept_chars
            FROM documents d JOIN cut USING (lang)
            WHERE d.n_chars <= cut.p99
            GROUP BY d.lang
        """,
        "pii_scrub_docs": pii_scrub_sql(
            table="documents", key_col="doc_id", text_expr=_PII_ENRICH_SQL
        ),
        "tfidf_top_terms": tfidf_sql(table="documents", key="doc_id", text="text", k=3),
        "winnow_fingerprints_docs": winnow_sql(
            table="documents", key_col="doc_id", text_col="text"
        ),
        "hll_users_by_event_type": hll_sql(
            table="events", group_col="event_type", value_col="user_id", p=14, kind="int"
        ),
        "hll_users_per_window": hll_sql(
            table="(SELECT ((epoch_us(ts) // 1000000 // 3600) * 3600)::VARCHAR"
            " || '|' || event_type AS window_key, user_id FROM events) w",
            group_col="window_key",
            value_col="user_id",
            p=12,
            kind="int",
        ),
        "hll_props_by_event_type": hll_sql(
            table="events", group_col="event_type", value_col="props", p=14, kind="str"
        ),
        "heavy_hitter_users": """
            SELECT user_id, count(*) AS "count" FROM events GROUP BY user_id
            HAVING count(*) >= ceil(0.008 * (SELECT count(*) FROM events))
        """,
        "heavy_hitter_props": """
            SELECT props, count(*) AS "count" FROM events GROUP BY props
            HAVING count(*) >= ceil(0.0113 * (SELECT count(*) FROM events))
        """,
        "kmv_users_by_event_type": kmv_sql(
            table="events", group_col="event_type", value_col="user_id", k=64, kind="int"
        ),
        "kmv_props_by_event_type": kmv_sql(
            table="events", group_col="event_type", value_col="props", k=256, kind="str"
        ),
        "kmv_user_overlap_by_event_type": kmv_overlap_sql(
            table="events", group_col="event_type", value_col="user_id", k=64, kind="int"
        ),
        "ams_f2_users_by_event_type": ams_f2_sql(
            table="events", group_col="event_type", value_col="user_id", d=5
        ),
        "ams_join_size_events_orders": ams_join_size_sql(
            left_table="events", left_col="user_id",
            right_table="orders", right_col="o_custkey", d=5,
        ),
        "bloom_customer_membership": bloom_membership_sql(
            build_table="customer",
            build_col="c_custkey",
            probe_table="events",
            probe_col="user_id",
            m_bits=1 << 14,
            k=7,
            kind="int",
            out_key="user_id",
        ),
        "cms_user_frequencies": cms_frequency_sql(
            table="events", key_col="user_id", w=256, d=4, kind="int", out_key="user_id"
        ),
        "cms_weighted_part_quantities": cms_frequency_sql(
            table="lineitem",
            key_col="l_partkey",
            w=4096,
            d=4,
            kind="int",
            out_key="l_partkey",
            weight_col="l_quantity",
        ),
        "bloom_text_membership": bloom_membership_sql(
            build_table="documents",
            build_col="text",
            probe_table="events",
            probe_col="props",
            m_bits=1 << 14,
            k=5,
            kind="str",
            out_key="props",
        ),
    }


ORACLE_SQL.update(_family_oracles())

# The broadcast-plan joins are semantically identical to the shuffle plans, so
# they share the exact oracle SQL — both green proves plan-equivalence.
ORACLE_SQL["revenue_by_priority_broadcast_join"] = ORACLE_SQL["revenue_by_priority_join"]
ORACLE_SQL["asof_last_urgent_order_broadcast"] = ORACLE_SQL["asof_last_urgent_order"]


# Round-3: the t-digest / KLL quantile ESTIMATES are oracle-backed through the
# canonical single-compaction build (functions/rank_oracle.py) - the only
# remaining rows-only query is the multimodal decode (no SQL mirror exists).
from .functions.rank_oracle import kll_group_quantiles_sql, tdigest_group_quantiles_sql  # noqa: E402

ORACLE_SQL["tdigest_chars_by_lang"] = tdigest_group_quantiles_sql(
    table="documents", key="lang", value="n_chars", compression=200.0, quantiles=QUANTILES
)
ORACLE_SQL["kll_chars_by_lang"] = kll_group_quantiles_sql(
    table="documents", key="lang", value="n_chars", k=200, quantiles=QUANTILES
)


_GRAPH_EDGES_SQL = """
          SELECT DISTINCT o.o_custkey * 2 AS src, l.l_suppkey * 2 + 1 AS dst
          FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
"""


def _pagerank_sql(iters: int = 3) -> str:
    """Unrolled exact fixed-point PageRank (pipelines/graph.py semantics):
    every quantity is BIGINT, every division is floor division of
    non-negatives, so the mirror is bit-exact at any iteration count."""
    parts = [
        f"""
        WITH edges AS ({_GRAPH_EDGES_SQL}),
        nodes AS (SELECT src AS node FROM edges UNION SELECT dst FROM edges),
        deg AS (SELECT src AS node, count(*) AS outdeg FROM edges GROUP BY src),
        nn AS (SELECT count(*) AS n FROM nodes),
        r0 AS (
          SELECT nodes.node, COALESCE(deg.outdeg, 0) AS outdeg,
                 1000000000000 // nn.n AS r
          FROM nodes CROSS JOIN nn LEFT JOIN deg ON deg.node = nodes.node
        )"""
    ]
    for i in range(1, iters + 1):
        p = i - 1
        parts.append(
            f""",
        d{i} AS (
          SELECT COALESCE(CAST(sum(r) AS BIGINT), 0) AS dang
          FROM r{p} WHERE outdeg = 0
        ),
        c{i} AS (
          SELECT e.dst AS node, CAST(sum(p.r // p.outdeg) AS BIGINT) AS s
          FROM edges e JOIN r{p} p ON p.node = e.src
          GROUP BY e.dst
        ),
        r{i} AS (
          SELECT p.node, p.outdeg,
                 (1000000000000 // nn.n) * 15 // 100
                 + 85 * (COALESCE(c{i}.s, 0) + d{i}.dang // nn.n) // 100 AS r
          FROM r{p} p CROSS JOIN nn CROSS JOIN d{i}
          LEFT JOIN c{i} ON c{i}.node = p.node
        )"""
        )
    parts.append(
        f"""
        SELECT node, CAST(r AS BIGINT) AS rank_fp FROM r{iters}"""
    )
    return "".join(parts)


def _bfs_sql(hops: int = 3) -> str:
    parts = [
        f"""
        WITH base_edges AS ({_GRAPH_EDGES_SQL}),
        edges AS (
          SELECT src, dst FROM base_edges
          UNION
          SELECT dst AS src, src AS dst FROM base_edges
        ),
        h0 AS (
          SELECT c_custkey * 2 AS node, CAST(0 AS BIGINT) AS hop
          FROM customer WHERE c_nationkey = 0
        )"""
    ]
    for i in range(1, hops + 1):
        p = i - 1
        parts.append(
            f""",
        h{i} AS (
          SELECT node, min(hop) AS hop FROM (
            SELECT node, hop FROM h{p}
            UNION ALL
            SELECT e.dst AS node, p.hop + 1 AS hop
            FROM edges e JOIN h{p} p ON p.node = e.src
          ) GROUP BY node
        )"""
        )
    parts.append(
        f"""
        SELECT node, hop AS hops FROM h{hops}"""
    )
    return "".join(parts)


def _sssp_sql(rounds: int = 4) -> str:
    parts = [
        """
        WITH e0 AS (
          SELECT o.o_custkey * 2 AS a, l.l_suppkey * 2 + 1 AS b,
                 (epoch_us(l.l_shipdate) - epoch_us(o.o_orderdate))
                   // 86400000000 AS w
          FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
        ),
        em AS (SELECT a, b, CAST(min(w) AS BIGINT) AS w FROM e0 GROUP BY a, b),
        edges AS (
          SELECT a AS src, b AS dst, w FROM em
          UNION ALL
          SELECT b AS src, a AS dst, w FROM em
        ),
        d0 AS (
          SELECT c_custkey * 2 AS node, CAST(0 AS BIGINT) AS d
          FROM customer WHERE c_nationkey = 0
        )"""
    ]
    for i in range(1, rounds + 1):
        p = i - 1
        parts.append(
            f""",
        d{i} AS (
          SELECT node, min(d) AS d FROM (
            SELECT node, d FROM d{p}
            UNION ALL
            SELECT e.dst AS node, p.d + e.w AS d
            FROM edges e JOIN d{p} p ON p.node = e.src
          ) GROUP BY node
        )"""
        )
    parts.append(
        f"""
        SELECT node, d AS dist FROM d{rounds}"""
    )
    return "".join(parts)


ORACLE_SQL["supply_latency_sssp"] = _sssp_sql(4)

ORACLE_SQL["apportion_sample_quota_by_lang"] = """
    WITH c AS (
      SELECT lang, CAST(count(*) AS BIGINT) AS n FROM documents GROUP BY lang
    ),
    t AS (SELECT CAST(sum(n) AS BIGINT) AS total FROM c),
    b AS (
      SELECT c.lang, c.n,
             (1000 * c.n) // t.total AS base,
             (1000 * c.n) % t.total AS rem
      FROM c, t
    ),
    l AS (SELECT CAST(1000 - sum(base) AS BIGINT) AS leftover FROM b),
    r AS (
      SELECT lang, n, base,
             row_number() OVER (ORDER BY rem DESC, lang) AS rk
      FROM b
    )
    SELECT r.lang, r.n,
           CAST(r.base + CASE WHEN r.rk <= l.leftover THEN 1 ELSE 0 END
                AS BIGINT) AS quota
    FROM r, l
"""

ORACLE_SQL["gini_price_inequality"] = """
    WITH v AS (
      SELECT CAST(round(l_extendedprice * 100.0) AS BIGINT) AS x
      FROM lineitem
    ),
    r AS (SELECT x, row_number() OVER (ORDER BY x) AS rn FROM v),
    s AS (
      SELECT CAST(count(*) AS BIGINT) AS n,
             CAST(sum(x) AS BIGINT) AS total,
             sum(CAST(rn AS HUGEINT) * CAST(x AS HUGEINT)) AS six
      FROM r
    )
    SELECT n, total,
           CASE WHEN n = 0 OR total = 0 THEN 0.0
                ELSE CAST(2 * six - (n + 1) * total AS DOUBLE)
                     / CAST(n * total AS DOUBLE)
           END AS gini
    FROM s
"""

ORACLE_SQL["pagerank_customer_supplier"] = _pagerank_sql(3)
ORACLE_SQL["bfs_hops_customer_supplier"] = _bfs_sql(3)

def _bm25_sql(terms, k: int = 20) -> str:
    """Mirror of pipelines/bm25.py: per-term scores pivot into columns and
    add LEFT-TO-RIGHT (the engine's fixed summation order); every float
    subexpression is written in the engine's evaluation order."""
    in_list = ", ".join(f"'{t}'" for t in terms)
    tf_cols = ",\n             ".join(
        f"max(CASE WHEN term = '{t}' THEN tf END) AS tf{i}"
        for i, t in enumerate(terms)
    )
    idf_cols = ",\n        ".join(
        f"(SELECT ln((CAST(nn.n - df.df AS DOUBLE) + 0.5)"
        f" / (CAST(df.df AS DOUBLE) + 0.5)) FROM df WHERE df.term = '{t}')"
        f" AS idf{i}"
        for i, t in enumerate(terms)
    )
    norm = (
        "(1.2 * ((1.0 - 0.75) + 0.75 * (CAST(d.dl AS DOUBLE) / a.avgdl)))"
    )
    score = "\n           + ".join(
        f"CASE WHEN p.tf{i} IS NULL THEN 0.0 ELSE i.idf{i}"
        f" * ((CAST(p.tf{i} AS DOUBLE) * (1.2 + 1.0))"
        f" / (CAST(p.tf{i} AS DOUBLE) + {norm})) END"
        for i in range(len(terms))
    )
    return f"""
    WITH tok AS (
      SELECT doc_id AS key, t.tok AS tok
      FROM documents,
           LATERAL (SELECT unnest(string_split(text, ' ')) AS tok) t
      WHERE t.tok <> ''
    ),
    dl AS (SELECT key, count(*) AS dl FROM tok GROUP BY key),
    nn AS (SELECT count(*) AS n FROM documents),
    tot AS (SELECT count(*) AS t FROM tok),
    av AS (
      SELECT CAST(tot.t AS DOUBLE) / CAST(nn.n AS DOUBLE) AS avgdl
      FROM tot, nn
    ),
    tf AS (
      SELECT key, tok AS term, count(*) AS tf FROM tok
      WHERE tok IN ({in_list}) GROUP BY key, tok
    ),
    df AS (
      SELECT term, count(*) AS df
      FROM (SELECT DISTINCT key, term FROM tf) GROUP BY term
    ),
    piv AS (
      SELECT key,
             {tf_cols}
      FROM tf GROUP BY key
    ),
    idf AS (
      SELECT
        {idf_cols}
      FROM nn
    ),
    scored AS (
      SELECT p.key AS doc_id, d.dl,
             {score} AS score
      FROM piv p
      JOIN dl d ON d.key = p.key
      CROSS JOIN idf i
      CROSS JOIN av a
    )
    SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT)
             AS rank,
           doc_id, score, CAST(dl AS BIGINT) AS dl
    FROM scored ORDER BY score DESC, doc_id LIMIT {k}
"""


ORACLE_SQL["bm25_top_docs"] = _bm25_sql(BM25_QUERY_TERMS, 20)

def _bootstrap_sql(
    *, table: str, group: str, value: str, id_col: str,
    B: int = 64, lo_q: float = 0.025, hi_q: float = 0.975,
) -> str:
    """Mirror of pipelines/bootstrap.py: identical splitmix64 weights
    (threshold constants embedded at full double precision), exact-int
    resample sums, one float divide per mean, floor-rank selection."""
    import math as _math

    from .core.hashing import splitmix64_sql
    from .pipelines.bootstrap import poisson_thresholds

    th = poisson_thresholds()
    cases = " ".join(
        f"WHEN u < {t!r} THEN {k}" for k, t in enumerate(th)
    )
    sm = splitmix64_sql(f"d.{id_col} * {B} + b.b")
    lo_rn = int(_math.floor(lo_q * (B - 1))) + 1
    hi_rn = int(_math.floor(hi_q * (B - 1))) + 1
    return f"""
    WITH b AS (SELECT unnest(range({B})) AS b),
    rep AS (
      SELECT d.{group} AS g, d.{value} AS x, b.b,
             (({sm})::DOUBLE / 18446744073709551616.0) AS u
      FROM {table} d CROSS JOIN b
    ),
    wt AS (SELECT g, b, x, CASE {cases} ELSE {len(th)} END AS w FROM rep),
    rs AS (
      SELECT g, b, CAST(sum(w * x) AS BIGINT) AS swx,
             CAST(sum(w) AS BIGINT) AS sw
      FROM wt GROUP BY g, b
    ),
    m AS (
      SELECT g, b,
             CASE WHEN sw > 0 THEN CAST(swx AS DOUBLE) / CAST(sw AS DOUBLE)
                  ELSE 0.0 END AS m
      FROM rs
    ),
    r AS (
      SELECT g, m, row_number() OVER (PARTITION BY g ORDER BY m, b) AS rn
      FROM m
    ),
    pt AS (
      SELECT {group} AS g, CAST(count(*) AS BIGINT) AS n,
             CAST(sum({value}) AS BIGINT) AS sx
      FROM {table} GROUP BY {group}
    )
    SELECT pt.g AS {group}, pt.n,
           CAST(pt.sx AS DOUBLE) / CAST(pt.n AS DOUBLE) AS mean,
           lo.m AS ci_lo, hi.m AS ci_hi
    FROM pt
    JOIN r lo ON lo.g = pt.g AND lo.rn = {lo_rn}
    JOIN r hi ON hi.g = pt.g AND hi.rn = {hi_rn}
"""


def _ab_zscores_sql() -> str:
    from .core.hashing import splitmix64_sql
    from .stages.sampling import split_thresholds

    h = splitmix64_sql("user_id", 1)
    th = split_thresholds([0.5, 0.5])[0]
    return f"""
    WITH g AS (
      SELECT event_type,
             CASE WHEN {h} < {th}::HUGEINT THEN 'A' ELSE 'B' END AS grp
      FROM events
    ),
    c AS (
      SELECT event_type, grp, CAST(count(*) AS BIGINT) AS n
      FROM g GROUP BY 1, 2
    ),
    t AS (SELECT grp, CAST(sum(n) AS BIGINT) AS t FROM c GROUP BY grp),
    w AS (
      SELECT e.event_type,
             COALESCE((SELECT n FROM c WHERE c.event_type = e.event_type
                       AND c.grp = 'A'), 0) AS n_a,
             COALESCE((SELECT n FROM c WHERE c.event_type = e.event_type
                       AND c.grp = 'B'), 0) AS n_b,
             COALESCE((SELECT t FROM t WHERE grp = 'A'), 0) AS ta,
             COALESCE((SELECT t FROM t WHERE grp = 'B'), 0) AS tb
      FROM (SELECT DISTINCT event_type FROM events) e
    )
    SELECT event_type, n_a, n_b,
           CASE WHEN ta = 0 OR tb = 0
                     OR CAST(n_a + n_b AS DOUBLE) / CAST(ta + tb AS DOUBLE) <= 0.0
                     OR CAST(n_a + n_b AS DOUBLE) / CAST(ta + tb AS DOUBLE) >= 1.0
                THEN 0.0
                ELSE (CAST(n_a AS DOUBLE) / CAST(ta AS DOUBLE)
                      - CAST(n_b AS DOUBLE) / CAST(tb AS DOUBLE))
                     / sqrt((CAST(n_a + n_b AS DOUBLE) / CAST(ta + tb AS DOUBLE))
                            * (1.0 - CAST(n_a + n_b AS DOUBLE)
                                     / CAST(ta + tb AS DOUBLE))
                            * (1.0 / CAST(ta AS DOUBLE)
                               + 1.0 / CAST(tb AS DOUBLE)))
           END AS z
    FROM w
"""


ORACLE_SQL["ab_event_mix_zscores"] = _ab_zscores_sql()

ORACLE_SQL["ohlc_hourly_values"] = """
    WITH e AS (
      SELECT epoch_us(ts) // 3600000000 AS w, epoch_us(ts) AS us,
             event_id, value
      FROM events
    ),
    r AS (
      SELECT w, value,
             row_number() OVER (PARTITION BY w ORDER BY us, event_id) AS rn_a,
             row_number() OVER (
               PARTITION BY w ORDER BY us DESC, event_id DESC
             ) AS rn_d
      FROM e
    ),
    o AS (SELECT w, value AS open_value FROM r WHERE rn_a = 1),
    c AS (SELECT w, value AS close_value FROM r WHERE rn_d = 1),
    s AS (
      SELECT w, max(value) AS high, min(value) AS low,
             CAST(count(*) AS BIGINT) AS n
      FROM e GROUP BY w
    )
    SELECT s.w, o.open_value, s.high, s.low, c.close_value, s.n
    FROM s JOIN o USING (w) JOIN c USING (w)
"""

ORACLE_SQL["ewma_daily_events"] = """
    WITH RECURSIVE c AS (
      SELECT epoch_us(ts) // 86400000000 AS day,
             CAST(count(*) AS BIGINT) AS cnt
      FROM events GROUP BY 1
    ),
    b AS (SELECT min(day) AS d0, max(day) AS d1 FROM c),
    days AS (
      SELECT b.d0 + x.x AS day
      FROM b, LATERAL (
        SELECT unnest(range(CAST(b.d1 - b.d0 + 1 AS BIGINT))) AS x
      ) x
    ),
    dense AS (
      SELECT days.day, COALESCE(c.cnt, 0) AS cnt
      FROM days LEFT JOIN c USING (day)
    ),
    r AS (
      SELECT d.day, d.cnt, CAST(d.cnt AS DOUBLE) AS ewma
      FROM dense d WHERE d.day = (SELECT d0 FROM b)
      UNION ALL
      SELECT d.day, d.cnt,
             0.3 * CAST(d.cnt AS DOUBLE) + (1.0 - 0.3) * r.ewma
      FROM r JOIN dense d ON d.day = r.day + 1
    )
    SELECT day, cnt, ewma FROM r
"""

ORACLE_SQL["cusum_daily_events"] = """
    WITH RECURSIVE c AS (
      SELECT epoch_us(ts) // 86400000000 AS day,
             CAST(count(*) AS BIGINT) AS cnt
      FROM events GROUP BY 1
    ),
    b AS (
      SELECT min(day) AS d0, max(day) AS d1,
             CAST(sum(cnt) AS BIGINT) AS tot
      FROM c
    ),
    days AS (
      SELECT b.d0 + x.x AS day
      FROM b, LATERAL (
        SELECT unnest(range(CAST(b.d1 - b.d0 + 1 AS BIGINT))) AS x
      ) x
    ),
    dense AS (
      SELECT days.day, COALESCE(c.cnt, 0) AS cnt
      FROM days LEFT JOIN c USING (day)
    ),
    kk AS (SELECT tot // (d1 - d0 + 1) AS k FROM b),
    r AS (
      SELECT d.day, d.cnt,
             GREATEST(CAST(0 AS BIGINT), d.cnt - kk.k) AS cusum_pos,
             GREATEST(CAST(0 AS BIGINT), kk.k - d.cnt) AS cusum_neg
      FROM dense d, kk WHERE d.day = (SELECT d0 FROM b)
      UNION ALL
      SELECT d.day, d.cnt,
             GREATEST(CAST(0 AS BIGINT), r.cusum_pos + d.cnt - kk.k),
             GREATEST(CAST(0 AS BIGINT), r.cusum_neg + kk.k - d.cnt)
      FROM r JOIN dense d ON d.day = r.day + 1
      CROSS JOIN kk
    )
    SELECT day, cnt, cusum_pos, cusum_neg FROM r
"""

ORACLE_SQL["funnel_view_click_purchase"] = """
    WITH s0 AS (
      SELECT user_id, min(epoch_us(ts)) AS t
      FROM events WHERE event_type = 'view' GROUP BY user_id
    ),
    s1 AS (
      SELECT e.user_id, min(epoch_us(e.ts)) AS t
      FROM events e JOIN s0 ON s0.user_id = e.user_id
      WHERE e.event_type = 'click' AND epoch_us(e.ts) >= s0.t
        AND epoch_us(e.ts) - s0.t <= 3600000000
      GROUP BY e.user_id
    ),
    s2 AS (
      SELECT e.user_id, min(epoch_us(e.ts)) AS t
      FROM events e JOIN s1 ON s1.user_id = e.user_id
      WHERE e.event_type = 'purchase' AND epoch_us(e.ts) >= s1.t
        AND epoch_us(e.ts) - s1.t <= 3600000000
      GROUP BY e.user_id
    )
    SELECT CAST(0 AS BIGINT) AS step, 'view' AS event_type,
           (SELECT CAST(count(*) AS BIGINT) FROM s0) AS users
    UNION ALL
    SELECT 1, 'click', (SELECT CAST(count(*) AS BIGINT) FROM s1)
    UNION ALL
    SELECT 2, 'purchase', (SELECT CAST(count(*) AS BIGINT) FROM s2)
"""

ORACLE_SQL["vocab_jaccard_sources"] = """
    WITH src AS (
      SELECT source, row_number() OVER (ORDER BY source) - 1 AS idx
      FROM (SELECT DISTINCT source FROM documents)
    ),
    tok AS (
      SELECT DISTINCT d.source, t.tok
      FROM documents d,
           LATERAL (SELECT unnest(string_split(d.text, ' ')) AS tok) t
      WHERE t.tok <> ''
    ),
    tb AS (
      SELECT tok.tok, bit_or(1 << src.idx) AS mask
      FROM tok JOIN src USING (source) GROUP BY tok.tok
    ),
    mc AS (SELECT mask, CAST(count(*) AS BIGINT) AS c FROM tb GROUP BY mask),
    pairs AS (
      SELECT a.source AS group_a, a.idx AS ai, b.source AS group_b, b.idx AS bi
      FROM src a JOIN src b ON a.source < b.source
    ),
    agg AS (
      SELECT p.group_a, p.group_b,
        (SELECT COALESCE(CAST(sum(c) AS BIGINT), 0) FROM mc
          WHERE ((mask >> p.ai) & 1) = 1) AS n_a,
        (SELECT COALESCE(CAST(sum(c) AS BIGINT), 0) FROM mc
          WHERE ((mask >> p.bi) & 1) = 1) AS n_b,
        (SELECT COALESCE(CAST(sum(c) AS BIGINT), 0) FROM mc
          WHERE ((mask >> p.ai) & 1) = 1 AND ((mask >> p.bi) & 1) = 1) AS n_inter,
        (SELECT COALESCE(CAST(sum(c) AS BIGINT), 0) FROM mc
          WHERE ((mask >> p.ai) & 1) = 1 OR ((mask >> p.bi) & 1) = 1) AS n_union
      FROM pairs p
    )
    SELECT group_a, group_b, n_a, n_b, n_inter, n_union,
           CASE WHEN n_union > 0
                THEN CAST(n_inter AS DOUBLE) / CAST(n_union AS DOUBLE)
                ELSE 0.0 END AS jaccard
    FROM agg
"""

ORACLE_SQL["weighted_median_price_by_flag"] = """
    WITH w AS (
      SELECT l_returnflag AS g, l_extendedprice AS v,
             CAST(l_quantity AS BIGINT) AS wt
      FROM lineitem
    ),
    tot AS (SELECT g, CAST(sum(wt) AS BIGINT) AS tw FROM w GROUP BY g),
    r AS (
      SELECT g, v,
             sum(wt) OVER (
               PARTITION BY g ORDER BY v ROWS UNBOUNDED PRECEDING
             ) AS cum
      FROM w
    )
    SELECT r.g AS l_returnflag, min(r.v) AS "exact_wp50"
    FROM r JOIN tot ON tot.g = r.g
    WHERE r.cum > CAST(floor(0.5 * (tot.tw - 1)) AS BIGINT)
    GROUP BY r.g
"""

ORACLE_SQL["bootstrap_mean_chars_by_lang"] = _bootstrap_sql(
    table="documents", group="lang", value="n_chars", id_col="doc_id", B=64
)

ORACLE_SQL["copurchase_triangles"] = """
    WITH basket AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
    e0 AS (
      SELECT a.l_partkey AS a, b.l_partkey AS b
      FROM basket a JOIN basket b
        ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
      GROUP BY 1, 2
      HAVING count(*) >= 2
    ),
    deg AS (
      SELECT node, count(*) AS d FROM (
        SELECT a AS node FROM e0 UNION ALL SELECT b AS node FROM e0
      ) GROUP BY node
    ),
    w AS (
      SELECT COALESCE(CAST(sum(d * (d - 1) // 2) AS BIGINT), 0) AS wedges
      FROM deg
    ),
    t AS (
      SELECT CAST(count(*) AS BIGINT) AS tri
      FROM e0 xy
      JOIN e0 yz ON yz.a = xy.b
      JOIN e0 xz ON xz.a = xy.a AND xz.b = yz.b
    )
    SELECT t.tri AS n_triangles, w.wedges AS n_wedges,
           CASE WHEN w.wedges > 0
                THEN CAST(3 * t.tri AS DOUBLE) / CAST(w.wedges AS DOUBLE)
                ELSE 0.0 END AS transitivity
    FROM t, w
"""

ORACLE_SQL["rrf_hybrid_retrieval"] = f"""
    WITH lex AS (SELECT doc_id, rank AS rl FROM ({_bm25_sql(BM25_QUERY_TERMS, 50)})),
    vecs AS (SELECT vec_id AS id, (embedding)::DOUBLE[] AS v FROM embeddings),
    q AS (SELECT v FROM vecs WHERE id = 0),
    sem0 AS (
      SELECT t.id AS doc_id,
             CAST(floor((list_dot_product(q.v, t.v)
                         / (sqrt(list_dot_product(q.v, q.v))
                            * sqrt(list_dot_product(t.v, t.v)))) * 10000 + 0.5)
                  AS BIGINT) AS cos4
      FROM q, vecs t WHERE t.id <> 0
    ),
    sem AS (
      SELECT doc_id,
             row_number() OVER (ORDER BY cos4 DESC, doc_id) AS rs
      FROM sem0 QUALIFY rs <= 50
    ),
    fused AS (
      SELECT COALESCE(l.doc_id, s.doc_id) AS doc_id,
             COALESCE(1.0 / (60.0 + l.rl), 0.0)
               + COALESCE(1.0 / (60.0 + s.rs), 0.0) AS rrf
      FROM lex l FULL JOIN sem s ON s.doc_id = l.doc_id
    )
    SELECT CAST(row_number() OVER (ORDER BY rrf DESC, doc_id) AS BIGINT)
             AS rank,
           doc_id, rrf
    FROM fused ORDER BY rrf DESC, doc_id LIMIT 20
"""

ORACLE_SQL["trending_event_types_daily"] = """
    WITH c AS (
      SELECT epoch_us(ts) // 86400000000 AS day, event_type,
             CAST(count(*) AS BIGINT) AS cnt
      FROM events GROUP BY 1, 2
    ),
    r AS (
      SELECT day, event_type, cnt,
             row_number() OVER (
               PARTITION BY day ORDER BY cnt DESC, event_type
             ) AS rn
      FROM c
    )
    SELECT day, event_type, cnt FROM r WHERE rn <= 3
"""

ORACLE_SQL["daily_count_autocorr"] = """
    WITH c AS (
      SELECT epoch_us(ts) // 86400000000 AS day, count(*) AS cnt
      FROM events GROUP BY 1
    ),
    p AS (
      SELECT a.cnt AS x, b.cnt AS y
      FROM c a JOIN c b ON b.day = a.day + 1
    ),
    s AS (
      SELECT CAST(count(*) AS BIGINT) AS n,
             COALESCE(CAST(sum(x) AS BIGINT), 0) AS sx,
             COALESCE(CAST(sum(y) AS BIGINT), 0) AS sy,
             COALESCE(CAST(sum(x * y) AS BIGINT), 0) AS sxy,
             COALESCE(CAST(sum(x * x) AS BIGINT), 0) AS sxx,
             COALESCE(CAST(sum(y * y) AS BIGINT), 0) AS syy
      FROM p
    )
    SELECT n AS n_pairs,
           CASE WHEN n * sxx - sx * sx > 0 AND n * syy - sy * sy > 0
                THEN CAST(n * sxy - sx * sy AS DOUBLE)
                     / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                        * sqrt(CAST(n * syy - sy * sy AS DOUBLE)))
                ELSE 0.0 END AS r
    FROM s
"""

ORACLE_SQL["pareto_orders"] = """
    WITH g AS (
      SELECT o_totalprice AS p, max(o_orderdate) AS gmax
      FROM orders GROUP BY o_totalprice
    ),
    pre AS (
      SELECT p, gmax,
             max(gmax) OVER (
               ORDER BY p ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
             ) AS amax
      FROM g
    )
    SELECT o.o_orderkey, o.o_totalprice, o.o_orderdate
    FROM orders o JOIN pre ON pre.p = o.o_totalprice
    WHERE (pre.amax IS NULL OR pre.amax < o.o_orderdate)
      AND NOT (pre.gmax > o.o_orderdate)
"""

ORACLE_SQL["frequent_part_pairs"] = """
    WITH basket AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
    n AS (SELECT count(DISTINCT l_orderkey) AS n_baskets FROM basket),
    item AS (SELECT l_partkey, count(*) AS c FROM basket GROUP BY l_partkey),
    pair AS (
      SELECT a.l_partkey AS item_a, b.l_partkey AS item_b,
             CAST(count(*) AS BIGINT) AS support
      FROM basket a JOIN basket b
        ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
      GROUP BY 1, 2
      HAVING count(*) >= 3
    )
    SELECT p.item_a, p.item_b, p.support,
           CAST(n.n_baskets * p.support AS DOUBLE)
             / CAST(ia.c * ib.c AS DOUBLE) AS lift
    FROM pair p
    CROSS JOIN n
    JOIN item ia ON ia.l_partkey = p.item_a
    JOIN item ib ON ib.l_partkey = p.item_b
"""

ORACLE_SQL["spearman_chars_tokens"] = """
    WITH b AS (
      SELECT n_chars AS x,
             len(regexp_extract_all(text, '[^ ]+')) AS y
      FROM documents
    ), xr AS (
      SELECT x, count(*)::HUGEINT AS c FROM b GROUP BY x
    ), xo AS (
      SELECT x, 2*(sum(c) OVER (ORDER BY x) - c) + c + 1 AS rx2 FROM xr
    ), yr AS (
      SELECT y, count(*)::HUGEINT AS c FROM b GROUP BY y
    ), yo AS (
      SELECT y, 2*(sum(c) OVER (ORDER BY y) - c) + c + 1 AS ry2 FROM yr
    ), j AS (
      SELECT xo.rx2, yo.ry2 FROM b JOIN xo USING (x) JOIN yo USING (y)
    ), s AS (
      SELECT count(*)::HUGEINT AS n,
             sum(rx2 * ry2) AS sxy,
             sum(rx2 * rx2) AS sxx,
             sum(ry2 * ry2) AS syy,
             sum(rx2) AS sx,
             sum(ry2) AS sy
      FROM j
    )
    SELECT CAST(n AS BIGINT) AS n,
           CASE WHEN (n*sxx - sx*sx) > 0 AND (n*syy - sy*sy) > 0
                THEN CAST(n*sxy - sx*sy AS DOUBLE)
                     / (sqrt(CAST(n*sxx - sx*sx AS DOUBLE))
                        * sqrt(CAST(n*syy - sy*sy AS DOUBLE)))
                ELSE 0.0 END AS rho
    FROM s
"""

ORACLE_SQL["ks_exact_chars_en_de"] = """
    WITH f AS (
      SELECT lang, n_chars AS v FROM documents WHERE lang IN ('en', 'de')
    ), c AS (
      SELECT v,
             sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)::HUGEINT AS c1,
             sum(CASE WHEN lang = 'de' THEN 1 ELSE 0 END)::HUGEINT AS c2
      FROM f GROUP BY v
    ), t AS (
      SELECT sum(c1) AS n1, sum(c2) AS n2 FROM c
    ), o AS (
      SELECT sum(c1) OVER (ORDER BY v) AS cum1,
             sum(c2) OVER (ORDER BY v) AS cum2
      FROM c
    )
    SELECT CAST(coalesce(t.n1, 0) AS BIGINT) AS n1,
           CAST(coalesce(t.n2, 0) AS BIGINT) AS n2,
           CAST(coalesce((SELECT max(abs(o.cum1 * t.n2 - o.cum2 * t.n1))
                          FROM o), 0) AS BIGINT) AS d_num,
           CASE WHEN coalesce(t.n1, 0) > 0 AND coalesce(t.n2, 0) > 0
                THEN CAST((SELECT max(abs(o.cum1 * t.n2 - o.cum2 * t.n1))
                           FROM o) AS DOUBLE)
                     / CAST(t.n1 * t.n2 AS DOUBLE)
                ELSE 0.0 END AS d_stat
    FROM t
"""

ORACLE_SQL["user_longest_daily_streak"] = """
    WITH d AS (
      SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day FROM events
    ), r AS (
      SELECT user_id, day,
             day - row_number() OVER (PARTITION BY user_id ORDER BY day) AS grp
      FROM d
    ), s AS (
      SELECT user_id, count(*) AS len FROM r GROUP BY user_id, grp
    )
    SELECT user_id,
           CAST(sum(len) AS BIGINT) AS n_active_days,
           CAST(max(len) AS BIGINT) AS longest_streak
    FROM s GROUP BY user_id
"""

ORACLE_SQL["decile_table_chars_by_lang"] = """
    WITH r AS (
      SELECT lang, n_chars,
             row_number() OVER (PARTITION BY lang ORDER BY n_chars) AS rn,
             count(*) OVER (PARTITION BY lang) AS n
      FROM documents
    ), q AS (
      SELECT lang, qq, max(CASE WHEN rn = CAST(floor(qq * (n - 1)) AS BIGINT) + 1
                                THEN n_chars END) AS v
      FROM r CROSS JOIN (VALUES (0.1),(0.2),(0.3),(0.4),(0.5),(0.6),(0.7),(0.8),(0.9)) t(qq)
      GROUP BY lang, qq
    )
    SELECT lang,
           CAST(max(CASE WHEN qq = 0.1 THEN v END) AS BIGINT) AS exact_p10,
           CAST(max(CASE WHEN qq = 0.2 THEN v END) AS BIGINT) AS exact_p20,
           CAST(max(CASE WHEN qq = 0.3 THEN v END) AS BIGINT) AS exact_p30,
           CAST(max(CASE WHEN qq = 0.4 THEN v END) AS BIGINT) AS exact_p40,
           CAST(max(CASE WHEN qq = 0.5 THEN v END) AS BIGINT) AS exact_p50,
           CAST(max(CASE WHEN qq = 0.6 THEN v END) AS BIGINT) AS exact_p60,
           CAST(max(CASE WHEN qq = 0.7 THEN v END) AS BIGINT) AS exact_p70,
           CAST(max(CASE WHEN qq = 0.8 THEN v END) AS BIGINT) AS exact_p80,
           CAST(max(CASE WHEN qq = 0.9 THEN v END) AS BIGINT) AS exact_p90
    FROM q GROUP BY lang
"""

ORACLE_SQL["users_active_even_and_odd_days"] = """
    SELECT user_id,
           CAST(sum(CASE WHEN (epoch_us(ts) // 86400000000) % 2 = 0
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_even,
           CAST(sum(CASE WHEN (epoch_us(ts) // 86400000000) % 2 = 1
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_odd
    FROM events
    GROUP BY user_id
    HAVING n_even > 0 AND n_odd > 0
"""

ORACLE_SQL["user_daily_value_locf"] = """
    WITH RECURSIVE e AS (
      SELECT user_id, epoch_us(ts) // 86400000000 AS day, ts, event_id, value
      FROM events
    ), last AS (
      SELECT user_id, day, value FROM (
        SELECT user_id, day, value,
               row_number() OVER (PARTITION BY user_id, day
                                  ORDER BY ts DESC, event_id DESC) AS rn
        FROM e
      ) WHERE rn = 1
    ), span AS (
      SELECT user_id, min(day) AS d0, max(day) AS d1 FROM last GROUP BY user_id
    ), cal(user_id, day, d1) AS (
      SELECT user_id, d0, d1 FROM span
      UNION ALL
      SELECT user_id, day + 1, d1 FROM cal WHERE day < d1
    ), j AS (
      SELECT c.user_id, c.day, l.value
      FROM cal c LEFT JOIN last l USING (user_id, day)
    )
    SELECT user_id, day,
           last_value(value IGNORE NULLS) OVER (
             PARTITION BY user_id ORDER BY day
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
           ) AS value
    FROM j
"""

ORACLE_SQL["gini_price_by_flag"] = """
    WITH v AS (
      SELECT l_returnflag AS flag,
             CAST(round(l_extendedprice * 100.0) AS BIGINT) AS x
      FROM lineitem
    ),
    r AS (SELECT flag, x,
                 row_number() OVER (PARTITION BY flag ORDER BY x) AS rn
          FROM v),
    s AS (
      SELECT flag,
             CAST(count(*) AS BIGINT) AS n,
             CAST(sum(x) AS BIGINT) AS total,
             sum(CAST(rn AS HUGEINT) * CAST(x AS HUGEINT)) AS six
      FROM r GROUP BY flag
    )
    SELECT flag, n, total,
           CASE WHEN n = 0 OR total = 0 THEN 0.0
                ELSE CAST(2 * six - (CAST(n AS HUGEINT) + 1) * CAST(total AS HUGEINT) AS DOUBLE)
                     / CAST(CAST(n AS HUGEINT) * CAST(total AS HUGEINT) AS DOUBLE)
           END AS gini
    FROM s
"""

ORACLE_SQL["welch_t_chars_en_de"] = """
    WITH f AS (
      SELECT lang, n_chars FROM documents WHERE lang IN ('en', 'de')
    ), g AS (
      SELECT sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)::HUGEINT AS n1,
             sum(CASE WHEN lang = 'en' THEN n_chars ELSE 0 END)::HUGEINT AS sa,
             sum(CASE WHEN lang = 'en' THEN n_chars::HUGEINT * n_chars ELSE 0 END) AS qa_,
             sum(CASE WHEN lang = 'de' THEN 1 ELSE 0 END)::HUGEINT AS n2,
             sum(CASE WHEN lang = 'de' THEN n_chars ELSE 0 END)::HUGEINT AS sb,
             sum(CASE WHEN lang = 'de' THEN n_chars::HUGEINT * n_chars ELSE 0 END) AS qb_
      FROM f
    ), v AS (
      -- degenerate groups keep the row (qa/qb NULL) so the oracle always
      -- emits exactly ONE row, matching the pipeline's zero-stat row
      SELECT n1, n2, sa, sb,
             CASE WHEN n1 >= 2 AND n2 >= 2 THEN
               CAST(n1*qa_ - sa*sa AS DOUBLE) / CAST(n1*(n1-1) AS DOUBLE)
                 / CAST(n1 AS DOUBLE) END AS qa,
             CASE WHEN n1 >= 2 AND n2 >= 2 THEN
               CAST(n2*qb_ - sb*sb AS DOUBLE) / CAST(n2*(n2-1) AS DOUBLE)
                 / CAST(n2 AS DOUBLE) END AS qb
      FROM g
    )
    SELECT CAST(coalesce(n1, 0) AS BIGINT) AS n1,
           CAST(coalesce(n2, 0) AS BIGINT) AS n2,
           CASE WHEN qa + qb > 0
                THEN (CAST(sa AS DOUBLE) / CAST(n1 AS DOUBLE)
                      - CAST(sb AS DOUBLE) / CAST(n2 AS DOUBLE))
                     / sqrt(qa + qb)
                ELSE 0.0 END AS t_stat,
           CASE WHEN qa + qb > 0
                THEN ((qa + qb) * (qa + qb))
                     / (qa * qa / CAST(n1 - 1 AS DOUBLE)
                        + qb * qb / CAST(n2 - 1 AS DOUBLE))
                ELSE 0.0 END AS df
    FROM v
"""

ORACLE_SQL["anova_chars_by_lang"] = """
    WITH RECURSIVE g AS (
      SELECT lang AS gk, count(*)::HUGEINT AS n_g,
             sum(n_chars::HUGEINT) AS s_g,
             sum(n_chars::HUGEINT * n_chars) AS q_g
      FROM documents GROUP BY lang
    ), o AS (
      SELECT gk, n_g, s_g, q_g,
             row_number() OVER (ORDER BY gk) AS rn
      FROM g
    ), tot AS (
      SELECT sum(n_g) AS n, sum(s_g) AS s, count(*)::HUGEINT AS k FROM g
    ), r(rn, ssb, ssw) AS (
      SELECT 0, CAST(0.0 AS DOUBLE), CAST(0.0 AS DOUBLE)
      UNION ALL
      SELECT o.rn,
             r.ssb + CAST(o.s_g * o.s_g AS DOUBLE) / CAST(o.n_g AS DOUBLE),
             r.ssw + (CAST(o.q_g AS DOUBLE)
                      - CAST(o.s_g * o.s_g AS DOUBLE) / CAST(o.n_g AS DOUBLE))
      FROM r JOIN o ON o.rn = r.rn + 1
    )
    SELECT CAST(t.k AS BIGINT) AS k, CAST(t.n AS BIGINT) AS n,
           CASE WHEN t.k >= 2 AND t.n > t.k
                     AND (r.ssw / CAST(t.n - t.k AS DOUBLE)) > 0
                THEN ((r.ssb - CAST(t.s * t.s AS DOUBLE) / CAST(t.n AS DOUBLE))
                      / CAST(t.k - 1 AS DOUBLE))
                     / (r.ssw / CAST(t.n - t.k AS DOUBLE))
                ELSE 0.0 END AS f_stat
    FROM r, tot t WHERE r.rn = (SELECT count(*) FROM g)
"""

ORACLE_SQL["lang_token_cosine"] = """
    WITH tok AS (
      SELECT lang, unnest(string_split(text, ' ')) AS tok FROM documents
    ), c AS (
      SELECT lang, tok, count(*)::HUGEINT AS c
      FROM tok WHERE tok <> '' GROUP BY lang, tok
    ), d AS (
      SELECT a.lang AS g_a, b.lang AS g_b, sum(a.c * b.c) AS dot
      FROM c a JOIN c b ON a.tok = b.tok AND a.lang < b.lang
      GROUP BY g_a, g_b
    ), nrm AS (
      SELECT lang, sum(c * c) AS nn FROM c GROUP BY lang
    )
    SELECT d.g_a, d.g_b, CAST(d.dot AS BIGINT) AS dot,
           CASE WHEN na.nn > 0 AND nb.nn > 0
                THEN CAST(d.dot AS DOUBLE)
                     / (sqrt(CAST(na.nn AS DOUBLE)) * sqrt(CAST(nb.nn AS DOUBLE)))
                ELSE 0.0 END AS cos
    FROM d
    JOIN nrm na ON na.lang = d.g_a
    JOIN nrm nb ON nb.lang = d.g_b
"""

def _psi_oracle_sql() -> str:
    from .core.hashing import splitmix64_sql
    from .stages.sampling import split_thresholds

    h0 = splitmix64_sql("doc_id", 0)
    names = list(SPLITS.keys())
    ths = split_thresholds(SPLITS.values())
    split_case = "CASE " + " ".join(
        f"WHEN {h0} < {t}::HUGEINT THEN '{n}'" for n, t in zip(names[:-1], ths[:-1])
    ) + f" ELSE '{names[-1]}' END"
    return f"""
    WITH RECURSIVE sp AS (
      SELECT n_chars AS x, {split_case} AS split FROM documents
    ), rrank AS (
      SELECT x, row_number() OVER (ORDER BY x) AS rn, count(*) OVER () AS n
      FROM sp WHERE split = 'train'
    ), edges AS (
      SELECT qq, max(CASE WHEN rn = CAST(floor(qq * (n - 1)) AS BIGINT) + 1
                          THEN x END) AS e
      FROM rrank CROSS JOIN (VALUES (0.1),(0.2),(0.3),(0.4),(0.5),
                                    (0.6),(0.7),(0.8),(0.9)) t(qq)
      GROUP BY qq
    ), spb AS (
      SELECT s.split,
             (SELECT count(*) FROM edges ed WHERE s.x > ed.e) AS b
      FROM sp s WHERE s.split IN ('train', 'val')
    ), counts AS (
      SELECT b,
             sum(CASE WHEN split = 'train' THEN 1 ELSE 0 END)::HUGEINT AS cr,
             sum(CASE WHEN split = 'val' THEN 1 ELSE 0 END)::HUGEINT AS cc
      FROM spb GROUP BY b
    ), tot AS (
      SELECT sum(cr) AS nr, sum(cc) AS nc FROM counts
    ), ord AS (
      SELECT cr, cc, row_number() OVER (ORDER BY b) AS rn
      FROM counts WHERE cr > 0 AND cc > 0
    ), r(rn, acc) AS (
      SELECT 0, CAST(0.0 AS DOUBLE)
      UNION ALL
      SELECT o.rn,
             r.acc + (CAST(o.cr AS DOUBLE) / CAST(t.nr AS DOUBLE)
                      - CAST(o.cc AS DOUBLE) / CAST(t.nc AS DOUBLE))
                     * ln((CAST(o.cr AS DOUBLE) / CAST(t.nr AS DOUBLE))
                          / (CAST(o.cc AS DOUBLE) / CAST(t.nc AS DOUBLE)))
      FROM r JOIN ord o ON o.rn = r.rn + 1 CROSS JOIN tot t
    )
    SELECT CAST(t.nr AS BIGINT) AS n_ref, CAST(t.nc AS BIGINT) AS n_cur,
           coalesce((SELECT acc FROM r ORDER BY rn DESC LIMIT 1), 0.0) AS psi
    FROM tot t
    """


ORACLE_SQL["psi_chars_train_val"] = _psi_oracle_sql()

ORACLE_SQL["rolling_median_daily_events"] = """
    WITH RECURSIVE c AS (
      SELECT epoch_us(ts) // 86400000000 AS day,
             CAST(count(*) AS BIGINT) AS cnt
      FROM events GROUP BY 1
    ), b AS (
      SELECT min(day) AS d0, max(day) AS d1 FROM c
    ), days AS (
      SELECT b.d0 + x.x AS day
      FROM b, LATERAL (
        SELECT unnest(range(CAST(b.d1 - b.d0 + 1 AS BIGINT))) AS x
      ) x
    ), dense AS (
      SELECT days.day, COALESCE(c.cnt, 0) AS cnt
      FROM days LEFT JOIN c USING (day)
    )
    SELECT day, cnt,
           median(cnt) OVER (ORDER BY day
                             ROWS BETWEEN 6 PRECEDING AND CURRENT ROW) AS med
    FROM dense
"""

ORACLE_SQL["new_vs_returning_daily"] = """
    WITH d AS (
      SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day FROM events
    ), m AS (
      SELECT user_id, min(day) AS fday FROM d GROUP BY user_id
    )
    SELECT d.day,
           CAST(sum(CASE WHEN d.day = m.fday THEN 1 ELSE 0 END) AS BIGINT) AS n_new,
           CAST(sum(CASE WHEN d.day > m.fday THEN 1 ELSE 0 END) AS BIGINT) AS n_returning
    FROM d JOIN m USING (user_id) GROUP BY d.day
"""

ORACLE_SQL["cumulative_unique_users_daily"] = """
    WITH d AS (
      SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day FROM events
    ), m AS (
      SELECT user_id, min(day) AS fday FROM d GROUP BY user_id
    ), c AS (
      SELECT fday AS day, count(*) AS n_new FROM m GROUP BY fday
    )
    SELECT day, CAST(n_new AS BIGINT) AS n_new,
           CAST(sum(n_new) OVER (ORDER BY day) AS BIGINT) AS cum_users
    FROM c
"""

def _props_k_oracle() -> str:
    from .functions.oracle import ddsketch_quantile_sql

    return ddsketch_quantile_sql(
        table=(
            "(SELECT event_type, "
            "CAST(regexp_extract(props, '\"k\": (\\d+)', 1) AS BIGINT) AS k "
            "FROM events WHERE regexp_matches(props, '\"k\": \\d+')) g"
        ),
        group_col="event_type",
        value_expr="k",
        alpha=ALPHA,
        quantiles=QUANTILES,
    )


ORACLE_SQL["props_k_quantiles_by_type"] = _props_k_oracle()

ORACLE_SQL["tukey_outlier_events"] = """
    WITH v AS (
      SELECT event_id, event_type,
             CAST(round(value * 100.0) AS BIGINT) AS cents
      FROM events
    ), r AS (
      SELECT event_type, cents,
             row_number() OVER (PARTITION BY event_type ORDER BY cents) AS rn,
             count(*) OVER (PARTITION BY event_type) AS n
      FROM v
    ), q1 AS (
      SELECT event_type, cents AS q1
      FROM r WHERE rn = CAST(floor(0.25 * (n - 1)) AS BIGINT) + 1
    ), q3 AS (
      SELECT event_type, cents AS q3
      FROM r WHERE rn = CAST(floor(0.75 * (n - 1)) AS BIGINT) + 1
    )
    SELECT v.event_id, v.event_type, v.cents
    FROM v JOIN q1 USING (event_type) JOIN q3 USING (event_type)
    WHERE 2 * v.cents < 2 * q1.q1 - 3 * (q3.q3 - q1.q1)
       OR 2 * v.cents > 2 * q3.q3 + 3 * (q3.q3 - q1.q1)
"""

ORACLE_SQL["user_session_table"] = """
    WITH e AS (
      SELECT user_id, epoch_us(ts) AS us FROM events
    ), f AS (
      SELECT user_id, us,
             CASE WHEN lag(us) OVER (PARTITION BY user_id ORDER BY us) IS NULL
                       OR us - lag(us) OVER (PARTITION BY user_id ORDER BY us)
                          > 1800000000
                  THEN 1 ELSE 0 END AS new_s
      FROM e
    ), g AS (
      SELECT user_id, us,
             sum(new_s) OVER (PARTITION BY user_id ORDER BY us
                              ROWS UNBOUNDED PRECEDING) AS sid
      FROM f
    )
    SELECT user_id,
           CAST(sid AS BIGINT) AS session_idx,
           CAST(count(*) AS BIGINT) AS n_events,
           CAST(max(us) - min(us) AS BIGINT) AS duration_us
    FROM g GROUP BY user_id, sid
"""

def _corr_pair_sql(xe: str, ye: str, pair: str) -> str:
    return f"""
    SELECT lang, n::DOUBLE AS n,
           CASE WHEN (n*sxx - sx*sx) > 0 AND (n*syy - sy*sy) > 0
                THEN (n*sxy - sx*sy)::DOUBLE /
                     (sqrt((n*sxx - sx*sx)::DOUBLE) * sqrt((n*syy - sy*sy)::DOUBLE))
                ELSE 0.0 END AS r,
           CASE WHEN (n*sxx - sx*sx) > 0
                THEN (n*sxy - sx*sy)::DOUBLE / (n*sxx - sx*sx)::DOUBLE
                ELSE 0.0 END AS slope,
           CASE WHEN n > 0
                THEN (sy::DOUBLE - (CASE WHEN (n*sxx - sx*sx) > 0
                                         THEN (n*sxy - sx*sy)::DOUBLE / (n*sxx - sx*sx)::DOUBLE
                                         ELSE 0.0 END) * sx::DOUBLE) / n::DOUBLE
                ELSE 0.0 END AS intercept,
           '{pair}' AS pair
    FROM (
      SELECT lang, count(*)::HUGEINT AS n,
             sum(x)::HUGEINT AS sx, sum(y)::HUGEINT AS sy,
             sum(x*y)::HUGEINT AS sxy, sum(x*x)::HUGEINT AS sxx,
             sum(y*y)::HUGEINT AS syy
      FROM (
        SELECT lang, {xe} AS x, {ye} AS y FROM (
          SELECT lang, n_chars,
                 len(regexp_extract_all(text, '[^ ]+')) AS n_tokens,
                 len(regexp_extract_all(text, chr(10))) + 1 AS n_lines
          FROM documents
        )
      ) GROUP BY lang
    )
    """


ORACLE_SQL["metric_corr_matrix_by_lang"] = (
    _corr_pair_sql("n_chars", "n_tokens", "chars_tokens")
    + " UNION ALL "
    + _corr_pair_sql("n_chars", "n_lines", "chars_lines")
    + " UNION ALL "
    + _corr_pair_sql("n_tokens", "n_lines", "tokens_lines")
)

ORACLE_SQL["interp_p90_chars_by_lang"] = """
    WITH r AS (
      SELECT lang, n_chars,
             row_number() OVER (PARTITION BY lang ORDER BY n_chars) AS rn,
             count(*) OVER (PARTITION BY lang) AS n
      FROM documents
    ), lo AS (
      SELECT lang, n_chars AS lo, n
      FROM r WHERE rn = CAST(floor(0.9 * (n - 1)) AS BIGINT) + 1
    ), hi AS (
      SELECT lang, n_chars AS hi
      FROM r WHERE rn = LEAST(CAST(floor(0.9 * (n - 1)) AS BIGINT) + 2, n)
    )
    SELECT lang,
           CAST(lo AS DOUBLE) AS lo,
           CAST(hi AS DOUBLE) AS hi,
           CAST(lo AS DOUBLE)
             + (0.9 * CAST(n - 1 AS DOUBLE)
                - floor(0.9 * CAST(n - 1 AS DOUBLE)))
               * (CAST(hi AS DOUBLE) - CAST(lo AS DOUBLE)) AS interp
    FROM lo JOIN hi USING (lang)
"""

ORACLE_SQL["session_event_pairs"] = """
    WITH e AS (
      SELECT user_id, epoch_us(ts) AS us, event_type FROM events
    ), f AS (
      SELECT user_id, us, event_type,
             CASE WHEN lag(us) OVER (PARTITION BY user_id ORDER BY us) IS NULL
                       OR us - lag(us) OVER (PARTITION BY user_id ORDER BY us)
                          > 1800000000
                  THEN 1 ELSE 0 END AS new_s
      FROM e
    ), g AS (
      SELECT user_id, event_type,
             sum(new_s) OVER (PARTITION BY user_id ORDER BY us
                              ROWS UNBOUNDED PRECEDING) AS sid
      FROM f
    ), basket AS (
      SELECT DISTINCT user_id, sid, event_type FROM g
    ), n AS (
      SELECT count(*) AS n_baskets
      FROM (SELECT DISTINCT user_id, sid FROM g)
    ), item AS (
      SELECT event_type, count(*) AS c FROM basket GROUP BY event_type
    ), pair AS (
      SELECT a.event_type AS item_a, b.event_type AS item_b,
             CAST(count(*) AS BIGINT) AS support
      FROM basket a JOIN basket b
        ON a.user_id = b.user_id AND a.sid = b.sid
           AND a.event_type < b.event_type
      GROUP BY 1, 2
      HAVING count(*) >= 3
    )
    SELECT p.item_a, p.item_b, p.support,
           CAST(n.n_baskets * p.support AS DOUBLE)
             / CAST(ia.c * ib.c AS DOUBLE) AS lift
    FROM pair p
    CROSS JOIN n
    JOIN item ia ON ia.event_type = p.item_a
    JOIN item ib ON ib.event_type = p.item_b
"""

ORACLE_SQL["exact_users_per_window"] = """
    SELECT (epoch_us(ts) // 1000000) // 3600 * 3600 AS hour,
           event_type,
           CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
    FROM events GROUP BY 1, 2
"""


def _session_duration_oracle() -> str:
    from .functions.oracle import ddsketch_quantile_sql

    sess_table = (
        "(WITH e AS (SELECT user_id, epoch_us(ts) AS us FROM events), "
        "f AS (SELECT user_id, us, CASE WHEN lag(us) OVER "
        "(PARTITION BY user_id ORDER BY us) IS NULL OR us - lag(us) OVER "
        "(PARTITION BY user_id ORDER BY us) > 1800000000 THEN 1 ELSE 0 END "
        "AS new_s FROM e), "
        "g AS (SELECT user_id, us, sum(new_s) OVER (PARTITION BY user_id "
        "ORDER BY us ROWS UNBOUNDED PRECEDING) AS sid FROM f) "
        "SELECT 'all' AS g, (max(us) - min(us)) // 1000000 AS dur_s "
        "FROM g GROUP BY user_id, sid) q"
    )
    return ddsketch_quantile_sql(
        table=sess_table,
        group_col="g",
        value_expr="dur_s",
        alpha=ALPHA,
        quantiles=QUANTILES,
    )


ORACLE_SQL["dd_session_duration_quantiles"] = _session_duration_oracle()

def _grouped_ks_oracle() -> str:
    from .core.hashing import splitmix64_sql
    from .stages.sampling import split_thresholds

    h0 = splitmix64_sql("doc_id", 0)
    names = list(SPLITS.keys())
    ths = split_thresholds(SPLITS.values())
    split_case = "CASE " + " ".join(
        f"WHEN {h0} < {t}::HUGEINT THEN '{n}'" for n, t in zip(names[:-1], ths[:-1])
    ) + f" ELSE '{names[-1]}' END"
    return f"""
    WITH sp AS (
      SELECT lang, n_chars AS v, {split_case} AS split FROM documents
    ), c AS (
      SELECT lang, v,
             sum(CASE WHEN split = 'train' THEN 1 ELSE 0 END)::HUGEINT AS c1,
             sum(CASE WHEN split = 'val' THEN 1 ELSE 0 END)::HUGEINT AS c2
      FROM sp WHERE split IN ('train', 'val') GROUP BY lang, v
    ), t AS (
      SELECT lang, sum(c1) AS n1, sum(c2) AS n2 FROM c GROUP BY lang
    ), o AS (
      SELECT lang,
             sum(c1) OVER (PARTITION BY lang ORDER BY v) AS cum1,
             sum(c2) OVER (PARTITION BY lang ORDER BY v) AS cum2
      FROM c
    ), d AS (
      SELECT o.lang, max(abs(o.cum1 * t.n2 - o.cum2 * t.n1)) AS dn
      FROM o JOIN t USING (lang) GROUP BY o.lang
    )
    SELECT t.lang,
           CAST(t.n1 AS BIGINT) AS n1,
           CAST(t.n2 AS BIGINT) AS n2,
           CAST(CASE WHEN t.n1 > 0 AND t.n2 > 0 THEN d.dn ELSE 0 END AS BIGINT) AS d_num,
           CASE WHEN t.n1 > 0 AND t.n2 > 0
                THEN CAST(d.dn AS DOUBLE) / CAST(t.n1 * t.n2 AS DOUBLE)
                ELSE 0.0 END AS d_stat
    FROM t JOIN d USING (lang)
    """


ORACLE_SQL["ks_exact_by_lang_train_val"] = _grouped_ks_oracle()

ORACLE_SQL["weighted_avg_price_by_flag"] = """
    WITH v AS (
      SELECT l_returnflag AS flag,
             CAST(round(l_extendedprice * 100.0) AS BIGINT) AS cents,
             CAST(round(l_quantity) AS BIGINT) AS qty
      FROM lineitem
    )
    SELECT flag,
           CAST(sum(cents * qty) AS BIGINT) AS wsum,
           CAST(sum(qty) AS BIGINT) AS w,
           CAST(CAST(sum(cents * qty) AS BIGINT) AS DOUBLE)
             / CAST(CAST(sum(qty) AS BIGINT) AS DOUBLE) AS wavg_cents
    FROM v GROUP BY flag
"""
