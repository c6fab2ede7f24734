"""Stream-shaped operator tests: sliding windows, sessionization."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .partitions import partitions


def _events(ts_seconds, users=None):
    n = len(ts_seconds)
    return pa.table(
        {
            "user_id": pa.array(users or [1] * n, pa.int64()),
            "ts": pa.array(
                (np.asarray(ts_seconds, dtype=np.int64) * 1_000_000), pa.timestamp("us")
            ),
            "value": pa.array([1.0] * n),
        }
    )


class TestSlidingWindows:
    def test_each_row_in_window_span_over_slide_windows(self, ray_session):
        from ddsketch_ruby_ray.pipelines.windows import assign_sliding_windows

        t = _events([0, 1800, 3599, 3600])
        out = assign_sliding_windows(t, ts_col="ts", window_s=3600, slide_s=1800)
        assert out.num_rows == 8  # 2 windows per row
        df = out.to_pandas()
        # row at t=3599 belongs to windows starting 1800 and 3600? 3599//1800=1
        starts = sorted(df[df.ts == pa.scalar(3599 * 1_000_000, pa.timestamp("us")).as_py()][
            "window_start"
        ])
        assert starts == [0, 1800]
        starts0 = sorted(df[df.ts == pa.scalar(0, pa.timestamp("us")).as_py()]["window_start"])
        assert starts0 == [-1800, 0]

    def test_window_counts_double_rows(self, ray_session, sf_dir):
        from ddsketch_ruby_ray.queries import dd_sliding_window_quantiles

        out = dd_sliding_window_quantiles(sf_dir).to_pandas()
        import pyarrow.parquet as pq

        n_events = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata.num_rows
        assert out["count"].sum() == 2 * n_events  # every event in 2 windows


class TestSessions:
    def test_gap_sessionization(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.windows import sessionize_pipeline

        # user 1: events at 0, 100, 5000 (gap>1800 splits) -> 2 sessions,
        # longest 100s; user 2: single event -> 1 session of 0s
        t = _events([0, 100, 5000, 7], users=[1, 1, 1, 2])
        out = (
            sessionize_pipeline(rd.from_arrow(t), key_col="user_id", ts_col="ts", gap_s=1800)
            .to_pandas()
            .set_index("user_id")
            .sort_index()
        )
        assert out.loc[1, "n_sessions"] == 2
        assert out.loc[1, "longest_s"] == 100.0
        assert out.loc[1, "total_events"] == 3
        assert out.loc[2, "n_sessions"] == 1
        assert out.loc[2, "longest_s"] == 0.0

    def test_out_of_order_input_is_sorted(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.windows import sessionize_pipeline

        t = _events([5000, 0, 100], users=[1, 1, 1])
        out = sessionize_pipeline(
            rd.from_arrow(t).repartition(3), key_col="user_id", ts_col="ts", gap_s=1800
        ).to_pandas()
        assert out.iloc[0]["n_sessions"] == 2  # sorting inside the group fixes order


class TestOrderedAnalytics:
    def _run(self, tbl, parts=5, **kw):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.windows import ordered_analytics_pipeline

        with partitions(parts):
            out = ordered_analytics_pipeline(
                rd.from_arrow(tbl).repartition(3),
                key_col="k",
                ts_col="ts",
                tiebreak_col="eid",
                carry_cols=["eid"],
                **kw,
            )
            return out.to_pandas().sort_values("eid").reset_index(drop=True)

    def _tbl(self, n, seed, with_value=True):
        import numpy as np

        rng = np.random.default_rng(seed)
        cols = {
            "eid": pa.array(np.arange(n), pa.int64()),
            "k": pa.array(rng.integers(0, 12, n), pa.int64()),
            # duplicate timestamps on purpose: tiebreak must decide
            "ts": pa.array(rng.integers(0, 50, n) * 1_000_000, pa.timestamp("us")),
        }
        if with_value:
            cols["value"] = pa.array(np.round(rng.normal(0, 50, n), 2))
        return pa.table(cols)

    def test_matches_duckdb_window_functions(self, ray_session):
        import duckdb
        import numpy as np

        tbl = self._tbl(2_000, seed=31)
        got = self._run(tbl, value_col="value")
        con = duckdb.connect()
        con.register("t", tbl.to_pandas())
        exp = con.execute(
            """SELECT eid, k, row_number() OVER w AS rn,
                      sum(CAST(round(value * 1000000.0) AS BIGINT)) OVER w AS cum_value,
                      epoch_us(ts) - lag(epoch_us(ts)) OVER w AS prev_gap_us
               FROM t WINDOW w AS (PARTITION BY k ORDER BY ts, eid)
               ORDER BY eid"""
        ).fetchdf()
        for c in ("rn", "cum_value"):
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
        a, b = got["prev_gap_us"].to_numpy(), exp["prev_gap_us"].to_numpy()
        assert ((a == b) | (np.isnan(a) & np.isnan(b))).all()

    def test_no_value_column(self, ray_session):
        tbl = self._tbl(100, seed=32, with_value=False)
        got = self._run(tbl)
        assert list(got.columns) == ["eid", "k", "rn", "prev_gap_us"]
        assert (got.groupby("k")["rn"].max() >= 1).all()

    def test_partition_count_invariance(self, ray_session):
        tbl = self._tbl(500, seed=33)
        a = self._run(tbl, parts=2, value_col="value")
        b = self._run(tbl, parts=17, value_col="value")
        assert a.equals(b)

    def test_compact_lanes_bit_identical(self, ray_session):
        """compact_lanes ships int32 key/value lanes; results must be
        bit-identical to the default int64 lanes (they widen back before
        any arithmetic)."""
        tbl = self._tbl(800, seed=34)
        a = self._run(tbl, value_col="value")
        b = self._run(tbl, value_col="value", compact_lanes=True)
        import pandas as pd

        pd.testing.assert_frame_equal(
            a, b.astype({c: a[c].dtype for c in a.columns})
        )

    def test_compact_lanes_guard_raises(self, ray_session):
        import numpy as np
        import pytest

        def tbl(key):
            return pa.table(
                {
                    "eid": pa.array(np.arange(4), pa.int64()),
                    "k": pa.array([key] * 4, pa.int64()),
                    "ts": pa.array(
                        np.arange(4) * 1_000_000, pa.int64()
                    ).cast(pa.timestamp("us")),
                }
            )

        # the guard's domain is exactly int32's: [-2^31, 2^31)
        got = self._run(tbl(-(2**31)), compact_lanes=True)
        assert (got["k"] == -(2**31)).all() and list(got["rn"]) == [1, 2, 3, 4]
        for bad in (2**31, -(2**31) - 1, 2**40):
            with pytest.raises(Exception, match="int32"):
                self._run(tbl(bad), compact_lanes=True)


class TestRoundHalfAway:
    """round_half_away must equal DuckDB round(x) on every finite double."""

    def test_ties_and_fp_edges_match_duckdb(self):
        import duckdb

        from ddsketch_ruby_ray.core.numeric import round_half_away

        v = np.array(
            [2.5, -2.5, 3.5, -3.5, 0.5, -0.5, 0.49999999999999994,
             -0.49999999999999994, 2.4999999999999996, 1e15 + 0.5, 0.0, -0.0,
             7.0, -7.0],
            dtype=np.float64,
        )
        got = round_half_away(v)
        want = duckdb.sql(
            "SELECT round(x) FROM (SELECT unnest($1::DOUBLE[]) AS x)",
            params=[v.tolist()],
        ).fetchnumpy()
        key = list(want.keys())[0]
        assert (got == want[key]).all(), (got, want[key])
        # np.round (banker's) would get 2.5 -> 2; half-away must give 3
        assert round_half_away(np.array([2.5]))[0] == 3.0


class TestRankedAnalytics:
    def _run(self, tbl, parts=5, ntile=4):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.windows import ranked_analytics_pipeline

        with partitions(parts):
            out = ranked_analytics_pipeline(
                rd.from_arrow(tbl).repartition(3),
                key_col="k",
                value_col="v",
                tiebreak_col="eid",
                carry_cols=["eid"],
                ntile=ntile,
            )
            return out.to_pandas().sort_values("eid").reset_index(drop=True)

    def _tbl(self, n, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        return pa.table(
            {
                "eid": pa.array(np.arange(n), pa.int64()),
                "k": pa.array(rng.integers(0, 9, n), pa.int64()),
                # small integer-valued floats -> plenty of rank ties
                "v": pa.array(rng.integers(-3, 4, n).astype(np.float64)),
            }
        )

    def test_matches_duckdb_rank_trio(self, ray_session):
        import duckdb

        for seed, b in ((7, 4), (8, 3), (9, 1)):
            tbl = self._tbl(1_500, seed=seed)
            got = self._run(tbl, ntile=b)
            con = duckdb.connect()
            con.register("t", tbl.to_pandas())
            exp = con.execute(
                f"""SELECT eid, k,
                           CAST(rank() OVER v AS BIGINT) AS rnk,
                           CAST(dense_rank() OVER v AS BIGINT) AS dense_rnk,
                           CAST(ntile({b}) OVER w AS BIGINT) AS tile,
                           percent_rank() OVER v AS pct_rank,
                           cume_dist() OVER v AS cume
                    FROM t
                    WINDOW v AS (PARTITION BY k ORDER BY v DESC),
                           w AS (PARTITION BY k ORDER BY v DESC, eid ASC)
                    ORDER BY eid"""
            ).fetchdf()
            for c in ("rnk", "dense_rnk", "tile", "pct_rank", "cume"):
                assert (got[c].to_numpy() == exp[c].to_numpy()).all(), (seed, c)

    def test_tiny_groups_ntile_one_row_buckets(self, ray_session):
        # groups smaller than the bucket count: every row its own bucket
        tbl = pa.table(
            {
                "eid": pa.array([0, 1, 2], pa.int64()),
                "k": pa.array([1, 1, 2], pa.int64()),
                "v": pa.array([5.0, 5.0, 1.0]),
            }
        )
        got = self._run(tbl, ntile=4)
        assert got.rnk.tolist() == [1, 1, 1]
        assert got.dense_rnk.tolist() == [1, 1, 1]
        assert got.tile.tolist() == [1, 2, 1]

    def test_partition_count_invariance(self, ray_session):
        tbl = self._tbl(700, seed=10)
        assert self._run(tbl, parts=2).equals(self._run(tbl, parts=13))


class TestFunnel:
    def _run(self, tbl, window_s=100, parts=4):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.windows import funnel_pipeline

        with partitions(parts):
            return funnel_pipeline(
                rd.from_arrow(tbl).repartition(3),
                user_col="u",
                ts_col="ts",
                type_col="et",
                first_type="A",
                next_type="B",
                window_s=window_s,
            )

    @staticmethod
    def _tbl(rows):
        us = [r[0] for r in rows]
        ts = [r[1] * 1_000_000 for r in rows]
        et = [r[2] for r in rows]
        return pa.table(
            {
                "u": pa.array(us, pa.int64()),
                "ts": pa.array(ts, pa.timestamp("us")),
                "et": pa.array(et, pa.string()),
            }
        )

    def test_hand_cases(self, ray_session):
        tbl = self._tbl(
            [
                (1, 10, "A"), (1, 50, "B"),          # converts (within 100 s)
                (2, 10, "A"), (2, 500, "B"),         # too late
                (3, 10, "B"), (3, 20, "A"),          # B before first A only
                (4, 10, "A"), (4, 10, "B"),          # same-instant B counts
                (5, 10, "B"),                        # never clicked
                (6, 99, "A"),                        # clicked, no B
                (7, 30, "A"), (7, 5, "A"), (7, 80, "B"),  # first A at t=5
                (1, 999, "C"),                       # other types ignored
            ]
        )
        got = self._run(tbl)
        assert got.stage1_users.tolist() == [6]  # users 1,2,3,4,6,7 clicked
        assert got.stage2_users.tolist() == [3]  # users 1,4,7 converted

    def test_matches_duckdb(self, ray_session):
        import duckdb
        import numpy as np

        rng = np.random.default_rng(21)
        n = 4000
        tbl = pa.table(
            {
                "u": pa.array(rng.integers(0, 300, n), pa.int64()),
                "ts": pa.array(rng.integers(0, 10_000, n) * 1_000_000, pa.timestamp("us")),
                "et": pa.array(rng.choice(["A", "B", "C"], n).tolist(), pa.string()),
            }
        )
        got = self._run(tbl, window_s=500, parts=7)
        con = duckdb.connect()
        con.register("t", tbl.to_pandas())
        exp = con.execute(
            """WITH a AS (SELECT u, min(ts) AS fa FROM t WHERE et = 'A' GROUP BY u),
               s2 AS (SELECT a.u FROM a WHERE EXISTS (
                 SELECT 1 FROM t b WHERE b.u = a.u AND b.et = 'B'
                   AND b.ts >= a.fa AND b.ts <= a.fa + INTERVAL 500 SECOND))
               SELECT (SELECT count(*) FROM a) s1, (SELECT count(*) FROM s2) s2"""
        ).fetchone()
        assert (got.stage1_users[0], got.stage2_users[0]) == exp


class TestOrderedConcat:
    def _run(self, keys, ts, ids, vals, blocks=None, sep="|"):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.windows import ordered_concat_pipeline

        t = pa.table(
            {
                "k": pa.array(keys, pa.int64()),
                "ts": pa.array(np.asarray(ts, np.int64) * 1_000_000, pa.timestamp("us")),
                "id": pa.array(ids, pa.int64()),
                "v": pa.array(vals, pa.string()),
            }
        )
        ds = rd.from_arrow(t)
        if blocks:
            ds = ds.repartition(blocks)
        out = ordered_concat_pipeline(
            ds, key_col="k", ts_col="ts", tiebreak_col="id", value_col="v", sep=sep
        )
        return out.to_pandas().sort_values("k").reset_index(drop=True)

    def test_order_and_tiebreak(self, ray_session):
        # key 1: ts 5(a), 3(b), 5(c, id smaller than a) -> b, c, a
        df = self._run([1, 1, 1, 2], [5, 3, 5, 9], [7, 1, 2, 0], ["a", "b", "c", "z"])
        assert df.path.tolist() == ["b|c|a", "z"]
        assert df.n_events.tolist() == [3, 1]

    def test_matches_duckdb(self, ray_session):
        import duckdb

        rng = np.random.default_rng(3)
        n = 400
        keys = rng.integers(0, 25, n)
        ts = rng.integers(0, 100, n)
        ids = rng.permutation(n)
        vals = rng.choice(["x", "y", "zz"], n)
        df = self._run(keys.tolist(), ts.tolist(), ids.tolist(), vals.tolist(), blocks=6)
        con = duckdb.connect()
        con.register(
            "ev",
            __import__("pandas").DataFrame(
                {"k": keys, "ts": ts, "id": ids, "v": vals}
            ),
        )
        want = con.execute(
            "SELECT k, CAST(count(*) AS BIGINT) n_events,"
            " string_agg(v, '|' ORDER BY ts, id) path FROM ev GROUP BY k ORDER BY k"
        ).df()
        assert df.path.tolist() == want.path.tolist()
        assert df.n_events.tolist() == want.n_events.tolist()


class TestCohortRetention:
    def test_matches_brute_force(self, ray_session):
        # exercise the composition on synthetic multi-week activity via the
        # driver query's own building blocks
        import duckdb

        from ddsketch_ruby_ray.queries import ORACLE_SQL, QUERIES

        sf = "/root/testdata/sf0.001"
        df = QUERIES["cohort_retention"](sf).to_pandas()
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')"
        )
        odf = con.execute(ORACLE_SQL["cohort_retention"]).df()
        key = ["cohort_week", "active_week"]
        df = df.sort_values(key).reset_index(drop=True)[sorted(df.columns)]
        odf = odf.sort_values(key).reset_index(drop=True)[sorted(odf.columns)]
        assert df.astype("int64").equals(odf.astype("int64"))
        # invariants: cohort <= active week, and the diagonal cell exists
        assert (df.cohort_week <= df.active_week).all()
        assert ((df.cohort_week == df.active_week) & (df.active_users > 0)).any()
