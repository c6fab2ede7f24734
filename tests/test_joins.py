"""As-of / range join pipeline tests (pipelines/joins.py).

Edge cases the sf0.01 oracle queries can't isolate: exact timestamp ties
(inclusive match + tie-break), unmatched keys, window-boundary inclusivity,
empty sides, and a brute-force cross-check on random data.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from .partitions import partitions


def _us(seconds):
    return pa.array(np.asarray(seconds, dtype=np.int64) * 1_000_000, pa.timestamp("us"))


def _left(keys, ts_s):
    return pa.table(
        {
            "lid": pa.array(range(len(keys)), pa.int64()),
            "k": pa.array(keys, pa.int64()),
            "ts": _us(ts_s),
        }
    )


def _right(keys, ts_s, payload):
    return pa.table(
        {
            "k2": pa.array(keys, pa.int64()),
            "ts2": _us(ts_s),
            "pay": pa.array(payload, pa.int64()),
        }
    )


def _asof(lt, rt, parts=64, **kw):
    import ray.data as rd

    from ddsketch_ruby_ray.pipelines.joins import asof_join_pipeline

    with partitions(parts):
        out = asof_join_pipeline(
            rd.from_arrow(lt),
            rd.from_arrow(rt),
            left_key="k",
            left_ts="ts",
            right_key="k2",
            right_ts="ts2",
            left_cols=["lid", "k"],
            right_payload=["pay"],
            tiebreak="pay",
            **kw,
        )
        return out.to_pandas().sort_values("lid").reset_index(drop=True)


class TestAsofJoin:
    def test_basic_ties_and_unmatched(self, ray_session):
        lt = _left([1, 1, 2, 3], [100, 50, 100, 100])
        # key 1: rows at ts 40, 100 (tie pair payloads 7, 9), 200(after)
        rt = _right([1, 1, 1, 1, 2], [40, 100, 100, 200, 150], [5, 7, 9, 11, 13])
        df = _asof(lt, rt)
        assert df["pay"].tolist()[:2] == [9, 5]  # ts=100: tie -> max payload; ts=50 -> 40
        assert np.isnan(df["pay"][2])  # key 2: only right at 150 > 100
        assert np.isnan(df["pay"][3])  # key 3: absent from right

    def test_empty_right(self, ray_session):
        df = _asof(_left([1], [10]), _right([], [], []))
        assert len(df) == 1 and np.isnan(df["pay"][0])

    def test_matches_bruteforce(self, ray_session):
        rng = np.random.default_rng(11)
        n, m = 300, 400
        lt = _left(rng.integers(0, 20, n), rng.integers(0, 1000, n))
        rt = _right(rng.integers(0, 20, m), rng.integers(0, 1000, m), rng.permutation(m))
        df = _asof(lt, rt, parts=7)
        lk = lt["k"].to_numpy()
        lts = lt["ts"].cast(pa.int64()).to_numpy() // 1_000_000
        rk = rt["k2"].to_numpy()
        rts = rt["ts2"].cast(pa.int64()).to_numpy() // 1_000_000
        pay = rt["pay"].to_numpy()
        for i in range(n):
            mask = (rk == lk[i]) & (rts <= lts[i])
            got = df["pay"][i]
            if not mask.any():
                assert np.isnan(got), i
            else:
                best_ts = rts[mask].max()
                want = pay[mask & (rts == best_ts)].max()
                assert got == want, (i, got, want)


class TestAsofJoinForward:
    def test_basic_forward_ties_and_unmatched(self, ray_session):
        lt = _left([1, 1, 2, 3], [100, 250, 100, 100])
        # key 1: right rows at ts 40(before), 100/100 (tie pair 7, 9), 200
        rt = _right([1, 1, 1, 1, 2], [40, 100, 100, 200, 50], [5, 7, 9, 11, 13])
        df = _asof(lt, rt, direction="forward")
        # ts=100: inclusive tie -> MIN payload; ts=250: nothing after
        assert df["pay"].tolist()[0] == 7
        assert np.isnan(df["pay"][1])
        assert np.isnan(df["pay"][2])  # key 2: only right at 50 < 100
        assert np.isnan(df["pay"][3])  # key 3: absent from right

    def test_forward_matches_bruteforce(self, ray_session):
        rng = np.random.default_rng(23)
        n, m = 300, 400
        lt = _left(rng.integers(0, 20, n), rng.integers(0, 1000, n))
        rt = _right(rng.integers(0, 20, m), rng.integers(0, 1000, m), rng.permutation(m))
        df = _asof(lt, rt, parts=7, direction="forward")
        lk = lt["k"].to_numpy()
        lts = lt["ts"].cast(pa.int64()).to_numpy() // 1_000_000
        rk = rt["k2"].to_numpy()
        rts = rt["ts2"].cast(pa.int64()).to_numpy() // 1_000_000
        pay = rt["pay"].to_numpy()
        for i in range(n):
            mask = (rk == lk[i]) & (rts >= lts[i])
            got = df["pay"][i]
            if not mask.any():
                assert np.isnan(got), i
            else:
                best_ts = rts[mask].min()
                want = pay[mask & (rts == best_ts)].min()
                assert got == want, (i, got, want)

    def test_bad_direction_raises(self, ray_session):
        with pytest.raises(ValueError, match="direction"):
            _asof(_left([1], [10]), _right([1], [5], [1]), direction="sideways")


class TestHashJoin:
    def _join(self, lt, rt, how, parts=64):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.joins import hash_join_pipeline

        with partitions(parts):
            out = hash_join_pipeline(
                rd.from_arrow(lt),
                rd.from_arrow(rt),
                left_key="k",
                right_key="k2",
                left_cols=["lid", "k"],
                right_payload=["pay"],
                how=how,
            )
            return out.to_pandas()

    def test_inner_duplicates_multiply(self, ray_session):
        lt = _left([1, 1, 2, 3], [0, 0, 0, 0])
        rt = _right([1, 2, 2, 4], [0, 0, 0, 0], [10, 20, 21, 40])
        df = self._join(lt, rt, "inner")
        got = sorted(zip(df["lid"].astype(int), df["pay"].astype(int)))
        assert got == [(0, 10), (1, 10), (2, 20), (2, 21)]

    def test_left_keeps_unmatched_with_null(self, ray_session):
        lt = _left([1, 3], [0, 0])
        rt = _right([1], [0], [10])
        df = self._join(lt, rt, "left").sort_values("lid").reset_index(drop=True)
        assert df["pay"].tolist()[0] == 10 and np.isnan(df["pay"][1])

    def test_null_keys_never_match(self, ray_session):
        lt = pa.table(
            {
                "lid": pa.array([0, 1], pa.int64()),
                "k": pa.array([None, 1], pa.int64()),
                "ts": _us([0, 0]),
            }
        )
        rt = pa.table(
            {
                "k2": pa.array([None, 1], pa.int64()),
                "ts2": _us([0, 0]),
                "pay": pa.array([99, 10], pa.int64()),
            }
        )
        inner = self._join(lt, rt, "inner")
        assert inner["pay"].tolist() == [10] and inner["lid"].tolist() == [1]
        left = self._join(lt, rt, "left").sort_values("lid").reset_index(drop=True)
        assert len(left) == 2 and np.isnan(left["pay"][0]) and left["pay"][1] == 10

    def test_empty_right_left_join(self, ray_session):
        df = self._join(_left([1], [0]), _right([], [], []), "left")
        assert len(df) == 1 and np.isnan(df["pay"][0])

    def _join_cols(self, lt, rt, how, parts=64):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.joins import hash_join_pipeline

        with partitions(parts):
            out = hash_join_pipeline(
                rd.from_arrow(lt),
                rd.from_arrow(rt),
                left_key="k",
                right_key="k2",
                left_cols=["lid", "k"],
                right_payload=(),
                how=how,
            )
            return out.to_pandas()

    def test_semi_anti_basic(self, ray_session):
        lt = _left([1, 1, 2, 3], [0, 0, 0, 0])
        rt = _right([1, 1, 4], [0, 0, 0], [9, 9, 9])
        semi = self._join_cols(lt, rt, "semi")
        # each matching left row once, duplicates NOT multiplied
        assert sorted(semi["lid"]) == [0, 1]
        anti = self._join_cols(lt, rt, "anti")
        assert sorted(anti["lid"]) == [2, 3]

    def test_semi_anti_null_keys(self, ray_session):
        lt = pa.table(
            {"lid": pa.array([0, 1], pa.int64()), "k": pa.array([None, 1], pa.int64()), "ts": _us([0, 0])}
        )
        rt = _right([1], [0], [5])
        assert self._join_cols(lt, rt, "semi")["lid"].tolist() == [1]
        assert self._join_cols(lt, rt, "anti")["lid"].tolist() == [0]  # NOT EXISTS keeps null key

    def test_semi_anti_reject_payload(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.joins import hash_join_pipeline

        with pytest.raises(ValueError):
            hash_join_pipeline(
                rd.from_arrow(_left([1], [0])),
                rd.from_arrow(_right([1], [0], [1])),
                left_key="k", right_key="k2",
                left_cols=["lid"], right_payload=["pay"], how="semi",
            )

    def test_semi_anti_match_duckdb(self, ray_session):
        import duckdb

        rng = np.random.default_rng(22)
        # left keys span 0..59, right only 0..29 -> both semi and anti non-empty
        lt = _left(rng.integers(0, 60, 500), np.zeros(500, dtype=np.int64))
        rt = _right(rng.integers(0, 30, 200), np.zeros(200, dtype=np.int64), np.arange(200))
        con = duckdb.connect()
        con.register("l", lt.select(["lid", "k"]).to_pandas())
        con.register("r", rt.select(["k2"]).to_pandas())
        for how, pred in [("semi", "EXISTS"), ("anti", "NOT EXISTS")]:
            got = sorted(self._join_cols(lt, rt, how, parts=7)["lid"])
            exp = sorted(
                x[0]
                for x in con.execute(
                    f"SELECT lid FROM l WHERE {pred} (SELECT 1 FROM r WHERE k2 = k)"
                ).fetchall()
            )
            assert got == exp, how

    def test_right_keeps_unmatched_right(self, ray_session):
        lt = _left([1, 1, 3], [0, 0, 0])
        rt = _right([1, 2], [0, 0], [10, 20])
        df = self._join(lt, rt, "right")
        # both left rows with k=1 match pay=10; right k=2 survives with null left
        got = sorted(
            (int(p), None if np.isnan(l) else int(l))
            for p, l in zip(df["pay"], df["lid"].astype(float))
        )
        assert got == [(10, 0), (10, 1), (20, None)]
        # unmatched LEFT row (k=3) is dropped by right join
        assert 2 not in set(df["lid"].dropna().astype(int))

    def test_full_keeps_both_sides(self, ray_session):
        lt = _left([1, 3], [0, 0])
        rt = _right([1, 2], [0, 0], [10, 20])
        df = self._join(lt, rt, "full")
        assert len(df) == 3
        matched = df[df["pay"] == 10]
        assert matched["lid"].tolist() == [0]
        assert df["pay"].dropna().astype(int).tolist().count(20) == 1
        # the unmatched left row is present with null payload
        assert df["pay"].isna().sum() == 1

    def test_right_full_null_keys(self, ray_session):
        lt = pa.table(
            {
                "lid": pa.array([0, 1], pa.int64()),
                "k": pa.array([None, 0], pa.int64()),  # real left key 0
                "ts": _us([0, 0]),
            }
        )
        rt = pa.table(
            {
                "k2": pa.array([None, 0], pa.int64()),  # null right key must NOT match left 0
                "ts2": _us([0, 0]),
                "pay": pa.array([99, 10], pa.int64()),
            }
        )
        right = self._join(lt, rt, "right")
        # matched: (lid=1, pay=10); unmatched null-key right row: (null, 99)
        assert sorted(right["pay"].astype(int)) == [10, 99]
        assert right.loc[right["pay"] == 99, "lid"].isna().all()
        full = self._join(lt, rt, "full")
        # + unmatched null-key left row
        assert len(full) == 3 and full["pay"].isna().sum() == 1

    def test_right_full_empty_sides(self, ray_session):
        # empty left: right/full still emit every right row unmatched
        for how in ("right", "full"):
            df = self._join(_left([], []), _right([1, 2], [0, 0], [10, 20]), how)
            assert sorted(df["pay"].astype(int)) == [10, 20]
            assert df["lid"].isna().all()
        # empty right: right drops everything, full keeps left unmatched
        assert len(self._join(_left([1], [0]), _right([], [], []), "right")) == 0
        df = self._join(_left([1], [0]), _right([], [], []), "full")
        assert len(df) == 1 and df["pay"].isna().all()

    def test_right_full_match_duckdb(self, ray_session):
        import duckdb

        rng = np.random.default_rng(23)
        lt = _left(rng.integers(0, 40, 300), np.zeros(300, dtype=np.int64))
        rt = _right(
            rng.integers(20, 60, 150), np.zeros(150, dtype=np.int64), np.arange(150)
        )
        con = duckdb.connect()
        con.register("l", lt.select(["lid", "k"]).to_pandas())
        con.register("r", rt.select(["k2", "pay"]).to_pandas())
        for how, sqljoin in [("right", "RIGHT JOIN"), ("full", "FULL JOIN")]:
            df = self._join(lt, rt, how, parts=7)
            got = sorted(
                (
                    -1 if np.isnan(l) else int(l),
                    -1 if np.isnan(p) else int(p),
                )
                for l, p in zip(df["lid"].astype(float), df["pay"].astype(float))
            )
            exp = sorted(
                (-1 if l is None else int(l), -1 if p is None else int(p))
                for l, p in con.execute(
                    f"SELECT l.lid, r.pay FROM l {sqljoin} r ON r.k2 = l.k"
                ).fetchall()
            )
            assert got == exp, how

    def test_matches_duckdb(self, ray_session):
        import duckdb

        rng = np.random.default_rng(21)
        n, m = 400, 300
        lt = _left(rng.integers(0, 25, n), np.zeros(n, dtype=np.int64))
        rt = _right(rng.integers(0, 25, m), np.zeros(m, dtype=np.int64), np.arange(m))
        for how, sql_how in [("inner", "JOIN"), ("left", "LEFT JOIN")]:
            df = self._join(lt, rt, how, parts=7)
            got = sorted(
                (int(a), -1 if np.isnan(b) else int(b))
                for a, b in zip(df["lid"], df["pay"])
            )
            con = duckdb.connect()
            con.register("l", lt.select(["lid", "k"]).to_pandas())
            con.register("r", rt.select(["k2", "pay"]).to_pandas())
            exp = con.execute(
                f"SELECT lid, coalesce(pay, -1) FROM l {sql_how} r ON k2 = k"
            ).fetchall()
            assert got == sorted((int(a), int(b)) for a, b in exp), how


class TestRangeJoin:
    def _range(self, lt, rt, window_s, parts=64):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.joins import range_join_pipeline

        with partitions(parts):
            out = range_join_pipeline(
                rd.from_arrow(lt),
                rd.from_arrow(rt),
                left_key="k",
                left_ts="ts",
                right_key="k2",
                right_ts="ts2",
                left_cols=["lid", "k"],
                right_payload=["pay"],
                window_s=window_s,
            )
            return out.to_pandas()

    def test_boundaries_inclusive_both_ends(self, ray_session):
        lt = _left([1], [100])
        rt = _right([1, 1, 1, 1, 1], [39, 40, 70, 100, 101], [0, 1, 2, 3, 4])
        df = self._range(lt, rt, window_s=60)
        # [100-60, 100] = [40, 100]: includes 40 and 100, excludes 39 and 101
        assert sorted(df["pay"]) == [1, 2, 3]

    def test_key_isolation_and_empty(self, ray_session):
        lt = _left([1, 2], [100, 100])
        rt = _right([1, 3], [100, 100], [1, 2])
        df = self._range(lt, rt, window_s=60)
        assert df["pay"].tolist() == [1] and df["k"].tolist() == [1]

    def test_matches_bruteforce(self, ray_session):
        rng = np.random.default_rng(12)
        n, m = 200, 300
        lt = _left(rng.integers(0, 10, n), rng.integers(0, 500, n))
        rt = _right(rng.integers(0, 10, m), rng.integers(0, 500, m), np.arange(m))
        df = self._range(lt, rt, window_s=50, parts=5)
        lk = lt["k"].to_numpy()
        lts = lt["ts"].cast(pa.int64()).to_numpy() // 1_000_000
        rk = rt["k2"].to_numpy()
        rts = rt["ts2"].cast(pa.int64()).to_numpy() // 1_000_000
        expect = sorted(
            (int(i), int(p))
            for i in range(n)
            for p, (k2, t2) in enumerate(zip(rk, rts))
            if k2 == lk[i] and lts[i] - 50 <= t2 <= lts[i]
        )
        got = sorted(zip(df["lid"].astype(int), df["pay"].astype(int)))
        assert got == expect


class TestBroadcastHashJoin:
    """Plan-equivalence: the broadcast probe must match the shuffle join
    bit-for-bit on every `how` (same duplicate multiplication, null-key and
    unmatched-row policies), including on random data."""

    def _both(self, lt, rt, how, payload=("pay",)):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.joins import (
            broadcast_hash_join_pipeline,
            hash_join_pipeline,
        )

        kw = dict(
            left_key="k",
            right_key="k2",
            left_cols=["lid", "k"],
            right_payload=list(payload),
            how=how,
        )
        a = hash_join_pipeline(rd.from_arrow(lt), rd.from_arrow(rt), **kw).to_pandas()
        b = broadcast_hash_join_pipeline(
            rd.from_arrow(lt), rd.from_arrow(rt), **kw
        ).to_pandas()
        cols = list(a.columns)
        a = a.sort_values(cols).reset_index(drop=True)
        b = b[cols].sort_values(cols).reset_index(drop=True)
        return a, b

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_matches_shuffle_plan(self, ray_session, how):
        import pandas as pd

        lt = _left([1, 1, 2, 3, None], [0] * 5)
        rt = _right([1, 2, 2, 4, None], [0] * 5, [10, 20, 21, 40, 99])
        a, b = self._both(lt, rt, how)
        pd.testing.assert_frame_equal(a, b)

    @pytest.mark.parametrize("how", ["semi", "anti"])
    def test_semi_anti_match(self, ray_session, how):
        import pandas as pd

        lt = _left([1, 1, 2, 3, None], [0] * 5)
        rt = _right([1, 1, 4, None], [0] * 4, [9, 9, 9, 9])
        a, b = self._both(lt, rt, how, payload=())
        pd.testing.assert_frame_equal(a, b)

    def test_empty_right_all_hows(self, ray_session):
        import pandas as pd

        lt = _left([1, 2], [0, 0])
        rt = _right([], [], [])
        for how in ("inner", "left"):
            a, b = self._both(lt, rt, how)
            pd.testing.assert_frame_equal(a, b)
        for how in ("semi", "anti"):
            a, b = self._both(lt, rt, how, payload=())
            pd.testing.assert_frame_equal(a, b)

    def test_random_fuzz_vs_shuffle(self, ray_session):
        import pandas as pd

        rng = np.random.default_rng(7)
        for trial in range(3):
            nl, nr = int(rng.integers(1, 200)), int(rng.integers(0, 60))
            lk = rng.integers(0, 20, size=nl).tolist()
            rk = rng.integers(0, 20, size=nr).tolist()
            lt = _left(lk, [0] * nl)
            rt = _right(rk, [0] * nr, rng.integers(0, 1000, size=nr).tolist())
            for how in ("inner", "left"):
                a, b = self._both(lt, rt, how)
                pd.testing.assert_frame_equal(a, b)
            for how in ("semi", "anti"):
                a, b = self._both(lt, rt, how, payload=())
                pd.testing.assert_frame_equal(a, b)


class TestBloomPrefilterJoin:
    """Bloom-semi-join pushdown must be bit-identical to the shuffle plan
    (no false negatives; false positives removed by the exact join)."""

    def _both(self, lt, rt, how, payload=("pay",), m_bits=1 << 12):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.joins import (
            bloom_prefilter_join_pipeline,
            hash_join_pipeline,
        )

        kw = dict(
            left_key="k",
            right_key="k2",
            left_cols=["lid", "k"],
            right_payload=list(payload),
            how=how,
        )
        a = bloom_prefilter_join_pipeline(
            rd.from_arrow(lt), rd.from_arrow(rt), m_bits=m_bits, **kw
        ).to_pandas()
        b = hash_join_pipeline(rd.from_arrow(lt), rd.from_arrow(rt), **kw).to_pandas()
        cols = list(a.columns)
        a = a.sort_values(cols).reset_index(drop=True)
        b = b[cols].sort_values(cols).reset_index(drop=True)
        return a, b

    @pytest.mark.parametrize("how", ["inner", "semi"])
    def test_matches_shuffle_plan(self, ray_session, how):
        import pandas as pd

        lt = _left([1, 1, 2, 3, None], [0] * 5)
        rt = _right([1, 2, 2, 4, None], [0] * 5, [10, 20, 21, 40, 99])
        payload = ("pay",) if how == "inner" else ()
        a, b = self._both(lt, rt, how, payload=payload)
        pd.testing.assert_frame_equal(a, b)

    def test_rejects_outer_modes(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.joins import bloom_prefilter_join_pipeline

        lt, rt = _left([1], [0]), _right([1], [0], [1])
        for how in ("left", "right", "full", "anti"):
            with pytest.raises(ValueError):
                bloom_prefilter_join_pipeline(
                    rd.from_arrow(lt),
                    rd.from_arrow(rt),
                    left_key="k",
                    right_key="k2",
                    left_cols=["lid"],
                    right_payload=[],
                    how=how,
                )

    def test_tiny_filter_fuzz(self, ray_session):
        # deliberately tiny m_bits -> high false-positive rate; the exact
        # join must still make the result identical to the shuffle plan
        import pandas as pd

        rng = np.random.default_rng(11)
        for trial in range(3):
            nl, nr = int(rng.integers(50, 300)), int(rng.integers(0, 80))
            lt = _left(rng.integers(0, 50, size=nl).tolist(), [0] * nl)
            rt = _right(
                rng.integers(0, 50, size=nr).tolist(),
                [0] * nr,
                rng.integers(0, 1000, size=nr).tolist(),
            )
            a, b = self._both(lt, rt, "inner", m_bits=64)
            pd.testing.assert_frame_equal(a, b)


class TestBroadcastAsofJoin:
    def test_matches_shuffle_plan(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.joins import (
            asof_join_pipeline,
            broadcast_asof_join_pipeline,
        )

        rng = np.random.default_rng(17)
        nl, nr = 3000, 400
        left = pa.table(
            {
                "eid": pa.array(np.arange(nl), pa.int64()),
                "k": pa.array(rng.integers(0, 50, nl), pa.int64()),
                "ts": pa.array(rng.integers(0, 1000, nl), pa.timestamp("us")),
            }
        )
        right = pa.table(
            {
                "k2": pa.array(rng.integers(0, 60, nr), pa.int64()),
                "rts": pa.array(rng.integers(0, 1000, nr), pa.timestamp("us")),
                "oid": pa.array(np.arange(nr), pa.int64()),
                "pay": pa.array(rng.normal(size=nr)),
            }
        )
        kw = dict(
            left_key="k", left_ts="ts", right_key="k2", right_ts="rts",
            left_cols=["eid", "k"], right_payload=["oid", "pay"], tiebreak="oid",
        )
        with partitions(8):
            a = (
                asof_join_pipeline(
                    rd.from_arrow(left).repartition(4),
                    rd.from_arrow(right).repartition(3), **kw,
                )
                .to_pandas().sort_values("eid").reset_index(drop=True)
            )
        b = (
            broadcast_asof_join_pipeline(
                rd.from_arrow(left).repartition(4),
                rd.from_arrow(right).repartition(3), **kw,
            )
            .to_pandas().sort_values("eid").reset_index(drop=True)
        )
        assert a.equals(b)

    def test_empty_build_side(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.joins import broadcast_asof_join_pipeline

        left = pa.table(
            {
                "eid": pa.array([1, 2], pa.int64()),
                "k": pa.array([7, 8], pa.int64()),
                "ts": pa.array([10, 20], pa.timestamp("us")),
            }
        )
        right = pa.table(
            {
                "k2": pa.array([], pa.int64()),
                "rts": pa.array([], pa.timestamp("us")),
                "oid": pa.array([], pa.int64()),
            }
        )
        out = broadcast_asof_join_pipeline(
            rd.from_arrow(left), rd.from_arrow(right),
            left_key="k", left_ts="ts", right_key="k2", right_ts="rts",
            left_cols=["eid", "k"], right_payload=["oid"], tiebreak="oid",
        ).to_pandas()
        assert len(out) == 2 and out.oid.isna().all()


class TestIntervalOverlapJoin:
    def _run(self, lt, rt, D, parts=5):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.joins import interval_overlap_join_pipeline

        with partitions(parts):
            out = interval_overlap_join_pipeline(
                rd.from_arrow(lt),
                rd.from_arrow(rt),
                key_cols=("k", "k2"),
                left_start="ls",
                left_end="le",
                right_start="rs",
                right_end="re",
                left_cols=["lid", "k"],
                right_payload=["rid"],
                max_right_duration_s=D,
            )
            return out.to_pandas().sort_values(["lid", "rid"]).reset_index(drop=True)

    def _mk(self, keys, starts, ends, side):
        us = 1_000_000
        cols = {
            f"{side}id": pa.array(range(len(keys)), pa.int64()),
            ("k" if side == "l" else "k2"): pa.array(keys, pa.int64()),
            f"{side}s": pa.array(np.asarray(starts, np.int64) * us),
            f"{side}e": pa.array(np.asarray(ends, np.int64) * us),
        }
        return pa.table(cols)

    def test_matches_bruteforce(self, ray_session):
        rng = np.random.default_rng(17)
        n, m, D = 200, 250, 50
        lk = rng.integers(0, 12, n)
        ls = rng.integers(0, 1000, n)
        le = ls + rng.integers(0, 120, n)  # left durations unbounded
        rk = rng.integers(0, 12, m)
        rs = rng.integers(0, 1000, m)
        re_ = rs + rng.integers(0, D + 1, m)  # right durations <= D
        lt = self._mk(lk.tolist(), ls.tolist(), le.tolist(), "l")
        rt = self._mk(rk.tolist(), rs.tolist(), re_.tolist(), "r")
        df = self._run(lt, rt, D)
        want = set()
        for i in range(n):
            for j in range(m):
                if lk[i] == rk[j] and ls[i] <= re_[j] and rs[j] <= le[i]:
                    want.add((i, j))
        assert set(zip(df.lid, df.rid)) == want and len(df) == len(want)

    def test_duration_bound_violation_raises(self, ray_session):
        lt = self._mk([1], [0], [10], "l")
        rt = self._mk([1], [0], [100], "r")  # 100 s > D = 50
        import pytest as _pytest

        with _pytest.raises(Exception, match="max_right_duration"):
            self._run(lt, rt, 50)

    def test_touching_endpoints_inclusive(self, ray_session):
        # [0, 10] and [10, 20] share exactly one point -> overlap (closed)
        lt = self._mk([1], [0], [10], "l")
        rt = self._mk([1], [10], [20], "r")
        df = self._run(lt, rt, 10)
        assert len(df) == 1
