"""Regressions for the round-5 ADVICE findings.

- metric_corr_matrix_by_lang: cross-block fold of the sufficient sums must
  accumulate in Python ints (an Arrow int64 re-sum wraps silently past 2^63
  even when every block passes its own gate).
- emitted key columns must not silently merge NULL keys into key 0
  (null_safe_int64's fill-with-0 shortcut is routing-only).
- weighted_avg_price_by_flag: block pre-agg gates max|cents|*max|qty|*rows
  < 2^63 loudly instead of wrapping.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


class TestStrictKeyInt64:
    def test_raises_on_nulls(self):
        from ddsketch_ruby_ray.pipelines.fold import strict_key_int64

        col = pa.chunked_array([pa.array([1, None, 3], pa.int64())])
        with pytest.raises(ValueError, match="NULL"):
            strict_key_int64(col, name="user_id")

    def test_big_keys_exact(self):
        """No float64 fallback: keys >= 2^53 must round-trip exactly."""
        from ddsketch_ruby_ray.pipelines.fold import strict_key_int64

        big = (1 << 53) + 1
        out = strict_key_int64(pa.array([big, 7], pa.int64()))
        assert out.dtype == np.int64
        assert out.tolist() == [big, 7]

    def test_session_table_raises_on_null_key(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.windows import session_table_pipeline

        t = pa.table(
            {
                "user_id": pa.array([1, None, 2], pa.int64()),
                "ts": pa.array([10**6, 2 * 10**6, 3 * 10**6], pa.int64()).cast(
                    pa.timestamp("us")
                ),
            }
        )
        # the keyed exchange executes its input when the pipeline is built,
        # so the error may come from either call
        with pytest.raises(Exception, match="NULL"):
            session_table_pipeline(
                rd.from_arrow(t), key_col="user_id", ts_col="ts"
            ).take_all()


class TestWeightedAvgOverflowGate:
    def test_block_gate_raises(self, ray_session, tmp_path):
        """Prices engineered so max|cents|*max|qty|*rows >= 2^63 in one
        block: the pre-agg must fail loudly, not wrap."""
        from ddsketch_ruby_ray import queries

        n = 8
        pq.write_table(
            pa.table(
                {
                    "l_returnflag": pa.array(["A"] * n),
                    "l_extendedprice": pa.array([1e16] * n, pa.float64()),
                    "l_quantity": pa.array([10.0] * n, pa.float64()),
                }
            ),
            str(tmp_path / "lineitem.parquet"),
        )
        with pytest.raises(Exception, match="overflow"):
            queries.weighted_avg_price_by_flag(str(tmp_path)).take_all()

    def test_moderate_values_exact(self, ray_session, tmp_path):
        from ddsketch_ruby_ray import queries

        rng = np.random.default_rng(7)
        flags = rng.choice(["A", "N", "R"], size=500).tolist()
        price = np.round(rng.uniform(1.0, 9999.0, size=500), 2)
        qty = rng.integers(1, 50, size=500).astype(np.float64)
        pq.write_table(
            pa.table(
                {
                    "l_returnflag": pa.array(flags),
                    "l_extendedprice": pa.array(price, pa.float64()),
                    "l_quantity": pa.array(qty, pa.float64()),
                }
            ),
            str(tmp_path / "lineitem.parquet"),
        )
        df = (
            queries.weighted_avg_price_by_flag(str(tmp_path))
            .to_pandas()
            .sort_values("flag")
            .reset_index(drop=True)
        )
        cents = np.round(np.abs(price * 100.0)).astype(np.int64) * np.sign(
            price
        ).astype(np.int64)
        q_i = np.round(qty).astype(np.int64)
        for _, row in df.iterrows():
            m = np.array(flags) == row["flag"]
            wsum = int((cents[m] * q_i[m]).sum())
            w = int(q_i[m].sum())
            assert row["wsum"] == wsum
            assert row["w"] == w
            assert row["wavg_cents"] == float(wsum) / float(w)


class TestMetricCorrPythonIntFold:
    def test_matches_exact_numpy(self, ray_session, tmp_path):
        """End-to-end pin of the refactored Python-int cross-block fold
        against an exact big-int reference on a multi-lang corpus."""
        import math

        from ddsketch_ruby_ray import queries

        rng = np.random.default_rng(11)
        langs, texts = [], []
        for i in range(300):
            lang = ["en", "de", "fr"][i % 3]
            words = ["w" * int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 40)))]
            nlines = int(rng.integers(1, 6))
            text = "\n".join(
                " ".join(words[j::nlines]) for j in range(nlines)
            )
            langs.append(lang)
            texts.append(text)
        n_chars = [len(t) for t in texts]
        pq.write_table(
            pa.table(
                {
                    "lang": pa.array(langs),
                    "text": pa.array(texts),
                    "n_chars": pa.array(n_chars, pa.int64()),
                }
            ),
            str(tmp_path / "documents.parquet"),
        )
        df = queries.metric_corr_matrix_by_lang(str(tmp_path)).to_pandas()
        assert len(df) == 9  # 3 langs x 3 pairs
        # exact reference with python ints
        import re

        for lang in ("en", "de", "fr"):
            idx = [i for i, g in enumerate(langs) if g == lang]
            a = [n_chars[i] for i in idx]
            b = [len(re.findall(r"[^ ]+", texts[i])) for i in idx]
            c = [texts[i].count("\n") + 1 for i in idx]
            metrics = [a, b, c]
            for pname, i, j in (
                ("chars_tokens", 0, 1),
                ("chars_lines", 0, 2),
                ("tokens_lines", 1, 2),
            ):
                x, y = metrics[i], metrics[j]
                n = len(x)
                sx, sy = sum(x), sum(y)
                sxx = sum(v * v for v in x)
                syy = sum(v * v for v in y)
                sxy = sum(u * v for u, v in zip(x, y))
                num = n * sxy - sx * sy
                d1 = n * sxx - sx * sx
                d2 = n * syy - sy * sy
                want_r = (
                    float(num) / (math.sqrt(float(d1)) * math.sqrt(float(d2)))
                    if d1 > 0 and d2 > 0
                    else 0.0
                )
                row = df[(df.lang == lang) & (df.pair == pname)]
                assert len(row) == 1
                assert row["r"].iloc[0] == want_r, (lang, pname)
                assert row["n"].iloc[0] == float(n)
