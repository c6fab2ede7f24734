"""Transition-count pipeline (pipelines/transitions.py) vs brute force.

Edge cases the sf oracle can't isolate: timestamp ties resolved by the
tie-break column, single-event keys (no pairs), keys split across input
blocks, and an empty input.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa

from .partitions import partitions


def _run(tbl, parts=8):
    import ray.data as rd

    from ddsketch_ruby_ray.pipelines.transitions import keyed_transition_counts_pipeline

    with partitions(parts):
        out = keyed_transition_counts_pipeline(
            rd.from_arrow(tbl).repartition(4),
            key_col="k",
            ts_col="ts",
            tiebreak_col="tb",
            state_col="s",
        ).to_pandas()
    return {
        (r.from_state, r.to_state): int(r.n_pair)
        for r in out.itertuples(index=False)
    }


def _brute(tbl):
    rows = sorted(
        zip(
            tbl.column("k").to_pylist(),
            tbl.column("ts").to_pylist(),
            tbl.column("tb").to_pylist(),
            tbl.column("s").to_pylist(),
        )
    )
    c: Counter = Counter()
    for (k1, _, _, s1), (k2, _, _, s2) in zip(rows, rows[1:]):
        if k1 == k2:
            c[(s1, s2)] += 1
    return dict(c)


def _tbl(k, ts, tb, s):
    return pa.table(
        {
            "k": pa.array(k, pa.int64()),
            "ts": pa.array(np.asarray(ts, dtype=np.int64) * 1_000_000, pa.timestamp("us")),
            "tb": pa.array(tb, pa.int64()),
            "s": pa.array(s, pa.string()),
        }
    )


class TestTransitionCounts:
    def test_ties_resolved_by_tiebreak(self, ray_session):
        # same key, same ts: order comes from tb -> a->b->c, not input order
        t = _tbl([1, 1, 1], [5, 5, 5], [3, 1, 2], ["c", "a", "b"])
        assert _run(t) == {("a", "b"): 1, ("b", "c"): 1}

    def test_single_event_keys_contribute_nothing(self, ray_session):
        t = _tbl([1, 2, 3], [1, 2, 3], [1, 2, 3], ["a", "b", "c"])
        assert _run(t) == {}

    def test_random_vs_brute_force(self, ray_session):
        rng = np.random.default_rng(7)
        n = 5_000
        t = _tbl(
            rng.integers(0, 40, n),
            rng.integers(0, 50, n),
            np.arange(n),
            np.array(["s%d" % x for x in rng.integers(0, 5, n)]),
        )
        assert _run(t, parts=16) == _brute(t)

    def test_empty(self, ray_session):
        t = _tbl([], [], [], [])
        assert _run(t) == {}
