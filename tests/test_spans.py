"""Positional duplicate-span detection (pipelines/spans.py)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ddsketch_ruby_ray.pipelines import spans

from .partitions import setting


def _run(t, n=3, repartition=None):
    import ray.data as rd

    from ddsketch_ruby_ray.pipelines.spans import duplicate_spans_pipeline

    ds = rd.from_arrow(t)
    if repartition:
        ds = ds.repartition(repartition)
    df = duplicate_spans_pipeline(ds, key_col="doc_id", text_col="text", n=n).to_pandas()
    if df.empty:
        return df
    return df.sort_values(["doc_id", "span_start"]).reset_index(drop=True)


class TestDuplicateSpans:
    def test_shared_paragraph_and_unique_doc(self, ray_session):
        shared = "the license text is identical here"  # 6 tokens
        t = pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(
                    [
                        f"alpha beta {shared} gamma delta",
                        f"start {shared} finish line now",
                        "totally unique words with no repeats at all",
                    ]
                ),
            }
        )
        df = _run(t, n=3)
        # every 3-gram inside `shared` is duplicated; they merge to one span
        spans = {(r.doc_id, r.span_start, r.span_end) for r in df.itertuples()}
        # doc 1: shared occupies tokens 3..8 -> windows 3..6 -> span [3, 8]
        assert (1, 3, 8) in spans
        # doc 2: shared occupies tokens 2..7 -> span [2, 7]
        assert (2, 2, 7) in spans
        assert not any(r.doc_id == 3 for r in df.itertuples())

    def test_repeated_key_in_one_block_raises(self, ray_session):
        """The broadcast plan merges spans per block, so two rows sharing a
        key in one block would mix two documents' positions: it raises,
        naming the key column."""
        import pytest

        shared = "the license text is identical here"
        t = pa.table(
            {
                "doc_id": pa.array([1, 1, 2], pa.int64()),
                "text": pa.array(
                    [f"alpha {shared}", f"{shared} beta", "no repeats in this one"]
                ),
            }
        )
        with pytest.raises(Exception, match="'doc_id'"):
            _run(t, n=3)

    def test_within_doc_repeat_counts(self, ray_session):
        t = pa.table(
            {
                "doc_id": pa.array([7], pa.int64()),
                "text": pa.array(["x y z q r x y z q r"]),  # "x y z" twice in ONE doc
            }
        )
        df = _run(t, n=3)
        # all windows repeat (period 5): one maximal span covering the doc
        assert len(df) == 1
        assert (df.iloc[0].span_start, df.iloc[0].span_end) == (1, 10)

    def test_disjoint_spans_stay_separate_and_layout(self, ray_session):
        dup1 = "a b c"
        dup2 = "p q r"
        filler = " ".join(f"u{i}" for i in range(6))
        t = pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(
                    [f"{dup1} {filler} {dup2}", f"{dup2} w1 w2 w3 w4 w5 w6 {dup1}"]
                ),
            }
        )
        df = _run(t, n=3)
        d1 = df[df.doc_id == 1]
        assert [(r.span_start, r.span_end) for r in d1.itertuples()] == [(1, 3), (10, 12)]
        df2 = _run(t, n=3, repartition=5)
        assert (df.values == df2.values).all()

    def test_short_docs_contribute_nothing(self, ray_session):
        t = pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["a b", "a b"]),  # < n tokens each
            }
        )
        assert len(_run(t, n=3)) == 0

    def test_random_corpus_matches_bruteforce(self, ray_session):
        from ddsketch_ruby_ray.pipelines.dedup import tokenize

        rng = np.random.default_rng(44)
        vocab = [f"w{i}" for i in range(12)]  # tiny vocab -> many collisions
        n_win = 4
        texts = [
            " ".join(rng.choice(vocab, rng.integers(0, 20)))
            for _ in range(40)
        ]
        t = pa.table(
            {"doc_id": pa.array(range(40), pa.int64()), "text": pa.array(texts)}
        )
        df = _run(t, n=n_win, repartition=6)
        got = {
            (r.doc_id, r.span_start, r.span_end) for r in df.itertuples()
        }
        # brute force: global window counts, per-doc interval merge
        from collections import Counter

        wins = {}
        counts = Counter()
        for d, s in enumerate(texts):
            toks = tokenize(s)
            ws = [
                " ".join(toks[i : i + n_win])
                for i in range(len(toks) - n_win + 1)
            ]
            wins[d] = ws
            counts.update(ws)
        want = set()
        for d, ws in wins.items():
            dup_p = [i + 1 for i, w in enumerate(ws) if counts[w] >= 2]
            if not dup_p:
                continue
            start = prev = dup_p[0]
            for p in dup_p[1:]:
                if p - prev > n_win:
                    want.add((d, start, prev + n_win - 1))
                    start = p
                prev = p
            want.add((d, start, prev + n_win - 1))
        assert got == want

    def test_forced_classic_path_matches_broadcast_plan(self, ray_session):
        """_MAX_BROADCAST_HASHES = 0 forces the two-shuffle co-partition
        fallback; its spans must be identical to the broadcast plan's."""
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.spans import duplicate_spans_pipeline

        rng = np.random.default_rng(91)
        vocab = [f"w{i}" for i in range(10)]
        texts = [
            " ".join(rng.choice(vocab, rng.integers(0, 24))) for _ in range(60)
        ]
        t = pa.table(
            {"doc_id": pa.array(range(60), pa.int64()), "text": pa.array(texts)}
        )

        def run(cap=spans._MAX_BROADCAST_HASHES):
            with setting(spans, "_MAX_BROADCAST_HASHES", cap):
                df = duplicate_spans_pipeline(
                    rd.from_arrow(t).repartition(5),
                    key_col="doc_id",
                    text_col="text",
                    n=3,
                ).to_pandas()
            return sorted(map(tuple, df.to_numpy().tolist()))

        assert run(0) == run()

    def test_multi_seed_paths_match_bruteforce(self, ray_session):
        """Fuzz: broadcast plan == classic plan == brute force across seeds
        and window sizes (small vocab forces heavy cross-doc duplication)."""
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.dedup import tokenize
        from ddsketch_ruby_ray.pipelines.spans import duplicate_spans_pipeline

        from collections import Counter

        for seed, n_win in ((5, 2), (6, 3), (7, 5)):
            rng = np.random.default_rng(seed)
            vocab = [f"w{i}" for i in range(8)]
            texts = [
                " ".join(rng.choice(vocab, rng.integers(0, 16)))
                for _ in range(30)
            ]
            t = pa.table(
                {"doc_id": pa.array(range(30), pa.int64()), "text": pa.array(texts)}
            )

            def run(cap=spans._MAX_BROADCAST_HASHES):
                with setting(spans, "_MAX_BROADCAST_HASHES", cap):
                    df = duplicate_spans_pipeline(
                        rd.from_arrow(t).repartition(4),
                        key_col="doc_id",
                        text_col="text",
                        n=n_win,
                    ).to_pandas()
                return sorted(map(tuple, df.to_numpy().tolist()))

            got = run()
            assert got == run(0), (seed, n_win)
            # brute force
            counts: Counter = Counter()
            wins = {}
            for d, s in enumerate(texts):
                toks = tokenize(s)
                ws = [
                    " ".join(toks[i : i + n_win])
                    for i in range(len(toks) - n_win + 1)
                ]
                wins[d] = ws
                counts.update(ws)
            want = []
            for d, ws in wins.items():
                dup_p = [i + 1 for i, w in enumerate(ws) if counts[w] >= 2]
                if not dup_p:
                    continue
                start = prev = dup_p[0]
                for p in dup_p[1:]:
                    if p - prev > n_win:
                        want.append((d, start, prev + n_win - 1))
                        start = p
                    prev = p
                want.append((d, start, prev + n_win - 1))
            assert got == sorted(want), (seed, n_win)


class TestResumableStagedJobs:
    """Two-phase checkpoint/resume for the postings pipelines
    (state/staged.py): phase A (postings map) is exactly-once per input
    shard, phase B (keyed shuffles) only runs when all shards committed, and
    a resumed run is bit-identical to an uninterrupted one."""

    def _write_shards(self, tmp_path, n_shards=4, docs_per=25, seed=7):
        import pyarrow.parquet as pq

        rng = np.random.default_rng(seed)
        header = " ".join(f"tok{i}" for i in range(12))  # cross-shard dup span
        paths, did = [], 0
        for s in range(n_shards):
            texts, ids = [], []
            for _ in range(docs_per):
                body = " ".join(
                    f"w{rng.integers(0, 5000)}"
                    for _ in range(int(rng.integers(5, 40)))
                )
                texts.append(header + " " + body if did % 7 == 0 else body)
                ids.append(did)
                did += 1
            t = pa.table(
                {"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}
            )
            p = tmp_path / f"in-{s:02d}.parquet"
            pq.write_table(t, p)
            paths.append(str(p))
        return paths

    def test_spans_crash_resume_matches_oneshot(self, ray_session, tmp_path):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.spans import (
            duplicate_spans_pipeline,
            resumable_duplicate_spans_job,
        )

        paths = self._write_shards(tmp_path)
        work = str(tmp_path / "work")
        kw = dict(prepare=lambda ds: ds, key_col="doc_id", text_col="text", n=8)
        # "killed" run: 2 of 4 shards commit; phase B must not have run
        assert resumable_duplicate_spans_job(paths, work, max_shards=2, **kw) is None
        import os

        assert not os.path.exists(os.path.join(work, "final_DONE"))
        got = (
            resumable_duplicate_spans_job(paths, work, **kw)  # resume
            .to_pandas()
            .sort_values(["doc_id", "span_start"])
            .reset_index(drop=True)
        )
        want = (
            duplicate_spans_pipeline(
                rd.read_parquet(paths), key_col="doc_id", text_col="text", n=8
            )
            .to_pandas()
            .sort_values(["doc_id", "span_start"])
            .reset_index(drop=True)
        )
        assert len(got) > 0  # the shared header must surface as spans
        assert (got.values == want.values).all()
        # idempotent: a third call just reads the committed output back
        again = (
            resumable_duplicate_spans_job(paths, work, **kw)
            .to_pandas()
            .sort_values(["doc_id", "span_start"])
            .reset_index(drop=True)
        )
        assert (again.values == got.values).all()

    def test_dup_fraction_crash_resume_matches_oneshot(self, ray_session, tmp_path):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.postings import (
            dup_fraction_pipeline,
            resumable_dup_fraction_job,
        )

        paths = self._write_shards(tmp_path, seed=11)
        work = str(tmp_path / "work")
        kw = dict(prepare=lambda ds: ds, key_col="doc_id", text_col="text", ngram=3)
        assert resumable_dup_fraction_job(paths, work, max_shards=3, **kw) is None
        got = (
            resumable_dup_fraction_job(paths, work, **kw)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        want = (
            dup_fraction_pipeline(
                rd.read_parquet(paths), key_col="doc_id", text_col="text", ngram=3
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert len(got) > 0
        assert (got.values == want.values).all()

    def test_adding_shards_reruns_reduce(self, ray_session, tmp_path):
        """A completed job re-run with EXTRA input shards must re-reduce over
        the grown postings, not return the stale final output (review r3)."""
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.spans import (
            duplicate_spans_pipeline,
            resumable_duplicate_spans_job,
        )

        paths = self._write_shards(tmp_path, n_shards=3, seed=23)
        work = str(tmp_path / "work")
        kw = dict(prepare=lambda ds: ds, key_col="doc_id", text_col="text", n=8)
        first = resumable_duplicate_spans_job(paths[:2], work, **kw).to_pandas()
        grown = (
            resumable_duplicate_spans_job(paths, work, **kw)
            .to_pandas()
            .sort_values(["doc_id", "span_start"])
            .reset_index(drop=True)
        )
        want = (
            duplicate_spans_pipeline(
                rd.read_parquet(paths), key_col="doc_id", text_col="text", n=8
            )
            .to_pandas()
            .sort_values(["doc_id", "span_start"])
            .reset_index(drop=True)
        )
        assert len(grown) > len(first)  # shard 3's header copies joined in
        assert (grown.values == want.values).all()
