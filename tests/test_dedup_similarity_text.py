"""Ray-level tests for dedup, similarity-search and text-analysis pipelines.

The bit-exact SQL-oracle comparison lives in the driver gate
(queries.py / tools/check_correctness.py); these tests pin the semantic
properties: duplicate capture, LSH recall, partition-layout invariance,
hamming locality, fingerprint stability.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _docs_ds(extra_rows: pa.Table | None = None, blocks: int | None = None):
    import ray.data as rd

    ds = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    if extra_rows is not None:
        ds = ds.union(rd.from_arrow(extra_rows))
    if blocks:
        ds = ds.repartition(blocks)
    return ds


def _perturbed_copies(n=20, offset=10_000):
    """Copies of the first n docs with ONE token changed (strong near-dups)."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids, texts = [], []
    for i in range(n):
        toks = t.column("text")[i].as_py().split(" ")
        mid = len(toks) // 2
        toks[mid] = "zzqx"
        ids.append(t.column("doc_id")[i].as_py() + offset)
        texts.append(" ".join(toks))
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})


class TestExactDedup:
    def test_exact_duplicates_collapse(self, ray_session):
        import pyarrow.parquet as pq

        from ddsketch_ruby_ray.pipelines.dedup import exact_dedup_pipeline

        t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        dup = pa.table(
            {
                "doc_id": pa.array([d.as_py() + 5000 for d in t.column("doc_id")], pa.int64()),
                "text": t.column("text"),
            }
        )
        kept = exact_dedup_pipeline(_docs_ds(dup), key_col="doc_id", text_col="text").to_pandas()
        assert len(kept) == t.num_rows  # every text resolves to ONE keeper
        assert set(kept["doc_id"]) == set(d.as_py() for d in t.column("doc_id"))  # min wins

    def test_partition_layout_invariant(self, ray_session):
        from ddsketch_ruby_ray.pipelines.dedup import exact_dedup_pipeline

        a = exact_dedup_pipeline(_docs_ds(), key_col="doc_id", text_col="text").to_pandas()
        b = exact_dedup_pipeline(_docs_ds(blocks=11), key_col="doc_id", text_col="text").to_pandas()
        assert sorted(a["doc_id"]) == sorted(b["doc_id"])

    def test_min_key_per_hash(self):
        """One row per 128-bit hash, the min-key one, in hash order; string
        keys order like their values."""
        from ddsketch_ruby_ray.pipelines.dedup import _min_key_per_hash

        hi = np.array([5, 1, 5, 1, 5, 1], dtype=np.int64)
        lo = np.array([2, 7, 2, 7, 3, 7], dtype=np.int64)
        ints = np.array([30, 12, 10, 11, 40, 13], dtype=np.int64)
        strs = np.array(["d", "bb", "b", "ba", "e", "c"], dtype=object)
        assert _min_key_per_hash(hi, lo, ints).tolist() == [3, 2, 4]
        assert _min_key_per_hash(hi, lo, strs).tolist() == [3, 2, 4]
        assert _min_key_per_hash(hi, lo, strs).tolist() == np.lexsort((strs, lo, hi))[[0, 3, 5]].tolist()
        assert _min_key_per_hash(hi[:0], lo[:0], ints[:0]).tolist() == []


class TestMinHashLSH:
    def test_near_duplicates_are_candidates(self, ray_session):
        from ddsketch_ruby_ray.pipelines.dedup import lsh_candidate_pairs_pipeline

        extra = _perturbed_copies(20)
        pairs = lsh_candidate_pairs_pipeline(
            _docs_ds(extra), key_col="doc_id", text_col="text"
        ).to_pandas()
        found = {(a, b) for a, b in zip(pairs["a"], pairs["b"])}
        hits = sum((i, i + 10_000) in found for i in range(20))
        assert hits >= 17  # banding theory: ~99% capture at s ~= 0.9

    def test_max_bucket_drops_only_oversized_buckets(self, ray_session):
        """Four copies of one text share a bucket of 4 in every band; a cap
        below 4 drops exactly their pairs, and ``None`` is no cap."""
        import itertools

        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.dedup import lsh_candidate_pairs_pipeline

        rng = np.random.default_rng(5)

        def text():
            return " ".join(f"w{x}" for x in rng.integers(0, 10**6, 30))

        big, small = text(), text()
        rows = [(k, big) for k in (3, 8, 21, 40)] + [(k, small) for k in (5, 17)]
        rows += [(100 + k, text()) for k in range(30)]
        tbl = pa.table(
            {
                "doc_id": pa.array([k for k, _ in rows], pa.int64()),
                "text": pa.array([t for _, t in rows]),
            }
        )

        def run(**kw):
            out = lsh_candidate_pairs_pipeline(
                rd.from_arrow(tbl).repartition(3), key_col="doc_id", text_col="text", **kw
            )
            return {(r["a"], r["b"]) for r in out.take_all()}

        uncapped = run(max_bucket=None)
        big_pairs = set(itertools.combinations((3, 8, 21, 40), 2))
        assert big_pairs | {(5, 17)} <= uncapped
        assert run(max_bucket=len(rows)) == uncapped
        assert run(max_bucket=4) == uncapped  # a bucket of exactly the cap stays
        assert run(max_bucket=3) == uncapped - big_pairs
        assert run(max_bucket=1) == set()

    def test_no_surviving_pair_gives_typed_empty_tables(self, ray_session):
        """Two docs with no shingle in common: the LSH result is a typed
        empty ``(a, b)`` table, and the verifies built on it run."""
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines import dedup

        tbl = pa.table(
            {"doc_id": pa.array([1, 2], pa.int64()), "text": pa.array(["a b c d", "x y z w"])}
        )
        kw = dict(key_col="doc_id", text_col="text")
        lsh = dedup.lsh_candidate_pairs_pipeline(rd.from_arrow(tbl), **kw)
        assert lsh.schema().base_schema == pa.schema([("a", pa.int64()), ("b", pa.int64())])
        assert lsh.take_all() == []
        for verify in (
            dedup.edit_distance_pairs_pipeline,
            dedup.jaro_winkler_pairs_pipeline,
            dedup.simhash_hamming_pairs_pipeline,
        ):
            assert verify(rd.from_arrow(tbl), **kw).take_all() == [], verify.__name__

    def test_jaccard_verifies_candidates(self, ray_session):
        from ddsketch_ruby_ray.pipelines.dedup import jaccard_pairs_pipeline

        extra = _perturbed_copies(10)
        out = jaccard_pairs_pipeline(
            _docs_ds(extra), key_col="doc_id", text_col="text", threshold=0.5
        ).to_pandas()
        mine = out[(out.b - out.a) == 10_000]
        assert len(mine) >= 8
        assert (mine["jac1000"] >= 700).all()

    def test_signature_partition_invariant(self, ray_session):
        from ddsketch_ruby_ray.pipelines.dedup import minhash_signatures

        a = minhash_signatures(_docs_ds(), key_col="doc_id", text_col="text").to_pandas()
        b = minhash_signatures(_docs_ds(blocks=7), key_col="doc_id", text_col="text").to_pandas()
        a = a.sort_values("doc_id").reset_index(drop=True)
        b = b.sort_values("doc_id").reset_index(drop=True)
        assert (a.values == b.values).all()


class TestEmptyDocBoundaries:
    """Regression: a batch whose FINAL doc(s) are empty/null must not truncate
    the preceding doc's reduceat segment (minhash + simhash)."""

    CASES = [
        ["alpha beta gamma delta epsilon zeta", "", ""],
        ["alpha beta gamma delta epsilon zeta", None],
        ["", "alpha beta gamma delta epsilon zeta", "", "other words here too now", ""],
        ["", "", ""],
        [None, "", None],
    ]

    @staticmethod
    def _one_block(texts):
        import ray.data as rd

        t = pa.table(
            {
                "doc_id": pa.array(list(range(len(texts))), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        return rd.from_arrow(t)

    def test_minhash_trailing_empty_does_not_truncate(self, ray_session):
        from ddsketch_ruby_ray.pipelines.dedup import minhash_signatures

        for texts in self.CASES:
            batched = (
                minhash_signatures(self._one_block(texts), key_col="doc_id", text_col="text")
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )
            for i, txt in enumerate(texts):
                solo = minhash_signatures(
                    self._one_block([txt]), key_col="doc_id", text_col="text"
                ).to_pandas()
                mcols = [c for c in batched.columns if c.startswith("m")]
                assert (
                    batched.loc[i, mcols].to_numpy().astype(np.int64)
                    == solo.loc[0, mcols].to_numpy().astype(np.int64)
                ).all(), (texts, i)

    def test_minhash_empty_docs_get_sentinel(self, ray_session):
        from ddsketch_ruby_ray.pipelines.dedup import minhash_signatures

        out = (
            minhash_signatures(
                self._one_block(["words here now", "", None]), key_col="doc_id", text_col="text"
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        sent = 2**63 - 1
        mcols = [c for c in out.columns if c.startswith("m")]
        assert (out.loc[1, mcols] == sent).all()
        assert (out.loc[2, mcols] == sent).all()
        assert not (out.loc[0, mcols] == sent).any()

    def test_simhash_trailing_empty_does_not_truncate(self, ray_session):
        from ddsketch_ruby_ray.pipelines.dedup import simhash_pipeline

        for texts in self.CASES:
            batched = (
                simhash_pipeline(self._one_block(texts), key_col="doc_id", text_col="text")
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )
            for i, txt in enumerate(texts):
                solo = simhash_pipeline(
                    self._one_block([txt]), key_col="doc_id", text_col="text"
                ).to_pandas()
                assert int(batched.loc[i, "simhash_hi"]) == int(solo.loc[0, "simhash_hi"]), (
                    texts,
                    i,
                )
                assert int(batched.loc[i, "simhash_lo"]) == int(solo.loc[0, "simhash_lo"])

    def test_null_text_flows_through_exact_dedup(self, ray_session):
        from ddsketch_ruby_ray.pipelines.dedup import exact_dedup_pipeline

        kept = exact_dedup_pipeline(
            self._one_block(["same text", None, "", "same text", None]),
            key_col="doc_id",
            text_col="text",
        ).to_pandas()
        # null == '' under the policy: {0} for "same text", {1} for ''/null
        assert set(kept["doc_id"]) == {0, 1}


class TestSimHash:
    def test_identical_and_near_duplicate_hamming(self, ray_session):
        from ddsketch_ruby_ray.pipelines.dedup import simhash_pipeline

        extra = _perturbed_copies(20)
        out = simhash_pipeline(_docs_ds(extra), key_col="doc_id", text_col="text").to_pandas()
        sig = {
            r.doc_id: (int(r.simhash_hi) << 32) | int(r.simhash_lo)
            for r in out.itertuples()
        }
        dists = [bin(sig[i] ^ sig[i + 10_000]).count("1") for i in range(20)]
        assert np.mean(dists) < 8  # one token changed out of ~50 -> few bits flip
        rng = np.random.default_rng(0)
        rand_pairs = rng.choice(500, (20, 2), replace=False)
        rand_d = [bin(sig[a] ^ sig[b]).count("1") for a, b in rand_pairs if a != b]
        assert np.mean(rand_d) > np.mean(dists) + 5  # unrelated docs far apart


class TestSimilarity:
    def test_knn_matches_numpy(self, ray_session):
        import pyarrow.parquet as pq
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.similarity import knn_bruteforce_pipeline

        ds = rd.read_parquet(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
        out = knn_bruteforce_pipeline(
            ds, id_col="vec_id", vec_col="embedding", query_ids=[0, 1, 2], k=3
        ).to_pandas()

        t = pq.read_table(f"{SF}/embeddings.parquet")
        ids = t.column("vec_id").to_numpy()
        m = (
            t.column("embedding").combine_chunks().values.to_numpy(zero_copy_only=False)
            .astype(np.float64)
            .reshape(len(ids), -1)
        )
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        for q in (0, 1, 2):
            cos4 = np.floor(m @ m[q] * 10_000 + 0.5).astype(np.int64)
            keep = ids != q
            order = np.lexsort((ids[keep], -cos4[keep]))[:3]
            expect = list(ids[keep][order])
            got = list(out[out.query_id == q].sort_values(
                ["cos4", "neighbor_id"], ascending=[False, True]
            )["neighbor_id"])
            assert got == expect, q

    def test_ivf_recall_and_layout_invariance(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.similarity import (
            ivf_knn_pipeline,
            knn_bruteforce_pipeline,
        )

        ds = rd.read_parquet(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
        Q = list(range(8))
        bf = knn_bruteforce_pipeline(
            ds, id_col="vec_id", vec_col="embedding", query_ids=Q, k=5
        ).to_pandas()
        iv = ivf_knn_pipeline(
            ds, id_col="vec_id", vec_col="embedding", query_ids=Q, k=5, n_lists=8, n_probe=3
        ).to_pandas()
        hits = sum(
            len(set(bf[bf.query_id == q].neighbor_id) & set(iv[iv.query_id == q].neighbor_id))
            for q in Q
        )
        assert hits >= 0.5 * 5 * len(Q)  # scanning 3/8 of the lists
        iv2 = ivf_knn_pipeline(
            ds.repartition(5), id_col="vec_id", vec_col="embedding", query_ids=Q, k=5,
            n_lists=8, n_probe=3,
        ).to_pandas()
        a = iv.sort_values(["query_id", "neighbor_id"]).reset_index(drop=True)
        b = iv2.sort_values(["query_id", "neighbor_id"]).reset_index(drop=True)
        assert len(a) == len(b) and (a.values == b.values).all()

    def test_cosine_neardup_chunk_join_matches_numpy(self, ray_session):
        """The chunk-pair block join equals a single-matrix numpy all-pairs,
        for any chunk count (incl. chunks larger than the block layout)."""
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.similarity import cosine_neardup_pipeline

        rng = np.random.default_rng(21)
        vecs = rng.normal(0, 1, (200, 16))
        vecs[50:60] = vecs[0:10] + rng.normal(0, 0.01, (10, 16))  # near-dups
        ids = rng.permutation(10_000)[:200].astype(np.int64)
        tbl = pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(
                    [list(map(float, r)) for r in vecs], pa.list_(pa.float32())
                ),
            }
        )
        m = vecs.astype(np.float32).astype(np.float64)
        m /= np.sqrt((m * m).sum(axis=1, keepdims=True))
        cos4 = np.floor(m @ m.T * 10_000 + 0.5).astype(np.int64)
        want = sorted(
            (min(ids[i], ids[j]), max(ids[i], ids[j]), cos4[i, j])
            for i in range(200)
            for j in range(i + 1, 200)
            if cos4[i, j] >= 9_500
        )
        for chunks in (1, 3, 16):
            got = cosine_neardup_pipeline(
                rd.from_arrow(tbl).repartition(4),
                id_col="vec_id", vec_col="embedding",
                threshold=0.95, num_chunks=chunks,
            ).to_pandas()
            assert sorted(zip(got.a, got.b, got.cos4)) == want, chunks

    def test_ivf_auto_params_formula(self):
        from ddsketch_ruby_ray.pipelines.similarity import ivf_auto_params

        assert ivf_auto_params(0) == (16, 512)
        assert ivf_auto_params(500) == (22, 704)  # round(sqrt(500)) = 22
        assert ivf_auto_params(100_000) == (316, 10_112)
        assert ivf_auto_params(10**12) == (1_000_000, 32_000_000)

    def test_ivf_auto_recall_at_100k(self, ray_session):
        """Auto-sized IVF (n_lists ~ sqrt(N) = 316, sample 32/centroid) at
        100k clustered vectors: recall@5 vs exact cosine stays high while
        probing only n_probe/n_lists ~ 1.3%% of the lists."""
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.similarity import ivf_knn_pipeline

        rng = np.random.default_rng(7)
        n_clusters, per, dim = 200, 500, 16
        centers = rng.normal(0, 1, (n_clusters, dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        vecs = (
            np.repeat(centers, per, axis=0)
            + rng.normal(0, 0.05, (n_clusters * per, dim))
        ).astype(np.float32)
        n = len(vecs)
        ids = np.arange(n, dtype=np.int64)
        tbl = pa.table(
            {
                "vec_id": pa.array(ids),
                "embedding": pa.array(
                    [list(map(float, r)) for r in vecs], pa.list_(pa.float32())
                ),
            }
        )
        queries = [0, 777, 25_000, 60_001, 99_999]
        got = ivf_knn_pipeline(
            rd.from_arrow(tbl).repartition(8),
            id_col="vec_id", vec_col="embedding",
            query_ids=queries, k=5, n_lists="auto", n_probe=4,
        ).to_pandas()

        m = vecs.astype(np.float64)
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        hits = total = 0
        for q in queries:
            cos = m @ m[q]
            cos[q] = -np.inf
            true5 = set(np.argpartition(-cos, 5)[:5])
            approx = set(got[got.query_id == q].neighbor_id)
            hits += len(true5 & approx)
            total += 5
        assert total == 25 and hits / total >= 0.8, (hits, total)

    def test_srp_neardup_recall_and_precision(self, ray_session):
        """SRP bucket+verify finds most true near-dup pairs (recall), and
        never emits a pair below threshold (exact verify => full precision)."""
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.similarity import (
            cosine_neardup_pipeline,
            srp_neardup_pipeline,
        )

        rng = np.random.default_rng(11)
        base = rng.normal(0, 1, (100, 32)).astype(np.float32)
        twin = base + rng.normal(0, 0.02, base.shape).astype(np.float32)
        noise = rng.normal(0, 1, (300, 32)).astype(np.float32)
        vecs = np.concatenate([base, twin, noise])
        ids = list(range(100)) + list(range(1000, 1100)) + list(range(5000, 5300))
        tbl = pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(
                    [list(map(float, r)) for r in vecs], pa.list_(pa.float32())
                ),
            }
        )
        bf = cosine_neardup_pipeline(
            rd.from_arrow(tbl), id_col="vec_id", vec_col="embedding", threshold=0.95
        ).to_pandas()
        srp = srp_neardup_pipeline(
            rd.from_arrow(tbl).repartition(5),
            id_col="vec_id", vec_col="embedding", threshold=0.95, n_planes=10,
        ).to_pandas()
        bf_pairs = set(zip(bf.a, bf.b))
        srp_pairs = set(zip(srp.a, srp.b))
        assert srp_pairs <= bf_pairs  # exact verify: no false positives
        assert len(bf_pairs & srp_pairs) >= 0.8 * len(bf_pairs)

    def test_srp_buckets_capture_near_identical_vectors(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.similarity import signed_random_projection_buckets

        rng = np.random.default_rng(7)
        base = rng.normal(0, 1, (50, 16)).astype(np.float32)
        twin = base + rng.normal(0, 1e-3, base.shape).astype(np.float32)
        tbl = pa.table(
            {
                "vec_id": pa.array(list(range(50)) + list(range(100, 150)), pa.int64()),
                "embedding": pa.array(
                    [list(map(float, r)) for r in base] + [list(map(float, r)) for r in twin],
                    pa.list_(pa.float32()),
                ),
            }
        )
        out = signed_random_projection_buckets(
            rd.from_arrow(tbl), id_col="vec_id", vec_col="embedding", n_planes=12
        ).to_pandas()
        b = dict(zip(out.vec_id, out.bucket))
        same = sum(b[i] == b[i + 100] for i in range(50))
        assert same >= 45  # near-identical vectors nearly always share buckets


class TestOracleFuzz:
    def test_dedup_mirrors_on_hostile_text(self, ray_session):
        """minhash/simhash SQL mirrors hold for unicode, quotes, SQL-special
        characters, emoji, tabs, empty and whitespace-only documents."""
        import random

        import duckdb
        import ray.data as rd

        from ddsketch_ruby_ray.functions.dedup_oracle import (
            minhash_signature_sql,
            simhash_sql,
        )
        from ddsketch_ruby_ray.pipelines.dedup import minhash_signatures, simhash_pipeline

        rng = random.Random(7)
        weird = ["naïve", "日本語", "it's", 'quo"te', "a\\b", "x%y_", "🙂ok",
                 "<tag>", "$(cmd)", "tab\tchar", "'", "''", "--c", "0x1f"]
        docs = [" ".join(rng.choice(weird) for _ in range(rng.randint(0, 12)))
                for _ in range(120)] + ["", " ", "   ", "single"]
        tbl = pa.table(
            {"doc_id": pa.array(range(len(docs)), pa.int64()), "text": pa.array(docs)}
        )
        con = duckdb.connect()
        con.register("documents_arrow", tbl)
        con.sql("CREATE VIEW documents AS SELECT * FROM documents_arrow")
        ds = rd.from_arrow(tbl).repartition(5)

        def assert_match(mine, sql):
            theirs = con.sql(sql).df()
            a = mine[sorted(mine.columns)].sort_values(
                by=sorted(mine.columns)).reset_index(drop=True)
            b = theirs[sorted(theirs.columns)].sort_values(
                by=sorted(theirs.columns)).reset_index(drop=True)
            assert len(a) == len(b)
            for c in a.columns:
                assert (a[c].values == b[c].values).all(), c

        assert_match(
            minhash_signatures(ds, key_col="doc_id", text_col="text").to_pandas(),
            minhash_signature_sql(table="documents", key="doc_id", text="text"),
        )
        assert_match(
            simhash_pipeline(ds, key_col="doc_id", text_col="text").to_pandas(),
            simhash_sql(table="documents", key="doc_id", text="text"),
        )


class TestTextOracleFuzz:
    def test_text_mirrors_on_hostile_text(self, ray_session):
        """quality/lang-id/winnowing mirrors hold for unicode, emoji, long
        runs, empty and whitespace-only docs (character-based substr/length
        semantics agree between python slicing and DuckDB)."""
        import random

        import duckdb
        import ray.data as rd

        from ddsketch_ruby_ray.functions.text_oracle import (
            lang_id_sql,
            quality_scores_sql,
            winnow_sql,
        )
        from ddsketch_ruby_ray.stages.text import lang_id, quality_scores, winnow_fingerprints

        rng = random.Random(9)
        weird = ["naïve", "日本語中文", "it's", 'quo"te', "a\\b", "123", "!?!",
                 "🙂", "der", "the", "la", "le", "und", "\t", "x" * 300]
        docs = [" ".join(rng.choice(weird) for _ in range(rng.randint(0, 15)))
                for _ in range(100)] + ["", " ", "ab"]
        tbl = pa.table(
            {"doc_id": pa.array(range(len(docs)), pa.int64()), "text": pa.array(docs)}
        )
        con = duckdb.connect()
        con.register("da", tbl)
        con.sql("CREATE VIEW documents AS SELECT * FROM da")
        ds = rd.from_arrow(tbl).repartition(4)

        def assert_match(mine, sql):
            theirs = con.sql(sql).df()
            a = mine[sorted(mine.columns)].sort_values("doc_id").reset_index(drop=True)
            b = theirs[sorted(theirs.columns)].sort_values("doc_id").reset_index(drop=True)
            for c in a.columns:
                assert (a[c].values == b[c].values).all(), c

        assert_match(
            ds.map_batches(
                lambda t: quality_scores(t, text_col="text").drop_columns(["text"]),
                batch_format="pyarrow",
            ).to_pandas(),
            quality_scores_sql(table="documents", key_col="doc_id", text_col="text"),
        )
        assert_match(
            ds.map_batches(
                lambda t: lang_id(t, text_col="text").drop_columns(["text"]),
                batch_format="pyarrow",
            ).to_pandas(),
            lang_id_sql(table="documents", key_col="doc_id", text_col="text"),
        )
        assert_match(
            ds.map_batches(
                lambda t: winnow_fingerprints(t, key_col="doc_id", text_col="text"),
                batch_format="pyarrow",
            ).to_pandas(),
            winnow_sql(table="documents", key_col="doc_id", text_col="text"),
        )


class TestTfidf:
    def test_matches_duckdb_on_hostile_text(self, ray_session):
        import random

        import duckdb
        import ray.data as rd

        from ddsketch_ruby_ray.functions.text_oracle import tfidf_sql
        from ddsketch_ruby_ray.pipelines.tfidf import tfidf_topk_pipeline

        rng = random.Random(13)
        vocab = ["the", "cat", "naïve", "日本語", "zz", "a", "b", "c", "d", "rare1", "rare2"]
        docs = [
            " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 30)))
            for _ in range(80)
        ] + ["", "   ", "solo-token", None]
        tbl = pa.table(
            {"doc_id": pa.array(range(len(docs)), pa.int64()), "text": pa.array(docs, pa.string())}
        )
        con = duckdb.connect()
        con.register("da", tbl)
        con.sql("CREATE VIEW documents AS SELECT * FROM da")
        got = (
            tfidf_topk_pipeline(
                rd.from_arrow(tbl).repartition(4), key_col="doc_id", text_col="text", k=3
            )
            .to_pandas()
            .sort_values(["doc_id", "rn"])
            .reset_index(drop=True)
        )
        exp = (
            con.sql(tfidf_sql(table="documents", key="doc_id", text="text", k=3))
            .df()
            .sort_values(["doc_id", "rn"])
            .reset_index(drop=True)
        )
        assert len(got) == len(exp)
        for c in got.columns:
            a, b = got[c].to_numpy(), exp[c].to_numpy()
            assert (a == b).all(), (c, a[a != b][:3], b[a != b][:3])

    def test_max_vocab_caps_and_excludes_oov(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.tfidf import tfidf_topk_pipeline

        # 'common' appears in 3 docs, 'rare' in 1 -> max_vocab=1 keeps only
        # 'common' (highest df); 'rare' becomes OOV and never ranks.
        tbl = pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(["common rare", "common", "common"]),
            }
        )
        got = tfidf_topk_pipeline(
            rd.from_arrow(tbl), key_col="doc_id", text_col="text", k=3, max_vocab=1
        ).to_pandas()
        assert set(got["term"]) == {"common"} and len(got) == 3


class TestDecontaminate:
    def test_matches_bruteforce_and_sql(self, ray_session):
        import duckdb
        import ray.data as rd

        from ddsketch_ruby_ray.functions.dedup_oracle import decontam_sql
        from ddsketch_ruby_ray.pipelines.decontam import decontaminate_pipeline

        docs = [
            "a b c d e f g h i j",          # 0: benchmark (doc_id%5==0)
            "a b c d e f g h i j k l",      # 1: shares 8-grams with 0
            "z y x w v u t s r q",          # 2: disjoint
            "one two three",                # 3: < n tokens -> full join gram
            "",                             # 4: empty
            "one two three",                # 5: benchmark, same as 3
            "q r s t u v w x y z",          # 6: reversed 2, disjoint grams
        ]
        tbl = pa.table(
            {"doc_id": pa.array(range(len(docs)), pa.int64()), "text": pa.array(docs)}
        )
        train = rd.from_arrow(tbl).repartition(3)
        bench = rd.from_arrow(tbl.filter(pa.array([i % 5 == 0 for i in range(len(docs))])))
        got = (
            decontaminate_pipeline(train, bench, key_col="doc_id", text_col="text", ngram=8)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        # doc 0 (in benchmark), doc 1 (superset of 0's grams), docs 3+5 (same
        # short doc) are contaminated; 2, 4, 6 are not
        assert got["contaminated"].tolist() == [1, 1, 0, 1, 0, 1, 0]
        assert got["n_grams"].tolist() == [3, 5, 3, 1, 0, 1, 3]
        con = duckdb.connect()
        con.register("da", tbl)
        con.sql("CREATE VIEW documents AS SELECT * FROM da")
        exp = (
            con.sql(
                decontam_sql(
                    table="documents", key="doc_id", text="text",
                    bench_where="doc_id % 5 = 0", n=8,
                )
            )
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        for c in got.columns:
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c

    def test_empty_benchmark(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.decontam import decontaminate_pipeline

        tbl = pa.table({"doc_id": pa.array([0], pa.int64()), "text": pa.array(["a b c"])})
        empty = pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
        got = decontaminate_pipeline(
            rd.from_arrow(tbl), rd.from_arrow(empty), key_col="doc_id", text_col="text"
        ).to_pandas()
        assert got["contaminated"].tolist() == [0]


class TestPIIScrub:
    def test_pii_mirror_on_hostile_text(self, ray_session):
        """pii_scrub vs its SQL mirror on adversarial inputs: overlapping
        patterns, malformed near-misses, nulls, unicode, doubled emails."""
        import duckdb
        import ray.data as rd

        from ddsketch_ruby_ray.functions.text_oracle import pii_scrub_sql
        from ddsketch_ruby_ray.stages.text import pii_scrub

        docs = [
            "mail bob.smith+x@ex-ample.co.uk or 10.0.0.1 now",
            "call 555-123-4567 or 555 987 6543",
            "a@b.io c@d.org 192.168.001.255 999-999-9999",
            "version 1.2.3.4.5 almost-ip",
            "a@b.c not-an-email @missing.local x@.com",
            "email@domain.com.123-456-7890",  # adjacent pii
            "naïve 日本語 🙂 emoji@unicode.org",
            "",
            None,
            " " * 50,
            "x" * 500 + " tail@end.io",
        ]
        tbl = pa.table(
            {"doc_id": pa.array(range(len(docs)), pa.int64()), "text": pa.array(docs, pa.string())}
        )
        con = duckdb.connect()
        con.register("da", tbl)
        con.sql("CREATE VIEW documents AS SELECT * FROM da")
        mine = (
            rd.from_arrow(tbl)
            .repartition(3)
            .map_batches(
                lambda t: pii_scrub(t, key_col="doc_id", text_col="text"),
                batch_format="pyarrow",
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        theirs = (
            con.sql(
                pii_scrub_sql(
                    table="documents", key_col="doc_id", text_expr="coalesce(text,'')"
                )
            )
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        for c in mine.columns:
            a = mine[c].to_numpy()
            b = theirs[c].to_numpy().astype(a.dtype)
            assert (a == b).all(), (c, a, b)
        # the scrub actually removed the pii text
        assert mine["n_email"].sum() >= 5 and mine["n_ipv4"].sum() >= 2

    def test_emit_text_redacts(self, ray_session):
        from ddsketch_ruby_ray.stages.text import pii_scrub

        t = pa.table(
            {"doc_id": pa.array([0], pa.int64()), "text": pa.array(["hi a@b.io 1.2.3.4 555-123-4567"])}
        )
        out = pii_scrub(t, key_col="doc_id", text_col="text", emit_text=True)
        assert out.column("redacted_text").to_pylist() == ["hi <EMAIL> <IP> <PHONE>"]


class TestTextAnalysis:
    def test_lang_id_markers(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.stages.text import lang_id

        tbl = pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": pa.array(
                    [
                        "the cat and the dog is in the house",
                        "der hund und die katze ist nicht da",
                        "el perro y la casa es grande",
                        "xyzzy plugh",
                    ]
                ),
            }
        )
        out = (
            rd.from_arrow(tbl)
            .map_batches(lambda t: lang_id(t, text_col="text"), batch_format="pyarrow")
            .to_pandas()
            .sort_values("doc_id")
        )
        assert list(out.pred_lang) == ["en", "de", "es", "unk"]

    def test_quality_scores_sane(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.stages.text import quality_scores

        tbl = pa.table({"doc_id": pa.array([1], pa.int64()), "text": pa.array(["ab 12 cd!"])})
        out = (
            rd.from_arrow(tbl)
            .map_batches(lambda t: quality_scores(t, text_col="text"), batch_format="pyarrow")
            .to_pandas()
        )
        r = out.iloc[0]
        assert r.n_chars_ == 9 and r.n_tokens == 3
        assert r.digit_ratio == 2 / 9 and r.punct_ratio == 1 / 9
        assert r.alpha_ratio == 4 / 9

    def test_winnow_fingerprint_stability(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.stages.text import winnow_fingerprints

        text = "the quick brown fox jumps over the lazy dog repeatedly today"
        tbl = pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array([text, text, "short"]),
            }
        )
        out = (
            rd.from_arrow(tbl)
            .map_batches(
                lambda t: winnow_fingerprints(t, key_col="doc_id", text_col="text"),
                batch_format="pyarrow",
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert out.loc[0, "n_fp"] == out.loc[1, "n_fp"]
        assert out.loc[0, "fp_xor"] == out.loc[1, "fp_xor"]
        assert out.loc[2, "n_fp"] == 0  # shorter than k+window


class TestNgramJaccardPostings:
    """Postings-based exact n-gram Jaccard (pipelines/postings.py)."""

    @staticmethod
    def _ds(texts, blocks=None):
        import ray.data as rd

        t = pa.table(
            {
                "doc_id": pa.array(list(range(len(texts))), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        ds = rd.from_arrow(t)
        return ds.repartition(blocks) if blocks else ds

    def test_matches_brute_force(self, ray_session):
        from ddsketch_ruby_ray.pipelines.dedup import word_shingles
        from ddsketch_ruby_ray.pipelines.postings import ngram_jaccard_pairs_pipeline

        texts = [
            "a b c d e f g h",
            "a b c d e f g x",          # near-dup of 0
            "p q r s t u v w",
            "a b c d e f g h",          # exact dup of 0
            "zz yy xx ww vv uu",
            "",                          # empty doc: no postings, no pairs
        ]
        out = (
            ngram_jaccard_pairs_pipeline(
                self._ds(texts), key_col="doc_id", text_col="text",
                df_cap=10**6, thr_milli=300,
            )
            .to_pandas()
            .sort_values(["a", "b"])
            .reset_index(drop=True)
        )
        sets = [set(word_shingles(t, 3)) for t in texts]
        expect = {}
        for i in range(len(texts)):
            for j in range(i + 1, len(texts)):
                if not sets[i] or not sets[j]:
                    continue
                inter = len(sets[i] & sets[j])
                union = len(sets[i] | sets[j])
                if inter * 1000 >= 300 * union:
                    expect[(i, j)] = inter * 1000 // union
        got = {(a, b): j for a, b, j in zip(out["a"], out["b"], out["jac1000"])}
        assert got == expect
        assert (0, 3) in got and got[(0, 3)] == 1000  # exact dup -> 1000

    def test_partition_invariant(self, ray_session):
        from ddsketch_ruby_ray.pipelines.postings import ngram_jaccard_pairs_pipeline

        kw = dict(key_col="doc_id", text_col="text", df_cap=5, thr_milli=500)
        a = (
            ngram_jaccard_pairs_pipeline(_docs_ds(), **kw)
            .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
        )
        b = (
            ngram_jaccard_pairs_pipeline(_docs_ds(blocks=7), **kw)
            .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
        )
        assert (a.values == b.values).all()

    def test_df_cap_guards_hot_shingles(self, ray_session):
        from ddsketch_ruby_ray.pipelines.postings import ngram_jaccard_pairs_pipeline

        # every doc shares the same text -> every shingle has df = 4 > cap
        texts = ["common words repeated across docs here"] * 4
        out = ngram_jaccard_pairs_pipeline(
            self._ds(texts), key_col="doc_id", text_col="text",
            df_cap=3, thr_milli=1,
        ).to_pandas()
        assert len(out) == 0  # all shingles are stop-shingles under the cap

    def test_finds_perturbed_near_dups(self, ray_session):
        from ddsketch_ruby_ray.pipelines.postings import ngram_jaccard_pairs_pipeline

        extra = _perturbed_copies(10)
        out = ngram_jaccard_pairs_pipeline(
            _docs_ds(extra), key_col="doc_id", text_col="text",
            df_cap=10**6, thr_milli=500,
        ).to_pandas()
        mine = out[(out.b - out.a) == 10_000]
        # postings candidates are EXACT (no LSH misses): all 10 surface
        assert len(mine) == 10
        assert (mine["jac1000"] >= 700).all()


class TestLineFilter:
    """C4-style line filter: brute-force parity + hostile-text edges."""

    HOSTILE = [
        "Good line with five words here.\nshort one.\nno terminal punct five words",
        "",
        None,
        "Uses JavaScript for five words.\nlorem ipsum lorem ipsum lorem.\nbrace { five words in line.",
        'Quoted line has five words."\nExclaim line has five words!\nAsk line has five words?',
        "tab\tseparated but one token.\n   leading spaces still count words.",
        "unicode ünïcödé line fïve wörds.\n\n\ntrailing.\n",
        "a. b. c. d. e.\nexactly five words right here.",
    ]

    def _brute(self, texts, min_words=5):
        import hashlib
        import re

        term = re.compile("[.!?\"']$")
        boiler = re.compile("(?i)javascript|lorem ipsum|[{}]")
        out = []
        for i, t in enumerate(texts):
            t = t or ""
            lines = t.split("\n")
            kept_sig = 0
            n_kept = 0
            for o, ln in enumerate(lines, start=1):
                if (
                    term.search(ln)
                    and len(re.findall("[^ ]+", ln)) >= min_words
                    and not boiler.search(ln)
                ):
                    n_kept += 1
                    h = hashlib.sha256(f"{o}|{ln}".encode()).hexdigest()[:15]
                    kept_sig ^= int(h, 16)
            out.append((i, len(lines), n_kept, kept_sig))
        return out

    def test_matches_brute_force_on_hostile_text(self, ray_session):
        from ddsketch_ruby_ray.stages.text import line_filter_stats

        t = pa.table(
            {
                "doc_id": pa.array(range(len(self.HOSTILE)), pa.int64()),
                "text": pa.array(self.HOSTILE, pa.string()),
            }
        )
        got = line_filter_stats(t, key_col="doc_id", text_col="text").to_pandas()
        want = self._brute(self.HOSTILE)
        for (i, nl, nk, sig), row in zip(want, got.itertuples(index=False)):
            assert (row.doc_id, row.n_lines, row.n_kept, row.kept_sig) == (i, nl, nk, sig)

    def test_line_transform_applies_by_ordinal(self, ray_session):
        from ddsketch_ruby_ray.stages.text import line_filter_stats

        t = pa.table(
            {
                "doc_id": pa.array([0], pa.int64()),
                "text": pa.array(["one two three four five\nsix seven eight nine ten"]),
            }
        )

        def add_dot_to_second(flat, ord1):
            import pyarrow.compute as pc

            suffix = pa.array(["" if o != 2 else "." for o in ord1], pa.string())
            return pc.binary_join_element_wise(flat, suffix, "")

        got = line_filter_stats(
            t, key_col="doc_id", text_col="text", line_transform=add_dot_to_second
        ).to_pandas()
        # only line 2 gains terminal punctuation -> exactly 1 kept
        assert got.n_lines[0] == 2 and got.n_kept[0] == 1

    def test_driver_query_matches_oracle(self, ray_session):
        import duckdb

        from ddsketch_ruby_ray.queries import ORACLE_SQL, QUERIES

        df = QUERIES["c4_line_filter_docs"](SF).to_pandas()
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
        )
        odf = con.execute(ORACLE_SQL["c4_line_filter_docs"]).df()
        df = df.sort_values("doc_id").reset_index(drop=True)[sorted(df.columns)]
        odf = odf.sort_values("doc_id").reset_index(drop=True)[sorted(odf.columns)]
        assert df.equals(odf)
        assert (df.n_kept > 0).any()  # the enrichment produces real keeps


class TestP99Filter:
    def test_matches_exact_numpy_cutoff(self, ray_session):
        import pyarrow.parquet as pq

        from ddsketch_ruby_ray.queries import QUERIES

        got = (
            QUERIES["p99_length_filter_by_lang"](SF)
            .to_pandas().sort_values("lang").reset_index(drop=True)
        )
        t = pq.read_table(f"{SF}/documents.parquet", columns=["lang", "n_chars"]).to_pandas()
        for _, row in got.iterrows():
            vals = np.sort(t[t.lang == row.lang].n_chars.to_numpy())
            cut = vals[int(np.floor(0.99 * (len(vals) - 1)))]
            kept = t[(t.lang == row.lang) & (t.n_chars <= cut)].n_chars
            assert row.n_kept == len(kept)
            assert row.kept_chars == int(kept.sum())


class TestLineDedup:
    """Corpus-wide duplicated-line removal (pipelines/linededup.py)."""

    def _run(self, docs, min_count=3, blocks=None):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.linededup import line_dedup_pipeline

        t = pa.table(
            {
                "doc_id": pa.array(range(len(docs)), pa.int64()),
                "text": pa.array(docs, pa.string()),
            }
        )
        ds = rd.from_arrow(t)
        if blocks:
            ds = ds.repartition(blocks)
        out = (
            line_dedup_pipeline(ds, key_col="doc_id", text_col="text", min_count=min_count)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        return out

    def _brute(self, docs, min_count=3):
        import hashlib
        from collections import Counter

        counts = Counter(ln for d in docs for ln in d.split("\n"))
        out = []
        for i, d in enumerate(docs):
            lines = d.split("\n")
            n_kept, sig = 0, 0
            for ord1, ln in enumerate(lines, 1):
                if counts[ln] < min_count:
                    n_kept += 1
                    h = hashlib.sha256(f"{ord1}|{ln}".encode()).hexdigest()[:15]
                    sig ^= int(h, 16)
            out.append((i, len(lines), n_kept, sig))
        return out

    DOCS = [
        "keep me one\ncookie banner\nunique alpha",
        "cookie banner\nkeep me two\ncookie banner",  # dup twice within one doc
        "unique beta\nother text here",
        "unique gamma\ncookie banner",  # 4th occurrence overall
        "",  # empty doc: one empty line, empty lines repeat below
        "\n",  # two empty lines -> "" reaches min_count
    ]

    def test_matches_brute_force(self, ray_session):
        got = self._run(self.DOCS)
        for (i, nl, nk, sig), row in zip(self._brute(self.DOCS), got.itertuples(index=False)):
            assert (row.doc_id, row.n_lines, row.n_kept, row.kept_sig) == (i, nl, nk, sig)
        # the boilerplate line really was removed somewhere
        assert (got.n_kept < got.n_lines).any()

    def test_layout_invariance(self, ray_session):
        a = self._run(self.DOCS, blocks=1)
        b = self._run(self.DOCS, blocks=5)
        assert a.equals(b)

    def test_min_count_threshold(self, ray_session):
        # at min_count=2 the twice-repeated lines are boilerplate too
        got2 = self._run(self.DOCS, min_count=2)
        want2 = self._brute(self.DOCS, min_count=2)
        for (i, nl, nk, sig), row in zip(want2, got2.itertuples(index=False)):
            assert (row.n_lines, row.n_kept, row.kept_sig) == (nl, nk, sig)
        # a huge threshold keeps everything
        gotall = self._run(self.DOCS, min_count=10**6)
        assert (gotall.n_kept == gotall.n_lines).all()

    def test_driver_query_matches_oracle(self, ray_session):
        import duckdb

        from ddsketch_ruby_ray.queries import ORACLE_SQL, QUERIES

        df = QUERIES["line_dedup_docs"](SF).to_pandas()
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
        )
        odf = con.execute(ORACLE_SQL["line_dedup_docs"]).df()
        df = df.sort_values("doc_id").reset_index(drop=True)[sorted(df.columns)]
        odf = odf.sort_values("doc_id").reset_index(drop=True)[sorted(odf.columns)]
        assert df.equals(odf)
        assert (df.n_kept < df.n_lines).any()  # boilerplate really removed


class TestSimhashHammingPairs:
    def test_pairs_subset_of_lsh_and_thresholded(self, ray_session):
        from ddsketch_ruby_ray.pipelines.dedup import (
            lsh_candidate_pairs_pipeline,
            simhash_hamming_pairs_pipeline,
        )

        ds = _docs_ds(extra_rows=_perturbed_copies(15))
        got = simhash_hamming_pairs_pipeline(
            ds, key_col="doc_id", text_col="text", max_hamming=16
        ).to_pandas()
        cand = lsh_candidate_pairs_pipeline(ds, key_col="doc_id", text_col="text").to_pandas()
        cand_set = set(zip(cand.a, cand.b))
        assert set(zip(got.a, got.b)) <= cand_set
        assert (got.ham <= 16).all() and (got.ham >= 0).all()
        # the planted one-token perturbations are strong near-dups: their
        # simhashes must be within the threshold whenever LSH proposes them
        planted = {(a, b) for (a, b) in cand_set if b == a + 10_000}
        found = set(zip(got.a, got.b)) & planted
        assert found == planted and len(planted) > 0

    def test_identical_docs_zero_hamming(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.dedup import simhash_hamming_pairs_pipeline

        text = "alpha beta gamma delta epsilon zeta eta theta " * 6
        t = pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array([text, text]),
            }
        )
        got = simhash_hamming_pairs_pipeline(
            rd.from_arrow(t), key_col="doc_id", text_col="text", max_hamming=0
        ).to_pandas()
        assert got.a.tolist() == [1] and got.b.tolist() == [2]
        assert got.ham.tolist() == [0]


    def test_simhash_computed_once_per_doc(self, ray_session, monkeypatch, tmp_path):
        """Both pair sides read one materialized SimHash table: the SimHash
        map sees every doc once, and the pairs are the LSH candidates
        whose fingerprints, computed on their own, are close enough."""
        import uuid

        from ddsketch_ruby_ray.pipelines import dedup

        ds = _docs_ds(extra_rows=_perturbed_copies(15)).materialize()
        kw = dict(key_col="doc_id", text_col="text")
        fp = dedup.simhash_pipeline(ds, **kw).to_pandas().set_index("doc_id")
        cand = dedup.lsh_candidate_pairs_pipeline(ds, **kw).to_pandas()
        real = dedup.simhash_pipeline

        def spied(ds, **kw):
            def spy(t: pa.Table) -> pa.Table:
                (tmp_path / uuid.uuid4().hex).write_text(str(t.num_rows))
                return t

            return real(ds, **kw).map_batches(spy, batch_format="pyarrow")

        monkeypatch.setattr(dedup, "simhash_pipeline", spied)
        got = dedup.simhash_hamming_pairs_pipeline(ds, max_hamming=16, **kw).to_pandas()
        assert sum(int(f.read_text()) for f in tmp_path.iterdir()) == ds.count()

        def ham(a, b):
            x = (int(fp.simhash_hi[a]) ^ int(fp.simhash_hi[b])) << 32
            return bin(x | (int(fp.simhash_lo[a]) ^ int(fp.simhash_lo[b]))).count("1")

        want = {(a, b, ham(a, b)) for a, b in zip(cand.a, cand.b) if ham(a, b) <= 16}
        assert set(zip(got.a, got.b, got.ham)) == want and want


class TestDamerauLevenshtein:
    def test_matches_duckdb_fuzz(self, ray_session):
        import random
        import string

        import duckdb

        from ddsketch_ruby_ray.pipelines.dedup import _damerau_levenshtein as dl

        con = duckdb.connect()
        rng = random.Random(97)
        for trial in range(300):
            alpha = ("ab", "abcd", string.ascii_lowercase[:8])[trial % 3]
            a = "".join(rng.choice(alpha) for _ in range(rng.randint(0, 18)))
            b = "".join(rng.choice(alpha) for _ in range(rng.randint(0, 18)))
            want = con.execute(
                "select damerau_levenshtein(?, ?)", [a, b]
            ).fetchone()[0]
            assert dl(a.encode(), b.encode()) == want, (a, b)

    def test_full_dl_not_osa(self, ray_session):
        from ddsketch_ruby_ray.pipelines.dedup import _damerau_levenshtein as dl

        # the canonical case separating full DL (2) from OSA (3)
        assert dl(b"CA", b"ABC") == 2
        assert dl(b"ab", b"ba") == 1
        assert dl(b"", b"xyz") == 3 and dl(b"same", b"same") == 0

    def test_pipeline_metric_damerau(self, ray_session):
        from ddsketch_ruby_ray.pipelines.dedup import edit_distance_pairs_pipeline

        ds = _docs_ds(extra_rows=_perturbed_copies(10))
        got = edit_distance_pairs_pipeline(
            ds, key_col="doc_id", text_col="text", max_dist=10, metric="damerau"
        ).to_pandas()
        # a one-token perturbation is a tiny DL; every planted pair proposed
        # by LSH must survive the verify
        assert "dl" in got.columns and (got.dl <= 10).all()
        planted = got[(got.b - got.a) == 10_000]
        assert len(planted) > 0

    def test_bad_metric_raises(self, ray_session):
        from ddsketch_ruby_ray.pipelines.dedup import edit_distance_pairs_pipeline

        with pytest.raises(ValueError, match="metric"):
            edit_distance_pairs_pipeline(
                _docs_ds(), key_col="doc_id", text_col="text", metric="hamming"
            )


class TestLshAfterExactDedup:
    def test_plan_equivalence_with_rows_plan(self, ray_session):
        from ddsketch_ruby_ray.pipelines.dedup import (
            exact_dedup_rows_pipeline,
            lsh_after_exact_dedup,
            lsh_candidate_pairs_pipeline,
        )

        # duplicate-heavy corpus: originals + perturbed copies + exact dups
        base = _docs_ds(extra_rows=_perturbed_copies(10))
        import pyarrow.parquet as pq
        import ray.data as rd

        t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        dup = pa.table(
            {
                "doc_id": pa.compute.add(t.column("doc_id"), 20_000),
                "text": t.column("text"),
            }
        )
        ds = base.union(rd.from_arrow(dup))
        a = lsh_after_exact_dedup(ds, key_col="doc_id", text_col="text").to_pandas()
        b = lsh_candidate_pairs_pipeline(
            exact_dedup_rows_pipeline(ds, key_col="doc_id", text_col="text"),
            key_col="doc_id",
            text_col="text",
        ).to_pandas()
        sa = a.sort_values(["a", "b"]).reset_index(drop=True)
        sb = b.sort_values(["a", "b"]).reset_index(drop=True)
        assert sa.equals(sb)
        assert len(sa) > 0


class TestLangConfusionMatrix:
    def test_counts_consistent_with_lang_id(self, ray_session):
        import duckdb

        from ddsketch_ruby_ray.queries import ORACLE_SQL, QUERIES

        df = QUERIES["lang_confusion_matrix"](SF).to_pandas()
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
        )
        odf = con.execute(ORACLE_SQL["lang_confusion_matrix"]).df()
        key = ["lang", "pred_lang"]
        df = df.sort_values(key).reset_index(drop=True)[sorted(df.columns)]
        odf = odf.sort_values(key).reset_index(drop=True)[sorted(odf.columns)]
        assert df.equals(odf)
        # the matrix covers every labeled doc exactly once
        import duckdb as d2

        total = con.execute("SELECT count(*) FROM documents").fetchone()[0]
        assert df.n.sum() == total


class TestDupRateByGroup:
    def test_matches_brute_force(self, ray_session):
        import ray.data as rd
        from collections import Counter

        from ddsketch_ruby_ray.pipelines.dedup import dup_rate_by_group_pipeline

        texts = ["aa", "bb", "aa", "cc", "bb", "aa", "dd", "ee"]
        srcs = ["s1", "s1", "s2", "s2", "s2", "s1", "s1", "s2"]
        t = pa.table({"source": pa.array(srcs), "text": pa.array(texts)})
        df = (
            dup_rate_by_group_pipeline(
                rd.from_arrow(t).repartition(3), group_col="source", text_col="text"
            )
            .to_pandas()
            .set_index("source")
        )
        counts = Counter(texts)
        for s in ("s1", "s2"):
            docs = [x for x, g in zip(texts, srcs) if g == s]
            dups = sum(1 for x in docs if counts[x] >= 2)
            assert df.loc[s, "n_docs"] == len(docs)
            assert df.loc[s, "n_dup"] == dups
            assert df.loc[s, "dup_rate"] == float(dups) / float(len(docs))


class TestLineDedupJoinPlan:
    """The hash-co-partitioned join plan must be bit-identical to the
    broadcast plan (VERDICT r3 #4: the heavy set is unbounded at 100 TB)."""

    def _run(self, docs, *, max_broadcast_lines, min_count=3, blocks=4):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.linededup import line_dedup_pipeline

        t = pa.table(
            {
                "doc_id": pa.array(range(len(docs)), pa.int64()),
                "text": pa.array(docs, pa.string()),
            }
        )
        return (
            line_dedup_pipeline(
                rd.from_arrow(t).repartition(blocks),
                key_col="doc_id",
                text_col="text",
                min_count=min_count,
                max_broadcast_lines=max_broadcast_lines,
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )

    DOCS = TestLineDedup.DOCS + [
        "cookie banner\ncookie banner\nunique delta",
        "keep me one\nkeep me one\nkeep me one",  # line hits min_count solo
        "tail\n\n\ntail",  # blank boilerplate interior lines
    ]

    def test_join_equals_broadcast(self, ray_session):
        a = self._run(self.DOCS, max_broadcast_lines=1 << 62)
        b = self._run(self.DOCS, max_broadcast_lines=0)
        assert a.equals(b)

    def test_auto_switches_to_join(self, ray_session):
        # a cap below the heavy-set count switches plans; 0 forces the join
        a = self._run(self.DOCS, max_broadcast_lines=1 << 62)
        b = self._run(self.DOCS, max_broadcast_lines=1)
        assert a.equals(b)

    def test_join_with_no_heavy_lines(self, ray_session):
        got = self._run(self.DOCS, max_broadcast_lines=0, min_count=10**6)
        assert (got.n_kept == got.n_lines).all()
