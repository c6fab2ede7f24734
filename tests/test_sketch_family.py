"""Conformance suite for the sketch family (HLL, Bloom, CMS, t-digest, KLL).

Mirrors the reference's test strategy (SURVEY.md §5) for sketches the
reference doesn't have: published error bounds as accuracy matchers, merge
algebra (associative/commutative, no operand mutation - the
test_consistent_merge contract of shared_examples_for_sketch.rb:203-250),
state round-trips, and parameter-mismatch errors.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from ddsketch_ruby_ray.core.bloom import BloomFilter, optimal_bits, optimal_hashes
from ddsketch_ruby_ray.core.cms import CountMinSketch
from ddsketch_ruby_ray.core.hashing import hash64_int, hash256_str
from ddsketch_ruby_ray.core.hll import HyperLogLog
from ddsketch_ruby_ray.core.kll import KLL
from ddsketch_ruby_ray.core.tdigest import TDigest


def _chunks(arr, n, seed):
    rng = np.random.default_rng(seed)
    parts = np.array_split(arr, n)
    order = rng.permutation(n)
    return [parts[i] for i in order]


# -- hashing ----------------------------------------------------------------


class TestHashing:
    def test_int_hash_deterministic_and_seeded(self):
        v = np.array([0, 1, -5, 2**62], dtype=np.int64)
        a, b = hash64_int(v, 0), hash64_int(v, 0)
        assert np.array_equal(a, b)
        assert not np.array_equal(hash64_int(v, 0), hash64_int(v, 1))

    def test_int_hash_uniformity(self):
        h = hash64_int(np.arange(100_000), 0)
        # low bits should be ~uniform: mean of low bit ~ 0.5
        assert abs((h & np.uint64(1)).astype(float).mean() - 0.5) < 0.01

    def test_str_hash_lanes_match_hashlib(self):
        import hashlib

        col = pa.array(["a", "bc", ""])
        lanes = hash256_str(col, lanes=4)
        for i, s in enumerate(["a", "bc", ""]):
            d = hashlib.sha256(s.encode()).digest()
            for lane in range(4):
                assert int(lanes[lane][i]) == int.from_bytes(d[8 * lane : 8 * lane + 8], "big")

    def test_str_hash_accepts_numpy_object_arrays(self):
        arr = np.array(["x", "y"], dtype=object)
        a = hash256_str(arr, lanes=1)[0]
        b = hash256_str(pa.array(["x", "y"]), lanes=1)[0]
        assert np.array_equal(a, b)


# -- HyperLogLog ------------------------------------------------------------


class TestHLL:
    @pytest.mark.parametrize("n", [100, 1_000, 50_000])
    def test_estimate_within_bound(self, n):
        h = HyperLogLog(14)
        h.add_ints(np.arange(n))
        err = abs(h.estimate() - n) / n
        assert err < 5 * 1.04 / np.sqrt(1 << 14)  # 5 sigma

    def test_string_kind(self):
        h = HyperLogLog(12)
        h.add_strings(pa.array([f"doc-{i}" for i in range(5000)]))
        assert abs(h.estimate() - 5000) / 5000 < 5 * 1.04 / np.sqrt(1 << 12)

    def test_duplicates_dont_count(self):
        h = HyperLogLog(14)
        for _ in range(5):
            h.add_ints(np.arange(1000))
        assert abs(h.estimate() - 1000) / 1000 < 0.1

    def test_merge_is_max_and_partition_invariant(self):
        data = np.arange(30_000)
        ref = HyperLogLog(14)
        ref.add_ints(data)
        for seed in (1, 2, 3):
            merged = HyperLogLog(14)
            for c in _chunks(data, 7, seed):
                part = HyperLogLog(14)
                part.add_ints(c)
                merged.merge(part)
            assert merged == ref
            assert merged.estimate() == ref.estimate()

    def test_merge_pure_and_commutative(self):
        a, b = HyperLogLog(12), HyperLogLog(12)
        a.add_ints(np.arange(100))
        b.add_ints(np.arange(50, 200))
        b_regs = b.registers.copy()
        ab = a.merged_with(b)
        ba = b.merged_with(a)
        assert np.array_equal(b.registers, b_regs)  # b untouched
        assert ab == ba

    def test_merge_p_mismatch_raises(self):
        with pytest.raises(ValueError):
            HyperLogLog(12).merge(HyperLogLog(14))

    def test_state_round_trip(self):
        h = HyperLogLog(10)
        h.add_ints(np.arange(500))
        assert HyperLogLog.from_state(h.to_state()) == h

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            HyperLogLog(3)
        with pytest.raises(ValueError):
            HyperLogLog(19)

    def test_empty_estimate_zero(self):
        assert HyperLogLog(14).estimate() == 0.0


# -- KMV --------------------------------------------------------------------


class TestKMV:
    def _kmv(self, values, k=256):
        from ddsketch_ruby_ray.core.hashing import hash64_int
        from ddsketch_ruby_ray.core.kmv import KMVSketch

        s = KMVSketch(k)
        s.add_hashes(hash64_int(np.asarray(values, dtype=np.int64)))
        return s

    def test_exact_below_k(self):
        s = self._kmv(np.arange(100), k=256)
        assert s.estimate() == 100.0

    def test_duplicates_dont_count(self):
        from ddsketch_ruby_ray.core.hashing import hash64_int
        from ddsketch_ruby_ray.core.kmv import KMVSketch

        s = KMVSketch(256)
        for _ in range(5):
            s.add_hashes(hash64_int(np.arange(100)))
        assert s.estimate() == 100.0

    @pytest.mark.parametrize("n", [5_000, 100_000])
    def test_estimate_within_bound(self, n):
        k = 256
        s = self._kmv(np.arange(n), k=k)
        # relative std error ~ 1/sqrt(k-2); allow 5 sigma
        assert abs(s.estimate() - n) / n < 5 / np.sqrt(k - 2)

    def test_merge_partition_invariant(self):
        from ddsketch_ruby_ray.core.kmv import KMVSketch

        data = np.arange(30_000)
        ref = self._kmv(data, k=128)
        for seed in (1, 2, 3):
            merged = KMVSketch(128)
            for c in _chunks(data, 7, seed):
                merged = merged.merged_with(self._kmv(c, k=128))
            assert np.array_equal(merged.hashes, ref.hashes)
            assert merged.estimate() == ref.estimate()

    def test_merge_pure_and_commutative(self):
        a = self._kmv(np.arange(500), k=64)
        b = self._kmv(np.arange(250, 800), k=64)
        b_h = b.hashes.copy()
        ab, ba = a.merged_with(b), b.merged_with(a)
        assert np.array_equal(b.hashes, b_h)
        assert np.array_equal(ab.hashes, ba.hashes)

    def test_merge_k_mismatch_raises(self):
        from ddsketch_ruby_ray.core.kmv import KMVSketch

        with pytest.raises(ValueError):
            KMVSketch(64).merged_with(KMVSketch(128))

    def test_invalid_k(self):
        from ddsketch_ruby_ray.core.kmv import KMVSketch

        with pytest.raises(ValueError):
            KMVSketch(1)

    def test_empty_estimate_zero(self):
        from ddsketch_ruby_ray.core.kmv import KMVSketch

        assert KMVSketch(64).estimate() == 0.0

    def test_jaccard_exact_below_k(self):
        a = self._kmv(np.arange(0, 100), k=256)
        b = self._kmv(np.arange(50, 150), k=256)
        assert a.jaccard_with(b) == 50 / 150

    def test_jaccard_estimate(self):
        a = self._kmv(np.arange(0, 20_000), k=512)
        b = self._kmv(np.arange(10_000, 30_000), k=512)
        assert abs(a.jaccard_with(b) - 1 / 3) < 5 * np.sqrt((1 / 3) * (2 / 3) / 512)

    def test_spec_state_round_trip(self):
        from ddsketch_ruby_ray.functions.family_specs import KMVSpec

        spec = KMVSpec(on="v", k=64, kind="int")
        s = spec.zero()
        spec.accumulate(s, {"v": np.arange(1000)})
        s2 = spec.from_state(spec.to_state(s))
        assert np.array_equal(s.hashes, s2.hashes)
        assert spec.finalize(s) == spec.finalize(s2)


# -- Bloom ------------------------------------------------------------------


class TestBloom:
    def test_no_false_negatives(self):
        b = BloomFilter(1 << 16, 7)
        keys = np.arange(2000)
        b.add_hash_pairs(*b.hash_pair_ints(keys))
        assert b.contains_hash_pairs(*b.hash_pair_ints(keys)).all()

    def test_false_positive_rate_near_theory(self):
        n, m, k = 5000, 1 << 16, 7
        b = BloomFilter(m, k)
        b.add_hash_pairs(*b.hash_pair_ints(np.arange(n)))
        probes = np.arange(10**6, 10**6 + 50_000)
        fp = b.contains_hash_pairs(*b.hash_pair_ints(probes)).mean()
        theory = (1 - np.exp(-k * n / m)) ** k
        assert fp < 4 * max(theory, 1e-4)

    def test_string_keys(self):
        b = BloomFilter(1 << 14, 5)
        col = pa.array([f"k{i}" for i in range(100)])
        b.add_hash_pairs(*b.hash_pair_strings(col))
        assert b.contains_hash_pairs(*b.hash_pair_strings(col)).all()

    def test_merge_is_or_and_partition_invariant(self):
        data = np.arange(5000)
        ref = BloomFilter(1 << 15, 7)
        ref.add_hash_pairs(*ref.hash_pair_ints(data))
        merged = BloomFilter(1 << 15, 7)
        for c in _chunks(data, 5, 42):
            part = BloomFilter(1 << 15, 7)
            part.add_hash_pairs(*part.hash_pair_ints(c))
            merged.merge(part)
        assert merged == ref

    def test_merge_pure(self):
        a, b = BloomFilter(1 << 10, 3), BloomFilter(1 << 10, 3)
        a.add_hash_pairs(*a.hash_pair_ints(np.arange(10)))
        b.add_hash_pairs(*b.hash_pair_ints(np.arange(20, 30)))
        b_bits = b.bits.copy()
        a.merged_with(b)
        assert np.array_equal(b.bits, b_bits)

    def test_mismatch_raises(self):
        with pytest.raises(ValueError):
            BloomFilter(1 << 10, 3).merge(BloomFilter(1 << 11, 3))
        with pytest.raises(ValueError):
            BloomFilter(100, 3)  # not multiple of 64

    def test_state_round_trip(self):
        b = BloomFilter(1 << 12, 5)
        b.add_hash_pairs(*b.hash_pair_ints(np.arange(100)))
        assert BloomFilter.from_state(b.to_state()) == b

    def test_sizing_helpers(self):
        m = optimal_bits(10_000, 0.01)
        k = optimal_hashes(m, 10_000)
        assert m % 64 == 0 and m > 10_000
        assert 5 <= k <= 10


# -- CountMin ---------------------------------------------------------------


class TestCMS:
    def _zipf_keys(self, n=20_000, seed=0):
        rng = np.random.default_rng(seed)
        return rng.zipf(1.3, n).astype(np.int64) % 1000

    def test_never_underestimates(self):
        keys = self._zipf_keys()
        c = CountMinSketch(2048, 4)
        c.add_hash_pairs(*c.hash_pair_ints(keys))
        uniq, true = np.unique(keys, return_counts=True)
        est = c.estimate_hash_pairs(*c.hash_pair_ints(uniq))
        assert (est >= true - 1e-9).all()

    def test_error_bound(self):
        keys = self._zipf_keys()
        w, d = 2048, 4
        c = CountMinSketch(w, d)
        c.add_hash_pairs(*c.hash_pair_ints(keys))
        uniq, true = np.unique(keys, return_counts=True)
        est = c.estimate_hash_pairs(*c.hash_pair_ints(uniq))
        eps = np.e / w
        # err <= eps*N holds w.p. 1-e^-d per key; allow a small violation count
        violations = (est - true > eps * len(keys)).sum()
        assert violations <= max(2, 0.05 * len(uniq))

    def test_weighted_adds(self):
        c = CountMinSketch(1024, 3)
        keys = np.array([7, 7, 9], dtype=np.int64)
        c.add_hash_pairs(*c.hash_pair_ints(keys), weights=np.array([1.5, 2.5, 4.0]))
        est = c.estimate_hash_pairs(*c.hash_pair_ints(np.array([7, 9], dtype=np.int64)))
        assert est[0] >= 4.0 and est[1] >= 4.0
        assert c.total == 8.0

    def test_merge_partition_invariant(self):
        keys = self._zipf_keys()
        ref = CountMinSketch(512, 4)
        ref.add_hash_pairs(*ref.hash_pair_ints(keys))
        merged = CountMinSketch(512, 4)
        for ch in _chunks(keys, 6, 3):
            p = CountMinSketch(512, 4)
            p.add_hash_pairs(*p.hash_pair_ints(ch))
            merged.merge(p)
        assert merged == ref

    def test_merge_pure_and_mismatch(self):
        a, b = CountMinSketch(512, 4), CountMinSketch(512, 4)
        a.add_hash_pairs(*a.hash_pair_ints(np.arange(5)))
        b.add_hash_pairs(*b.hash_pair_ints(np.arange(5, 10)))
        b_tab = b.table.copy()
        a.merged_with(b)
        assert np.array_equal(b.table, b_tab)
        with pytest.raises(ValueError):
            a.merge(CountMinSketch(256, 4))

    def test_state_round_trip(self):
        c = CountMinSketch(128, 2)
        c.add_hash_pairs(*c.hash_pair_ints(np.arange(50)))
        assert CountMinSketch.from_state(c.to_state()) == c


# -- t-digest ---------------------------------------------------------------


class TestTDigest:
    DISTS = {
        "uniform": lambda rng, n: rng.uniform(0, 1000, n),
        "lognormal": lambda rng, n: rng.lognormal(0, 2, n),
        "normal": lambda rng, n: rng.normal(50, 10, n),
        "bimodal": lambda rng, n: np.concatenate(
            [rng.normal(-50, 5, n // 2), rng.normal(80, 2, n - n // 2)]
        ),
    }

    @pytest.mark.parametrize("dist", sorted(DISTS))
    def test_rank_error(self, dist):
        rng = np.random.default_rng(11)
        data = self.DISTS[dist](rng, 50_000)
        t = TDigest(200)
        for c in np.array_split(data, 13):
            t.add_batch(c)
        sd = np.sort(data)
        for q in (0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999):
            est = t.quantile(q)
            rank = np.searchsorted(sd, est) / len(sd)
            tol = 0.005 if 0.1 <= q <= 0.9 else 0.002
            assert abs(rank - q) < tol, (dist, q, rank)

    def test_extremes_exact(self):
        t = TDigest(100)
        data = np.random.default_rng(0).normal(0, 1, 10_000)
        t.add_batch(data)
        assert t.quantile(0.0) == data.min()
        assert t.quantile(1.0) == data.max()

    def test_merge_accuracy_and_purity(self):
        rng = np.random.default_rng(5)
        data = rng.lognormal(0, 1, 40_000)
        parts = np.array_split(data, 8)
        digs = []
        for p in parts:
            d = TDigest(200)
            d.add_batch(p)
            digs.append(d)
        snapshot = digs[1].to_state()
        merged = digs[0]
        for d in digs[1:]:
            merged = merged.merged_with(d)
        after = digs[1].to_state()
        assert np.array_equal(snapshot["means"], after["means"])  # purity
        sd = np.sort(data)
        for q in (0.01, 0.5, 0.99):
            rank = np.searchsorted(sd, merged.quantile(q)) / len(sd)
            assert abs(rank - q) < 0.01

    def test_weighted(self):
        t = TDigest(100)
        t.add_batch(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 100.0]))
        assert t.quantile(0.9) == 3.0
        with pytest.raises(ValueError):
            t.add_batch(np.array([1.0]), np.array([0.0]))

    def test_fractional_weights_no_nan_cells(self):
        """cumsum(w) can exceed sum(w) by ~1 ulp with fractional weights; the
        unclipped q then sends sqrt(2*(1-q)) to NaN and the cell index to
        INT64_MIN (review r3) - the compress must clip q to [0, 1]."""
        rng = np.random.default_rng(41)
        vals = rng.uniform(0.1, 100.0, 899)
        wts = rng.uniform(0.1, 3.0, 899)
        t = TDigest(100)
        with np.errstate(invalid="raise"):  # any NaN in the scale fn raises
            t.add_batch(vals, wts)
            t._flush()
        assert np.isfinite(t.means).all()
        assert abs(t.count - wts.sum()) < 1e-9
        sd = np.sort(vals)
        rank = np.searchsorted(sd, t.quantile(0.5)) / len(sd)
        assert abs(rank - 0.5) < 0.1

    def test_compression_bounds_centroids(self):
        t = TDigest(100)
        t.add_batch(np.random.default_rng(2).uniform(0, 1, 100_000))
        t._flush()
        assert t.means.size < 2 * 100

    def test_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            TDigest(100).merge(TDigest(200))
        assert TDigest(100).quantile(0.5) is None

    def test_state_round_trip(self):
        t = TDigest(150)
        t.add_batch(np.arange(1000, dtype=float))
        t2 = TDigest.from_state(t.to_state())
        assert t2.quantile(0.5) == t.quantile(0.5)
        assert t2.count == t.count


# -- KLL --------------------------------------------------------------------


class TestKLL:
    @pytest.mark.parametrize("dist", ["uniform", "lognormal"])
    def test_rank_error(self, dist):
        rng = np.random.default_rng(3)
        data = (
            rng.uniform(0, 1, 50_000) if dist == "uniform" else rng.lognormal(0, 1, 50_000)
        )
        k = KLL(200)
        for c in np.array_split(data, 17):
            k.add_batch(c)
        sd = np.sort(data)
        for q in (0.01, 0.1, 0.5, 0.9, 0.99):
            rank = np.searchsorted(sd, k.quantile(q)) / len(sd)
            assert abs(rank - q) < 3.0 / 200, (dist, q, rank)

    def test_space_bound(self):
        k = KLL(200)
        k.add_batch(np.random.default_rng(1).uniform(0, 1, 200_000))
        assert sum(a.size for a in k.levels) < 3 * 200

    def test_extremes_and_empty(self):
        k = KLL(64)
        assert k.quantile(0.5) is None
        k.add_batch(np.array([5.0, 1.0, 9.0]))
        assert k.quantile(0.0) == 1.0
        assert k.quantile(1.0) == 9.0

    def test_merge_accuracy_and_purity(self):
        rng = np.random.default_rng(9)
        data = rng.normal(0, 1, 60_000)
        sketches = []
        for c in np.array_split(data, 6):
            s = KLL(200)
            s.add_batch(c)
            sketches.append(s)
        snap = [a.copy() for a in sketches[1].levels]
        merged = sketches[0]
        for s in sketches[1:]:
            merged = merged.merged_with(s)
        assert all(np.array_equal(x, y) for x, y in zip(snap, sketches[1].levels))
        sd = np.sort(data)
        for q in (0.05, 0.5, 0.95):
            rank = np.searchsorted(sd, merged.quantile(q)) / len(sd)
            assert abs(rank - q) < 3.0 / 200

    def test_deterministic_same_order(self):
        data = np.random.default_rng(4).uniform(0, 1, 30_000)
        a, b = KLL(128), KLL(128)
        for c in np.array_split(data, 5):
            a.add_batch(c)
            b.add_batch(c)
        assert all(np.array_equal(x, y) for x, y in zip(a.levels, b.levels))

    def test_rank_and_round_trip(self):
        k = KLL(128)
        k.add_batch(np.arange(10_000, dtype=float))
        assert abs(k.rank(5000.0) - 5000) < 3.0 / 128 * 10_000
        k2 = KLL.from_state(k.to_state())
        assert k2.quantile(0.5) == k.quantile(0.5)

    def test_mismatch_raises(self):
        with pytest.raises(ValueError):
            KLL(64).merge(KLL(128))
        with pytest.raises(ValueError):
            KLL(4)


class TestCanonicalLayoutInvariance:
    """tdigest/KLL through the canonical merge tree are bit-identical across
    block layouts (pipelines/canonical.py)."""

    def _run(self, spec_cls, blocks, ray_ok, **kw):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.canonical import canonical_sketch_pipeline

        rng = np.random.default_rng(7)
        n = 5000
        t = pa.table(
            {
                "id": pa.array(np.arange(n), pa.int64()),
                "g": pa.array(rng.choice(["x", "y", "z"], n)),
                "v": pa.array(rng.lognormal(3, 1, n)),
            }
        )
        spec = spec_cls(on="v", name="s", quantiles=(0.5, 0.9, 0.99), **kw)
        return (
            canonical_sketch_pipeline(
                rd.from_arrow(t).repartition(blocks), spec, ("g",), id_col="id"
            )
            .to_pandas()
            .sort_values("g")
            .reset_index(drop=True)
        )

    @pytest.mark.parametrize("spec_name", ["TDigestSpec", "KLLSpec"])
    def test_layout_invariant_and_accurate(self, ray_session, spec_name):
        import numpy as np

        from ddsketch_ruby_ray.functions import family_specs

        spec_cls = getattr(family_specs, spec_name)
        a = self._run(spec_cls, 2, ray_session)
        b = self._run(spec_cls, 13, ray_session)
        c = self._run(spec_cls, 1, ray_session)
        for col in a.columns:
            av = a[col].to_numpy()
            for other in (b, c):
                ov = other[col].to_numpy()
                if av.dtype.kind == "f":
                    assert np.array_equal(av, ov, equal_nan=True), (spec_name, col)
                else:
                    assert (av == ov).all(), (spec_name, col)
        # rank accuracy vs exact quantiles (loose: both are rank sketches)
        import pyarrow as pa

        rng = np.random.default_rng(7)
        n = 5000
        g = rng.choice(["x", "y", "z"], n)
        v = rng.lognormal(3, 1, n)
        for grp in ["x", "y", "z"]:
            vals = np.sort(v[g == grp])
            row = a[a["g"] == grp].iloc[0]
            # count/min/max are exactly maintained through accumulate+merge
            # (these back the oracle-checked *_exact_fields_by_lang queries)
            assert row["count"] == len(vals)
            assert row["min"] == vals[0]
            assert row["max"] == vals[-1]
            for q, col in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")]:
                est = row[col]
                # rank error tolerance: position within +-2.5% of n
                lo = vals[max(0, int((q - 0.025) * len(vals)) - 1)]
                hi = vals[min(len(vals) - 1, int((q + 0.025) * len(vals)))]
                assert lo <= est <= hi, (spec_name, grp, col, est, lo, hi)


def test_state_rows_decode_equals_to_pylist():
    """The state merge's decoder (numpy slices for list fields) reads every
    family's state column exactly as ``to_pylist`` does - sliced columns and
    null rows included - and its merged states equal a ``to_pylist`` merge."""
    from ddsketch_ruby_ray.functions.family_specs import (
        AMSSpec, BloomSpec, CMSSpec, HLLSpec, KLLSpec, KMVSpec, TDigestSpec,
    )
    from ddsketch_ruby_ray.functions.specs import DDSketchSpec, XorSigSpec
    from ddsketch_ruby_ray.functions import specs as specs_mod
    from ddsketch_ruby_ray.stages.accumulate import SketchStateAccumulator, StateBlockMerger

    specs = [
        HLLSpec(on="x", p=8), KMVSpec(on="x", k=16), BloomSpec(on="x", m_bits=256),
        CMSSpec(on="x", w=16, d=2), TDigestSpec(on="y"), KLLSpec(on="y", k=16),
        AMSSpec(on="x"), XorSigSpec(on="x", name="xs"), DDSketchSpec(on="y", name="dd"),
        DDSketchSpec(on="y", name="ddc", store="collapse_lowest", bin_limit=8),
    ]
    rng = np.random.default_rng(9)
    acc = SketchStateAccumulator(specs, ("g",))
    states = pa.concat_tables([
        acc(pa.table({
            "g": rng.choice(["a", "b", "c"], 300),
            "x": rng.integers(0, 500, 300),
            "y": rng.normal(0, 10, 300),
        }))
        for _ in range(4)
    ])
    for spec in specs:
        col = states.column(spec.name).combine_chunks()
        null = pa.array([None], col.type)
        col = pa.concat_arrays([null, col, null]).slice(1)  # offset + trailing null
        want = col.to_pylist()
        got = specs_mod._state_rows(col)
        assert [r is None for r in got] == [r is None for r in want], spec.name
        for g, w in zip(got, want):
            if w is not None:
                assert {k: v.tolist() if isinstance(v, np.ndarray) else v
                        for k, v in g.items()} == w, spec.name

    merger = StateBlockMerger(specs, ("g",))
    fast = merger(states), merger.finalize_groups(states)
    orig = specs_mod._state_rows
    specs_mod._state_rows = lambda col: col.to_pylist()
    try:
        slow = merger(states), merger.finalize_groups(states)
    finally:
        specs_mod._state_rows = orig
    assert fast[0].equals(slow[0]) and fast[1].equals(slow[1])


def test_accumulator_str_specs_match_python_list_reference():
    """``kind="str"`` HLL/KMV/CMS/Bloom specs hash a multi-chunk Arrow string
    column with NULLs (and a NULL group key) to the same per-group states as
    feeding each group's values to the spec as a Python list."""
    from ddsketch_ruby_ray.functions.family_specs import BloomSpec, CMSSpec, HLLSpec, KMVSpec
    from ddsketch_ruby_ray.stages.accumulate import SketchStateAccumulator

    specs = [
        HLLSpec(on="s", p=8, kind="str"),
        KMVSpec(on="s", k=16, kind="str"),
        CMSSpec(on="s", w=16, d=2, kind="str"),
        BloomSpec(on="s", m_bits=256, kind="str"),
    ]
    rng = np.random.default_rng(11)
    pool = ["", "a", "é", "日本", "x y", None] + [f"w{i}" for i in range(40)]
    n = 500
    keys = [["a", "b", None][i] for i in rng.integers(0, 3, n)]
    vals = [pool[i] for i in rng.integers(0, len(pool), n)]
    cuts = [0, 1, 170, 170, 333, n]  # a one-row and an empty chunk included
    t = pa.table(
        {
            "g": pa.chunked_array([keys[a:b] for a, b in zip(cuts, cuts[1:])], pa.string()),
            "s": pa.chunked_array([vals[a:b] for a, b in zip(cuts, cuts[1:])], pa.string()),
        }
    )
    assert t.column("s").num_chunks > 1 and t.column("s").null_count

    out = SketchStateAccumulator(specs, ("g",))(t)
    assert set(out.column("g").to_pylist()) == {"a", "b", None}
    for i, g in enumerate(out.column("g").to_pylist()):
        group_vals = [v for k, v in zip(keys, vals) if k == g]
        for spec in specs:
            sk = spec.zero()
            spec.accumulate(sk, {"s": group_vals})
            want = pa.array([spec.to_state(sk)], spec.state_type())[0]
            assert out.column(spec.name)[i] == want, (spec.name, g)
