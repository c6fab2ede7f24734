"""PageRank / BFS / SSSP / triangles (pipelines/graph.py) vs brute-force
references and each other."""

from __future__ import annotations

import collections

import numpy as np
import pyarrow as pa
import pytest

from ddsketch_ruby_ray.pipelines import fold
from ddsketch_ruby_ray.pipelines.graph import (
    PR_SCALE,
    bfs_hops_pipeline,
    pagerank_pipeline,
)

from .partitions import partitions


def _random_graph(seed: int, n_edges: int = 4000):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 300, n_edges)
    dst = rng.integers(300, 500, n_edges)
    back_s = rng.integers(300, 500, n_edges // 10)
    back_d = rng.integers(0, 300, n_edges // 10)
    s = np.concatenate([src, back_s])
    d = np.concatenate([dst, back_d])
    return s, d


def _brute_pagerank(pairs, iters=3):
    nodes = sorted({x for p in pairs for x in p})
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    outdeg = [0] * n
    for a, _ in pairs:
        outdeg[idx[a]] += 1
    r = [PR_SCALE // n] * n  # Python ints: exact
    base = ((PR_SCALE // n) * 15) // 100
    for _ in range(iters):
        dang = sum(r[i] for i in range(n) if outdeg[i] == 0)
        dang_share = dang // n
        in_sum = [0] * n
        for a, b in pairs:
            in_sum[idx[b]] += r[idx[a]] // outdeg[idx[a]]
        r = [base + (85 * (in_sum[i] + dang_share)) // 100 for i in range(n)]
    return {nodes[i]: r[i] for i in range(n)}


class TestPageRank:
    def test_vs_brute(self, ray_session, monkeypatch):
        import ray.data as rd

        s, d = _random_graph(7)
        # duplicate edges on purpose: the pipeline dedups to the DISTINCT set
        tbl = pa.table({"src": pa.array(s, pa.int64()), "dst": pa.array(d, pa.int64())})
        pairs = sorted(set(zip(s.tolist(), d.tolist())))
        expect = _brute_pagerank(pairs)
        monkeypatch.setattr(fold, "_PARTITIONS", 8)
        got = pagerank_pipeline(
            rd.from_arrow(tbl).repartition(4)
        ).to_pandas()
        gm = dict(zip(got.node, got.rank_fp))
        assert gm == expect

    def test_mass_conserved_order_free(self, ray_session):
        import ray.data as rd

        s, d = _random_graph(13, 1500)
        tbl = pa.table({"src": pa.array(s, pa.int64()), "dst": pa.array(d, pa.int64())})
        with partitions(4):
            a = pagerank_pipeline(rd.from_arrow(tbl).repartition(2)).to_pandas()
        with partitions(16):
            b = pagerank_pipeline(rd.from_arrow(tbl).repartition(7)).to_pandas()
        # bit-identical under any partitioning (exact integer arithmetic)
        assert dict(zip(a.node, a.rank_fp)) == dict(zip(b.node, b.rank_fp))
        # total mass stays within the accumulated floor loss: each iteration
        # drops < 1 unit per edge (r // outdeg), < N for dang // N, and
        # < 1 per node per // 100
        n = len(a)
        n_edges = len({(x, y) for x, y in zip(s.tolist(), d.tolist())})
        assert 0 <= PR_SCALE - int(a.rank_fp.sum()) <= 3 * (n_edges + 3 * n)

    def test_empty(self, ray_session, monkeypatch):
        import ray.data as rd

        tbl = pa.table(
            {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
        )
        monkeypatch.setattr(fold, "_PARTITIONS", 4)
        got = pagerank_pipeline(rd.from_arrow(tbl)).to_pandas()
        assert len(got) == 0


class TestBfsHops:
    def test_vs_brute(self, ray_session, monkeypatch):
        import ray.data as rd

        s, d = _random_graph(11, 2000)
        tbl = pa.table({"src": pa.array(s, pa.int64()), "dst": pa.array(d, pa.int64())})
        pairs = set(zip(s.tolist(), d.tolist()))
        adj = collections.defaultdict(set)
        for a, b in pairs:
            adj[a].add(b)
            adj[b].add(a)
        seeds = [0, 1, 2, 3, 4]
        dist = {x: 0 for x in seeds}
        frontier = list(seeds)
        for h in range(1, 4):
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = h
                        nxt.append(v)
            frontier = nxt
        monkeypatch.setattr(fold, "_PARTITIONS", 8)
        got = bfs_hops_pipeline(
            rd.from_arrow(tbl).repartition(4),
            rd.from_arrow(pa.table({"node": pa.array(seeds, pa.int64())})),
            max_hops=3,
        ).to_pandas()
        assert dict(zip(got.node, got.hops)) == dist

    def test_isolated_seed_kept(self, ray_session, monkeypatch):
        import ray.data as rd

        tbl = pa.table(
            {"src": pa.array([1], pa.int64()), "dst": pa.array([2], pa.int64())}
        )
        monkeypatch.setattr(fold, "_PARTITIONS", 2)
        got = bfs_hops_pipeline(
            rd.from_arrow(tbl),
            rd.from_arrow(pa.table({"node": pa.array([99], pa.int64())})),
            max_hops=2,
        ).to_pandas()
        # a seed outside the graph stays at hop 0; nothing else is reached
        assert dict(zip(got.node, got.hops)) == {99: 0}


class TestTriangles:
    def test_vs_brute(self, ray_session, monkeypatch):
        import itertools

        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.graph import triangle_count_pipeline

        rng = np.random.default_rng(21)
        n_nodes, p_edges = 40, 500
        raw = {
            (int(a), int(b))
            for a, b in zip(
                rng.integers(0, n_nodes, p_edges), rng.integers(0, n_nodes, p_edges)
            )
            if a < b
        }
        edges = sorted(raw)
        adj = collections.defaultdict(set)
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        tri = sum(
            1
            for a, b, c in itertools.combinations(sorted(adj), 3)
            if b in adj[a] and c in adj[a] and c in adj[b]
        )
        wedges = sum(len(v) * (len(v) - 1) // 2 for v in adj.values())
        tbl = pa.table(
            {
                "a": pa.array([e[0] for e in edges], pa.int64()),
                "b": pa.array([e[1] for e in edges], pa.int64()),
            }
        )
        monkeypatch.setattr(fold, "_PARTITIONS", 8)
        got = triangle_count_pipeline(
            rd.from_arrow(tbl).repartition(4)
        ).to_pandas()
        assert int(got.n_triangles[0]) == tri
        assert int(got.n_wedges[0]) == wedges
        assert float(got.transitivity[0]) == float(3 * tri) / float(wedges)

    def test_no_triangles_in_bipartite(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.graph import triangle_count_pipeline

        # complete bipartite K(3,3): many wedges, zero triangles
        left, right = [0, 1, 2], [10, 11, 12]
        edges = [(a, b) for a in left for b in right]
        tbl = pa.table(
            {
                "a": pa.array([e[0] for e in edges], pa.int64()),
                "b": pa.array([e[1] for e in edges], pa.int64()),
            }
        )
        got = triangle_count_pipeline(rd.from_arrow(tbl)).to_pandas()
        assert int(got.n_triangles[0]) == 0
        assert int(got.n_wedges[0]) == 6 * 3  # each node: C(3,2)=3 wedges

    def test_empty_graph(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.graph import triangle_count_pipeline

        tbl = pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}
        )
        got = triangle_count_pipeline(rd.from_arrow(tbl)).to_pandas()
        assert (
            int(got.n_triangles[0]),
            int(got.n_wedges[0]),
            float(got.transitivity[0]),
        ) == (0, 0, 0.0)


class TestPageRankModes:
    def test_broadcast_equals_shuffle(self, ray_session, monkeypatch):
        import ray.data as rd

        s, d = _random_graph(31, 2500)
        tbl = pa.table({"src": pa.array(s, pa.int64()), "dst": pa.array(d, pa.int64())})
        monkeypatch.setattr(fold, "_PARTITIONS", 8)
        a = pagerank_pipeline(
            rd.from_arrow(tbl).repartition(3), max_broadcast_nodes=1 << 62
        ).to_pandas()
        b = pagerank_pipeline(
            rd.from_arrow(tbl).repartition(3), max_broadcast_nodes=0
        ).to_pandas()
        assert dict(zip(a.node, a.rank_fp)) == dict(zip(b.node, b.rank_fp))

    def test_duplicate_heavy_multigraph_corrections_exact(self, ray_session):
        """The fused build ships per-block deg partials through the edge
        exchange; cross-block duplicate pairs are corrected via is_deg=2
        carrier rows on the driver.  A 3000-edge multigraph over 40 nodes
        (every pair duplicated many times across 9 blocks) exercises that
        correction path hard — broadcast must equal shuffle bit-for-bit."""
        import ray.data as rd

        rng = np.random.default_rng(3)
        s = rng.integers(0, 40, 3000)
        d = rng.integers(0, 40, 3000)
        tbl = pa.table(
            {"src": pa.array(s, pa.int64()), "dst": pa.array(d, pa.int64())}
        )
        a = pagerank_pipeline(
            rd.from_arrow(tbl).repartition(9), iters=3, max_broadcast_nodes=1 << 62
        ).to_pandas()
        b = pagerank_pipeline(
            rd.from_arrow(tbl).repartition(9), iters=3, max_broadcast_nodes=0
        ).to_pandas()
        assert dict(zip(a.node, a.rank_fp)) == dict(zip(b.node, b.rank_fp))

    def test_shuffle_survives_schemaless_empty_blocks(self, ray_session, monkeypatch):
        """Far more input blocks than rows and more partitions than
        nodes: empty input blocks and empty partitions, whose pinned edge
        slices must be typed empty tables (an early shuffle emitted
        schema-less blocks for them; found by the crossover sweep at 2M
        nodes)."""
        import ray.data as rd

        tbl = pa.table(
            {
                "src": pa.array([1, 2, 3, 4, 1], pa.int64()),
                "dst": pa.array([2, 3, 4, 1, 3], pa.int64()),
            }
        )
        monkeypatch.setattr(fold, "_PARTITIONS", 8)
        a = pagerank_pipeline(
            rd.from_arrow(tbl).repartition(16), max_broadcast_nodes=0
        ).to_pandas()
        b = pagerank_pipeline(
            rd.from_arrow(tbl).repartition(16), max_broadcast_nodes=1 << 62
        ).to_pandas()
        assert dict(zip(a.node, a.rank_fp)) == dict(zip(b.node, b.rank_fp))


class TestBfsModes:
    def test_broadcast_equals_shuffle(self, ray_session, monkeypatch):
        import ray.data as rd

        s, d = _random_graph(37, 1500)
        tbl = pa.table({"src": pa.array(s, pa.int64()), "dst": pa.array(d, pa.int64())})
        seeds = rd.from_arrow(pa.table({"node": pa.array([0, 1, 2], pa.int64())}))
        monkeypatch.setattr(fold, "_PARTITIONS", 8)
        a = bfs_hops_pipeline(
            rd.from_arrow(tbl).repartition(3), seeds, max_hops=3,
            max_broadcast_nodes=1 << 62,
        ).to_pandas()
        b = bfs_hops_pipeline(
            rd.from_arrow(tbl).repartition(3), seeds, max_hops=3,
            max_broadcast_nodes=0,
        ).to_pandas()
        assert dict(zip(a.node, a.hops)) == dict(zip(b.node, b.hops))


class TestSssp:
    def test_vs_brute(self, ray_session, monkeypatch):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.graph import sssp_pipeline

        rng = np.random.default_rng(41)
        n_e = 2000
        src = rng.integers(0, 150, n_e)
        dst = rng.integers(0, 150, n_e)
        w = rng.integers(1, 20, n_e)
        keep = src != dst
        src, dst, w = src[keep], dst[keep], w[keep]
        tbl = pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "w": pa.array(w, pa.int64()),
            }
        )
        seeds = [0, 1]
        K = 4
        # brute: Bellman-Ford over the min-weight undirected simple graph
        ew: dict = {}
        for a, b, x in zip(src.tolist(), dst.tolist(), w.tolist()):
            k = (min(a, b), max(a, b))
            ew[k] = min(ew.get(k, 10**9), x)
        INF = float("inf")
        dist = {s: 0 for s in seeds}
        for _ in range(K):
            new = dict(dist)
            for (a, b), x in ew.items():
                if a in dist and dist[a] + x < new.get(b, INF):
                    new[b] = dist[a] + x
                if b in dist and dist[b] + x < new.get(a, INF):
                    new[a] = dist[b] + x
            dist = new
        monkeypatch.setattr(fold, "_PARTITIONS", 8)
        got = sssp_pipeline(
            rd.from_arrow(tbl).repartition(4),
            rd.from_arrow(pa.table({"node": pa.array(seeds, pa.int64())})),
            max_rounds=K,
        ).to_pandas()
        assert dict(zip(got.node, got.dist)) == dist

    def test_parallel_edges_take_min_weight(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.graph import sssp_pipeline

        tbl = pa.table(
            {
                "src": pa.array([1, 1], pa.int64()),
                "dst": pa.array([2, 2], pa.int64()),
                "w": pa.array([10, 3], pa.int64()),
            }
        )
        got = sssp_pipeline(
            rd.from_arrow(tbl),
            rd.from_arrow(pa.table({"node": pa.array([1], pa.int64())})),
            max_rounds=2,
        ).to_pandas()
        assert dict(zip(got.node, got.dist)) == {1: 0, 2: 3}


class TestSsspModes:
    def test_broadcast_equals_shuffle(self, ray_session, monkeypatch):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.graph import sssp_pipeline

        rng = np.random.default_rng(53)
        src = rng.integers(0, 200, 3000)
        dst = rng.integers(0, 200, 3000)
        w = rng.integers(1, 25, 3000)
        keep = src != dst
        tbl = pa.table(
            {
                "src": pa.array(src[keep], pa.int64()),
                "dst": pa.array(dst[keep], pa.int64()),
                "w": pa.array(w[keep], pa.int64()),
            }
        )
        seeds = rd.from_arrow(pa.table({"node": pa.array([0, 5], pa.int64())}))
        monkeypatch.setattr(fold, "_PARTITIONS", 8)
        a = sssp_pipeline(
            rd.from_arrow(tbl).repartition(4), seeds, max_rounds=4,
            max_broadcast_nodes=1 << 62,
        ).to_pandas()
        b = sssp_pipeline(
            rd.from_arrow(tbl).repartition(4), seeds, max_rounds=4,
            max_broadcast_nodes=0,
        ).to_pandas()
        assert len(a) == len(b) > 2
        assert dict(zip(a.node, a.dist)) == dict(zip(b.node, b.dist))

    def test_auto_falls_back_to_shuffle(self, ray_session):
        """A tiny driver cap must silently switch plans and still
        produce the broadcast answer."""
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.graph import sssp_pipeline

        rng = np.random.default_rng(54)
        src = rng.integers(0, 60, 500)
        dst = rng.integers(0, 60, 500)
        w = rng.integers(1, 9, 500)
        keep = src != dst
        tbl = pa.table(
            {
                "src": pa.array(src[keep], pa.int64()),
                "dst": pa.array(dst[keep], pa.int64()),
                "w": pa.array(w[keep], pa.int64()),
            }
        )
        seeds = rd.from_arrow(pa.table({"node": pa.array([0], pa.int64())}))
        ref = sssp_pipeline(
            rd.from_arrow(tbl), seeds, max_rounds=3, max_broadcast_nodes=1 << 62
        ).to_pandas()
        got = sssp_pipeline(
            rd.from_arrow(tbl), seeds, max_rounds=3,
            max_broadcast_nodes=2,
        ).to_pandas()
        assert dict(zip(got.node, got.dist)) == dict(zip(ref.node, ref.dist))


class TestTriangleIdBound:
    def test_big_node_id_raises(self, ray_session):
        import pytest
        import ray.data as rd
        from ray.exceptions import RayTaskError

        from ddsketch_ruby_ray.pipelines.graph import triangle_count_pipeline

        tbl = pa.table(
            {
                "a": pa.array([1, (1 << 32) + 7], pa.int64()),
                "b": pa.array([2, 3], pa.int64()),
            }
        )
        with pytest.raises((RayTaskError, ValueError), match="2\\^32"):
            triangle_count_pipeline(rd.from_arrow(tbl)).to_pandas()


class TestPackedIdFallback:
    """Wide ids (>= 2^31) must fall back to the two-column exchange and
    produce results identical to the same graph under small ids."""

    def test_pagerank_wide_ids_match_shifted(self, ray_session, monkeypatch):
        import ray.data as rd

        s, d = _random_graph(43, 1200)
        OFF = (1 << 31) + 17
        tbl_small = pa.table(
            {"src": pa.array(s, pa.int64()), "dst": pa.array(d, pa.int64())}
        )
        tbl_wide = pa.table(
            {
                "src": pa.array(s + OFF, pa.int64()),
                "dst": pa.array(d + OFF, pa.int64()),
            }
        )
        monkeypatch.setattr(fold, "_PARTITIONS", 8)
        a = pagerank_pipeline(
            rd.from_arrow(tbl_small).repartition(3)
        ).to_pandas()
        b = pagerank_pipeline(
            rd.from_arrow(tbl_wide).repartition(3)
        ).to_pandas()
        assert dict(zip(a.node + OFF, a.rank_fp)) == dict(zip(b.node, b.rank_fp))

    def test_bfs_wide_ids_match_shifted(self, ray_session, monkeypatch):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.graph import bfs_hops_pipeline

        s, d = _random_graph(44, 1200)
        OFF = (1 << 31) + 5
        seeds_small = pa.table({"n": pa.array(np.unique(s[:5]), pa.int64())})
        seeds_wide = pa.table({"n": pa.array(np.unique(s[:5]) + OFF, pa.int64())})
        tbl_small = pa.table(
            {"src": pa.array(s, pa.int64()), "dst": pa.array(d, pa.int64())}
        )
        tbl_wide = pa.table(
            {
                "src": pa.array(s + OFF, pa.int64()),
                "dst": pa.array(d + OFF, pa.int64()),
            }
        )
        monkeypatch.setattr(fold, "_PARTITIONS", 8)
        a = bfs_hops_pipeline(
            rd.from_arrow(tbl_small), rd.from_arrow(seeds_small),
            seed_col="n", max_hops=4,
        ).to_pandas()
        b = bfs_hops_pipeline(
            rd.from_arrow(tbl_wide), rd.from_arrow(seeds_wide),
            seed_col="n", max_hops=4,
        ).to_pandas()
        assert dict(zip(a.node + OFF, a.hops)) == dict(zip(b.node, b.hops))


def _simple_graph(seed: int, n_nodes: int = 80, n_edges: int = 400):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges)
    dst = rng.integers(0, n_nodes, n_edges)
    keep = src != dst
    return src[keep], dst[keep]


def _as_dict(df, col):
    return dict(zip(df.node.tolist(), df[col].tolist()))


class TestBfsIsUnitSssp:
    """BFS runs SSSP's frontier plans with unit weights: hops == dist
    whenever every ``w`` is 1, in either plan."""

    @staticmethod
    def _both(edges: pa.Table, seeds: list, cap: int, **kw):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.graph import sssp_pipeline

        seed_tbl = pa.table({"node": pa.array(seeds, pa.int64())})
        bfs = bfs_hops_pipeline(
            rd.from_arrow(edges).repartition(3), rd.from_arrow(seed_tbl),
            max_hops=3, max_broadcast_nodes=cap, **kw,
        )
        ones = edges.append_column(
            "w", pa.array(np.ones(edges.num_rows, np.int64))
        )
        sssp = sssp_pipeline(
            rd.from_arrow(ones).repartition(3), rd.from_arrow(seed_tbl),
            max_rounds=3, max_broadcast_nodes=cap, **kw,
        )
        return bfs, sssp

    @pytest.mark.parametrize("cap", [1 << 62, 0], ids=["broadcast", "shuffle"])
    @pytest.mark.parametrize("graph_seed", [61, 62])
    def test_hops_equal_unit_weight_dist(self, ray_session, monkeypatch, cap, graph_seed):
        s, d = _simple_graph(graph_seed)
        edges = pa.table({"src": pa.array(s, pa.int64()), "dst": pa.array(d, pa.int64())})
        # 10**6 is an isolated seed: kept at 0, reaches nothing
        monkeypatch.setattr(fold, "_PARTITIONS", 8)
        bfs, sssp = self._both(edges, [0, 7, 10**6], cap)
        got = _as_dict(bfs.to_pandas(), "hops")
        assert got == _as_dict(sssp.to_pandas(), "dist")
        assert got[10**6] == 0 and len(got) > 10

    @pytest.mark.parametrize("cap", [1 << 62, 0], ids=["broadcast", "shuffle"])
    @pytest.mark.parametrize("case", ["no_seeds", "no_edges", "neither"])
    def test_empty_inputs_give_typed_output(self, ray_session, monkeypatch, cap, case):
        s, d = _simple_graph(63)
        if case != "no_seeds":
            s, d = s[:0], d[:0]
        seeds = [] if case != "no_edges" else [3, 4]
        edges = pa.table({"src": pa.array(s, pa.int64()), "dst": pa.array(d, pa.int64())})
        monkeypatch.setattr(fold, "_PARTITIONS", 8)
        bfs, sssp = self._both(edges, seeds, cap)
        for ds, col in ((bfs, "hops"), (sssp, "dist")):
            schema = ds.schema()
            assert list(schema.names) == ["node", col]
            assert list(schema.types) == [pa.int64(), pa.int64()]
        want = {3: 0, 4: 0} if case == "no_edges" else {}
        assert {r["node"]: r["hops"] for r in bfs.take_all()} == want
        assert {r["node"]: r["dist"] for r in sssp.take_all()} == want

    def test_auto_falls_back_to_shuffle(self, ray_session):
        import ray.data as rd

        s, d = _simple_graph(64, n_nodes=60, n_edges=300)
        edges = pa.table({"src": pa.array(s, pa.int64()), "dst": pa.array(d, pa.int64())})
        seeds = rd.from_arrow(pa.table({"node": pa.array([0], pa.int64())}))
        ref = bfs_hops_pipeline(
            rd.from_arrow(edges), seeds, max_hops=3, max_broadcast_nodes=1 << 62
        ).to_pandas()
        got = bfs_hops_pipeline(
            rd.from_arrow(edges), seeds, max_hops=3,
            max_broadcast_nodes=2,
        ).to_pandas()
        assert len(ref) > 2
        assert _as_dict(got, "hops") == _as_dict(ref, "hops")


class TestSsspImprovesReachedNode:
    @pytest.mark.parametrize("cap", [1 << 62, 0], ids=["broadcast", "shuffle"])
    def test_round_two_lowers_round_one_distance(self, ray_session, monkeypatch, cap):
        """Round 1 reaches a (node 1) over the weight-10 edge; round 2
        finds seed -> b -> a at 2.  The driver fold must lower a node it
        already holds, not only insert new ones."""
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.graph import sssp_pipeline

        edges = pa.table(
            {
                "src": pa.array([0, 0, 2], pa.int64()),
                "dst": pa.array([1, 2, 1], pa.int64()),
                "w": pa.array([10, 1, 1], pa.int64()),
            }
        )
        seeds = rd.from_arrow(pa.table({"node": pa.array([0], pa.int64())}))

        monkeypatch.setattr(fold, "_PARTITIONS", 4)
        def run(rounds):
            return _as_dict(
                sssp_pipeline(
                    rd.from_arrow(edges), seeds, max_rounds=rounds,
                    max_broadcast_nodes=cap,
                ).to_pandas(),
                "dist",
            )

        assert run(1) == {0: 0, 1: 10, 2: 1}
        assert run(2) == {0: 0, 1: 2, 2: 1}


class TestSeedInSeveralBlocks:
    @pytest.mark.parametrize("cap", [1 << 62, 0], ids=["broadcast", "shuffle"])
    @pytest.mark.parametrize("rounds", [0, 1])
    def test_seed_is_one_row(self, ray_session, monkeypatch, cap, rounds):
        """Seed 1 listed in two seed blocks is one result row in both
        pipelines and both plans, also when no round runs."""
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.graph import sssp_pipeline

        edges = pa.table(
            {
                "src": pa.array([1, 2], pa.int64()),
                "dst": pa.array([2, 3], pa.int64()),
                "w": pa.array([1, 1], pa.int64()),
            }
        )
        one = pa.table({"node": pa.array([1], pa.int64())})
        seeds = rd.from_arrow([one, one])
        assert seeds.num_blocks() == 2
        want = [(1, 0)] if rounds == 0 else [(1, 0), (2, 1)]
        monkeypatch.setattr(fold, "_PARTITIONS", 4)
        sssp = sssp_pipeline(
            rd.from_arrow(edges), seeds, max_rounds=rounds,
            max_broadcast_nodes=cap,
        ).to_pandas()
        bfs = bfs_hops_pipeline(
            rd.from_arrow(edges.drop_columns(["w"])), seeds, max_hops=rounds,
            max_broadcast_nodes=cap,
        ).to_pandas()
        assert sorted(zip(sssp.node, sssp.dist)) == want
        assert sorted(zip(bfs.node, bfs.hops)) == want


class TestNullEdges:
    """A NULL endpoint or weight raises, naming its column, instead of
    becoming node -2^63 (or a -2^63 + w distance)."""

    @pytest.mark.parametrize("cap", [1 << 62, 0], ids=["broadcast", "shuffle"])
    @pytest.mark.parametrize(
        "pipeline,null_col",
        [
            ("bfs", "a"), ("bfs", "b"),
            ("sssp", "a"), ("sssp", "b"), ("sssp", "lat"),
            ("pagerank", "a"), ("pagerank", "b"),
        ],
    )
    def test_null_raises_naming_column(self, ray_session, monkeypatch, cap, pipeline, null_col):
        import ray.data as rd
        from ray.exceptions import RayTaskError

        from ddsketch_ruby_ray.pipelines.graph import sssp_pipeline

        cols = {"a": [1, 2, 3], "b": [2, 3, 4], "lat": [1, 1, 1]}
        cols[null_col] = [1, None, 3]
        edges = rd.from_arrow(
            pa.table({k: pa.array(v, pa.int64()) for k, v in cols.items()})
        )
        seeds = rd.from_arrow(pa.table({"node": pa.array([1], pa.int64())}))
        monkeypatch.setattr(fold, "_PARTITIONS", 4)
        if pipeline == "bfs":
            run = lambda: bfs_hops_pipeline(  # noqa: E731
                edges, seeds, src_col="a", dst_col="b",
                max_broadcast_nodes=cap,
            )
        elif pipeline == "sssp":
            run = lambda: sssp_pipeline(  # noqa: E731
                edges, seeds, src_col="a", dst_col="b", weight_col="lat",
                max_broadcast_nodes=cap,
            )
        else:
            run = lambda: pagerank_pipeline(  # noqa: E731
                edges, src_col="a", dst_col="b",
                max_broadcast_nodes=cap,
            )
        with pytest.raises(
            (RayTaskError, ValueError), match=f"column '{null_col}' contains 1 NULL"
        ):
            run().to_pandas()
