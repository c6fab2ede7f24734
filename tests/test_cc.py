"""Connected-components clustering tests (pipelines/cc.py), and a guard
that keeps the vertex-program round of graph.py the only code in graph.py
and cc.py that folds messages into state."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

import ddsketch_ruby_ray

from .partitions import partitions


def _run(pairs, parts=4, **kw):
    import ray.data as rd

    from ddsketch_ruby_ray.pipelines.cc import connected_components_pipeline

    with partitions(parts):
        out = connected_components_pipeline(rd.from_arrow(pairs), **kw).to_pandas()
    if out.empty:
        return {}
    return dict(zip(out.node, out.cluster))


def _pairs(edges):
    a, b = zip(*edges) if edges else ((), ())
    return pa.table({"a": pa.array(list(a), pa.int64()), "b": pa.array(list(b), pa.int64())})


def _union_find(edges):
    """{node: minimum node of its component} by a driver-side union-find."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in list(parent)}


class TestConnectedComponents:
    def test_chain_star_and_isolated_components(self, ray_session):
        got = _run(_pairs([(9, 1), (1, 2), (2, 3), (5, 7), (20, 21), (21, 22)]))
        assert got == {1: 1, 2: 1, 3: 1, 9: 1, 5: 5, 7: 5, 20: 20, 21: 20, 22: 20}

    def test_long_chain_needs_iterations(self, ray_session):
        # a 30-node path: min label must walk the full diameter
        got = _run(_pairs([(i, i + 1) for i in range(100, 130)]), parts=3)
        assert set(got.values()) == {100} and len(got) == 31

    def test_matches_networkless_union_find(self, ray_session):
        rng = np.random.default_rng(17)
        edges = [(int(a), int(b)) for a, b in rng.integers(0, 60, (80, 2)) if a != b]
        got = _run(_pairs(edges), parts=5)
        assert got == _union_find(edges)

    def test_empty_pairs(self, ray_session):
        got = _run(_pairs([]))
        assert got == {}


@pytest.fixture
def one_partition_per_edge_row(monkeypatch):
    """``fold._PARTITIONS`` is then the partition count: the edge-row rule
    would put every small graph in one partition, which contracts all of
    it before the first round."""
    from ddsketch_ruby_ray.pipelines import cc

    monkeypatch.setattr(cc, "_EDGE_ROWS_PER_PART", 1)


class TestUnionFindProperty:
    @pytest.mark.parametrize("parts", [1, 8, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graph_matches_union_find(
        self, ray_session, one_partition_per_edge_row, parts, seed
    ):
        """Under 64 nodes, so 64 partitions leave some empty; duplicate
        pairs, both orientations of a pair and self-pairs included."""
        rng = np.random.default_rng(seed)
        edges = [tuple(map(int, e)) for e in rng.integers(0, 40, (30, 2))]
        edges += edges[:6] + [(b, a) for a, b in edges[6:10]]
        edges += [(int(n), int(n)) for n in rng.integers(0, 50, 4)]
        got = _run(_pairs(edges), parts=parts)
        assert got == _union_find(edges)

    @pytest.mark.parametrize("parts", [1, 8, 64])
    def test_long_path_converges_by_pointer_jumping(
        self, ray_session, one_partition_per_edge_row, parts
    ):
        """A 300-node path with its minimum at one end, beside a small
        random graph: min-label steps alone move a label a few hops per
        round, so 25 rounds reach the far end only with the jump steps."""
        path = [(1000 + i, 1001 + i) for i in range(299)]
        rng = np.random.default_rng(5)
        edges = path + [tuple(map(int, e)) for e in rng.integers(0, 40, (30, 2))]
        got = _run(_pairs(edges), parts=parts, max_iters=25)
        assert got == _union_find(edges)
        assert {got[1000 + i] for i in range(300)} == {1000}


# -- guard -------------------------------------------------------------------

TAGS = {"is_old", "is_state", "is_lab"}
ROUND = {"_scatter", "_gather"}


def _stray_tags(source: str) -> list[str]:
    """``line:tag`` of every tag-column name in ``source`` outside the
    module-level ``_scatter``/``_gather``."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name in ROUND:
            continue
        for n in ast.walk(top):
            if isinstance(n, ast.Constant) and n.value in TAGS:
                found.append(f"{n.lineno}:{n.value}")
    return found


def test_guard_finds_tag_columns_outside_the_round():
    sources = [
        "def fold(g):\n    return g.column('is_old')\n",
        "rows = pa.table({'is_lab': ones})\n",
        "def f():\n    def _gather(g):\n        return g['is_state']\n",
        "class R:\n    def _scatter(self, g):\n        return g['is_old']\n",
    ]
    for src in sources:
        assert _stray_tags(src), src
    assert not _stray_tags("def _gather(m):\n    t = {'is_old': 1}\n")
    assert not _stray_tags(
        "def _scatter(s):\n    def tag(t):\n        return t['is_state']\n"
    )
    assert not _stray_tags("is_old = col == 1\n")


def test_tag_columns_only_in_the_shared_round():
    root = Path(ddsketch_ruby_ray.__file__).parent / "pipelines"
    graph = (root / "graph.py").read_text()
    defined = {n.name for n in ast.parse(graph).body if isinstance(n, ast.FunctionDef)}
    assert ROUND <= defined
    found = [f"{name}:{hit}" for name in ("graph.py", "cc.py")
             for hit in _stray_tags((root / name).read_text())]
    assert not found, found
