"""pipelines/fold.py — bounded-partition keyed aggregation vs native groupby."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from ddsketch_ruby_ray.core.hashing import hash64_str_fast


class TestHash64StrFast:
    def test_equal_strings_collide_unequal_differ(self):
        a = pa.array(["", "abc", "abd", "abc", None, "x" * 5000])
        h = hash64_str_fast(a)
        assert h[1] == h[3]
        assert h[1] != h[2]
        assert h[4] == h[0]  # null hashes like ""

    def test_slice_and_chunk_invariant(self):
        a = pa.array(["alpha", "beta", "gamma", "delta", "epsilon"])
        h = hash64_str_fast(a)
        sliced = hash64_str_fast(a.slice(2, 2))
        assert sliced[0] == h[2] and sliced[1] == h[3]
        ch = pa.chunked_array([a.slice(0, 2), a.slice(2, 3)])
        assert (hash64_str_fast(ch) == h).all()

    def test_distribution_not_degenerate(self):
        vals = pa.array([f"token_{i}" for i in range(10_000)])
        h = hash64_str_fast(vals)
        assert len(np.unique(h)) == 10_000  # no accidental collisions here
        parts = h % np.uint64(64)
        counts = np.bincount(parts.astype(np.int64), minlength=64)
        assert counts.min() > 0 and counts.max() < 3 * counts.mean()

    def test_empty(self):
        assert hash64_str_fast(pa.array([], pa.string())).size == 0


class TestPartitionedGroupAgg:
    @pytest.fixture()
    def tbl(self):
        rng = np.random.default_rng(5)
        n = 20_000
        return pa.table(
            {
                "sk": pa.array([f"k{int(x)}" for x in rng.integers(0, 3000, n)]),
                "ik": pa.array(rng.integers(-500, 500, n, dtype=np.int64)),
                "v": pa.array(rng.integers(0, 1000, n, dtype=np.int64)),
                "w": pa.array(rng.integers(-50, 50, n, dtype=np.int64)),
            }
        )

    def _native(self, tbl, keys, aggs):
        out = tbl.group_by(keys).aggregate(aggs)
        return out.rename_columns(
            list(keys) + [f"{f}({c})" for c, f in aggs]
        ).sort_by([(k, "ascending") for k in keys])

    def _fold(self, ray_session, tbl, keys, aggs, **kw):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.fold import partitioned_group_agg

        ds = rd.from_arrow(tbl).repartition(7)
        got = partitioned_group_agg(ds, keys, aggs, **kw).to_pandas()
        return pa.Table.from_pandas(got, preserve_index=False).sort_by(
            [(k, "ascending") for k in keys]
        )

    def test_string_key_sum(self, ray_session, tbl):
        want = self._native(tbl, ["sk"], [("v", "sum")])
        got = self._fold(ray_session, tbl, ["sk"], [("v", "sum")])
        assert got.equals(want)

    def test_int_key_multi_agg(self, ray_session, tbl):
        aggs = [("v", "sum"), ("w", "min"), ("w", "max"), ("v", "count")]
        want = self._native(tbl, ["ik"], aggs)
        got = self._fold(ray_session, tbl, ["ik"], aggs)
        assert got.equals(want)

    def test_mixed_multi_key(self, ray_session, tbl):
        want = self._native(tbl, ["sk", "ik"], [("v", "sum")])
        got = self._fold(ray_session, tbl, ["sk", "ik"], [("v", "sum")])
        assert got.equals(want)

    def test_bad_func_raises(self, ray_session, tbl):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.fold import partitioned_group_agg

        with pytest.raises(ValueError):
            partitioned_group_agg(
                rd.from_arrow(tbl), "sk", [("v", "mean")]
            )
        with pytest.raises(ValueError):
            partitioned_group_agg(rd.from_arrow(tbl), "sk", [(None, "sum")])

    def test_row_count(self, ray_session, tbl):
        """``(None, "count")`` is Ray's ``count()``: every row of the group,
        NULL values included (``(col, "count")`` skips them)."""
        mask = pa.array(np.arange(tbl.num_rows) % 3 == 0)
        tbl = tbl.set_column(3, "w", pc.if_else(mask, None, tbl.column("w")))
        got = self._fold(ray_session, tbl, ["ik"], [(None, "count"), ("w", "count")])
        want = tbl.group_by(["ik"]).aggregate([([], "count_all"), ("w", "count")])
        want = want.rename_columns(["ik", "count()", "count(w)"]).sort_by("ik")
        assert got.equals(want)
        assert pc.sum(got.column("count()")).as_py() == tbl.num_rows

    @pytest.mark.parametrize(
        "key, typ", [(["a", None, "", "a", None, "", "a"], pa.string()),
                     ([7, None, 0, 7, None, 0, 7], pa.int64())]
    )
    def test_null_key_is_its_own_group(self, ray_session, key, typ):
        """A NULL key is one group, apart from ``''`` and ``0``, as SQL
        GROUP BY has it.  (Ray's native ``groupby(s).sum(v)`` raises
        ``TypeError`` on a NULL string key once it has two blocks.)"""
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.fold import partitioned_group_agg

        t = pa.table({"k": pa.array(key, typ), "v": pa.array([1, 2, 3, 4, 5, 6, None])})
        ds = rd.from_arrow(t).repartition(2)
        got = partitioned_group_agg(ds, "k", [("v", "sum"), (None, "count")]).take_all()
        by_key = {r["k"]: (r["sum(v)"], r["count()"]) for r in got}
        set_key, zero_key = key[0], key[2]
        assert len(got) == 3
        assert by_key == {set_key: (5, 3), None: (7, 2), zero_key: (9, 2)}


class TestMapGroups:
    """``fold.map_groups``: ``fn`` once per key, on exactly its rows."""

    @staticmethod
    def _record(g: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": g.column("k").slice(0, 1),
                "n_keys": [len(set(g.column("k").to_pylist()))],
                "rows": [repr(sorted(g.column("v").to_pylist()))],
                "seen": [repr(g.column("v").to_pylist())],
                "cols": [",".join(g.column_names)],
            }
        )

    @pytest.mark.parametrize("lazy", [False, True])
    def test_fn_once_per_key_without_part(self, ray_session, monkeypatch, lazy):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines import fold
        from ddsketch_ruby_ray.pipelines.fold import _ONE_TASK_ROWS, map_groups
        from ddsketch_ruby_ray.state.metrics import parse_stage_metrics

        n = 400
        k = np.arange(n, dtype=np.int64) % 37
        t = pa.table({"k": k, "v": np.arange(n, dtype=np.int64)})
        ds = rd.from_arrow([t.slice(0, 150), t.slice(150)])
        if lazy:
            ds = ds.map_batches(lambda b: b, batch_format="pyarrow")
        assert n <= _ONE_TASK_ROWS
        monkeypatch.setattr(fold, "_PARTITIONS", 4)
        out = map_groups(ds, "k", self._record).materialize()
        ops = parse_stage_metrics(out.stats())
        # one task, or the direct exchange: no all-to-all operator either way
        assert [op["name"] for op in ops if op["tasks"] is None] == [], ops
        assert any(op["name"].startswith("MapBatches(fold_in_one_task)") for op in ops) != lazy
        rows = out.take_all()
        assert sorted(r["k"] for r in rows) == list(range(37))  # once per key
        for r in rows:
            assert r["n_keys"] == 1
            assert r["rows"] == repr(sorted(range(r["k"], n, 37)))
            if not lazy:  # one task, no sort: fn sees its rows in input order
                assert r["seen"] == r["rows"]
            assert r["cols"] == "k,v"  # no _part

    @pytest.mark.parametrize(
        "key, typ", [(["a", None, "", "a", None, ""], pa.string()),
                     ([7, None, 0, 7, None, 0], pa.int64())]
    )
    def test_null_key_is_its_own_group(self, ray_session, monkeypatch, key, typ):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines import fold
        from ddsketch_ruby_ray.pipelines.fold import map_groups

        t = pa.table({"k": pa.array(key, typ), "v": pa.array([1, 2, 3, 4, 5, 6])})
        ds = rd.from_arrow(t).repartition(2)
        monkeypatch.setattr(fold, "_PARTITIONS", 3)
        rows = map_groups(ds, "k", self._record).take_all()
        assert {r["k"]: r["rows"] for r in rows} == {
            key[0]: "[1, 4]", None: "[2, 5]", key[2]: "[3, 6]"
        }
        assert all(r["n_keys"] == 1 for r in rows)


class TestKeyedExchange:
    def test_part_of_single_int_key_is_hash_mod_p(self):
        from ddsketch_ruby_ray.core.hashing import hash64_int
        from ddsketch_ruby_ray.pipelines.fold import _part_of

        k = pa.array([5, None, -3, 2**40, 0, 7], pa.int64())
        P = 13
        got = _part_of(pa.table({"k": k}), ["k"], P)
        filled = np.array([5, 0, -3, 2**40, 0, 7], dtype=np.int64)
        want = (hash64_int(filled) % np.uint64(P)).astype(np.int32)
        assert got.dtype == np.int32
        assert (got == want).all()
        assert got[1] == got[4]  # NULL routes like 0
        # int32 and int64 lanes of the same ids route alike
        k32 = pa.array([5, 0, -3], pa.int32())
        assert (_part_of(pa.table({"k": k32}), ["k"], P) == want[[0, 1, 2]]).all()

    def test_equal_string_keys_meet_in_one_reduce(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.fold import keyed_exchange

        keys = [f"k{i % 37}" for i in range(600)]
        a = rd.from_arrow(pa.table({"k": keys[:300], "side": [0] * 300})).repartition(5)
        b = rd.from_arrow(pa.table({"k": keys[300:], "side": [1] * 300})).repartition(4)

        def reduce(g: pa.Table) -> pa.Table:
            ks = sorted(set(g.column("k").to_pylist()))
            part = g.column("_part")[0].as_py()
            return pa.table({"k": pa.array(ks), "p": pa.array([part] * len(ks), pa.int32())})

        rows = keyed_exchange([a, b], reduce, keys="k", num_partitions=8).take_all()
        seen = [r["k"] for r in rows]
        assert sorted(seen) == sorted(set(keys))  # each key in exactly one reduce
        assert all(0 <= r["p"] < 8 for r in rows)

    def test_route_fuses_into_each_input_map(self, ray_session):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines.fold import keyed_exchange
        from ddsketch_ruby_ray.state.metrics import parse_stage_metrics

        def pre_a(t: pa.Table) -> pa.Table:
            return pa.table({"k": pa.array(t.column("id").to_numpy() % 50)})

        def pre_b(t: pa.Table) -> pa.Table:
            return pa.table({"k": pa.array(t.column("id").to_numpy() % 30)})

        def reduce(g: pa.Table) -> pa.Table:
            return pa.table({"n": pa.array([g.num_rows], pa.int64())})

        a = rd.range(2_000, override_num_blocks=4).map_batches(pre_a, batch_format="pyarrow")
        b = rd.range(1_000, override_num_blocks=3).map_batches(pre_b, batch_format="pyarrow")
        ds = keyed_exchange([a, b], reduce, keys="k", num_partitions=4).materialize()
        assert ds.sum("n") == 3_000
        ops = parse_stage_metrics(ds.stats())
        names = [op["name"] for op in ops]
        assert "ReadRange->MapBatches(pre_a)->MapBatches(route)" in names, names
        assert "ReadRange->MapBatches(pre_b)->MapBatches(route)" in names, names
        assert not any(n.startswith("MapBatches(route)") for n in names), names
        assert [op["name"] for op in ops if op["tasks"] is None] == [], ops
        # the fold tasks come last, one per piece index: W = min(P, CPUs) = 4
        assert ops[-1]["name"] == "keyed_exchange.fold" and ops[-1]["tasks"] == 4, ops
        assert ops[-1]["wall_s"] is not None and ops[-1]["rows_out"] == ds.count(), ops

    def test_empty_input_gives_zero_rows(self, ray_session, monkeypatch):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines import fold

        empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
        lazy = empty.map_batches(lambda t: t, batch_format="pyarrow")
        # one-task fold, then the direct exchange on stored and streamed blocks
        for src, limit in ((empty, fold._ONE_TASK_ROWS), (empty, -1), (lazy, -1)):
            monkeypatch.setattr(fold, "_ONE_TASK_ROWS", limit)
            out = fold.keyed_exchange(
                src, lambda g: g.drop_columns(["_part"]), keys="k", num_partitions=4
            )
            assert out.count() == 0
            assert out.take_all() == []

    @staticmethod
    def _backend(ds) -> str:
        """``one_task`` or ``direct``, from the operators ``ds`` ran; fails
        on an all-to-all operator (a ``Sort``, say)."""
        from ddsketch_ruby_ray.state.metrics import parse_stage_metrics

        ops = parse_stage_metrics(ds.stats())
        assert [op["name"] for op in ops if op["tasks"] is None] == [], ops
        names = [op["name"] for op in ops]
        one_task = any(n.startswith("MapBatches(fold_in_one_task)") for n in names)
        direct = "keyed_exchange.fold" in names
        assert one_task != direct, names
        return "one_task" if one_task else "direct"

    @pytest.mark.parametrize("pretagged", [False, True])
    def test_backends_make_identical_reduce_calls(self, ray_session, monkeypatch, pretagged):
        """Both backends call ``reduce`` once per distinct ``_part``, on
        exactly that partition's rows, routed or pre-tagged alike."""
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines import fold

        P = 4

        def side(lo, hi):
            k = np.arange(lo, hi, dtype=np.int64) % 23
            t = pa.table({"k": k, "v": np.arange(lo, hi, dtype=np.int64)})
            if pretagged:
                t = t.append_column("_part", pa.array((k % P).astype(np.int32)))
            return rd.from_arrow([t.slice(0, 60), t.slice(60)])

        def record(g: pa.Table) -> pa.Table:
            rows = sorted(zip(g.column("k").to_pylist(), g.column("v").to_pylist()))
            return pa.table({"p": [g.column("_part")[0].as_py()], "rows": [repr(rows)]})

        keys = None if pretagged else "k"
        calls = {}
        for backend, limit in (("one_task", fold._ONE_TASK_ROWS), ("direct", 0)):
            monkeypatch.setattr(fold, "_ONE_TASK_ROWS", limit)
            ds = fold.keyed_exchange(
                [side(0, 100), side(100, 250)], record, keys=keys, num_partitions=P
            ).materialize()
            assert self._backend(ds) == backend
            calls[backend] = sorted((r["p"], r["rows"]) for r in ds.take_all())
        parts = [p for p, _ in calls["direct"]]
        assert len(parts) == len(set(parts)) == P
        assert calls["one_task"] == calls["direct"]

    def test_direct_exchange_keeps_the_one_task_row_order(self, ray_session, monkeypatch):
        """On a materialized input, ``reduce`` sees each partition's rows in
        stored block order: the same on every run, and the same as the
        one-task fold."""
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines import fold

        n, P = 3_000, 8
        rng = np.random.default_rng(7)
        t = pa.table({"k": rng.integers(0, 50, n), "v": rng.permutation(n)})
        src = rd.from_arrow([t.slice(i, 250) for i in range(0, n, 250)])

        def record(g: pa.Table) -> pa.Table:
            return pa.table({"p": [g.column("_part")[0].as_py()],
                             "seen": [repr(g.column("v").to_pylist())]})

        runs = []
        for backend, limit in (("one_task", n), ("direct", 0), ("direct", 0)):
            monkeypatch.setattr(fold, "_ONE_TASK_ROWS", limit)
            ds = fold.keyed_exchange(src, record, keys="k", num_partitions=P).materialize()
            assert self._backend(ds) == backend
            runs.append(sorted((r["p"], r["seen"]) for r in ds.take_all()))
        one_task, direct_1, direct_2 = runs
        assert len(one_task) == P
        assert direct_1 == direct_2 == one_task

    def test_some_empty_folds_keep_the_schema(self, ray_session, monkeypatch):
        """When only some fold tasks get rows, the output still has a schema
        and Ray sees no schema-less block downstream."""
        import logging

        import ray.data as rd

        from ddsketch_ruby_ray.pipelines import fold

        class Lines(logging.Handler):
            def __init__(self):
                super().__init__()
                self.lines = []

            def emit(self, rec):
                self.lines.append(rec.getMessage())

        lines = Lines()
        ray_logger = logging.getLogger("ray.data")
        ray_logger.addHandler(lines)
        monkeypatch.setattr(fold, "_ONE_TASK_ROWS", 0)
        try:
            # 3 keys in 16 partitions: at most 3 of the 4 fold tasks get rows
            t = pa.table({"k": np.arange(400, dtype=np.int64) % 3})
            stored = rd.from_arrow([t.slice(i, 50) for i in range(0, 400, 50)])
            for src in (stored, stored.map_batches(lambda b: b, batch_format="pyarrow")):
                out = fold.keyed_exchange(
                    src, lambda g: g.drop_columns(["_part"]), keys="k", num_partitions=16
                )
                assert out.schema() is not None
                assert out.schema().names == ["k"]
                again = out.map_batches(lambda b: b, batch_format="pyarrow").materialize()
                assert again.count() == 400
        finally:
            ray_logger.removeHandler(lines)
        assert not [m for m in lines.lines if "different schema" in m], lines.lines

    def test_lazy_input_streams_into_the_direct_exchange(self, ray_session, monkeypatch):
        """A lazy input is counted by no rule and is never materialized or
        pulled as Arrow refs: its blocks stream into the split tasks."""
        import ray.data as rd
        from ray.data.dataset import MaterializedDataset

        from ddsketch_ruby_ray.pipelines.fold import keyed_exchange

        counted = []
        real_count, real_materialize = rd.Dataset.count, rd.Dataset.materialize

        def count(self):
            counted.append(type(self))
            return real_count(self)

        def refuse(self, *args, **kwargs):
            raise AssertionError("the exchange materialized an input")

        lazy = rd.from_arrow(pa.table({"k": [1, 2, 3]})).map_batches(
            lambda t: t, batch_format="pyarrow"
        )
        monkeypatch.setattr(rd.Dataset, "count", count)
        monkeypatch.setattr(rd.Dataset, "materialize", refuse)
        monkeypatch.setattr(rd.Dataset, "to_arrow_refs", refuse)
        out = keyed_exchange(lazy, lambda g: g, keys="k", num_partitions=2)
        assert all(issubclass(t, MaterializedDataset) for t in counted)
        monkeypatch.setattr(rd.Dataset, "materialize", real_materialize)
        assert self._backend(out.materialize()) == "direct"
        assert sorted(r["k"] for r in out.take_all()) == [1, 2, 3]

    def test_materialized_input_over_the_limit_runs_direct(self, ray_session, monkeypatch):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines import fold

        monkeypatch.setattr(fold, "_ONE_TASK_ROWS", 5)
        for n, backend in ((5, "one_task"), (6, "direct")):
            src = rd.from_arrow(pa.table({"k": np.arange(n)}))
            out = fold.keyed_exchange(src, lambda g: g, keys="k", num_partitions=2).materialize()
            assert out.count() == n
            assert self._backend(out) == backend


def test_every_library_groupby_runs_through_fold():
    """``fold`` holds the library's only grouped path, and it runs no Ray
    ``groupby``: no ``.groupby(`` call anywhere in ``ddsketch_ruby_ray`` but
    the named pandas-on-driver one."""
    import ast
    from pathlib import Path

    import ddsketch_ruby_ray

    root = Path(ddsketch_ruby_ray.__file__).parent
    allowed = {
        # pandas over the KB-sized transition matrix, on the driver
        ("queries.py", "markov_event_transitions"),
    }
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()

        def visit(node, func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name if func is None else func
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "groupby"
                and (rel, None) not in allowed
                and (rel, func) not in allowed
            ):
                found.append(f"{rel}:{node.lineno} in {func}")
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(ast.parse(path.read_text()), None)
    assert not found, found


def test_partition_count_is_no_pipeline_option():
    """Plans are the library's choice: ``fold._PARTITIONS`` is the one
    partition count and each broadcast cap is a module constant read at call
    time (``graph._MAX_BROADCAST_NODES``, ``linededup.MAX_BROADCAST_LINES``,
    ``spans._MAX_BROADCAST_HASHES``), so no function in
    ``ddsketch_ruby_ray`` takes a partition count, a broadcast cap, a
    ``batch_size`` or a ``strategy`` but ``keyed_exchange`` with its private
    helpers and the named functions."""
    import ast
    from pathlib import Path

    import ddsketch_ruby_ray

    root = Path(ddsketch_ruby_ray.__file__).parent
    options = {
        "num_partitions",
        "reduce_partitions",
        "max_broadcast_nodes",
        "max_broadcast_lines",
        "max_broadcast_hashes",
        "max_nodes",
        "batch_size",
        "strategy",
    }
    allowed = {
        # a benchmark layer reads these defaults
        ("pipelines/dedup.py", "exact_dedup_pipeline", "num_partitions"),
        ("pipelines/corpus.py", "corpus_sketch_pipeline", "strategy"),
        # P defines the output column ``part``
        ("pipelines/packing.py", "pack_sequences_pipeline", "num_partitions"),
        # connected components sizes its rounds by its edge count
        ("pipelines/graph.py", "_pin_edge_slices", "num_partitions"),
        ("pipelines/graph.py", "_scatter", "num_partitions"),
        ("pipelines/graph.py", "_gather", "num_partitions"),
    }
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
            name = getattr(node, "name", "<lambda>")
            for opt in sorted(names & options):
                if (
                    rel == "pipelines/fold.py"
                    and opt in ("num_partitions", "reduce_partitions")
                    and (name == "keyed_exchange" or name.startswith("_"))
                ):
                    continue
                if (rel, name, opt) not in allowed:
                    found.append(f"{rel}:{node.lineno} {name}({opt})")
    assert not found, found
