"""Pipeline-level tests: corpus synthesis determinism, flagship pipeline,
sha256 row invariant, oracle SQL equivalence at the smallest scale."""

from __future__ import annotations

import hashlib

import duckdb
import numpy as np
import pytest

from ddsketch_ruby_ray.sources import corpus_dataset
from ddsketch_ruby_ray.stages import add_sha256, derive_content_metrics
from ddsketch_ruby_ray.pipelines import corpus_sketch_pipeline

pytestmark = pytest.mark.usefixtures("ray_session")


def test_corpus_deterministic_across_block_layouts():
    a = corpus_dataset(2000, override_num_blocks=2).to_pandas().sort_values("path").reset_index(drop=True)
    b = corpus_dataset(2000, override_num_blocks=7).to_pandas().sort_values("path").reset_index(drop=True)
    assert a.equals(b)
    assert set(a.columns) == {"repo", "path", "commit", "lang", "content"}
    # Zipf skew: top language has a large share
    share = a["lang"].value_counts(normalize=True)
    assert share.iloc[0] > 0.25
    assert (a["content"] == "").mean() < 0.05


def test_corpus_flagship_pipeline_and_invariant():
    ds = corpus_dataset(3000, override_num_blocks=4)
    out = corpus_sketch_pipeline(ds, group_keys=("lang",), alpha=0.02).to_pandas()
    assert {"lang", "bytes_count", "bytes_p99", "lines_p50"} <= set(out.columns)
    assert out["bytes_count"].sum() == 3000

    # per-row sha256 invariant: derived columns never disturb content
    src = corpus_dataset(500, override_num_blocks=2)
    staged = src.map_batches(
        lambda t: add_sha256(derive_content_metrics(t)), batch_format="pyarrow"
    ).to_pandas()
    for _, row in staged.sample(50, random_state=7).iterrows():
        assert hashlib.sha256(row["content"].encode()).hexdigest() == row["sha256"]
    assert (staged["content_bytes"] == staged["content"].str.encode("utf-8").str.len()).all()


def test_quantile_accuracy_against_exact(sf_dir):
    """End-to-end accuracy contract: pipeline quantiles within alpha of truth."""
    from ddsketch_ruby_ray.queries import dd_quantiles_by_lang

    import pandas as pd

    from .datasets import accuracy_ok, true_quantile

    out = dd_quantiles_by_lang(sf_dir).to_pandas().set_index("lang")
    df = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])
    for lang, sub in df.groupby("lang"):
        vals = sub["n_chars"].to_numpy()
        for q, est_col in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")]:
            est = out.loc[lang, est_col]
            true = true_quantile(vals, q)
            assert accuracy_ok(est, true, 0.01), (lang, est_col, est, true)


def test_null_group_keys_through_states_strategy():
    """NULL group keys survive the default (states) strategy's shuffle as
    their own group, matching SQL GROUP BY semantics, and never collide with
    the fill default ('' for strings)."""
    import pyarrow as pa
    import ray.data as rd

    from ddsketch_ruby_ray.functions.specs import DDSketchSpec
    from ddsketch_ruby_ray.pipelines import grouped_sketch_pipeline

    t = pa.table(
        {
            "k": pa.array(["a", None, "a", None, "b", "", None], pa.string()),
            "v": pa.array([1.0, 10.0, 3.0, 30.0, 5.0, 7.0, 50.0]),
        }
    )
    spec = DDSketchSpec(on="v", name="s", relative_accuracy=0.01, quantiles=(0.5,))
    out = (
        grouped_sketch_pipeline(rd.from_arrow(t).repartition(3), [spec], ("k",))
        .to_pandas()
        .set_index("k", drop=False)
    )
    assert len(out) == 4  # 'a', 'b', '', and the null group
    counts = {
        (None if k != k or k is None else k): c
        for k, c in zip(out["k"], out["count"])
    }
    assert counts[None] == 3  # nulls form ONE group
    assert counts["a"] == 2
    assert counts[""] == 1  # empty string does NOT merge with null


def test_null_group_keys_int_and_multi_key():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ddsketch_ruby_ray.functions.specs import DDSketchSpec
    from ddsketch_ruby_ray.pipelines import grouped_sketch_pipeline

    t = pa.table(
        {
            "g1": pa.array([1, None, 1, None, 0], pa.int64()),
            "g2": pa.array(["x", "x", None, None, "x"], pa.string()),
            "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        }
    )
    spec = DDSketchSpec(on="v", name="s", relative_accuracy=0.01, quantiles=())
    out = grouped_sketch_pipeline(rd.from_arrow(t).repartition(2), [spec], ("g1", "g2")).to_pandas()
    assert len(out) == 5  # every (g1, g2) combination incl. null sides
    # the (None, None) group exists with count 1 and the 0 fill didn't collide
    mask = out["g1"].isna() & out["g2"].isna()
    assert mask.sum() == 1 and out.loc[mask, "count"].iloc[0] == 1.0
    zero = out[(out["g1"] == 0) & (out["g2"] == "x")]
    assert len(zero) == 1 and zero["count"].iloc[0] == 1.0


def test_date_and_bool_group_keys_through_states_strategy():
    """Key types with no int64 cast (date, bool) still route through the
    state exchange; every key combination, NULLs included, is one group."""
    import datetime

    import pyarrow as pa
    import ray.data as rd

    from ddsketch_ruby_ray.functions.specs import DDSketchSpec
    from ddsketch_ruby_ray.pipelines import grouped_sketch_pipeline

    d1, d2 = datetime.date(2020, 1, 1), datetime.date(2020, 1, 2)
    t = pa.table(
        {
            "d": pa.array([d1, None, d2, d1, None], pa.date32()),
            "b": pa.array([True, False, None, True, None]),
            "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        }
    )
    spec = DDSketchSpec(on="v", name="s", quantiles=())
    rows = grouped_sketch_pipeline(
        rd.from_arrow(t).repartition(2), [spec], ("d", "b")
    ).take_all()
    counts = {(r["d"], r["b"]): r["count"] for r in rows}
    assert counts == {(d1, True): 2.0, (None, False): 1.0, (d2, None): 1.0, (None, None): 1.0}


def _sequential_fold(table, specs, group_keys):
    """Sequential in-process reference: ``spec.merge`` over each group's
    state rows in table order, then ``spec.finalize``."""
    groups: dict = {}
    for row in table.to_pylist():
        key = tuple(row[k] for k in group_keys)
        acc = groups.setdefault(key, {})
        for spec in specs:
            st = row[spec.name]
            if st is None:
                continue
            sk = spec.from_state(st)
            acc[spec.name] = sk if spec.name not in acc else spec.merge(acc[spec.name], sk)
    return {
        key: {spec.name: spec.finalize(acc.get(spec.name)) for spec in specs}
        for key, acc in groups.items()
    }


def _assert_results_equal(got: dict, want: dict, names) -> None:
    """Per-group finalize dicts equal field by field (NaN == NaN)."""
    assert got.keys() == want.keys()
    for key in want:
        for name in names:
            g, w = got[key][name], want[key][name]
            assert g.keys() == w.keys(), (key, name)
            for f in w:
                assert g[f] == w[f] or (g[f] != g[f] and w[f] != w[f]), (key, name, f)


@pytest.mark.parametrize("group_keys", [("k",), ()])
def test_merge_sketch_states_equals_sequential_fold(group_keys):
    """One keyed exchange over a multi-block state table with fewer groups
    (3, one of them NULL) than partitions (one per CPU) gives exactly the
    sequential in-process merge fold: ``merge_sketch_states`` as one typed
    result struct per spec, ``merge_states`` as one state per group typed
    like its input.  An empty state table gives no rows and typed folds."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from ddsketch_ruby_ray.functions.specs import DDSketchSpec, XorSigSpec
    from ddsketch_ruby_ray.pipelines import merge_sketch_states, merge_states
    from ddsketch_ruby_ray.stages.accumulate import SketchStateAccumulator, StateBlockMerger

    assert ray.cluster_resources()["CPU"] > 3
    specs = [
        DDSketchSpec(on="v", name="s", relative_accuracy=0.02, quantiles=(0.1, 0.5, 0.99)),
        XorSigSpec(on="h", name="sig"),
    ]
    acc = SketchStateAccumulator(specs, group_keys)
    rng = np.random.default_rng(5)
    blocks = []
    for _ in range(6):
        n = 200
        blocks.append(acc(pa.table({
            "k": pa.array(rng.choice(["a", "b", None], n).tolist(), pa.string()),
            "v": pa.array(rng.lognormal(3, 1, n)),
            "h": pa.array(rng.integers(0, 2**60, n)),
        })))
    states = pa.concat_tables(blocks)
    assert states.num_rows >= len(blocks)
    want = _sequential_fold(states, specs, group_keys)
    assert len(want) == (3 if group_keys else 1)
    names = [spec.name for spec in specs]

    ds = merge_sketch_states(rd.from_arrow(blocks), specs, group_keys).materialize()
    # struct fields in spec.finalize's key order (the order every plan emits)
    types = {
        spec.name: pa.struct([(k, pa.scalar(v).type) for k, v in spec.finalize(None).items()])
        for spec in specs
    }
    schema = ds.schema().base_schema
    assert schema.names == list(group_keys) + names
    for name, ty in types.items():
        assert schema.field(name).type == ty, name
    got = {
        tuple(row[k] for k in group_keys): {name: row[name] for name in names}
        for row in ds.take_all()
    }
    _assert_results_equal(got, want, names)

    merged = merge_states(rd.from_arrow(blocks), specs, group_keys).materialize()
    state_schema = merged.schema().base_schema
    assert state_schema.names == list(group_keys) + names
    for spec in specs:
        assert state_schema.field(spec.name).type == spec.state_type(), spec.name
    got = {
        tuple(row[k] for k in group_keys): {
            spec.name: spec.finalize(spec.from_state(row[spec.name])) for spec in specs
        }
        for row in merged.take_all()
    }
    _assert_results_equal(got, want, names)

    none = states.slice(0, 0)
    assert merge_states(rd.from_arrow(none), specs, group_keys).take_all() == []
    merger = StateBlockMerger(specs, group_keys)
    empty = merger.finalize_groups(none)
    assert empty.num_rows == 0 and empty.schema == schema
    empty = merger(none)
    assert empty.num_rows == 0 and empty.schema == state_schema


def _spec_factories():
    """Every SketchSpec of functions/specs.py and functions/family_specs.py,
    built over columns ``x`` (ints) and ``y`` (floats)."""
    from ddsketch_ruby_ray.functions.family_specs import (
        AMSSpec, BloomSpec, CMSSpec, HLLSpec, KLLSpec, KMVSpec, TDigestSpec,
    )
    from ddsketch_ruby_ray.functions.specs import DDSketchSpec, XorSigSpec

    return {
        "DDSketchSpec": lambda: DDSketchSpec(on="y", name="s"),
        "XorSigSpec": lambda: XorSigSpec(on="x", name="s"),
        "HLLSpec": lambda: HLLSpec(on="x", name="s", p=8),
        "KMVSpec": lambda: KMVSpec(on="x", name="s", k=16),
        "BloomSpec": lambda: BloomSpec(on="x", name="s", m_bits=256),
        "CMSSpec": lambda: CMSSpec(on="x", name="s", w=16, d=2),
        "TDigestSpec": lambda: TDigestSpec(on="y", name="s"),
        "KLLSpec": lambda: KLLSpec(on="y", name="s", k=16),
        "AMSSpec": lambda: AMSSpec(on="x", name="s"),
    }


def test_spec_factories_cover_every_spec():
    from ddsketch_ruby_ray.functions import family_specs, specs

    every = {
        name
        for mod in (specs, family_specs)
        for name in mod.__all__
        if hasattr(getattr(mod, name), "state_type")
        and not getattr(getattr(mod, name), "_is_protocol", False)  # SketchSpec
    }
    assert every == set(_spec_factories())


@pytest.mark.parametrize("spec_name", sorted(_spec_factories()))
def test_merge_states_keeps_typed_state_for_every_spec(spec_name):
    """The merged state column has exactly ``spec.state_type()`` (no pickled
    Python-object fallback, which the KMV state once hit in Ray's native
    aggregate finalize) and every row decodes with ``from_state``."""
    import pyarrow as pa
    import ray.data as rd

    from ddsketch_ruby_ray.pipelines import merge_states, sketch_states

    spec = _spec_factories()[spec_name]()
    rng = np.random.default_rng(11)
    n = 900
    tbl = pa.table({
        "g": pa.array(rng.choice(["a", "b", "c", "d"], n).tolist()),
        "x": pa.array(rng.integers(0, 500, n)),
        "y": pa.array(rng.normal(0, 10, n)),
    })
    states = sketch_states(rd.from_arrow(tbl).repartition(3), [spec], ("g",))
    merged = merge_states(states, [spec], ("g",)).materialize()
    assert merged.schema().base_schema.field(spec.name).type == spec.state_type()
    rows = merged.take_all()
    assert sorted(r["g"] for r in rows) == ["a", "b", "c", "d"]
    for r in rows:
        spec.finalize(spec.from_state(r[spec.name]))


def test_state_merges_run_no_native_aggregate(monkeypatch):
    """Rollup and ``group_sketches`` merge states through the keyed
    exchange only: Ray's ``aggregate`` is never called, and every merge
    plan ends in one of the keyed exchange's folds (route -> ``Sort`` ->
    fold, or the one-task fold) with no ``Aggregate`` operator."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data.grouped_data import GroupedData

    from ddsketch_ruby_ray.functions.specs import DDSketchSpec
    from ddsketch_ruby_ray.pipelines import corpus as corpus_mod
    from ddsketch_ruby_ray.pipelines import group_sketches
    from ddsketch_ruby_ray.pipelines.rollup import rollup_sketch_pipeline
    from ddsketch_ruby_ray.state.metrics import parse_stage_metrics

    tbl = pa.table({
        "a": pa.array([f"a{i % 3}" for i in range(600)]),
        "b": pa.array([f"b{i % 5}" for i in range(600)]),
        "v": pa.array(np.arange(600, dtype=np.float64)),
    })
    spec = DDSketchSpec(on="v", name="s", quantiles=(0.5,))

    aggregate_calls = []
    for cls in (GroupedData, rd.Dataset):
        real_agg = cls.aggregate

        def spy(self, *aggs, _real=real_agg):
            aggregate_calls.append(aggs)
            return _real(self, *aggs)

        monkeypatch.setattr(cls, "aggregate", spy)
    plans = []
    merge_states = corpus_mod.merge_states

    def recording(*args, **kwargs):
        ds = merge_states(*args, **kwargs).materialize()
        plans.append([op["name"] for op in parse_stage_metrics(ds.stats())])
        return ds

    monkeypatch.setattr(corpus_mod, "merge_states", recording)

    rolled = rollup_sketch_pipeline(rd.from_arrow(tbl).repartition(3), spec, ["a", "b"])
    assert rolled.count() == 15 + 3 + 1
    sks = group_sketches(rd.from_arrow(tbl).repartition(3), spec, "a")
    assert sorted(sks) == ["a0", "a1", "a2"] and sum(sk.count for sk in sks.values()) == 600

    assert aggregate_calls == []
    assert len(plans) == 3  # rollup (a, b) and (a); group_sketches (a)
    for names in plans:
        sort_fold = "Sort" in names and "MapBatches(__call__)" in names
        assert sort_fold or any(n.startswith("MapBatches(fold_in_one_task)") for n in names), names
        assert not [n for n in names if "Aggregate" in n], names


def test_corpus_sketch_pipeline_runs_one_exchange(monkeypatch):
    """A small state table is folded in ONE task with no all-to-all
    operator; past ``fold._ONE_TASK_ROWS`` the merge is ONE ``Sort``
    exchange (no Repartition before it)."""
    from ddsketch_ruby_ray.pipelines import fold
    from ddsketch_ruby_ray.state.metrics import parse_stage_metrics

    def run():
        ds = corpus_sketch_pipeline(
            corpus_dataset(2000, override_num_blocks=4), group_keys=("lang",), verify_sha256=True
        ).materialize()
        assert ds.sum("bytes_count") == 2000
        return parse_stage_metrics(ds.stats())

    ops = run()
    assert [op["name"] for op in ops if op["tasks"] is None] == [], ops
    # the fold fuses with the unnest maps after it
    folds = [op for op in ops if op["name"].startswith("MapBatches(fold_in_one_task)")]
    assert len(folds) == 1 and folds[0]["tasks"] == 1, ops
    monkeypatch.setattr(fold, "_ONE_TASK_ROWS", 0)
    ops = run()
    exchanges = [op["name"] for op in ops if op["tasks"] is None]
    assert exchanges == ["Sort"], [op["name"] for op in ops]
