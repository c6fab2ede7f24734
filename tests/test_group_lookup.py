"""Sketch-then-probe maps find a row's group through ``group_lookup``.

Every public sketch-then-probe pipeline (the four exact selections, the
three robust statistics, the two quantile-threshold maps and the rank
transform) treats a NULL group key as one group: its rows equal those of
the same input with NULL replaced by a fresh string key.  A guard keeps
per-group ``for … in np.unique(…)`` loops out of those modules.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

import ddsketch_ruby_ray
from ddsketch_ruby_ray.pipelines import outlier, rank, robust, selection
from ddsketch_ruby_ray.pipelines.corpus import group_lookup

FRESH = "zz_null"

PIPELINES = {
    "quantile": lambda ds: selection.sketch_exact_quantile_pipeline(
        ds, group_col="g", value_col="v", q=0.5
    ),
    "quantiles": lambda ds: selection.sketch_exact_quantiles_pipeline(
        ds, group_col="g", value_col="v", qs=(0.1, 0.9)
    ),
    "weighted": lambda ds: selection.sketch_exact_weighted_quantile_pipeline(
        ds, group_col="g", value_col="v", weight_col="w", q=0.7
    ),
    "interp": lambda ds: selection.sketch_exact_interp_quantile_pipeline(
        ds, group_col="g", value_col="v", q=0.9
    ),
    "mad": lambda ds: robust.mad_outlier_pipeline(
        ds, group_col="g", value_col="v", k=2, carry_cols=["rid"]
    ),
    "trimmed": lambda ds: robust.trimmed_mean_pipeline(ds, group_col="g", value_col="v"),
    "winsorized": lambda ds: robust.winsorized_mean_pipeline(ds, group_col="g", value_col="v"),
    "outlier": lambda ds: outlier.ddsketch_outlier_pipeline(
        ds, group_col="g", value_col="v", carry_cols=["rid"], q=0.8
    ),
    "bucketize": lambda ds: outlier.ddsketch_bucketize_pipeline(
        ds, group_col="g", value_col="v", carry_cols=["rid"]
    ),
    "rank": lambda ds: rank.ddsketch_rank_pipeline(
        ds, group_col="g", value_col="v", carry_cols=["rid"]
    ),
}


def _table(groups) -> pa.Table:
    rng = np.random.default_rng(29)
    n = len(groups)
    v = rng.integers(1, 2000, n)
    v[rng.choice(n, 12, replace=False)] *= 40  # outliers for the MAD flag
    return pa.table(
        {
            "rid": pa.array(np.arange(n), pa.int64()),
            "g": pa.array(groups, pa.string()),
            "v": pa.array(v.astype(np.int64)),
            "w": pa.array(rng.integers(1, 6, n), pa.int64()),
        }
    )


def _rows(ds) -> list[tuple]:
    df = ds.to_pandas()
    df["g"] = df["g"].where(df["g"].notna(), FRESH)
    return sorted(map(tuple, df[sorted(df.columns)].itertuples(index=False)))


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_null_group_key_is_one_group(ray_session, name):
    import ray.data as rd

    rng = np.random.default_rng(31)
    groups = rng.choice(np.array(["a", "b", None], dtype=object), 600).tolist()
    run = PIPELINES[name]
    with_null = _rows(run(rd.from_arrow(_table(groups)).repartition(4)))
    fresh = [FRESH if g is None else g for g in groups]
    assert with_null == _rows(run(rd.from_arrow(_table(fresh)).repartition(4)))
    assert any(FRESH in row for row in with_null)


def test_group_lookup_probes_null_as_one_group():
    t = pa.table({"g": pa.array(["b", None, "a", None, "b"])})
    codes, groups, lut = group_lookup(t, "g", {"a": 1, "b": 2, None: 3}, 0, np.int64)
    assert lut[codes].tolist() == [2, 3, 1, 3, 2]
    assert groups.to_pylist() == ["b", "a", None]
    codes, _, lut = group_lookup(t, "g", {"a": (1, 10)}, (0, 0), np.int64)
    assert lut[codes].tolist() == [[0, 0], [0, 0], [1, 10], [0, 0], [0, 0]]
    _, _, lut = group_lookup(t.slice(0, 0), "g", {"a": (1, 10)}, (0, 0), np.int64)
    assert lut.shape == (0, 2)


# -- guard -------------------------------------------------------------------

GUARDED = ["selection.py", "robust.py", "outlier.py", "rank.py"]


def _unique_loops(source: str) -> list[int]:
    """Line numbers of ``for … in np.unique(…)`` loops in ``source``."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if (
            isinstance(n, ast.For)
            and isinstance(n.iter, ast.Call)
            and isinstance(n.iter.func, ast.Attribute)
            and n.iter.func.attr == "unique"
        ):
            found.append(n.lineno)
    return found


def test_guard_finds_per_group_unique_loops():
    sources = [
        "for g in np.unique(groups):\n    keep |= groups == g\n",
        "def f(t):\n    for gv in np.unique(g):  # groups-in-batch\n        pass\n",
        "for l in numpy.unique(langs):\n    pass\n",
    ]
    for src in sources:
        assert _unique_loops(src), src
    assert not _unique_loops("u = np.unique(groups)\nfor c in range(len(u)):\n    pass\n")
    assert not _unique_loops("codes, groups, lut = group_lookup(t, 'g', m, 0)\n")


def test_probe_modules_have_no_per_group_unique_loop():
    root = Path(ddsketch_ruby_ray.__file__).parent / "pipelines"
    found = [
        f"{name}:{line}" for name in GUARDED for line in _unique_loops((root / name).read_text())
    ]
    assert not found, found
