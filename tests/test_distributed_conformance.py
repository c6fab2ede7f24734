"""END-TO-END distributed conformance: the reference's distribution corpus
run through the full Ray pipeline (every distribution is a group of one
table), across different block layouts, read as finalized results or as
merged sparse states decoded into core sketches.

This is the distributed strengthening of the reference's shared-examples
suite (shared_examples_for_sketch.rb:3-62): the same accuracy predicate
|q_est - q_true| - alpha*|q_true| <= 1e-15 must hold when accumulation is
split over blocks and merged through the shuffle - for any layout.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from .datasets import (
    DETERMINISTIC_SHAPES,
    TEST_QUANTILES,
    accuracy_ok,
    exponential,
    lognormal,
    true_quantile,
)

ALPHA = 0.05


def _conformance_table() -> tuple[pa.Table, dict]:
    """One table: (dist, value) with every shape at n=1000 + random fixtures."""
    frames = {}
    for name, fn in DETERMINISTIC_SHAPES.items():
        frames[name] = np.asarray(fn(1000), dtype=np.float64)
    frames["exponential"] = np.asarray(exponential(), dtype=np.float64)
    frames["lognormal"] = np.asarray(lognormal(), dtype=np.float64)
    dist = np.concatenate([[k] * len(v) for k, v in frames.items()])
    vals = np.concatenate(list(frames.values()))
    return (
        pa.table({"dist": pa.array(dist.tolist(), pa.string()), "v": pa.array(vals)}),
        frames,
    )


@pytest.mark.parametrize("output", ["results", "states"])
@pytest.mark.parametrize("blocks", [1, 13])
def test_distribution_corpus_through_pipeline(ray_session, output, blocks):
    import ray.data as rd

    from ddsketch_ruby_ray.functions.specs import DDSketchSpec, quantile_name
    from ddsketch_ruby_ray.pipelines import grouped_sketch_pipeline, merge_states, sketch_states

    tbl, frames = _conformance_table()
    ds = rd.from_arrow(tbl).repartition(blocks)
    qs = [q for q in TEST_QUANTILES]
    spec = DDSketchSpec(on="v", name="s", relative_accuracy=ALPHA, quantiles=qs)
    if output == "results":
        out = {r["dist"]: r for r in grouped_sketch_pipeline(ds, [spec], ("dist",)).take_all()}
    else:  # merged states through the exchange, finalized by the core sketch
        states = merge_states(sketch_states(ds, [spec], ("dist",)), [spec], ("dist",))
        out = {r["dist"]: spec.finalize(spec.from_state(r["s"])) for r in states.take_all()}

    for name, data in frames.items():
        row = out[name]
        assert row["count"] == len(data)
        assert row["min"] == data.min() and row["max"] == data.max()
        for q in qs:
            est = row[quantile_name(q)]
            true = true_quantile(data, q)
            assert accuracy_ok(est, true, ALPHA), (output, blocks, name, q, est, true)
