"""The traced run: per-layer metrics, measured from outside the library.

Spans go around calls to the public functions of each layer (``core``,
``stages``, ``functions``, ``pipelines``, ``sources``, ``state``) and around
the driver's pull of the result.  Every per-layer metric is measured on
every workload's own input; a layer the workload's job does not use is
exercised directly on that input (see README.md for which ones), so the
metric shows the layer's speed there and is predicted not to move the
workload's end-to-end numbers.
"""

from __future__ import annotations

import dataclasses
import glob
import inspect
import os
import re
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from perfbench.run import NUM_CPUS, WORK

PROBE_MIN_S = 0.2  # a kernel rate repeats its call until at least this long

UNITS = {
    "core.dd_add_mvals_per_s": "Mval/s",
    "core.dd_merge_per_s": "1/s",
    "core.dd_state_roundtrip_per_s": "1/s",
    "core.dd_state_bytes": "B",
    "core.dd_quantile_per_s": "1/s",
    "core.hash_mvals_per_s": "Mval/s",
    "stages.derive_s": "s",
    "stages.sha64_s": "s",
    "stages.accumulate_s": "s",
    "stages.rows_per_s": "rows/s",
    "stages.state_rows_per_mrow": "count",
    "stages.block_merge_s": "s",
    "functions.merge_agg_s": "s",
    "pipelines.map_stage_s": "s",
    "pipelines.map_stage_busy_frac": "ratio",
    "pipelines.merge_stage_s": "s",
    "pipelines.exchange_rows_per_mrow": "count",
    "pipelines.exchange_bytes_per_row": "B",
    "sources.read_s": "s",
    "ray.floor_s": "s",
    "ray.groupby_floor_s": "s",
    "state.commit_s": "s",
    "state.commit_bytes": "B",
    "state.result_s": "s",
    "state.result_rows_read": "count",
    "driver.pull_rows": "count",
    "driver.pull_s": "s",
}

_BYTES = re.compile(r"Output size bytes per block: .*?, (\d+) total")
_COALESCE = re.compile(r"RepartitionReduce: \d+ tasks executed, (\d+) blocks produced")


def parse_ops(stats: str) -> list[dict]:
    """``parse_stage_metrics`` records of ``Dataset.stats()`` plus each
    operator's output bytes and whether it is an all-to-all exchange (its
    header has no task count)."""
    from ddsketch_ruby_ray.state.metrics import parse_stage_metrics

    nbytes = {}
    for chunk in re.split(r"(?=Operator \d+ )", stats):
        head, size = re.match(r"Operator (\d+) ", chunk), _BYTES.search(chunk)
        if head and size:
            nbytes[int(head.group(1))] = int(size.group(1))
    return [
        {**op, "bytes": nbytes.get(op["op_index"]), "exchange": op["tasks"] is None}
        for op in parse_stage_metrics(stats)
    ]


def exchange_in(ops: list[dict]) -> tuple[int, int]:
    """Rows and bytes entering the all-to-all operators (the output of the
    operator before each)."""
    rows = nbytes = 0
    for prev, op in zip(ops, ops[1:]):
        if op["exchange"]:
            rows += prev["rows_out"]
            nbytes += prev["bytes"]
    return rows, nbytes


def _rate(tracer, name: str, fn, ops_per_call: int) -> float:
    """Calls ``fn`` until PROBE_MIN_S has passed; -> operations per second."""
    calls = 0
    with tracer.span(name):
        t0 = time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= PROBE_MIN_S:
                break
    return calls * ops_per_call / elapsed


def one_shot(bench, out: dict, report: dict):
    """The workload's one-shot query over all its input, executed then
    pulled, with the operator split read from ``Dataset.stats()``."""
    from ddsketch_ruby_ray.pipelines import corpus_sketch_pipeline
    from perfbench import workloads

    tr, w = bench.tracer, bench.w
    with tr.span("job"):
        with tr.span("pipelines.execute"):
            ds = workloads.query_ds(w, bench.files).materialize()
        with tr.span("driver.pull"):
            result = workloads.pull(ds)
    bench.check(result)
    stats = ds.stats()
    ops = parse_ops(stats)
    job_s = tr.total("pipelines.execute")
    map_op = ops[0]
    ex_rows, ex_bytes = exchange_in(ops)
    out["pipelines.map_stage_s"] = map_op["wall_s"]
    out["pipelines.map_stage_busy_frac"] = map_op["cpu_s"] / (map_op["wall_s"] * NUM_CPUS)
    out["pipelines.merge_stage_s"] = max(job_s - map_op["wall_s"], 0.0)
    out["pipelines.exchange_rows_per_mrow"] = ex_rows / w.rows * 1e6
    out["pipelines.exchange_bytes_per_row"] = ex_bytes / w.rows
    out["driver.pull_rows"] = result.num_rows
    out["driver.pull_s"] = tr.total("driver.pull")
    report["operators"] = ops
    if w.group_keys:
        m = _COALESCE.search(stats)
        report["plan"] = {
            "corpus_sketch_pipeline.strategy": inspect.signature(corpus_sketch_pipeline)
            .parameters["strategy"].default,
            "merge_sketch_states.coalesce": f"auto -> {m.group(1) if m else '?'} blocks",
        }
    else:
        from ddsketch_ruby_ray.pipelines.dedup import exact_dedup_pipeline

        report["plan"] = {
            "exact_dedup_pipeline.num_partitions": inspect.signature(exact_dedup_pipeline)
            .parameters["num_partitions"].default,
        }
    return tr.total("job")


def state_sample(ck_dir: str, entry: dict, t_commit: float, t_result: float) -> dict:
    """state.* of one ``CheckpointedRun`` commit (its manifest ``entry``)
    and the result that followed it."""
    from perfbench import workloads

    files = glob.glob(os.path.join(ck_dir, "run-*", "*.parquet"))
    return {
        "state.commit_s": t_commit,
        "state.commit_bytes": workloads.commit_bytes(ck_dir, entry),
        "state.result_s": t_result,
        "state.result_rows_read": sum(pq.ParquetFile(f).metadata.num_rows for f in files),
    }


def state_layer(bench, out: dict) -> None:
    """state.*: one ``CheckpointedRun`` commit of all the input (keyed by
    ``lang`` for the dedup workload) and one result over it."""
    from perfbench import workloads

    tr, w = bench.tracer, bench.w
    ck = os.path.join(bench.work, "ck-trace")
    keyed = w if w.group_keys else dataclasses.replace(w, group_keys=("lang",))
    run = workloads.checkpointed_run(keyed, ck)
    t0 = time.perf_counter()
    with tr.span("state.commit"):
        entry = run.process(bench.files)
    t1 = time.perf_counter()
    with tr.span("state.result"):
        workloads.pull(run.result())
    out.update(state_sample(ck, entry, t1 - t0, time.perf_counter() - t1))


def ray_floors(bench, out: dict) -> None:
    from perfbench import workloads

    tr, w = bench.tracer, bench.w
    keys = list(w.group_keys or ("lang",))
    with tr.span("sources.read"):
        ds = workloads.read(w, bench.files).materialize()
    del ds
    with tr.span("ray.floor"):
        workloads.read(w, bench.files).map_batches(
            lambda t: t, batch_format="pyarrow", zero_copy_batch=True
        ).count()
    with tr.span("ray.groupby_floor"):
        from ddsketch_ruby_ray.pipelines import read_corpus

        read_corpus(bench.files, keys, num_blocks=len(bench.files)).groupby(keys).count().materialize()
    out["sources.read_s"] = tr.total("sources.read")
    out["ray.floor_s"] = tr.total("ray.floor")
    out["ray.groupby_floor_s"] = tr.total("ray.groupby_floor")


def kernels(bench, out: dict) -> None:
    """core, stages and functions on the driver, without Ray, over the
    workload's input (one call per input file, as one read task would)."""
    from ddsketch_ruby_ray.core import DDSketch
    from ddsketch_ruby_ray.core.hashing import hash256_str
    from ddsketch_ruby_ray.functions.aggregates import SketchStateMergeAgg
    from ddsketch_ruby_ray.stages import derive_content_metrics
    from ddsketch_ruby_ray.stages.accumulate import SketchStateAccumulator, StateBlockMerger
    from ddsketch_ruby_ray.stages.derive import add_sha64
    from perfbench import workloads

    tr, w = bench.tracer, bench.w
    keys = tuple(w.group_keys or ("lang",))
    specs = workloads.sketch_specs()
    acc = SketchStateAccumulator(specs, keys)
    states, values, hashed = [], [], 0
    for f in bench.files:
        t = pq.read_table(f, columns=list(keys) + ["content"])
        with tr.span("stages.derive"):
            d = derive_content_metrics(t, content_col="content")
        with tr.span("stages.sha64"):
            d = add_sha64(d, content_col="content")
        d = d.drop_columns(["content"])
        with tr.span("stages.accumulate"):
            states.append(acc(d))
        with tr.span("core.hash256_str"):
            hash256_str(t.column("content"), lanes=2)
        hashed += t.num_rows
        values.append(d.column("content_bytes").to_numpy())
    stage_s = sum(tr.total(n) for n in ("stages.derive", "stages.sha64", "stages.accumulate"))
    out["stages.derive_s"] = tr.total("stages.derive")
    out["stages.sha64_s"] = tr.total("stages.sha64")
    out["stages.accumulate_s"] = tr.total("stages.accumulate")
    out["stages.rows_per_s"] = w.rows / stage_s
    out["core.hash_mvals_per_s"] = hashed / tr.total("core.hash256_str") / 1e6

    state_table = pa.concat_tables(states)
    out["stages.state_rows_per_mrow"] = state_table.num_rows / w.rows * 1e6
    with tr.span("stages.block_merge"):
        StateBlockMerger(specs, keys)(state_table)
    out["stages.block_merge_s"] = tr.total("stages.block_merge")

    # per-group row slices of the state table, halved so combine() runs too
    numbered = state_table.append_column("_i", pa.array(np.arange(state_table.num_rows)))
    groups = numbered.group_by(list(keys)).aggregate([("_i", "list")]).column("_i_list").to_pylist()

    def take(rows):
        return state_table.take(pa.array(rows, type=pa.int64()))

    halves = [(take(g[: len(g) // 2 or 1]), take(g[len(g) // 2 or 1 :])) for g in groups]
    with tr.span("functions.merge_agg"):
        for spec in specs:
            agg = SketchStateMergeAgg(spec)
            for a, b in halves:
                acc = agg.aggregate_block(a)
                if b.num_rows:
                    acc = agg.combine(acc, agg.aggregate_block(b))
                agg.finalize(acc)
    out["functions.merge_agg_s"] = tr.total("functions.merge_agg")

    vals = np.concatenate(values).astype(np.float64)
    out["core.dd_add_mvals_per_s"] = (
        _rate(tr, "core.dd_add_batch", lambda: DDSketch(workloads.ALPHA).add_batch(vals), len(vals)) / 1e6
    )
    col = state_table.column("bytes").to_pylist()
    per_group = [[DDSketch.from_state(col[i]) for i in g] for g in groups]
    n_merges = sum(len(g) - 1 for g in per_group)

    def merge_all():
        merged = []
        for g in per_group:
            m = g[0]
            for sk in g[1:]:
                m = m.merged_with(sk)
            merged.append(m)
        return merged

    merged = merge_all()
    out["core.dd_merge_per_s"] = _rate(tr, "core.dd_merge", merge_all, max(n_merges, 1))
    out["core.dd_state_roundtrip_per_s"] = _rate(
        tr, "core.dd_state_roundtrip",
        lambda: [DDSketch.from_state(sk.to_state()) for sk in merged], len(merged),
    )
    spec = specs[0]
    out["core.dd_state_bytes"] = (
        pa.array([spec.to_state(sk) for sk in merged], type=spec.state_type()).nbytes / len(merged)
    )
    qs = workloads.QUANTILES
    out["core.dd_quantile_per_s"] = _rate(
        tr, "core.dd_quantile",
        lambda: [sk.get_quantile_value(q) for sk in merged for q in qs], len(merged) * len(qs),
    )


def traced_run(bench, untraced_job_s: float) -> tuple[dict, dict]:
    """-> (per-layer metrics, report with self times, floor + work, tracing
    overhead and the plan labels)."""
    tr = bench.tracer
    tr.enabled = True
    out: dict = {}
    report: dict = {}
    traced_job_s = one_shot(bench, out, report)
    step_s = bench.traced_state(out)
    if step_s is not None:  # incremental_ingest: the job is one commit + query step
        traced_job_s = step_s
    ray_floors(bench, out)
    kernels(bench, out)
    missing = set(UNITS) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")

    floor = out["ray.floor_s"]
    path = os.path.join(WORK, "spans", f"{tr.run_id}.jsonl")
    tr.write(path)
    report.update(
        spans_file=os.path.relpath(path, os.path.dirname(WORK)),
        self_s=tr.self_times(),
        floor_plus_work=f"{bench.w.name}: job {untraced_job_s:.4f} s = ray.floor_s {floor:.4f} "
        f"+ work {untraced_job_s - floor:.4f}",
        untraced_job_s=untraced_job_s,
        traced_job_s=traced_job_s,
        tracing_overhead_s=traced_job_s - untraced_job_s,
    )
    return {k: {"value": float(out[k]), "unit": UNITS[k]} for k in UNITS}, report
