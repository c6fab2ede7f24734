"""Throughput and memory of the per-row byte kernels and of the grouped
DDSketch steps, without Ray.

Byte kernels: generates one seeded content column shaped like the benchmark
corpus (``perfbench/gen.py``; 30,000 rows is one ``lang_flagship`` input
file, ~29 MB) and runs each kernel on it in a fresh child process: the best
of ``--repeat`` calls gives MB/s of content, and the growth of the child's
peak RSS (``ru_maxrss``) over its value once it holds the column gives the
kernel's working memory.

``ddsketch_states``: for 10^3 and 10^5 groups, a fresh child process
builds 2M seeded lognormal values with uniform int64 group keys in 16
tables and times the three steps of the grouped sketch plan on one
DDSketch (alpha 0.01): ``SketchStateAccumulator`` over every table
(input rows/s), then ``StateBlockMerger`` and its ``finalize_groups`` over
the concatenated state table (state rows/s), and reports the state table's
rows and bytes per row.

    python tools/kernelbench.py [--rows 30000] [--seed 8101] [--repeat 5] [KERNEL ...]

Prints one JSON object per kernel (per group count for ``ddsketch_states``).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import os
import resource
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

KERNELS = ("hash256_str", "add_sha64", "derive_content_metrics", "hash64_str_fast",
           "ddsketch_states")
DD_ROWS, DD_TABLES = 2_000_000, 16
DD_GROUPS = (1_000, 100_000)


def _kernel(name: str):
    from ddsketch_ruby_ray.core.hashing import hash64_str_fast, hash256_str
    from ddsketch_ruby_ray.stages.derive import add_sha64, derive_content_metrics

    return {
        "hash256_str": lambda t: hash256_str(t.column("content"), lanes=2),
        "add_sha64": lambda t: add_sha64(t, content_col="content"),
        "derive_content_metrics": lambda t: derive_content_metrics(t, content_col="content"),
        "hash64_str_fast": lambda t: hash64_str_fast(t.column("content")),
    }[name]


def _measure(name: str, repeat: int, conn) -> None:
    """Child process: receive the column as Arrow IPC bytes and read it
    without a copy, so the peak RSS before the kernel is the column itself;
    then time the kernel and send back its result row."""
    sys.path.insert(0, _ROOT)
    import pyarrow as pa

    fn = _kernel(name)
    # raw reads into one buffer: Connection.recv_bytes would pass through a
    # second, transient copy and raise the baseline peak by a column
    buf = memoryview(bytearray(conn.recv()))
    got = 0
    while got < len(buf):
        got += os.readv(conn.fileno(), [buf[got:]])
    t = pa.ipc.open_stream(pa.py_buffer(buf)).read_all()
    # warm-up on a few rows: Arrow's allocator maps its first arena (~30 MB
    # of RSS) on first use, which is no kernel's working memory
    fn(t.slice(0, 100))
    base_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(t)
        best = min(best, time.perf_counter() - t0)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    mb = t.column("content").nbytes / 1e6
    conn.send(
        {
            "kernel": name,
            "rows": t.num_rows,
            "content_mb": round(mb, 2),
            "best_s": round(best, 4),
            "mb_per_s": round(mb / best, 1),
            "maxrss_delta_mb": round((peak_kb - base_kb) / 1024, 1),
            "repeat": repeat,
        }
    )


def _measure_dd(groups: int, seed: int, repeat: int, conn) -> None:
    """Child process: the grouped DDSketch steps at ``groups`` groups."""
    sys.path.insert(0, _ROOT)
    import numpy as np
    import pyarrow as pa

    from ddsketch_ruby_ray.functions.specs import DDSketchSpec
    from ddsketch_ruby_ray.stages.accumulate import SketchStateAccumulator, StateBlockMerger

    rng = np.random.default_rng(seed)
    g = rng.integers(0, groups, DD_ROWS)
    v = rng.lognormal(0.0, 1.0, DD_ROWS)
    tables = [pa.table({"g": g[i::DD_TABLES], "v": v[i::DD_TABLES]}) for i in range(DD_TABLES)]
    specs = [DDSketchSpec(on="v", name="s", relative_accuracy=0.01)]
    acc, merger = SketchStateAccumulator(specs, ("g",)), StateBlockMerger(specs, ("g",))

    def best(fn):
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
        return min(times), out

    acc_s, states = best(lambda: [acc(t) for t in tables])
    states = pa.concat_tables(states)
    merge_s, _ = best(lambda: merger(states))
    fin_s, _ = best(lambda: merger.finalize_groups(states))
    conn.send(
        {
            "kernel": "ddsketch_states",
            "groups": groups,
            "rows": DD_ROWS,
            "tables": DD_TABLES,
            "accumulate_s": round(acc_s, 4),
            "accumulate_mrows_per_s": round(DD_ROWS / acc_s / 1e6, 2),
            "state_rows": states.num_rows,
            "state_mb": round(states.nbytes / 1e6, 1),
            "state_bytes_per_row": round(states.nbytes / states.num_rows, 1),
            "merge_s": round(merge_s, 4),
            "merge_mstates_per_s": round(states.num_rows / merge_s / 1e6, 3),
            "finalize_s": round(fin_s, 4),
            "finalize_mstates_per_s": round(states.num_rows / fin_s / 1e6, 3),
            "repeat": repeat,
        }
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=30_000)
    ap.add_argument("--seed", type=int, default=8101)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("kernels", nargs="*", help=f"any of {', '.join(KERNELS)} (default: all)")
    args = ap.parse_args()
    if args.rows < 1 or args.repeat < 1:
        ap.error("--rows and --repeat must be positive")
    unknown = set(args.kernels) - set(KERNELS)
    if unknown:
        ap.error(f"unknown kernels: {sorted(unknown)}")

    ctx = mp.get_context("spawn")
    names = args.kernels or KERNELS
    for groups in DD_GROUPS if "ddsketch_states" in names else ():
        conn, child = ctx.Pipe()
        p = ctx.Process(target=_measure_dd, args=(groups, args.seed, args.repeat, child))
        p.start()
        res = conn.recv()
        p.join()
        print(json.dumps({**res, "seed": args.seed}), flush=True)
    names = [n for n in names if n != "ddsketch_states"]
    if not names:
        return

    # Start the children before generating: a child inherits its parent's
    # peak RSS at fork, and generating the column peaks well above it.
    children = []
    for name in names:
        conn, child = ctx.Pipe()
        p = ctx.Process(target=_measure, args=(name, args.repeat, child))
        p.start()
        children.append((conn, p))

    sys.path.insert(0, _ROOT)
    import pyarrow as pa

    from perfbench.gen import generate

    t = generate(args.seed, args.rows).select(["content"])
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    payload = sink.getvalue()
    for conn, p in children:  # one at a time: the others wait in recv()
        data = memoryview(payload)
        conn.send(len(data))
        sent = 0
        while sent < len(data):
            sent += os.write(conn.fileno(), data[sent:])
        res = conn.recv()
        p.join()
        print(json.dumps({**res, "seed": args.seed}), flush=True)


if __name__ == "__main__":
    main()
