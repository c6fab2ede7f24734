#!/usr/bin/env python
"""Measure the PageRank broadcast<->shuffle crossover (VERDICT r4 #6).

``pagerank_pipeline`` flips from the broadcast plan (rank state
on the driver, shuffle-free iterations) to the fully-distributed shuffle plan
at ``max_broadcast_nodes``.  Round 4 asserted that constant; this tool
MEASURES it: fixed 32M-edge graphs over a sweep of node-id domains, both
plans timed in fresh Ray child processes at the 16-cpu level of the scaling
protocol, best-of-2 each.

Usage:
    python tools/graph_crossover.py               # sweep + summary JSON
    python tools/graph_crossover.py --child broadcast|shuffle <n_nodes> <cpus>

The corpus input is the bench scaling corpus (/tmp, synthesized once by
bench.py --scaling-dedup); edges derive per-row exactly like bench's graph
job, with the node domain as the sweep variable.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

ROWS = int(os.environ.get("GRAFT_CROSSOVER_ROWS", "16000000"))
CPUS = int(os.environ.get("GRAFT_CROSSOVER_CPUS", "16"))
NODE_SWEEP = tuple(
    int(x)
    for x in os.environ.get(
        "GRAFT_CROSSOVER_NODES", "1000000,2000000,4000000,8000000,16000000"
    ).split(",")
)


# max_broadcast_nodes that forces each plan
_CAP = {"broadcast": 1 << 62, "shuffle": 0}


def _corpus_path() -> str:
    return f"/tmp/graft_scaling_corpus_{ROWS}_128"


def _child(mode: str, n_nodes: int, cpus: int) -> None:
    # running as a script puts tools/ (not the repo root) on sys.path
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import numpy as np
    import pyarrow as pa
    import ray

    ray.init(
        address="local", num_cpus=cpus, include_dashboard=False, logging_level="ERROR"
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import pyarrow.compute as pc

    from ddsketch_ruby_ray.core.hashing import hash64_int
    from ddsketch_ruby_ray.pipelines.corpus import read_corpus
    from ddsketch_ruby_ray.pipelines.graph import pagerank_pipeline

    # warm the worker pool off the clock (bench.py convention)
    import ray.data as rd

    rd.range(500_000, override_num_blocks=cpus * 4).map_batches(
        lambda t: t, batch_format="pyarrow"
    ).count()

    nodes_u = np.uint64(n_nodes)

    def to_edges(t: pa.Table) -> pa.Table:
        digits = pc.replace_substring_regex(
            t.column("path"), pattern=r"\D+", replacement=""
        )
        ids = pc.cast(digits, pa.int64()).to_numpy(zero_copy_only=False)
        h = hash64_int(ids.astype(np.int64))
        h2 = hash64_int(h.astype(np.int64), seed=1)
        h3 = hash64_int(h.astype(np.int64), seed=2)
        src = np.concatenate([h % nodes_u, h2 % nodes_u]).astype(np.int64)
        dst = np.concatenate([h2 % nodes_u, h3 % nodes_u]).astype(np.int64)
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    best = float("inf")
    out_rows = 0
    for _ in range(2):  # best-of-2 (CPU-steal variance)
        edges = read_corpus(_corpus_path(), ["path"]).map_batches(
            to_edges, batch_format="pyarrow", zero_copy_batch=True
        )
        t0 = time.perf_counter()
        out_rows = pagerank_pipeline(edges, iters=3, max_broadcast_nodes=_CAP[mode]).count()
        best = min(best, time.perf_counter() - t0)
    ray.shutdown()
    print(json.dumps({"sec": best, "out_rows": out_rows}))


def main() -> None:
    if "--child" in sys.argv:
        i = sys.argv.index("--child")
        _child(sys.argv[i + 1], int(sys.argv[i + 2]), int(sys.argv[i + 3]))
        return
    if not os.path.exists(os.path.join(_corpus_path(), "_DONE")):
        raise SystemExit(
            f"corpus {_corpus_path()} missing - run bench.py --scaling-dedup once"
        )
    results: dict[str, dict[str, float]] = {}
    for n in NODE_SWEEP:
        row: dict[str, float] = {}
        for mode in ("broadcast", "shuffle"):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child", mode, str(n), str(CPUS)],
                capture_output=True,
                text=True,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            if proc.returncode != 0:
                raise RuntimeError(f"{mode}@{n}: {proc.stderr[-2000:]}")
            row[mode] = json.loads(proc.stdout.strip().splitlines()[-1])["sec"]
        row["broadcast_advantage"] = row["shuffle"] / row["broadcast"]
        results[str(n)] = row
        print(json.dumps({"nodes": n, **{k: round(v, 3) for k, v in row.items()}}))
    print(
        json.dumps(
            {
                "metric": "pagerank broadcast vs shuffle crossover",
                "edges": 2 * ROWS,
                "cpus": CPUS,
                "sweep": results,
            }
        )
    )


if __name__ == "__main__":
    main()
