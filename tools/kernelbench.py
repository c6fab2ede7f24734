"""Throughput and memory of the per-row byte kernels, without Ray.

Generates one seeded content column shaped like the benchmark corpus
(``perfbench/gen.py``; 30,000 rows is one ``lang_flagship`` input file,
~29 MB) and runs each kernel on it in a fresh child process: the best of
``--repeat`` calls gives MB/s of content, and the growth of the child's peak
RSS (``ru_maxrss``) over its value once it holds the column gives the
kernel's working memory.

    python tools/kernelbench.py [--rows 30000] [--seed 8101] [--repeat 5] [KERNEL ...]

Prints one JSON object per kernel.
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

KERNELS = ("hash256_str", "add_sha64", "derive_content_metrics", "hash64_str_fast")


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

    # Start the children before generating: a child inherits its parent's
    # peak RSS at fork, and generating the column peaks well above it.
    ctx = mp.get_context("spawn")
    children = []
    for name in args.kernels or KERNELS:
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
