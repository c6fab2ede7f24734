"""Fold-vs-native bench for the basket pair reduce at >=1M distinct pairs.

VERDICT round-3 task #2's done-criterion: show the library's keyed fold
(``fold.partitioned_group_sum``, a sum on ``fold.keyed_exchange``, the
exchange ``basket.py``'s pair reduce runs) beating Ray's native
``groupby("pk").sum()`` on an open-ended pair domain.  Synthesizes
baskets whose 2-itemset domain is ~N_PAIRS distinct packed keys, then
times ONLY the reduce strategies over the identical pair-partials table
(the generation and pair expansion are shared).

Usage: python tools/basket_bench.py [n_pairs_target] [num_cpus]
Prints one JSON line: {"distinct_pairs": ..., "fold_sec": ..., "native_sec": ...}
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

N_TARGET = int(sys.argv[1]) if len(sys.argv) > 1 else 1_500_000
NCPUS = int(sys.argv[2]) if len(sys.argv) > 2 else 16

import ray

ray.init(address="local", num_cpus=NCPUS, include_dashboard=False, logging_level="ERROR")
import ray.data as rd
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False

from ddsketch_ruby_ray.core.hashing import hash64_int
from ddsketch_ruby_ray.pipelines.fold import partitioned_group_sum

# synthesize pair partials directly: Zipf-ish pair keys over a domain sized
# so distinct count lands near the target, plus a count column — the exact
# shape basket.py's pair_partials emits after per-block pre-aggregation
ROWS = N_TARGET * 6


def gen(t: pa.Table) -> pa.Table:
    i = t.column("id").to_numpy(zero_copy_only=False)
    # skewed key draw: splitmix-derived, modulo a domain ~= target so that
    # ~63% of the domain is hit at 6x oversampling (birthday-ish), giving
    # >= 1M distinct keys at the default target
    h = hash64_int(i.astype(np.int64))
    pk = (h % np.uint64(int(N_TARGET * 1.6))).astype(np.int64)
    n = ((h >> np.uint64(32)) % np.uint64(5)).astype(np.int64) + 1
    return pa.table({"pk": pa.array(pk), "n": pa.array(n)})


base = (
    rd.range(ROWS, override_num_blocks=128)
    .map_batches(gen, batch_format="pyarrow", zero_copy_batch=True)
    .materialize()
)

# warm-up full fan-out
rd.range(500_000, override_num_blocks=NCPUS * 4).map_batches(lambda t: t).count()

t0 = time.perf_counter()
# the keyed exchange basket.py's pair reduce runs, summing per pk
fold_n = partitioned_group_sum(base, "pk", "n").count()
fold_sec = time.perf_counter() - t0
print(f"fold: {fold_sec:.1f}s, {fold_n} distinct pairs", file=sys.stderr)

t0 = time.perf_counter()
native_n = base.groupby("pk").sum("n").count()
native_sec = time.perf_counter() - t0
print(f"native: {native_sec:.1f}s, {native_n} groups", file=sys.stderr)

assert fold_n == native_n, (fold_n, native_n)
ray.shutdown()
print(
    json.dumps(
        {
            "distinct_pairs": fold_n,
            "partial_rows": ROWS,
            "num_cpus": NCPUS,
            "fold_sec": round(fold_sec, 2),
            "native_sec": round(native_sec, 2),
            "speedup": round(native_sec / fold_sec, 2),
        }
    )
)
