"""Connected components over a duplicate-pair table: dedup CLUSTERING.

The missing last step of a near-dup pipeline: verified pairs (a, b) are
edges of a similarity graph; each document's canonical representative is
the MINIMUM doc id of its connected component.  Ray Data has no iterative
graph primitive, so this is min-label propagation expressed as Dataset
shuffles - the honest distributed formulation, not a driver-side
union-find:

  per iteration (2 keyed shuffles, both partition-vectorized):
    1. attach labels to incident edges: union(label rows, edge rows keyed
       by endpoint) -> hash-partition groupby -> inside each partition one
       lexsort puts a node's label row at its segment head; a vectorized
       forward-fill emits (other_endpoint, candidate=label) messages;
    2. fold: union(messages, label rows) -> partition groupby -> per-node
       min via lexsort + minimum.reduceat -> new labels + changed flags.

  The driver reads ONE number per iteration (sum of changed) and stops at
  fixpoint or ``max_iters``; the labels table (one row per node appearing
  in any pair - proportional to duplicates, not corpus) is materialized
  per iteration into the OBJECT STORE so the lazy lineage doesn't re-run.

Converges in <= component diameter iterations; near-dup clusters are
star/clique shaped, so a handful in practice.  Deterministic: min is
order-free.  SQL-mirrorable with a recursive transitive-closure CTE.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.numeric import run_starts
from .fold import _part_of, keyed_exchange

__all__ = ["connected_components_pipeline"]


def connected_components_pipeline(
    pairs,
    *,
    a_col: str = "a",
    b_col: str = "b",
    num_partitions: int = 64,
    max_iters: int = 25,
):
    """Dataset[(a, b)] -> Dataset[(node, cluster)] for every node in pairs;
    ``cluster`` is the component's minimum node id."""

    def to_edges(t: pa.Table) -> pa.Table:
        a = t.column(a_col).to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column(b_col).to_numpy(zero_copy_only=False).astype(np.int64)
        e = pa.table(
            {
                "key": pa.array(np.concatenate([a, b])),
                "other": pa.array(np.concatenate([b, a])),
            }
        )
        # pre-tagged: the edges are materialized once and exchanged every
        # iteration, so no iteration pays an unfused route step
        return e.append_column("_part", pa.array(_part_of(e, ["key"], num_partitions)))

    # Partition count adapts to the EDGE count (num_partitions is the cap):
    # the labels/messages tables are proportional to duplicate pairs, not the
    # corpus, so a fixed 64-way split made every half-iteration of the old
    # sort exchange pay ~64 groupby+repartition tasks even when the whole
    # graph is a few KB (43 s at sf0.01 for a 47-cluster result).  One
    # partition per ~256k edge rows keeps per-task work meaningful at every
    # scale: a small graph's exchange runs one split and one fold task.
    # materialize first so count() doesn't re-run the (expensive) upstream
    # pair-generation lineage when the edges map executes below.
    pairs = pairs.materialize()
    n_edges = 2 * pairs.count()
    num_partitions = max(1, min(num_partitions, n_edges // 262_144 + 1))

    edges = pairs.map_batches(
        to_edges,
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()  # reused every iteration - pin the blocks once

    def init_labels(g: pa.Table) -> pa.Table:
        """Initial labels = LOCAL component minimum within this partition.

        Any component-member id is a valid starting label for min-label
        propagation, so pre-contracting each partition's subgraph (a few
        vectorized min-propagation + pointer-jump rounds over the local
        edges) costs one pass and removes every intra-partition round from
        the GLOBAL loop -- the classic local-contraction step; the global
        iterations then only resolve cross-partition merges."""
        k = g.column("key").to_numpy(zero_copy_only=False)
        o = g.column("other").to_numpy(zero_copy_only=False)
        nodes = np.unique(np.concatenate([k, o]))
        u = np.searchsorted(nodes, k)
        v = np.searchsorted(nodes, o)
        lab = np.arange(len(nodes), dtype=np.int64)
        while True:
            new = lab.copy()
            np.minimum.at(new, u, lab[v])
            np.minimum.at(new, v, lab[u])
            new = new[new]  # pointer jump: label of label
            if (new == lab).all():
                break
            lab = new
        part = g.column("_part")[0].as_py()
        # emit only this partition's OWN nodes (the key side; both edge
        # directions exist, so every node keys its home partition)
        mine = np.unique(u)
        return pa.table(
            {
                "node": pa.array(nodes[mine]),
                "label": pa.array(nodes[lab[mine]]),
                "_part": pa.array(np.full(len(mine), part, dtype=np.int32)),
            }
        )

    labels = keyed_exchange(
        edges, init_labels, num_partitions=num_partitions
    ).materialize()
    if labels.count() == 0:  # no pairs -> no clusters
        return labels.map_batches(
            lambda t: pa.table(
                {"node": t.column("node"), "cluster": t.column("label")}
            ),
            batch_format="pyarrow",
        )

    def propagate(g: pa.Table) -> pa.Table:
        """label + edge rows of one partition -> (node=other, cand) messages."""
        key = g.column("key").to_numpy(zero_copy_only=False)
        other = g.column("other").to_numpy(zero_copy_only=False)
        lab = g.column("lab").to_numpy(zero_copy_only=False)
        is_lab = g.column("is_lab").to_numpy(zero_copy_only=False)
        order = np.lexsort((1 - is_lab, key))  # label row first per key run
        k_s, o_s, l_s, il_s = key[order], other[order], lab[order], is_lab[order]
        new_key = run_starts(k_s)
        # broadcast each segment's HEAD label (the label row sorts first and
        # every key segment has exactly one) to its edge rows
        seg_id = np.cumsum(new_key) - 1
        seg_lab = l_s[new_key][seg_id]
        e = il_s == 0
        return pa.table({"node": pa.array(o_s[e]), "cand": pa.array(seg_lab[e])})

    def fold(g: pa.Table) -> pa.Table:
        """candidate messages + old label rows -> per-node min + changed."""
        node = g.column("node").to_numpy(zero_copy_only=False)
        cand = g.column("cand").to_numpy(zero_copy_only=False)
        is_old = g.column("is_old").to_numpy(zero_copy_only=False)
        order = np.lexsort((node,))
        n_s, c_s, io_s = node[order], cand[order], is_old[order]
        new_node = run_starts(n_s)
        starts = np.flatnonzero(new_node)
        mins = np.minimum.reduceat(c_s, starts)
        # the old label of each node (every node has exactly one is_old row)
        old = np.zeros(len(starts), dtype=np.int64)
        seg_id = np.cumsum(new_node) - 1
        old[seg_id[io_s == 1]] = c_s[io_s == 1]
        part = g.column("_part")[0].as_py()
        return pa.table(
            {
                "node": pa.array(n_s[starts]),
                "label": pa.array(mins),
                "changed": pa.array((mins < old).astype(np.int64)),
                "_part": pa.array(np.full(len(starts), part, dtype=np.int32)),
            }
        )

    def _lab_rows(labels):
        return labels.map_batches(
            lambda t: pa.table(
                {
                    "key": t.column("node"),
                    "other": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
                    "lab": t.column("label"),
                    "is_lab": pa.array(np.ones(t.num_rows, dtype=np.int8)),
                    "_part": t.column("_part"),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    def _half_iter(labels, rel_rows):
        """One min-label step along ``rel_rows`` (key, other, _part edge-like
        rows) -> (new labels, changed count)."""
        msgs = keyed_exchange(
            [_lab_rows(labels), rel_rows], propagate, num_partitions=num_partitions
        )
        msg_rows = msgs.map_batches(
            lambda t: pa.table(
                {
                    "node": t.column("node"),
                    "cand": t.column("cand"),
                    "is_old": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        old_rows = labels.map_batches(
            lambda t: pa.table(
                {
                    "node": t.column("node"),
                    "cand": t.column("label"),
                    "is_old": pa.array(np.ones(t.num_rows, dtype=np.int8)),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        folded = (
            keyed_exchange(
                [msg_rows, old_rows], fold, keys="node", num_partitions=num_partitions
            )
            .materialize()
        )
        changed = folded.sum("changed")
        # every consumer of labels projects (node, label, _part) explicitly,
        # so the changed column rides along without a second materialize
        return folded, changed

    edge_rel = edges.map_batches(
        lambda t: pa.table(
            {
                "key": t.column("key"),
                "other": t.column("other"),
                "lab": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
                "is_lab": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
                "_part": t.column("_part"),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()

    def _jump_rel(labels):
        """Pointer-jump relation: node listens to its CURRENT label's label
        (key = label(v), other = v) - path compression, O(log diameter)
        convergence instead of O(diameter)."""

        def rel(t: pa.Table) -> pa.Table:
            r = pa.table(
                {
                    "key": t.column("label"),
                    "other": t.column("node"),
                    "lab": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
                    "is_lab": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
                }
            )
            return r.append_column("_part", pa.array(_part_of(r, ["key"], num_partitions)))

        return labels.map_batches(rel, batch_format="pyarrow", zero_copy_batch=True)

    for _ in range(max_iters):
        labels, changed_n = _half_iter(labels, edge_rel)
        labels, changed_j = _half_iter(labels, _jump_rel(labels))
        if not changed_n and not changed_j:
            break

    return labels.map_batches(
        lambda t: pa.table(
            {"node": t.column("node"), "cluster": t.column("label")}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
