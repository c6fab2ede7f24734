"""Connected components over a duplicate-pair table: dedup CLUSTERING.

The missing last step of a near-dup pipeline: verified pairs (a, b) are
edges of a similarity graph; each document's canonical representative is
the MINIMUM doc id of its connected component.  Ray Data has no iterative
graph primitive, so this is min-label propagation expressed as Dataset
shuffles - the honest distributed formulation, not a driver-side
union-find:

  build: both directions of every pair, tagged by hash(endpoint), are
    pinned ONCE as per-partition object-store slices (graph.py's
    ``_pin_edge_slices``); one keyed exchange of the same rows gives every
    node its partition's LOCAL component minimum as a first label.

  per iteration, two half-steps of graph.py's vertex-program round:
    1. neighbor step: each node sends its label to its neighbors along
       the pinned slices (``_scatter``: one exchange of the label rows,
       the edges never re-ship), and each node keeps the minimum of its
       label and what it got (``_gather``: one exchange on node);
    2. pointer jump: each node v listens to its current label's label -
       the relation (label(v) -> v) changes every round, so it rides the
       label rows' exchange instead of being pinned - and keeps the
       minimum the same way.  Path compression: O(log diameter) rounds
       instead of O(diameter).

  The driver reads ONE number per half-step (sum of changed) and stops at
  fixpoint or ``max_iters``; the labels table (one row per node appearing
  in any pair - proportional to duplicates, not corpus) is materialized
  per half-step into the OBJECT STORE so the lazy lineage doesn't re-run.

Deterministic: min is order-free.  SQL-mirrorable with a recursive
transitive-closure CTE.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import fold
from .fold import _part_of, keyed_exchange
from .graph import _col, _gather, _pin_edge_slices, _scatter

__all__ = ["connected_components_pipeline"]

# Edge rows per partition, the one exchange in the library sized by its
# input instead of fold._PARTITIONS (which still caps it).  The
# labels/messages tables are proportional to duplicate pairs, not the
# corpus, so a fixed 64-way split made every half-iteration of the old sort
# exchange pay ~64 groupby+repartition tasks even when the whole graph is a
# few KB (43 s at sf0.01 for a 47-cluster result, measured on the sort
# exchange since replaced by the direct one).  One partition per ~256k edge
# rows keeps per-task work meaningful at every scale: a small graph's
# exchange runs one split and one fold task.  On the direct exchange,
# cc_components_graph at sf0.1 (1.2M edge rows, 4 CPUs, best of 3, two
# rounds) runs in 2.32 / 2.07 s on 5 partitions and 2.69 / 2.65 s on 64.
_EDGE_ROWS_PER_PART = 262_144


def connected_components_pipeline(
    pairs,
    *,
    a_col: str = "a",
    b_col: str = "b",
    max_iters: int = 25,
):
    """Dataset[(a, b)] -> Dataset[(node, cluster)] for every node in pairs;
    ``cluster`` is the component's minimum node id."""

    def to_edges(t: pa.Table) -> pa.Table:
        a = t.column(a_col).to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column(b_col).to_numpy(zero_copy_only=False).astype(np.int64)
        e = pa.table(
            {
                "src": pa.array(np.concatenate([a, b])),
                "dst": pa.array(np.concatenate([b, a])),
            }
        )
        return e.append_column("_part", pa.array(_part_of(e, ["src"], P)))

    # materialize first so count() doesn't re-run the (expensive) upstream
    # pair-generation lineage when the edges map executes below.
    pairs = pairs.materialize()
    n_edges = 2 * pairs.count()
    P = max(1, min(fold._PARTITIONS, n_edges // _EDGE_ROWS_PER_PART + 1))

    edges = pairs.map_batches(
        to_edges,
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()  # read by the build exchange and the pinning below

    def init_labels(g: pa.Table) -> pa.Table:
        """Initial labels = LOCAL component minimum within this partition.

        Any component-member id is a valid starting label for min-label
        propagation, so pre-contracting each partition's subgraph (a few
        vectorized min-propagation + pointer-jump rounds over the local
        edges) costs one pass and removes every intra-partition round from
        the GLOBAL loop -- the classic local-contraction step; the global
        iterations then only resolve cross-partition merges."""
        k = _col(g, "src")
        o = _col(g, "dst")
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
        # emit only this partition's OWN nodes (the src side; both edge
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
        edges, init_labels, num_partitions=P
    ).materialize()
    if labels.count() == 0:  # no pairs -> no clusters
        return labels.map_batches(
            lambda t: pa.table(
                {"node": t.column("node"), "cluster": t.column("label")}
            ),
            batch_format="pyarrow",
        )
    edge_refs = _pin_edge_slices(edges, ("src", "dst"), num_partitions=P)

    def label(t: pa.Table) -> np.ndarray:
        return _col(t, "label")

    def lower(cand: np.ndarray, old: np.ndarray) -> dict:
        return {"label": np.minimum(cand, old), "changed": (cand < old).astype(np.int64)}

    def half_step(labels, rel):
        """One min-label step along ``rel`` (pinned slices or relation
        rows) -> (new labels, changed count)."""
        msgs = _scatter(labels, rel, label, np.minimum, num_partitions=P)
        folded = _gather(
            msgs, labels, "label", np.minimum, lower, num_partitions=P
        )
        return folded, folded.sum("changed")

    def jump_rel(t: pa.Table) -> pa.Table:
        """Pointer-jump relation: node v listens to its CURRENT label's
        label (src = label(v), dst = v)."""
        r = pa.table({"src": t.column("label"), "dst": t.column("node")})
        return r.append_column("_part", pa.array(_part_of(r, ["src"], P)))

    for _ in range(max_iters):
        labels, changed_n = half_step(labels, edge_refs)
        labels, changed_j = half_step(
            labels,
            labels.map_batches(jump_rel, batch_format="pyarrow", zero_copy_batch=True),
        )
        if not changed_n and not changed_j:
            break

    return labels.map_batches(
        lambda t: pa.table(
            {"node": t.column("node"), "cluster": t.column("label")}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
