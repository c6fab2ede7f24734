"""Graph algorithms as Dataset shuffles: PageRank, SSSP (and BFS), triangle
counts and degree histograms, plus the vertex-program round that
PageRank, SSSP/BFS and connected components (cc.py) all iterate.

The reference (ddsketch-ruby) has no graph surface at all; these cover the
iterative-message-passing shapes a 100-TB corpus pipeline actually needs —
link-importance scoring (PageRank over, e.g., a web/click graph) and
seed-expansion (multi-source shortest paths: "everything within k hops of
a trusted set") — plus the two one-shot structure diagnostics.

Ray Data has no iterative primitive.  The iterative algorithms have two
plans each, picked by one argument, ``max_broadcast_nodes``: the node
state lives on the driver while the node count fits it (``0`` forces the
shuffle plan).

* Broadcast: the edge table is pinned once, and each iteration is one
  map over the pinned blocks against the broadcast node state.
* Shuffle: the node state is a hash-partitioned (node, ..., _part) table
  and never reaches the driver.  The static edge table is partitioned
  ONCE by hash(src) and pinned as per-partition dst-sorted object-store
  slices (:func:`_pin_edge_slices`).  Each iteration is one round of the
  Pregel shape (Malewicz et al., SIGMOD 2010), written once here:
  :func:`_scatter` exchanges only the O(nodes) state rows, and each
  partition sends messages along its pinned edges, reduced per dst
  before they leave it; :func:`_gather` exchanges the messages with the
  old state rows on ``node`` and hands each node's reduced message and
  old value to a per-algorithm ``update``.  PageRank sums messages,
  SSSP/BFS and CC take their minimum.

BFS is single-source-set shortest paths in which every edge weighs 1:
``bfs_hops_pipeline`` and ``sssp_pipeline`` run the same two frontier
plans (:func:`_sssp_broadcast`, :func:`_sssp_shuffle`); an edge table
without a ``w`` column has unit weights.

PageRank is EXACT fixed-point integer arithmetic, so any execution order
gives bit-identical ranks and the SQL mirror is plain unrolled CTEs:

  SCALE = 10^12;  r0(v) = SCALE // N
  r_{t+1}(v) = ((SCALE // N) * 15) // 100
             + (85 * (sum_{u->v} (r_t(u) // outdeg(u)) + dang_t // N)) // 100

with ``dang_t`` the summed rank of out-degree-0 nodes (standard dangling
redistribution) and ``//`` floor division of non-negative int64 — no
floats anywhere, no accumulation-order sensitivity.  All masses are
<= SCALE so ``85 * x`` stays far from int64 overflow.

SSSP distances (and BFS hop counts) are exact-int minima; min is
order-free, so they are deterministic for the same reason cc.py's
min-label propagation is.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.numeric import run_pairs, run_starts
from . import fold
from .fold import _as_dataset, _part_of, keyed_exchange, strict_key_int64

__all__ = [
    "pagerank_pipeline",
    "bfs_hops_pipeline",
    "sssp_pipeline",
    "triangle_count_pipeline",
    "degree_histogram_pipeline",
]

PR_SCALE = 10**12

# default broadcast cap, MEASURED (tools/graph_crossover.py, 32M edges,
# 16 cpus, best-of-2 fresh children): broadcast beats the shuffle plan at
# EVERY swept node count — 2.89x at 1M nodes decaying ~0.2x per doubling to
# 1.91x at 16M with the round-4 build; the round-5 fused-meta build WIDENS
# it (re-measured endpoints: 3.5x at 1M, 2.10x at 16M) — so the wall-time
# crossover extrapolates to ~300M nodes and
# the binding constraint is DRIVER MEMORY for the O(nodes) rank state
# (~32 B/node of arrays + an O(nodes) broadcast per iteration).  16M nodes
# ~ 0.5 GB driver state: comfortable; past that the shuffle plan keeps
# state distributed.  Sweep table in BASELINE.md.
_MAX_BROADCAST_NODES = 16_000_000

def _node_part(nodes: np.ndarray, P: int) -> np.ndarray:
    """``_part_of`` of an int64 node-id array that is not a shipped column
    (the packed exchanges route on ids packed into one lane).  ``P`` is
    ``fold._PARTITIONS`` as the caller read it on the driver: this runs in
    worker-side maps, where the module is imported afresh."""
    return _part_of(pa.table({"n": nodes}), ["n"], P)


class PackedIdOverflow(Exception):
    """An id fell outside [0, 2^31) — the packed edge exchange cannot run."""


def _pack_pair(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """(hi, lo) int64 pair -> one int64 key, after validating both ids fit
    [0, 2^31).  Packing HALVES every edge exchange's bytes and turns the
    reduce's lexsort into one single-key sort; ids wider than 31 bits raise
    :class:`PackedIdOverflow` loudly (callers fall back to the two-column
    plan) instead of silently colliding."""
    if hi.size:
        m = min(int(hi.min()), int(lo.min()))
        M = max(int(hi.max()), int(lo.max()))
        if m < 0 or M >= 1 << 31:
            raise PackedIdOverflow(
                f"edge ids outside [0, 2^31): min={m} max={M}"
            )
    return (hi << np.int64(32)) | lo


def _edge_ids(t: pa.Table, src_col: str, dst_col: str):
    """-> (src, dst) int64 numpy arrays; a NULL endpoint raises a
    ``ValueError`` that names its column instead of becoming a node."""
    return (
        strict_key_int64(t.column(src_col), name=src_col),
        strict_key_int64(t.column(dst_col), name=dst_col),
    )


def _distinct_edges(edges, *, src_col: str, dst_col: str):
    """-> materialized Dataset[(src, dst, _part)] with exact (src, dst)
    dedup; partitioned by hash(src) so a src's whole adjacency list is one
    partition (dedup is therefore global, and propagation needs no second
    shuffle of edges — ever).

    The exchange ships one (src<<32|dst) int64 per edge instead of two
    int64 columns — half the exchange bytes, one single-key sort in the
    fold, bit-identical output (packed ascending == lexsort((dst, src))).
    Packing needs ids in [0, 2^31): on :class:`PackedIdOverflow` the
    packed exchange aborts and the two-column plan runs instead."""
    P = fold._PARTITIONS

    def norm_packed(t: pa.Table) -> pa.Table:
        s, d = _edge_ids(t, src_col, dst_col)
        return pa.table(
            {
                "pk": pa.array(_pack_pair(s, d)),
                "_part": pa.array(_node_part(s, P)),
            }
        )

    def dedup_packed(g: pa.Table) -> pa.Table:
        pk = np.sort(g.column("pk").to_numpy(zero_copy_only=False))
        keep = run_starts(pk)
        pk = pk[keep]
        part = g.column("_part")[0].as_py() if g.num_rows else 0
        return pa.table(
            {
                "src": pa.array(pk >> np.int64(32)),
                "dst": pa.array(pk & np.int64(0x7FFFFFFF)),
                "_part": pa.array(np.full(pk.size, part, dtype=np.int32)),
            }
        )

    def norm(t: pa.Table) -> pa.Table:
        s, d = _edge_ids(t, src_col, dst_col)
        return pa.table({"src": pa.array(s), "dst": pa.array(d)})

    def dedup(g: pa.Table) -> pa.Table:
        s = g.column("src").to_numpy(zero_copy_only=False)
        d = g.column("dst").to_numpy(zero_copy_only=False)
        order = np.lexsort((d, s))
        s_s, d_s = s[order], d[order]
        keep = run_starts(s_s, d_s)
        part = g.column("_part")[0].as_py() if g.num_rows else 0
        return pa.table(
            {
                "src": pa.array(s_s[keep]),
                "dst": pa.array(d_s[keep]),
                "_part": pa.array(
                    np.full(int(keep.sum()), part, dtype=np.int32)
                ),
            }
        )

    try:
        return keyed_exchange(
            edges.map_batches(
                norm_packed, batch_format="pyarrow", zero_copy_batch=True
            ),
            dedup_packed,
        ).materialize()
    except Exception as e:  # RayTaskError wraps the original
        if "PackedIdOverflow" not in repr(e) + str(e):
            raise
    return keyed_exchange(
        edges.map_batches(norm, batch_format="pyarrow", zero_copy_batch=True),
        dedup,
        keys="src",
    ).materialize()


def _node_states(dedup_edges):
    """-> (materialized Dataset[(node, outdeg, _part)] over ALL endpoint
    nodes, node count N).  outdeg = distinct-dst out-degree, 0 for sinks."""

    def endpoints(t: pa.Table) -> pa.Table:
        s = t.column("src").to_numpy(zero_copy_only=False)
        d = t.column("dst").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": pa.array(np.concatenate([s, d])),
                # src endpoints each carry 1 unit of out-degree (edges
                # are already distinct), dst endpoints carry 0
                "deg1": pa.array(
                    np.concatenate(
                        [
                            np.ones(s.size, np.int64),
                            np.zeros(d.size, np.int64),
                        ]
                    )
                ),
            }
        )

    def fold(g: pa.Table) -> pa.Table:
        n = g.column("node").to_numpy(zero_copy_only=False)
        d1 = g.column("deg1").to_numpy(zero_copy_only=False)
        order = np.argsort(n, kind="stable")
        n_s, d_s = n[order], d1[order]
        new = run_starts(n_s)
        starts = np.flatnonzero(new)
        part = g.column("_part")[0].as_py()
        return pa.table(
            {
                "node": pa.array(n_s[starts]),
                "outdeg": pa.array(np.add.reduceat(d_s, starts)),
                "_part": pa.array(np.full(len(starts), part, dtype=np.int32)),
            }
        )

    states = keyed_exchange(
        dedup_edges.map_batches(
            endpoints, batch_format="pyarrow", zero_copy_batch=True
        ),
        fold,
        keys="node",
    ).materialize()
    return states, states.count()


def _pin_edge_slices(part_ds, columns: tuple, *, num_partitions: int | None = None) -> dict:
    """Split a materialized ``_part``-partitioned edge Dataset (``_part`` in
    ``[0, P)``) into per-partition object-store tables of ``columns``
    sorted by ``dst`` — ``{part: [ObjectRef, ...]}``.  P is
    ``fold._PARTITIONS`` unless ``num_partitions`` is given: connected
    components sizes its rounds by its edge count (``cc.py``), and this and
    the round's two halves are the only helpers that carry its count.

    :func:`_scatter` gathers these slices BY REF inside its per-partition
    tasks, so each iteration exchanges only the O(nodes) state rows; the
    edge bytes never ride a shuffle again.  On a multi-node cluster the
    first gather pulls a slice to the consuming node and the object store
    retains the secondary copy, so later rounds read locally.  Driver
    memory is O(partitions) refs, never edge rows.
    Ownership: the slices come back as task RETURN VALUES (one return
    slot per partition), so every ref is owned by the CALLER.  The
    previous shape did ``ray.put`` INSIDE the task, which pinned each
    slice to the transient worker that created it — an idle-reaped or
    OOM-killed worker would take its slices down with it mid-iteration
    (OwnerDiedError) on a long-running cluster.
    """
    import ray

    @ray.remote
    def split(tbl: pa.Table, P: int):
        if tbl.num_rows == 0:
            # the keyed exchange's one block when no partition got a row
            # has no schema (fold.py) — type it (edge lanes are int64)
            empty = pa.table({c: pa.array([], pa.int64()) for c in columns})
            return empty if P == 1 else tuple([empty] * P)
        prt = _col(tbl, "_part")
        # sort by (_part, dst) in two passes, then one cut per partition
        # (a two-key lexsort measured 1.8x slower on 1M-row blocks)
        o = np.argsort(_col(tbl, "dst"))
        o = o[np.argsort(prt[o], kind="stable")]
        cut = np.searchsorted(prt[o], np.arange(P + 1))
        cols = {c: _col(tbl, c)[o] for c in columns}
        out = [
            pa.table({c: pa.array(v[lo:hi]) for c, v in cols.items()})
            for lo, hi in zip(cut[:-1], cut[1:])
        ]
        return out[0] if P == 1 else tuple(out)

    P = fold._PARTITIONS if num_partitions is None else num_partitions
    refs: dict[int, list] = {}
    for r in part_ds.to_arrow_refs():
        slot_refs = split.options(num_returns=P).remote(r, P)
        if P == 1:
            slot_refs = [slot_refs]
        for p, ref in enumerate(slot_refs):
            refs.setdefault(p, []).append(ref)
    return refs


def _col(t: pa.Table, name: str) -> np.ndarray:
    return t.column(name).to_numpy(zero_copy_only=False)


# the value a node's reduced message takes when no message reached it
_IDENTITY = {np.add: 0, np.minimum: np.iinfo(np.int64).max}


def _scatter(state, edges, value, reduce, *, num_partitions: int | None = None):
    """Scatter half of one vertex-program round: every node of ``state``
    sends ``value`` along its out-edges, and each partition reduces its
    messages per dst with the ufunc ``reduce`` before they leave it.

    ``state`` is the (node, ..., _part) state table, tagged by
    hash(node); ``value`` maps one partition's state rows to each node's
    int64 message.  An edge with a ``w`` column adds its weight to the
    message (min-plus relaxation).  ``edges`` is either the slices of
    :func:`_pin_edge_slices`, gathered by ref inside each partition's
    task, or a Dataset of (src, dst, _part) relation rows, tagged by
    hash(src), that rides the state's exchange (a relation that changes
    every round).  A message from a src with no state row is not sent.
    -> Dataset[(node, msg)], one row per (edge slice, dst)."""
    import ray

    pinned = isinstance(edges, dict)
    inputs = [state]
    if not pinned:

        def tag_state(t: pa.Table) -> pa.Table:
            n = t.num_rows
            return pa.table(
                {
                    "src": t.column("node"),
                    "dst": pa.array(np.zeros(n, dtype=np.int64)),
                    "msg": pa.array(value(t)),
                    "is_state": pa.array(np.ones(n, dtype=np.int8)),
                    "_part": t.column("_part"),
                }
            )

        def tag_edge(t: pa.Table) -> pa.Table:
            n = t.num_rows
            return pa.table(
                {
                    "src": t.column("src"),
                    "dst": t.column("dst"),
                    "msg": pa.array(np.zeros(n, dtype=np.int64)),
                    "is_state": pa.array(np.zeros(n, dtype=np.int8)),
                    "_part": t.column("_part"),
                }
            )

        kw = dict(batch_format="pyarrow", zero_copy_batch=True)
        inputs = [state.map_batches(tag_state, **kw), edges.map_batches(tag_edge, **kw)]

    def send(node: np.ndarray, val: np.ndarray, et: pa.Table):
        """Per-dst reduced messages along one dst-sorted edge table."""
        src = _col(et, "src")
        if not src.size or not node.size:
            return None
        pos = np.minimum(np.searchsorted(node, src), node.size - 1)
        hit = node[pos] == src
        if not hit.any():
            return None
        if hit.all():
            hit = slice(None)  # every src sends (PageRank, CC): no copies
        dst = _col(et, "dst")[hit]  # the dst order survives the mask
        msg = val[pos[hit]]
        if "w" in et.column_names:
            msg = msg + _col(et, "w")[hit]
        starts = np.flatnonzero(run_starts(dst))
        return pa.table(
            {"node": pa.array(dst[starts]), "msg": pa.array(reduce.reduceat(msg, starts))}
        )

    def scatter(g: pa.Table) -> pa.Table:
        if pinned:
            node, val = _col(g, "node"), value(g)
            part = int(g.column("_part")[0].as_py())
            slices = (ray.get(ref) for ref in edges.get(part, []))
        else:
            st = _col(g, "is_state") == 1
            node, val = _col(g, "src")[st], _col(g, "msg")[st]
            rel = g.filter(pa.array(~st))
            slices = [rel.take(np.argsort(_col(rel, "dst"), kind="stable"))]
        o = np.argsort(node, kind="stable")
        node, val = node[o], val[o]
        outs = [m for m in (send(node, val, et) for et in slices) if m is not None]
        if not outs:
            return pa.table({"node": pa.array([], pa.int64()), "msg": pa.array([], pa.int64())})
        return pa.concat_tables(outs)

    return keyed_exchange(inputs, scatter, num_partitions=num_partitions)


def _gather(msgs, state, old_col: str, reduce, update, *, num_partitions: int | None = None):
    """Gather half of one vertex-program round: ONE keyed exchange on
    ``node`` of :func:`_scatter`'s messages and the old state rows.

    Per node, the messages reduce with the ufunc ``reduce`` (to its
    identity when none came), and ``update(agg, old)`` returns the new
    state's columns from that value and the node's old ``old_col`` (the
    identity for a node with no state row yet).  -> the new materialized
    state (node, <update's columns>, _part), tagged by hash(node) for the
    next scatter."""
    ident = _IDENTITY[reduce]

    def tag(col: str, is_old: int):
        # one value lane for both kinds of row: a message, or the old value
        return lambda t: pa.table(
            {
                "node": t.column("node"),
                "val": t.column(col),
                "is_old": pa.array(np.full(t.num_rows, is_old, dtype=np.int8)),
            }
        )

    kw = dict(batch_format="pyarrow", zero_copy_batch=True)
    rows = [msgs.map_batches(tag("msg", 0), **kw), state.map_batches(tag(old_col, 1), **kw)]

    def gather(g: pa.Table) -> pa.Table:
        node = _col(g, "node")
        o = np.argsort(node, kind="stable")
        node, val, is_old = node[o], _col(g, "val")[o], _col(g, "is_old")[o] == 1
        new = run_starts(node)
        starts = np.flatnonzero(new)
        prev = np.full(starts.size, ident, dtype=np.int64)
        prev[(np.cumsum(new) - 1)[is_old]] = val[is_old]
        val[is_old] = ident  # old values take no part in the reduce
        cols = update(reduce.reduceat(val, starts), prev)
        return pa.table(
            {
                "node": pa.array(node[starts]),
                **{c: pa.array(v) for c, v in cols.items()},
                "_part": pa.array(np.full(starts.size, g.column("_part")[0].as_py(), np.int32)),
            }
        )

    out = keyed_exchange(rows, gather, keys="node", num_partitions=num_partitions).materialize()
    # restart the stats lineage at this round's fold: a round's state
    # descends from the last one twice (messages and old rows), so the stats
    # tree that Ray Data summarizes after every execution would double per
    # round (minutes per execution past ~20 rounds)
    blocks = [b for bundle in out.iter_internal_ref_bundles() for b in bundle.blocks]
    return _as_dataset(blocks, None) if blocks else out


def pagerank_pipeline(
    edges,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    iters: int = 3,
    max_broadcast_nodes: int = _MAX_BROADCAST_NODES,
):
    """Dataset[(src, dst)] -> Dataset[(node, rank_fp)]: ``iters`` exact
    fixed-point PageRank iterations (damping 0.85, SCALE=1e12, dangling
    mass redistributed uniformly) over the DISTINCT directed edge set.

    Two physical plans with BIT-IDENTICAL output (exact integers):

    * broadcast, while the node count is at most ``max_broadcast_nodes`` —
      the Spark-classic shape: the (node, rank//outdeg) table broadcasts
      each iteration, the PINNED edge blocks emit block-pre-aggregated
      (dst, contribution) partials, and one thin keyed sum folds them.
      The edge table is NEVER re-shuffled.  Rank state is O(nodes) on the
      driver — right while the node table fits (a 2M-node rank array is
      48 MB).
    * shuffle, past the cap (``max_broadcast_nodes=0`` forces it) — fully
      distributed state: each iteration is one :func:`_scatter` of the
      rank rows over the PINNED per-partition edge slices and one
      :func:`_gather` that sums the contributions per node.  No per-node
      driver state."""
    if max_broadcast_nodes > 0:
        try:
            # fused build: dedup + dst-pinning in ONE full-edge exchange
            # (no _distinct_edges pass) — the fallback below rebuilds from
            # the raw edges, an acceptable cost for the exceptional path
            return _pagerank_broadcast(
                edges,
                src_col=src_col,
                dst_col=dst_col,
                iters=iters,
                max_nodes=max_broadcast_nodes,
            )
        except _TooManyNodes:
            pass  # node table too large to broadcast -> shuffle plan

    dedup = _distinct_edges(edges, src_col=src_col, dst_col=dst_col)
    n_edges = dedup.count()
    if n_edges == 0:
        return dedup.map_batches(
            lambda t: pa.table(
                {
                    "node": pa.array([], pa.int64()),
                    "rank_fp": pa.array([], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    states, n_nodes = _node_states(dedup)
    base_share = PR_SCALE // n_nodes  # SCALE // N, reused everywhere

    # attach the initial rank
    ranks = states.map_batches(
        lambda t: t.append_column(
            "r", pa.array(np.full(t.num_rows, base_share, dtype=np.int64))
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()
    edge_refs = _pin_edge_slices(dedup, ("src", "dst"))

    def contribution(t: pa.Table) -> np.ndarray:
        # a node with outdeg 0 is no edge's src, so its value is never sent
        return _col(t, "r") // np.maximum(_col(t, "outdeg"), 1)

    def dangling(t: pa.Table) -> pa.Table:
        d = _col(t, "r")[_col(t, "outdeg") == 0].sum()
        return pa.table({"d": pa.array([int(d)], pa.int64())})

    base = (base_share * 15) // 100
    for _ in range(iters):
        # one driver scalar per iteration: the dangling mass (cf. cc.py's
        # changed-count) — a single pass over the KB-per-node state table
        dang = ranks.map_batches(
            dangling, batch_format="pyarrow", zero_copy_batch=True
        ).sum("d")
        dang_share = int(dang) // n_nodes
        msgs = _scatter(ranks, edge_refs, contribution, np.add)
        ranks = _gather(
            msgs,
            ranks,
            "outdeg",
            np.add,
            lambda in_sum, outdeg, dang_share=dang_share: {
                "outdeg": outdeg,
                "r": base + (85 * (in_sum + dang_share)) // 100,
            },
        )

    return ranks.map_batches(
        lambda t: pa.table(
            {"node": t.column("node"), "rank_fp": t.column("r")}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


class _TooManyNodes(Exception):
    """A broadcast plan's driver-side node table outgrew the caller's cap."""


def _pagerank_broadcast(
    edges, *, src_col: str, dst_col: str, iters: int, max_nodes: int
):
    """Broadcast-rank PageRank (see pagerank_pipeline docstring).

    ONE full-edge exchange total, then shuffle-free iterations:

      build: dedup and dst-pinning are FUSED into a single all-to-all —
      identical (src, dst) pairs share their dst, so hash(dst)
      co-partitioning makes in-group adjacent dedup global, and the
      in-group lexsort (dst primary) doubles as the per-block dst sort
      the iterations need.  Each group also appends its post-dedup
      per-src degree PARTIALS as carrier rows (is_deg=1; a src's edges
      span blocks, so these are partial counts).  A second, far thinner
      keyed fold (O(min(E, nodes x parts)) small rows vs the 3-column
      edge table) sums the partials and yields one (node, outdeg) row
      per node; the driver collects only that O(nodes) table.  (The
      previous shape ran TWO full-edge exchanges — a src-partitioned
      dedup, then a dst re-pin — and measured build-exchange-bound at
      eff 0.67; fusing removed half the shuffled bytes and one of the
      two full-edge sorts.)

      iterate: one map over the pinned blocks — contribution lookup via a
      single searchsorted against the broadcast node array + reduceat
      over the presorted dst runs; each block's output IS the final
      per-dst in-sum for its partition; thin (node, sum) blocks collect
      via arrow refs and the exact-integer update runs vectorized on the
      driver.  No shuffle, no sort, ever again.

    (History: the first formulation shuffled per-block partials through a
    keyed fold every iteration — the three partial exchanges were the
    measured wall floor at 16M edges; the native groupby().sum() variant
    before it spent 60 s finalizing 1.7M groups; a separate node-states
    shuffle and an int32-index rewrite pass each added a barrier that
    cost more than it saved.)

    Raises :class:`_TooManyNodes` if the node table exceeds ``max_nodes``
    (rank state is O(nodes) on the driver and broadcast per iteration).
    """
    import ray
    import ray.data as rd

    P = fold._PARTITIONS

    def norm_dst_part(t: pa.Table) -> pa.Table:
        s, d = _edge_ids(t, src_col, dst_col)
        return pa.table({"src": pa.array(s), "dst": pa.array(d)})

    def dedup_sort(g: pa.Table) -> pa.Table:
        """One dst-partition: global dedup + dst sort + deg partials."""
        src = g.column("src").to_numpy(zero_copy_only=False)
        dst = g.column("dst").to_numpy(zero_copy_only=False)
        o = np.lexsort((src, dst))  # dst primary: the iteration sort order
        src, dst = src[o], dst[o]
        keep = run_starts(dst, src)
        src, dst = src[keep], dst[keep]
        deg_node, deg_val = np.unique(src, return_counts=True)
        return pa.table(
            {
                "dst": pa.array(np.concatenate([dst, deg_node])),
                "src": pa.array(np.concatenate([src, deg_val])),
                "is_deg": pa.array(
                    np.concatenate(
                        [
                            np.zeros(dst.size, dtype=np.int8),
                            np.ones(deg_node.size, dtype=np.int8),
                        ]
                    )
                ),
            }
        )

    _LO31 = np.int64(0x7FFFFFFF)

    def norm_dst_packed(t: pa.Table) -> pa.Table:
        """Packed fast path, ROUND-5 FUSED SHAPE: one exchange carries BOTH
        the block-deduped edges (pk = dst<<32|src, routed hash(dst)) AND the
        block's per-src distinct-dst deg PARTIALS (top-bit-marked
        pk = 2^63 | src<<31 | cnt, routed hash(src)).  The separate outdeg
        meta exchange — a second 29M-row sort-shuffle plus a full reread of
        the pinned blocks to feed it — disappears: every fact about node n
        (its deg partials AND its appearances as dst) lands in partition
        hash(n) of THIS exchange.  Raises :class:`PackedIdOverflow` for ids
        outside [0, 2^31); cnt < 2^31 because it counts distinct dst ids."""
        s, d = _edge_ids(t, src_col, dst_col)
        u = np.unique(_pack_pair(d, s))  # block-local dedup (sorted)
        dd = u >> np.int64(32)
        ss = u & _LO31
        part_e = _node_part(dd, P)
        sn, cnt = np.unique(ss, return_counts=True)
        ppk = (
            (np.uint64(1) << np.uint64(63))
            | (sn.astype(np.uint64) << np.uint64(31))
            | cnt.astype(np.uint64)
        ).view(np.int64)
        part_p = _node_part(sn, P)
        return pa.table(
            {
                "pk": pa.array(np.concatenate([u, ppk])),
                "_part": pa.array(np.concatenate([part_e, part_p])),
            }
        )

    def dedup_sort_packed(g: pa.Table) -> pa.Table:
        """One partition of the fused exchange -> dst-sorted deduped edges
        (is_deg=0) + ONE complete (node, outdeg) row per node hashed here
        (is_deg=1; partial sums MINUS nothing yet) + rare cross-block
        duplicate-pair corrections (is_deg=2, applied on the driver): a
        pair present in b blocks contributed b partial units, and exactly
        b-1 copies are dropped here, so deg = partial_sum - drops is EXACT."""
        pk_all = g.column("pk").to_numpy(zero_copy_only=False)
        is_partial = pk_all < 0  # top-bit-marked partial rows
        pk = np.sort(pk_all[~is_partial])
        keep = run_starts(pk)
        dropped_src = pk[~keep] & _LO31  # cross-block duplicate copies
        pk = pk[keep]
        dst = pk >> np.int64(32)
        src = pk & _LO31
        # per-node outdeg from the partial rows routed to this partition
        ppk = pk_all[is_partial].view(np.uint64)
        psrc = ((ppk >> np.uint64(31)) & np.uint64(0x7FFFFFFF)).astype(np.int64)
        pcnt = (ppk & np.uint64(0x7FFFFFFF)).astype(np.int64)
        o = np.argsort(psrc, kind="stable")
        psrc, pcnt = psrc[o], pcnt[o]
        new = run_starts(psrc)
        starts = np.flatnonzero(new)
        deg_src = psrc[starts]
        deg_sum = (
            np.add.reduceat(pcnt, starts) if starts.size else pcnt[:0]
        )
        # node enumeration: srcs routed here UNION distinct dst landed here
        uniq_dst = dst[run_starts(dst)]
        nodes = np.union1d(deg_src, uniq_dst)
        deg = np.zeros(nodes.size, dtype=np.int64)
        if deg_src.size:
            deg[np.searchsorted(nodes, deg_src)] = deg_sum
        # corrections, pre-summed per src (empty unless cross-block dups)
        cu, cc = np.unique(dropped_src, return_counts=True)
        return pa.table(
            {
                "dst": pa.array(np.concatenate([dst, nodes, cu])),
                "src": pa.array(np.concatenate([src, deg, cc.astype(np.int64)])),
                "is_deg": pa.array(
                    np.concatenate(
                        [
                            np.zeros(dst.size, dtype=np.int8),
                            np.ones(nodes.size, dtype=np.int8),
                            np.full(cu.size, 2, dtype=np.int8),
                        ]
                    )
                ),
            }
        )

    by_dst = None
    try:
        by_dst = keyed_exchange(
            edges.map_batches(
                norm_dst_packed, batch_format="pyarrow", zero_copy_batch=True
            ),
            dedup_sort_packed,
        ).materialize()  # pinned for every iteration
    except Exception as e:  # wide ids: fall back to the two-column exchange
        if "PackedIdOverflow" not in repr(e) + str(e):
            raise
    packed_build = by_dst is not None
    if by_dst is None:
        by_dst = keyed_exchange(
            edges.map_batches(
                norm_dst_part, batch_format="pyarrow", zero_copy_batch=True
            ),
            dedup_sort,
            keys="dst",
        ).materialize()  # pinned for every iteration

    if packed_build:
        # ROUND-5 FUSED META: the per-node outdeg rows (is_deg=1) and the
        # rare duplicate corrections (is_deg=2) were computed INSIDE the
        # edge exchange's fold (each node's facts co-located by the same
        # hash there) — extract them with one shuffle-free pass over the
        # pinned blocks and finish on the driver.  The previous shape ran
        # a SECOND full sort-shuffle of ~1 partial row per (partition,
        # src) here, the worst-retention phase of the whole job.
        def extract_meta(t: pa.Table) -> pa.Table:
            isd = t.column("is_deg").to_numpy(zero_copy_only=False)
            m = isd != 0
            return pa.table(
                {
                    "node": pa.array(
                        t.column("dst").to_numpy(zero_copy_only=False)[m]
                    ),
                    "deg": pa.array(
                        t.column("src").to_numpy(zero_copy_only=False)[m]
                    ),
                    "kind": pa.array(isd[m]),
                }
            )

        meta_tabs = ray.get(
            by_dst.map_batches(
                extract_meta, batch_format="pyarrow", zero_copy_batch=True
            ).to_arrow_refs()
        )  # one batched get: refs resolve in parallel, not one RTT each
        meta_tabs = [t for t in meta_tabs if t.num_rows]
        if not meta_tabs:
            return rd.from_arrow(
                pa.table(
                    {
                        "node": pa.array([], pa.int64()),
                        "rank_fp": pa.array([], pa.int64()),
                    }
                )
            )
        meta = pa.concat_tables(meta_tabs)
        kind = meta.column("kind").to_numpy(zero_copy_only=False)
        is_node = kind == 1
        m_node = meta.column("node").to_numpy(zero_copy_only=False)[is_node]
        m_deg = meta.column("deg").to_numpy(zero_copy_only=False)[is_node]
        n_nodes = int(m_node.size)  # each node emitted by exactly one fold
        if n_nodes > max_nodes:
            raise _TooManyNodes(n_nodes)
        order = np.argsort(m_node, kind="stable")
        nodes_arr = m_node[order]
        outdeg_arr = m_deg[order].astype(np.int64).copy()
        if not np.all(is_node):  # cross-block duplicate-pair corrections
            c_node = meta.column("node").to_numpy(zero_copy_only=False)[~is_node]
            c_cnt = meta.column("deg").to_numpy(zero_copy_only=False)[~is_node]
            np.subtract.at(
                outdeg_arr, np.searchsorted(nodes_arr, c_node), c_cnt
            )
    else:
        # fallback (wide ids): the classic second keyed fold over per-
        # partition deg partials routed by hash(node)
        def meta_map(t: pa.Table) -> pa.Table:
            dst = t.column("dst").to_numpy(zero_copy_only=False)
            src = t.column("src").to_numpy(zero_copy_only=False)
            isd = t.column("is_deg").to_numpy(zero_copy_only=False)
            e = isd == 0
            d_e = dst[e]
            uniq = d_e[run_starts(d_e)]
            m = isd == 1
            node = np.concatenate([uniq, dst[m]])
            deg = np.concatenate([np.zeros(uniq.size, dtype=np.int64), src[m]])
            return pa.table({"node": pa.array(node), "deg": pa.array(deg)})

        def meta_fold(g: pa.Table) -> pa.Table:
            node = g.column("node").to_numpy(zero_copy_only=False)
            deg = g.column("deg").to_numpy(zero_copy_only=False)
            o = np.argsort(node, kind="stable")
            node, deg = node[o], deg[o]
            new = run_starts(node)
            starts = np.flatnonzero(new)
            return pa.table(
                {
                    "node": pa.array(node[starts]),
                    "deg": pa.array(
                        np.add.reduceat(deg, starts) if starts.size else deg[:0]
                    ),
                }
            )

        meta_tabs = [
            ray.get(r)
            for r in keyed_exchange(
                by_dst.map_batches(
                    meta_map, batch_format="pyarrow", zero_copy_batch=True
                ),
                meta_fold,
                keys="node",
            ).to_arrow_refs()
        ]
        meta_tabs = [t for t in meta_tabs if t.num_rows]
        if not meta_tabs:
            return rd.from_arrow(
                pa.table(
                    {
                        "node": pa.array([], pa.int64()),
                        "rank_fp": pa.array([], pa.int64()),
                    }
                )
            )
        meta = pa.concat_tables(meta_tabs)
        m_node = meta.column("node").to_numpy(zero_copy_only=False)
        m_deg = meta.column("deg").to_numpy(zero_copy_only=False)
        n_nodes = int(m_node.size)  # fold emits each node exactly once
        if n_nodes > max_nodes:
            raise _TooManyNodes(n_nodes)
        order = np.argsort(m_node, kind="stable")
        nodes_arr = m_node[order]
        outdeg_arr = m_deg[order].astype(np.int64)
    nodes_ref = ray.put(nodes_arr)

    base_share = PR_SCALE // n_nodes
    dangling = outdeg_arr == 0
    r_arr = np.full(n_nodes, base_share, dtype=np.int64)
    base = (base_share * 15) // 100
    safe_deg = np.where(dangling, 1, outdeg_arr)

    # ONE shuffle-free reindex pass: rewrite the pinned blocks to int32
    # (src_idx, dst_idx) positions in the sorted node array, dropping the
    # carrier rows.  Every iteration is then a pure gather + reduceat —
    # no per-iteration searchsorted over the node table (was ~70% of each
    # iteration's CPU at 32M edges) — and the pinned bytes drop from
    # 17 B/edge (2x int64 + int8) to 8 B/edge, halving the block-read
    # bandwidth the iterations consume.  int32 is safe: indices are
    # positions in nodes_arr, and n_nodes <= max_nodes << 2^31.
    def reindex(t: pa.Table) -> pa.Table:
        ns = ray.get(nodes_ref)
        isd = t.column("is_deg").to_numpy(zero_copy_only=False)
        e = isd == 0
        dst = t.column("dst").to_numpy(zero_copy_only=False)[e]
        src = t.column("src").to_numpy(zero_copy_only=False)[e]
        return pa.table(
            {
                "src_idx": pa.array(np.searchsorted(ns, src).astype(np.int32)),
                "dst_idx": pa.array(np.searchsorted(ns, dst).astype(np.int32)),
            }
        )

    pinned = by_dst.map_batches(
        reindex, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    del by_dst  # release the pre-index blocks

    for _ in range(iters):
        dang_share = int(r_arr[dangling].sum()) // n_nodes
        contrib_arr = np.where(dangling, 0, r_arr // safe_deg)
        ref = ray.put(contrib_arr)

        def in_sums(t: pa.Table) -> pa.Table:
            ca = ray.get(ref)
            si = t.column("src_idx").to_numpy(zero_copy_only=False)
            di = t.column("dst_idx").to_numpy(zero_copy_only=False)
            if not di.size:
                return pa.table(
                    {"idx": pa.array([], pa.int32()), "s": pa.array([], pa.int64())}
                )
            c = ca[si]
            new = run_starts(di)  # dst_idx inherits the dst sort
            starts = np.flatnonzero(new)
            return pa.table(
                {
                    "idx": pa.array(di[starts]),
                    "s": pa.array(np.add.reduceat(c, starts)),
                }
            )

        in_sum = np.zeros(n_nodes, dtype=np.int64)
        reduced = pinned.map_batches(
            in_sums, batch_format="pyarrow", zero_copy_batch=True
        )
        # one batched get (parallel resolve), then a single scatter-add —
        # add, don't assign: correct even if a dst's rows ever split across
        # output blocks (whole-block batches make each dst appear once
        # today, but the fold must not depend on that)
        tabs = [t for t in ray.get(reduced.to_arrow_refs()) if t.num_rows]
        if tabs:
            cat = pa.concat_tables(tabs)
            np.add.at(
                in_sum,
                cat.column("idx").to_numpy(zero_copy_only=False),
                cat.column("s").to_numpy(zero_copy_only=False),
            )
        r_arr = base + (85 * (in_sum + dang_share)) // 100

    return rd.from_arrow(
        pa.table({"node": pa.array(nodes_arr), "rank_fp": pa.array(r_arr)})
    )


def bfs_hops_pipeline(
    edges,
    seeds,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    seed_col: str = "node",
    max_hops: int = 4,
    max_broadcast_nodes: int = _MAX_BROADCAST_NODES,
):
    """Dataset[(src, dst)] x Dataset[seed nodes] -> Dataset[(node, hops)]:
    minimum hop count (<= max_hops) from ANY seed over the UNDIRECTED edge
    set; unreachable nodes are absent.

    BFS is ``sssp_pipeline`` with every edge weighing 1: the distinct
    undirected edges (built by :func:`_distinct_edges`' packed exchange)
    carry no ``w`` column, and the same two frontier plans run over them —
    broadcast while the reached set fits ``max_broadcast_nodes``, with the
    hop table on the driver, and shuffle past it (``0`` forces it) as the
    unbounded-reach path."""

    def undirect(t: pa.Table) -> pa.Table:
        s, d = _edge_ids(t, src_col, dst_col)
        return pa.table(
            {
                "src": pa.array(np.concatenate([s, d])),
                "dst": pa.array(np.concatenate([d, s])),
            }
        )

    pinned = _distinct_edges(
        edges.map_batches(undirect, batch_format="pyarrow", zero_copy_batch=True),
        src_col="src",
        dst_col="dst",
    )
    return _shortest_paths(
        pinned,
        seeds,
        out_col="hops",
        seed_col=seed_col,
        max_rounds=max_hops,
        max_broadcast_nodes=max_broadcast_nodes,
    )


def triangle_count_pipeline(
    edges,
    *,
    a_col: str = "a",
    b_col: str = "b",
):
    """Dataset[(a, b)] (undirected simple edges, a < b, distinct) ->
    Dataset[(n_triangles, n_wedges, transitivity)] — one row.

    Node ids must be non-negative and < 2^32: wedge/edge candidate keys
    pack as ``(x << 32) | y`` and larger or negative ids would silently
    collide; the first map stage validates the bound and raises loudly.

    Degree-ordered orientation (Chiba–Nishizeki / "rank by (degree, id)"):
    every edge points from its lower-(deg, id) endpoint to the higher one,
    so each triangle is generated EXACTLY ONCE as a wedge at its
    lowest-rank vertex, and the heaviest adjacency list any single task
    owns is O(sqrt(E)) out-neighbors — the classic hub-skew bound.  The
    wedge set (candidate pairs at each center) then semi-joins the
    oriented edge set; the match count is the triangle count.  Wedge
    generation and the closure check run in ONE execution: the wedge
    stage passes the partition's oriented edges through alongside its
    wedge candidates, both keyed by ``hash(x)`` (a wedge (x, y) can only
    close via the oriented edge x -> y, which lives in edge partition
    ``hash(u=x)``), so the closure probe is the very next keyed exchange
    — no separate join pipeline, no extra materialization.

    n_wedges is the standard open+closed 2-path count sum(d*(d-1)/2)
    (exact python ints over the dimension-sized degree table), and
    transitivity = 3*T / W with one float divide — bit-exact in SQL.
    """
    import ray
    import ray.data as rd

    P = fold._PARTITIONS
    _bound = np.int64(1) << np.int64(32)

    def norm(t: pa.Table) -> pa.Table:
        a = t.column(a_col).to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column(b_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if a.size:
            lo = min(a.min(), b.min())
            hi = max(a.max(), b.max())
            if lo < 0 or hi >= _bound:
                raise ValueError(
                    f"triangle_count_pipeline: node ids must be in [0, 2^32)"
                    f" for packed wedge keys; got range [{lo}, {hi}]"
                )
        return pa.table({"a": pa.array(a), "b": pa.array(b)})

    e = edges.map_batches(norm, batch_format="pyarrow", zero_copy_batch=True).materialize()

    # degree table: dimension-sized (one row per node) — broadcast
    def deg_partials(t: pa.Table) -> pa.Table:
        ab = np.concatenate(
            [
                t.column("a").to_numpy(zero_copy_only=False),
                t.column("b").to_numpy(zero_copy_only=False),
            ]
        )
        vals, cnt = np.unique(ab, return_counts=True)
        return pa.table({"node": pa.array(vals), "d": pa.array(cnt.astype(np.int64))})

    # node domain is open-ended -> bounded-partition fold for the exchange;
    # the take_all stays: this plan's documented contract is that the NODE
    # table (not the edges) fits the driver
    from ddsketch_ruby_ray.pipelines.fold import partitioned_group_sum

    deg_tabs = [
        ray.get(r)
        for r in partitioned_group_sum(
            e.map_batches(deg_partials, batch_format="pyarrow", zero_copy_batch=True),
            "node",
            "d",
        ).to_arrow_refs()  # arrow refs, not take_all: O(nodes) rows stay columnar
    ]
    deg_tabs = [t for t in deg_tabs if t.num_rows]
    if not deg_tabs:
        return rd.from_arrow(
            pa.table(
                {
                    "n_triangles": pa.array([0], pa.int64()),
                    "n_wedges": pa.array([0], pa.int64()),
                    "transitivity": pa.array([0.0], pa.float64()),
                }
            )
        )
    deg_tbl = pa.concat_tables(deg_tabs)
    nodes = deg_tbl.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
    degs = deg_tbl.column("sum(d)").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(nodes)
    nodes, degs = nodes[order], degs[order]
    # orientation rank: position in the (degree, node) total order
    rank = np.empty(nodes.size, dtype=np.int64)
    rank[np.lexsort((nodes, degs))] = np.arange(nodes.size)
    # vectorized exact wedge count with a loud int64 guard (float64 upper
    # bound first: per-node d^2/2 and the total must stay under 2^63)
    est = float((degs.astype(np.float64) ** 2).sum()) / 2.0
    if est >= 2**62:
        raise OverflowError("triangle_count_pipeline: wedge count exceeds int64")
    n_wedges = int((degs * (degs - 1) // 2).sum())
    ref = ray.put((nodes, rank))

    def orient(t: pa.Table) -> pa.Table:
        ns, rk = ray.get(ref)
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        ra = rk[np.searchsorted(ns, a)]
        rb = rk[np.searchsorted(ns, b)]
        lo_first = ra < rb
        u = np.where(lo_first, a, b)
        v = np.where(lo_first, b, a)
        return pa.table({"u": pa.array(u), "v": pa.array(v)})

    def wedges_and_edges(g: pa.Table) -> pa.Table:
        """Per hash(u) partition: emit wedge candidates (kind=1) AND the
        partition's oriented edges (kind=0), both re-keyed by the hash of
        the candidate/closing edge's lower-rank endpoint, so one more
        keyed exchange co-locates every wedge with the only edge that can
        close it."""
        ns, rk = ray.get(ref)
        u = g.column("u").to_numpy(zero_copy_only=False)
        v = g.column("v").to_numpy(zero_copy_only=False)
        if not u.size:
            return pa.table(
                {
                    "pk": pa.array([], pa.int64()),
                    "kind": pa.array([], pa.int8()),
                    "_part": pa.array([], pa.int32()),
                }
            )
        rv = rk[np.searchsorted(ns, v)]
        order = np.lexsort((rv, u))  # each u's out-list in rank order
        u_s, v_s = u[order], v[order]
        first, second = run_pairs(run_starts(u_s))
        x, y = v_s[first], v_s[second]  # rank(x) < rank(y): oriented pair
        pk = np.concatenate([(x << np.int64(32)) | y, (u << np.int64(32)) | v])
        kind = np.concatenate(
            [np.ones(x.size, np.int8), np.zeros(u.size, np.int8)]
        )
        lead = np.concatenate([x, u])
        return pa.table(
            {
                "pk": pa.array(pk),
                "kind": pa.array(kind),
                "_part": pa.array(_node_part(lead, P)),
            }
        )

    def close_count(g: pa.Table) -> pa.Table:
        pk = g.column("pk").to_numpy(zero_copy_only=False)
        kind = g.column("kind").to_numpy(zero_copy_only=False)
        edge_pk = np.sort(pk[kind == 0])
        wedge_pk = pk[kind == 1]
        if not edge_pk.size or not wedge_pk.size:
            n = 0
        else:
            idx = np.searchsorted(edge_pk, wedge_pk)
            idx[idx == edge_pk.size] = edge_pk.size - 1
            n = int((edge_pk[idx] == wedge_pk).sum())
        return pa.table({"n": pa.array([n], pa.int64())})

    candidates = keyed_exchange(
        e.map_batches(orient, batch_format="pyarrow", zero_copy_batch=True),
        wedges_and_edges,
        keys="u",
    )
    n_tri = int(keyed_exchange(candidates, close_count).sum("n") or 0)
    trans = float(3 * n_tri) / float(n_wedges) if n_wedges > 0 else 0.0
    return rd.from_arrow(
        pa.table(
            {
                "n_triangles": pa.array([n_tri], pa.int64()),
                "n_wedges": pa.array([n_wedges], pa.int64()),
                "transitivity": pa.array([trans], pa.float64()),
            }
        )
    )


def sssp_pipeline(
    edges,
    seeds,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str = "w",
    seed_col: str = "node",
    max_rounds: int = 4,
    max_broadcast_nodes: int = _MAX_BROADCAST_NODES,
):
    """K-round Bellman-Ford single-source-set shortest paths over the
    UNDIRECTED weighted edge set: -> Dataset[(node, dist)] — the minimum
    total weight over paths of <= max_rounds edges from ANY seed
    (unreached nodes absent).  Weights must be non-negative int64, so the
    min-plus relaxation is exact and order-free.

    One build exchange symmetrizes the edges, keeps the MINIMUM weight per
    (src, dst) pair and partitions them by hash(src) (``_part``).  Then
    :func:`_sssp_broadcast` runs while the reached set fits
    ``max_broadcast_nodes`` — the distance table lives on the driver, the
    BFS/PageRank contract — and :func:`_sssp_shuffle` past it (``0``
    forces it), with no driver-side state: the unbounded-reach path."""

    def norm(t: pa.Table) -> pa.Table:
        src, dst = _edge_ids(t, src_col, dst_col)
        w = strict_key_int64(t.column(weight_col), name=weight_col)
        s2 = np.concatenate([src, dst])
        d2 = np.concatenate([dst, src])
        w2 = np.concatenate([w, w])
        return pa.table({"src": pa.array(s2), "dst": pa.array(d2), "w": pa.array(w2)})

    def dedup_min(g: pa.Table) -> pa.Table:
        src = g.column("src").to_numpy(zero_copy_only=False)
        dst = g.column("dst").to_numpy(zero_copy_only=False)
        w = g.column("w").to_numpy(zero_copy_only=False)
        order = np.lexsort((w, dst, src))
        s_s, d_s, w_s = src[order], dst[order], w[order]
        keep = run_starts(s_s, d_s)
        part = g.column("_part")[0].as_py() if g.num_rows else 0
        # first row of each (src, dst) run carries the MIN weight
        return pa.table(
            {
                "src": pa.array(s_s[keep]),
                "dst": pa.array(d_s[keep]),
                "w": pa.array(w_s[keep]),
                "_part": pa.array(np.full(int(keep.sum()), part, dtype=np.int32)),
            }
        )

    pinned = keyed_exchange(
        edges.map_batches(norm, batch_format="pyarrow", zero_copy_batch=True),
        dedup_min,
        keys="src",
    ).materialize()
    return _shortest_paths(
        pinned,
        seeds,
        out_col="dist",
        seed_col=seed_col,
        max_rounds=max_rounds,
        max_broadcast_nodes=max_broadcast_nodes,
    )


def _shortest_paths(
    pinned,
    seeds,
    *,
    out_col: str,
    seed_col: str,
    max_rounds: int,
    max_broadcast_nodes: int,
):
    """The one frontier engine of ``sssp_pipeline`` and
    ``bfs_hops_pipeline``: ``pinned`` is the materialized distinct
    (src, dst[, w], _part) edge table partitioned by hash(src) — no ``w``
    means unit weights — and the result is Dataset[(node, out_col)]."""
    if max_broadcast_nodes > 0:
        try:
            return _sssp_broadcast(
                pinned,
                seeds,
                out_col=out_col,
                seed_col=seed_col,
                max_rounds=max_rounds,
                max_nodes=max_broadcast_nodes,
            )
        except _TooManyNodes:
            pass  # reached set outgrew the driver -> shuffle plan
    return _sssp_shuffle(
        pinned,
        seeds,
        out_col=out_col,
        seed_col=seed_col,
        max_rounds=max_rounds,
    )


def _weights(t: pa.Table, mask: np.ndarray):
    """Weights of the edges of ``t`` that ``mask`` selects: its ``w``
    column, or a scalar 1 when ``t`` has none (BFS).  Unit weights stay a
    scalar: a materialized all-ones column made BFS measurably slower."""
    if "w" not in t.column_names:
        return np.int64(1)
    return t.column("w").to_numpy(zero_copy_only=False)[mask]


def _min_per_node(node: np.ndarray, val: np.ndarray):
    """(node, val) candidate rows -> (sorted distinct nodes, the minimum
    val of each)."""
    o = np.argsort(node)
    node, val = node[o], val[o]
    starts = np.flatnonzero(run_starts(node))
    return node[starts], np.minimum.reduceat(val, starts)


def _sssp_broadcast(
    pinned, seeds, *, out_col: str, seed_col: str, max_rounds: int, max_nodes: int
):
    """Broadcast-frontier Bellman-Ford over the pinned edge table.  Per
    round, ONE map relaxes the edges whose src improved last round
    (searchsorted against the broadcast sorted frontier) and emits each
    block's per-dst minimum; the driver folds those minima into its sorted
    (node, dist) arrays with one searchsorted, an in-place update of the
    improved nodes and one merge of the new ones.  Rounds after the
    frontier empties are free.  Raises ``_TooManyNodes`` when the reached
    table outgrows ``max_nodes``."""
    import ray
    import ray.data as rd

    seed_ids = [
        t.column("node").to_numpy(zero_copy_only=False)
        for t in ray.get(
            seeds.map_batches(
                lambda t: pa.table(
                    {"node": pa.array(strict_key_int64(t.column(seed_col), name=seed_col))}
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ).to_arrow_refs()
        )
        if t.num_rows
    ]
    nodes = np.unique(np.concatenate([np.empty(0, np.int64), *seed_ids]))
    dist = np.zeros(nodes.size, dtype=np.int64)
    frontier, f_dist = nodes, dist.copy()

    for _ in range(max_rounds):
        if not frontier.size:
            break
        if nodes.size > max_nodes:
            raise _TooManyNodes(int(nodes.size))
        ref = ray.put((frontier, f_dist))  # frontier sorted

        def relax(t: pa.Table) -> pa.Table:
            fr, fd = ray.get(ref)
            src = t.column("src").to_numpy(zero_copy_only=False)
            dst = t.column("dst").to_numpy(zero_copy_only=False)
            pos = np.minimum(np.searchsorted(fr, src), fr.size - 1)
            hit = fr[pos] == src
            if not hit.any():
                return pa.table(
                    {"node": pa.array([], pa.int64()), "d": pa.array([], pa.int64())}
                )
            n, d = _min_per_node(dst[hit], fd[pos[hit]] + _weights(t, hit))
            return pa.table({"node": pa.array(n), "d": pa.array(d)})

        tabs = [
            t
            for t in ray.get(
                pinned.map_batches(
                    relax, batch_format="pyarrow", zero_copy_batch=True
                ).to_arrow_refs()
            )
            if t.num_rows
        ]
        if not tabs:
            break
        cat = pa.concat_tables(tabs)
        cn, cd = _min_per_node(
            cat.column("node").to_numpy(zero_copy_only=False),
            cat.column("d").to_numpy(zero_copy_only=False),
        )
        at = np.searchsorted(nodes, cn)
        pos = np.minimum(at, nodes.size - 1)  # nodes holds the frontier: not empty
        known = nodes[pos] == cn
        better = known & (cd < dist[pos])
        dist[pos[better]] = cd[better]
        new = ~known
        nodes = np.insert(nodes, at[new], cn[new])
        dist = np.insert(dist, at[new], cd[new])
        step = better | new
        frontier, f_dist = cn[step], cd[step]  # sorted, as cn is

    return rd.from_arrow(
        pa.table({"node": pa.array(nodes), out_col: pa.array(dist)})
    )


def _sssp_shuffle(pinned, seeds, *, out_col: str, seed_col: str, max_rounds: int):
    """Fully distributed min-plus Bellman-Ford: distance state lives in a
    hash-partitioned (node, dist, fresh, _part) table, never the driver.
    The edge table is pinned ONCE as per-partition dst-sorted object-store
    slices (see ``_pin_edge_slices``) straight from its build ``_part``.
    Each round is one :func:`_scatter` of the FRESH state rows (the nodes
    that improved last round) over the pinned slices and one
    :func:`_gather` that keeps each node's minimum — the edges never
    re-shuffle."""
    import ray.data as rd

    P = fold._PARTITIONS

    def seed_states(t: pa.Table) -> pa.Table:
        n = np.unique(strict_key_int64(t.column(seed_col), name=seed_col))
        return pa.table(
            {
                "node": pa.array(n),
                "dist": pa.array(np.zeros(n.size, dtype=np.int64)),
                "fresh": pa.array(np.ones(n.size, dtype=np.int8)),
                # pre-tagged: each round's fresh-row exchange reads it as is
                "_part": pa.array(_node_part(n, P)),
            }
        )

    def distinct_seeds(g: pa.Table) -> pa.Table:
        # one state row per seed listed in several blocks, even at 0 rounds
        node = g.column("node").to_numpy(zero_copy_only=False)
        o = np.argsort(node, kind="stable")
        return g.take(pa.array(o[run_starts(node[o])]))

    state = seeds.map_batches(
        seed_states, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    state = keyed_exchange(state, distinct_seeds).materialize()
    if state.count() == 0:  # no seeds: nothing is reached (typed output)
        return rd.from_arrow(
            pa.table(
                {"node": pa.array([], pa.int64()), out_col: pa.array([], pa.int64())}
            )
        )

    schema = pinned.schema()
    weighted = bool(schema) and "w" in schema.names
    edge_refs = _pin_edge_slices(pinned, ("src", "dst", "w") if weighted else ("src", "dst"))

    def reach(t: pa.Table) -> np.ndarray:
        # a weighted slice adds its w column; BFS's unit weight is added here
        return _col(t, "dist") + (0 if weighted else 1)

    def lower(cand: np.ndarray, dist: np.ndarray) -> dict:
        return {"dist": np.minimum(cand, dist), "fresh": (cand < dist).astype(np.int8)}

    for _ in range(max_rounds):
        fresh_rows = state.map_batches(
            lambda t: t.filter(
                pa.compute.equal(t.column("fresh"), pa.scalar(1, pa.int8()))
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).materialize()
        if fresh_rows.count() == 0:
            break  # fixed point: no distance improved last round
        msgs = _scatter(fresh_rows, edge_refs, reach, np.minimum)
        state = _gather(msgs, state, "dist", np.minimum, lower)

    return state.map_batches(
        lambda t: pa.table({"node": t.column("node"), out_col: t.column("dist")}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def degree_histogram_pipeline(
    edges,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
):
    """Dataset[(src, dst)] -> Dataset[(degree, n_nodes)]: the distinct-
    neighbor OUT-degree histogram of the directed multigraph — the basic
    shape diagnostic (power-law check, super-node detection) run before
    committing to a partitioning for the iterative algorithms.

    Plan: per-block Arrow group_by dedups (src, dst) pairs locally, ONE
    hash(src) co-partition makes per-src dedup + counting global and
    local to each group task (lexsort + boundary scan, no per-key
    Python), and each task emits its own (degree, n_nodes) PARTIAL
    histogram — O(distinct degrees) rows — folded by a second, KB-sized
    keyed sum.  Only the (src, dst) id pairs ever shuffle; skewed srcs
    cost sort time, not memory (a super-node's edges co-locate but the
    task holds ids, not payloads)."""

    def pre(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": t.column(src_col).cast(pa.int64()),
                "dst": t.column(dst_col).cast(pa.int64()),
            }
        ).group_by(["src", "dst"]).aggregate([])

    def fold(g: pa.Table) -> pa.Table:
        src = g.column("src").to_numpy(zero_copy_only=False)
        dst = g.column("dst").to_numpy(zero_copy_only=False)
        o = np.lexsort((dst, src))
        src, dst = src[o], dst[o]
        keep = run_starts(src, dst)
        src = src[keep]
        _, deg = np.unique(src, return_counts=True)
        dval, dcnt = np.unique(deg, return_counts=True)
        return pa.table(
            {
                "degree": pa.array(dval.astype(np.int64)),
                "n_nodes": pa.array(dcnt.astype(np.int64)),
            }
        )

    from .fold import partitioned_group_sum

    partials = keyed_exchange(
        edges.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True),
        fold,
        keys="src",
    )
    summed = partitioned_group_sum(partials, "degree", "n_nodes")
    return summed.map_batches(
        lambda t: pa.table(
            {"degree": t.column("degree"), "n_nodes": t.column("sum(n_nodes)")}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
