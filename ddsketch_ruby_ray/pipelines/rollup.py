"""GROUP BY ROLLUP over the sketch mergeability hierarchy.

The defining property of the reference sketch (base_sketch.rb:140-171: merge
is associative/commutative and lossless w.r.t. the bucket histogram) means a
multi-level rollup - per (k1, k2), per (k1), grand total - needs to read the
corpus exactly ONCE: the finest level's merged states are themselves the
input to every coarser level.  At 100 TB that turns "3 aggregation passes
over the data" into "1 pass + 2 shuffles of a KB-per-group state table".

Bit-exactness of the cascade: bin counts are float64 adds of integer weights
(exact, associative), count/min/max are exact, and sum is exact whenever the
metric is integer-valued (the same contract as ``include_sum_avg`` on the SQL
oracle) - so merging (k1,k2)-level states up to k1 is bit-identical to
building the k1 sketch from raw rows, and the UNION-ALL-of-GROUP-BYs SQL
mirror hash-matches every level.

Output: one composite ``group_key`` string column (rolled-up keys filled with
``fill``) + the spec's finalize columns, matching the single-group-column SQL
oracle template like flagship_by_lang_source does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["rollup_sketch_pipeline", "cube_sketch_pipeline", "ROLLUP_FILL"]

ROLLUP_FILL = "(all)"


def _finalize(t: pa.Table, spec, codes: np.ndarray, n_groups: int, group_key) -> pa.Table:
    """(group_key, <finalize cols>) rows: ``spec.finalize_groups`` of the
    state rows, columns in ``spec.finalize``'s key order."""
    from ..stages.util import unnest_struct

    structs = spec.finalize_groups(t.column(spec.name), codes, n_groups)
    return unnest_struct(pa.table({"group_key": group_key, spec.name: structs}), [spec.name])


def _finalize_level(states, spec, keys: list[str], present: list[str], fill: str):
    """One level's merged state rows (one per group) -> (group_key,
    finalize...) rows; absent keys filled."""

    def fin(t: pa.Table) -> pa.Table:
        parts = [pc.fill_null(t.column(k), "") if k in present else pa.scalar(fill) for k in keys]
        group_key = pc.binary_join_element_wise(*parts, "|")
        return _finalize(t, spec, np.arange(t.num_rows), t.num_rows, group_key)

    return states.map_batches(fin, batch_format="pyarrow", zero_copy_batch=True)


def _grand_total(level, spec, keys: list[str], fill: str):
    """Merge one level's (few) state rows on the driver into the grand-total
    row, ``group_key == fill * n`` joined with '|'."""
    import ray.data as rd

    col = pa.array([r[spec.name] for r in level.take_all()], type=spec.state_type())
    t = pa.table({spec.name: col})
    group_key = pa.array(["|".join([fill] * len(keys))])
    return rd.from_arrow(_finalize(t, spec, np.zeros(len(col), dtype=np.int64), 1, group_key))


def rollup_sketch_pipeline(
    ds,
    spec,
    keys: Sequence[str],
    *,
    derive=None,
    fill: str = ROLLUP_FILL,
):
    """-> Dataset[(group_key, <finalize cols>)] with one row per rollup group
    across all len(keys)+1 levels: (k1..kn), (k1..kn-1), ..., ().

    ``keys`` must be string columns (composite key join); the grand-total row
    has ``group_key == fill * n`` joined with '|'.
    """
    from .corpus import merge_states, sketch_states

    keys = list(keys)
    # one corpus read: finest-level per-(block, group) states
    states = sketch_states(ds, [spec], keys, derive=derive)
    # tiny: one KB state row per finest group
    cur = merge_states(states, [spec], keys).materialize()
    outs = [_finalize_level(cur, spec, keys, keys, fill)]
    for i in range(len(keys) - 1, 0, -1):
        cur = merge_states(cur, [spec], keys[:i]).materialize()
        outs.append(_finalize_level(cur, spec, keys, keys[:i], fill))
    # grand total: the coarsest level's handful of states, merged on the
    # driver (bounded by the first key's cardinality)
    outs.append(_grand_total(cur, spec, keys, fill))
    return outs[0].union(*outs[1:])


def cube_sketch_pipeline(
    ds,
    spec,
    keys: Sequence[str],
    *,
    derive=None,
    fill: str = ROLLUP_FILL,
):
    """GROUP BY CUBE: every subset of ``keys``, still reading the corpus ONCE.

    Unlike the rollup's chain, CUBE's groupings are not nested - but every
    subset CAN be re-merged from the same finest-level materialized states
    (merge associativity), so the cost of all 2^n groupings over 100 TB is
    one corpus pass plus 2^n - 1 shuffles of the KB-per-group state table.

    Output schema matches :func:`rollup_sketch_pipeline` (composite
    ``group_key`` with ``fill`` for absent keys).
    """
    from itertools import combinations

    from .corpus import merge_states, sketch_states

    keys = list(keys)
    states = sketch_states(ds, [spec], keys, derive=derive)
    # tiny: one KB state row per finest group
    finest = merge_states(states, [spec], keys).materialize()
    outs = [_finalize_level(finest, spec, keys, keys, fill)]
    for r in range(len(keys) - 1, 0, -1):
        for sub in combinations(keys, r):
            lvl = merge_states(finest, [spec], list(sub))
            outs.append(_finalize_level(lvl, spec, keys, list(sub), fill))
    # grand total: merge the finest states on the driver (tiny)
    outs.append(_grand_total(finest, spec, keys, fill))
    return outs[0].union(*outs[1:])
