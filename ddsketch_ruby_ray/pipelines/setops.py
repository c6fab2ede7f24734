"""KMV set operations: pairwise distinct overlap between groups.

The theta-sketch property of the bottom-k sketch (core/kmv.py): each group's
bottom-k hash set is a uniform sample of its distinct values, so for any two
groups A, B the union sketch's bottom-k estimates |A ∪ B| and the fraction of
that sample present in BOTH sides estimates Jaccard — giving
|A ∩ B| ≈ J · |A ∪ B| without ever co-shuffling the raw rows of both groups
(Beyer et al., "Distinct-value synopses for multiset operations", SIGMOD'07).

Scale shape: the build is the standard grouped state merge (one k·8-byte
state per group crosses the shuffle); the pairwise pass runs on the DRIVER
over G sketches — G is the cardinality of a categorical grouping column
(event types, languages, sources), so G² tiny set intersections are trivial.
This operator is NOT for G ~ rows; that regime is the LSH/SRP near-dup
pipelines.

Everything is exact integer/uint64 set algebra plus the same double
evaluation order as :meth:`KMVSketch.estimate`, so the whole overlap matrix
is bit-exact and SQL-mirrorable (functions/family_oracle.kmv_overlap_sql).
"""

from __future__ import annotations

from itertools import combinations

import pyarrow as pa

__all__ = ["kmv_overlap_pipeline"]


def kmv_overlap_pipeline(
    ds,
    *,
    group_col: str,
    value_col: str,
    k: int = 256,
    kind: str = "int",
):
    """-> Dataset[(type_a, type_b, union_distinct, jaccard, intersection,
    only_a, only_b)] - one row per unordered group pair (type_a < type_b).
    ``only_a``/``only_b`` estimate the set differences |A\\B| / |B\\A| from
    the same union sample, completing the set algebra."""
    import numpy as np
    import ray.data as rd

    from ..functions.family_specs import KMVSpec
    from .corpus import group_sketches

    spec = KMVSpec(on=value_col, name="s", k=k, kind=kind)
    sks = group_sketches(ds, spec, group_col)  # one <=k-uint64 sketch per group
    cols = ("type_a", "type_b", "union_distinct", "jaccard", "intersection",
            "only_a", "only_b")
    rows = {c: [] for c in cols}
    for a, b in combinations(sorted(sks), 2):
        union = sks[a].merged_with(sks[b])
        ue = union.estimate()
        u = union.hashes
        in_a = np.isin(u, sks[a].hashes, assume_unique=True)
        in_b = np.isin(u, sks[b].hashes, assume_unique=True)
        kept = u.size
        inter = int((in_a & in_b).sum())
        jac = inter / kept if kept else 0.0
        rows["type_a"].append(a)
        rows["type_b"].append(b)
        rows["union_distinct"].append(ue)
        rows["jaccard"].append(jac)
        rows["intersection"].append(jac * ue)
        rows["only_a"].append((int((in_a & ~in_b).sum()) / kept) * ue if kept else 0.0)
        rows["only_b"].append((int((~in_a & in_b).sum()) / kept) * ue if kept else 0.0)
    t = pa.table(
        {
            "type_a": pa.array(rows["type_a"], pa.string()),
            "type_b": pa.array(rows["type_b"], pa.string()),
            **{
                c: pa.array(rows[c], pa.float64())
                for c in cols[2:]
            },
        }
    )
    return rd.from_arrow(t)
