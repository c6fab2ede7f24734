"""Exact set similarity BETWEEN GROUPS: vocabulary Jaccard per group pair.

"How much does source A's vocabulary overlap source B's?" — the exact
companion to the KMV overlap ESTIMATES (pipelines/setops.py).  The trick
that keeps it one pass + one thin shuffle: a token's membership across
all G groups collapses to a G-bit mask, and every pairwise intersection /
union is a sum over the 2^G mask-count table — which has at most
min(#distinct masks, vocab) rows and in practice a handful.  No pairwise
join over tokens, no G passes.

  1. per block: tokenize, dedup (group, token) incidences (one lexsort);
  2. hash-partition by TOKEN: per-token OR-fold of the group bits, then
     count tokens per mask — the shuffle carries distinct (token, group)
     incidences (vocab-bounded, never the token stream), the output is
     the KB mask-count table;
  3. finalize: for each group pair, intersection = Σ counts[mask has
     both bits], union = Σ counts[mask has either]; Jaccard = one float
     divide of exact ints.

Requires #groups <= 63 (bitmask in int64) — group here is a SOURCE/split
tag, not a key column.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.numeric import run_pairs, run_starts
from .fold import keyed_exchange, partitioned_group_agg, partitioned_group_sum

__all__ = ["vocab_jaccard_pipeline", "group_count_cosine_pipeline"]


def vocab_jaccard_pipeline(
    ds,
    *,
    group_col: str,
    text_col: str,
):
    """-> Dataset[(group_a, group_b, n_a, n_b, n_inter, n_union, jaccard)]
    for every unordered group pair (group_a < group_b)."""
    import ray.data as rd

    from .dedup import tokenize

    # group universe: tiny distinct aggregate (the bitmask index)
    groups = sorted(r[group_col] for r in partitioned_group_agg(ds, group_col, []).take_all())
    if len(groups) > 63:
        raise ValueError(f"vocab_jaccard_pipeline supports <= 63 groups, got {len(groups)}")
    g_idx = {g: i for i, g in enumerate(groups)}

    def incidences(t: pa.Table) -> pa.Table:
        """Block-local distinct (group, token): one lexsort + run dedup —
        the only per-row Python is the shared tokenizer split."""
        gs = t.column(group_col).to_numpy(zero_copy_only=False)
        texts = t.column(text_col).to_pylist()
        toks: list[str] = []
        bounds = [0]
        for s in texts:
            toks.extend(tokenize(s))
            bounds.append(len(toks))
        if not toks:
            return pa.table(
                {
                    "token": pa.array([], pa.string()),
                    "bit": pa.array([], pa.int64()),
                }
            )
        terms = np.array(toks, dtype=object)
        sizes = np.diff(np.asarray(bounds, dtype=np.int64))
        bits = np.repeat(
            np.array([g_idx[g] for g in gs.tolist()], dtype=np.int64), sizes
        )
        order = np.lexsort((terms, bits))
        b_s, t_s = bits[order], terms[order]
        keep = run_starts(b_s, t_s)
        return pa.table(
            {
                "token": pa.array(t_s[keep].tolist(), pa.string()),
                "bit": pa.array(b_s[keep]),
            }
        )

    def mask_counts(pt: pa.Table) -> pa.Table:
        tok = np.array(pt.column("token").to_pylist(), dtype=object)
        bit = pt.column("bit").to_numpy(zero_copy_only=False)
        if not tok.size:
            return pa.table(
                {"mask": pa.array([], pa.int64()), "c": pa.array([], pa.int64())}
            )
        order = np.argsort(tok, kind="stable")
        t_s, b_s = tok[order], bit[order]
        new = run_starts(t_s)
        seg = np.cumsum(new) - 1
        masks = np.zeros(int(new.sum()), dtype=np.int64)
        np.bitwise_or.at(masks, seg, np.int64(1) << b_s)
        vals, c = np.unique(masks, return_counts=True)
        return pa.table({"mask": pa.array(vals), "c": pa.array(c.astype(np.int64))})

    table = partitioned_group_sum(
        keyed_exchange(
            ds.map_batches(incidences, batch_format="pyarrow", zero_copy_batch=True),
            mask_counts,
            keys="token",
        ),
        "mask",
        "c",
    ).take_all()  # <= distinct masks (KB)
    mask_c = {int(r["mask"]): int(r["sum(c)"]) for r in table}

    rows = {
        "group_a": [], "group_b": [], "n_a": [], "n_b": [],
        "n_inter": [], "n_union": [], "jaccard": [],
    }
    size = {
        i: sum(c for m, c in mask_c.items() if (m >> i) & 1)
        for i in range(len(groups))
    }
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            inter = sum(
                c for m, c in mask_c.items() if ((m >> i) & 1) and ((m >> j) & 1)
            )
            union = sum(
                c for m, c in mask_c.items() if ((m >> i) & 1) or ((m >> j) & 1)
            )
            rows["group_a"].append(groups[i])
            rows["group_b"].append(groups[j])
            rows["n_a"].append(size[i])
            rows["n_b"].append(size[j])
            rows["n_inter"].append(inter)
            rows["n_union"].append(union)
            rows["jaccard"].append(
                float(inter) / float(union) if union else 0.0
            )
    return rd.from_arrow(
        pa.table(
            {
                "group_a": pa.array(rows["group_a"], pa.string()),
                "group_b": pa.array(rows["group_b"], pa.string()),
                "n_a": pa.array(rows["n_a"], pa.int64()),
                "n_b": pa.array(rows["n_b"], pa.int64()),
                "n_inter": pa.array(rows["n_inter"], pa.int64()),
                "n_union": pa.array(rows["n_union"], pa.int64()),
                "jaccard": pa.array(rows["jaccard"], pa.float64()),
            }
        )
    )


def group_count_cosine_pipeline(
    ds,
    *,
    group_col: str,
    token_col: str,
):
    """-> Dataset[(g_a, g_b, dot, cos)] for every UNORDERED group pair
    (g_a < g_b lexicographically): cosine similarity between the groups'
    token-COUNT vectors — "how alike are two languages' (or sources')
    token distributions", the counted sibling of
    :func:`vocab_jaccard_pipeline`'s membership overlap.

    Exactness: dot products and norms are Σ c_a·c_b over shared tokens —
    per-element products ride the umul128 16-bit limb lanes
    (pipelines/stats.py) and reassemble in Python ints, so ``dot`` is
    exact at any corpus size and ``cos`` is ONE fixed-op-order float
    chain mirrored in SQL.

    Scale shape: per-block (group, token, count) Arrow pre-agg → one
    vocab-bounded keyed fold → ONE hash(token) re-exchange co-locates
    each token's per-group counts → per-partition segment pair explosion
    (k² pairs for a token present in k groups — k is the GROUP count, a
    handful) → per-(pair) limb sums → KB pair fold → python-int finalize.
    Self-pairs carry the norms, so no separate pass."""
    import math

    from .stats import _limb_cols, _umul128

    counted = partitioned_group_agg(ds, [group_col, token_col], [(None, "count")])

    def by_token(t: pa.Table) -> pa.Table:
        return pa.table(
            {"tok": t.column(token_col), "g": t.column(group_col), "c": t.column("count()")}
        )

    def pair_partials(pt: pa.Table) -> pa.Table:
        tok = pt.column("tok").to_numpy(zero_copy_only=False)
        g = pt.column("g").to_numpy(zero_copy_only=False)
        c = pt.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
        if c.size and int(c.max()) >= 3_000_000_000:
            raise OverflowError(
                "group_count_cosine_pipeline: a (group, token) count >= 3e9 "
                "would overflow the uint64 pair product"
            )
        order = np.lexsort((g, tok))
        tok, g, c = tok[order], g[order], c[order]
        n = tok.size
        if n == 0:
            return pa.table(
                {
                    "ga": pa.array([], pa.string()),
                    "gb": pa.array([], pa.string()),
                    **{f"d_{k}": pa.array([], pa.int64()) for k in range(8)},
                }
            )
        # unordered pairs WITH self-pairs per token run: i < j, then i == j
        # (the limb sums below do not depend on pair order)
        first, second = run_pairs(run_starts(tok))
        diag = np.arange(n, dtype=np.int64)
        first, second = np.concatenate([first, diag]), np.concatenate([second, diag])
        ca = c[first].astype(np.uint64)
        cb = c[second].astype(np.uint64)
        # integer group codes (np.unique is sorted, so code order IS the
        # lexicographic group order); a string-concat key would be wrong —
        # numpy fixed-width unicode strips trailing NULs, so ('a','bb') and
        # ('ab','b') would collide under any separator-join scheme
        uniq_g, gcode = np.unique(g, return_inverse=True)
        a_code = gcode[first]
        b_code = gcode[second]
        swap = a_code > b_code
        a2 = np.where(swap, b_code, a_code).astype(np.int64)
        b2 = np.where(swap, a_code, b_code).astype(np.int64)
        pkey = a2 * np.int64(uniq_g.size) + b2
        porder = np.argsort(pkey, kind="stable")
        pkey_s = pkey[porder]
        pnew = run_starts(pkey_s)
        pstarts = np.flatnonzero(pnew)
        hi, lo = _umul128(ca[porder], cb[porder])
        cols = {
            "ga": pa.array(uniq_g[a2[porder][pstarts]].tolist(), pa.string()),
            "gb": pa.array(uniq_g[b2[porder][pstarts]].tolist(), pa.string()),
        }
        for k, v in _limb_cols("d", hi, lo, pstarts, 8).items():
            cols[k] = pa.array(v)
        return pa.table(cols)

    partials = keyed_exchange(
        counted.map_batches(by_token, batch_format="pyarrow", zero_copy_batch=True),
        pair_partials,
        keys="tok",
    )
    summed = partitioned_group_sum(partials, ["ga", "gb"], [f"d_{k}" for k in range(8)])

    def finalize(t: pa.Table) -> pa.Table:
        rows = t.to_pylist()  # G² rows — KB
        dots = {}
        for r in rows:
            dots[(r["ga"], r["gb"])] = sum(
                int(r[f"sum(d_{k})"]) << (16 * k) for k in range(8)
            )
        out_a, out_b, out_dot, out_cos = [], [], [], []
        for (a, b), d in sorted(dots.items()):
            if a == b:
                continue
            if d >= 2**63:
                raise OverflowError(
                    f"group_count_cosine_pipeline: dot({a!r}, {b!r}) = {d} "
                    "exceeds the int64 output column; drop the dot column "
                    "or rescale counts (cos itself is exact from the limb "
                    "lanes regardless)"
                )
            naa = dots.get((a, a), 0)
            nbb = dots.get((b, b), 0)
            cos = (
                float(d) / (math.sqrt(float(naa)) * math.sqrt(float(nbb)))
                if naa > 0 and nbb > 0
                else 0.0
            )
            out_a.append(a)
            out_b.append(b)
            out_dot.append(d)
            out_cos.append(cos)
        return pa.table(
            {
                "g_a": pa.array(out_a, pa.string()),
                "g_b": pa.array(out_b, pa.string()),
                "dot": pa.array(out_dot, pa.int64()),
                "cos": pa.array(out_cos, pa.float64()),
            }
        )

    return summed.repartition(1).map_batches(
        finalize, batch_format="pyarrow", batch_size=None
    )
