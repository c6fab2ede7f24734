"""Exact answers for the benchmark's workloads, computed without the library.

Everything here is numpy, pyarrow and ``hashlib`` over the generated Parquet
files: per-group count/sum/min/max and rank-rule quantiles of content bytes
and line counts, the per-group XOR of sha256 prefixes, and the minimum
``doc_id`` per distinct content.  The checks compare a pipeline's output
table against these answers.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

METRICS = ("bytes", "lines")


def quantile_name(q: float) -> str:
    return "p" + f"{q * 100:.10g}".replace(".", "")


def content_metrics(content: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """UTF-8 byte length and line count (newlines + 1) per row, from the raw
    Arrow offsets and data buffers."""
    content = content.cast(pa.large_string())
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    _, off_buf, data_buf = content.buffers()
    off = np.frombuffer(off_buf, dtype=np.int64)[content.offset : content.offset + len(content) + 1]
    data = np.frombuffer(data_buf, dtype=np.uint8) if data_buf is not None else np.zeros(0, np.uint8)
    newlines = np.concatenate([[0], np.cumsum(data == 10)])
    return np.diff(off), newlines[off[1:]] - newlines[off[:-1]] + 1


def sha60(content: pa.Array) -> np.ndarray:
    """First 60 bits of sha256(content) per row, as int64."""
    return np.array(
        [int(hashlib.sha256((s or "").encode()).hexdigest()[:15], 16) for s in content.to_pylist()],
        dtype=np.int64,
    )


def read(paths, columns) -> pa.Table:
    return pa.concat_tables([pq.read_table(p, columns=list(columns)) for p in paths])


class SketchTruth:
    """Exact per-group answers for the bytes/lines DDSketch + XOR-signature
    query, built incrementally so every shard prefix has an answer."""

    def __init__(self, group_keys, quantiles=(0.5, 0.9, 0.99)):
        self.group_keys = tuple(group_keys)
        self.quantiles = tuple(quantiles)
        self._keys: list[np.ndarray] = []
        self._vals = {m: [] for m in METRICS}
        self._sig: list[np.ndarray] = []

    def add(self, table: pa.Table) -> None:
        nbytes, nlines = content_metrics(table.column("content"))
        self._vals["bytes"].append(nbytes)
        self._vals["lines"].append(nlines)
        self._sig.append(sha60(table.column("content")))
        self._keys.append(
            np.array(
                list(zip(*(table.column(k).to_pylist() for k in self.group_keys))), dtype=object
            ).reshape(table.num_rows, len(self.group_keys))
        )

    def answer(self) -> dict:
        """-> {key tuple: {"count", "bytes": {...}, "lines": {...}, "sig"}}."""
        keys = np.concatenate(self._keys)
        labels = ["\x1f".join(map(str, row)) for row in keys]
        uniq, code = np.unique(np.array(labels, dtype=object), return_inverse=True)
        first = np.zeros(len(uniq), dtype=np.int64)
        first[code[::-1]] = np.arange(len(code))[::-1]
        counts = np.bincount(code, minlength=len(uniq))
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        out = {tuple(keys[first[g]]): {"count": int(counts[g])} for g in range(len(uniq))}
        gkeys = [tuple(keys[first[g]]) for g in range(len(uniq))]
        for m in METRICS:
            v = np.concatenate(self._vals[m])
            order = np.lexsort((v, code))
            sv = v[order]
            sums = np.bincount(code, weights=v, minlength=len(uniq))
            mins = sv[starts]
            maxs = sv[starts + counts - 1]
            qs = {
                quantile_name(q): sv[starts + np.floor(q * (counts - 1)).astype(np.int64)]
                for q in self.quantiles
            }
            for g, k in enumerate(gkeys):
                out[k][m] = {
                    "sum": float(sums[g]),
                    "min": float(mins[g]),
                    "max": float(maxs[g]),
                    **{name: float(arr[g]) for name, arr in qs.items()},
                }
        sig = np.concatenate(self._sig)
        xor = np.zeros(len(uniq), dtype=np.int64)
        np.bitwise_xor.at(xor, code, sig)
        for g, k in enumerate(gkeys):
            out[k]["sig"] = int(xor[g])
        return out


def check_sketch(result: pa.Table, truth: dict, group_keys, alpha: float, quantiles) -> tuple[bool, float, str]:
    """Compare a per-group result table with ``SketchTruth.answer()``.

    Exact: group set, counts, sums, min, max, XOR signature.  Quantiles:
    ``|est - true| <= alpha * true`` (and exactly 0 where the truth is 0).
    Returns ``(ok, max_rel_err, first problem)``.
    """
    rows = result.to_pylist()
    got = {tuple(r[k] for k in group_keys): r for r in rows}
    if len(got) != len(rows):
        return False, float("nan"), "duplicate groups in result"
    if set(got) != set(truth):
        missing = set(truth) - set(got)
        extra = set(got) - set(truth)
        return False, float("nan"), f"group mismatch: {len(missing)} missing, {len(extra)} extra"
    max_err = 0.0
    for key, t in truth.items():
        r = got[key]
        if r["sig_count"] != t["count"] or r["sig_sig"] != t["sig"]:
            return False, float("nan"), f"{key}: xor signature {r['sig_sig']} != {t['sig']}"
        for m in METRICS:
            if r[f"{m}_count"] != t["count"]:
                return False, float("nan"), f"{key}: {m}_count {r[f'{m}_count']} != {t['count']}"
            for stat in ("sum", "min", "max"):
                if r[f"{m}_{stat}"] != t[m][stat]:
                    return False, float("nan"), f"{key}: {m}_{stat} {r[f'{m}_{stat}']} != {t[m][stat]}"
            for q in quantiles:
                name = quantile_name(q)
                est, true = r[f"{m}_{name}"], t[m][name]
                if true == 0:
                    if est != 0:
                        return False, float("nan"), f"{key}: {m}_{name} {est} != 0"
                    continue
                err = abs(est - true) / true
                if not err <= alpha * (1 + 1e-9):
                    return False, err, f"{key}: {m}_{name} {est} vs {true}: rel err {err:.4g} > {alpha}"
                max_err = max(max_err, err)
    return True, max_err, ""


def dedup_truth(table: pa.Table) -> np.ndarray:
    """Sorted minimum ``doc_id`` per distinct content."""
    kept = table.select(["content", "doc_id"]).group_by("content").aggregate([("doc_id", "min")])
    return np.sort(kept.column("doc_id_min").to_numpy())


def check_dedup(result: pa.Table, truth: np.ndarray) -> tuple[bool, str]:
    got = np.sort(result.column("doc_id").to_numpy())
    if len(got) != len(truth):
        return False, f"kept {len(got)} docs, expected {len(truth)}"
    bad = np.flatnonzero(got != truth)
    if len(bad):
        return False, f"{len(bad)} kept doc_ids differ, first {got[bad[0]]} vs {truth[bad[0]]}"
    return True, ""


def main(argv=None) -> None:
    """Write the exact answers for one workload's input files as JSON."""
    import argparse
    import json

    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("out")
    ap.add_argument("files", nargs="+")
    ap.add_argument("--keys", nargs="*", default=[], help="group keys; none: dedup answer")
    ap.add_argument("--prefixes", action="store_true", help="one answer per file prefix")
    args = ap.parse_args(argv)
    if not args.keys:
        out = {"kept": dedup_truth(read(args.files, ["content", "doc_id"])).tolist()}
    else:
        truth = SketchTruth(args.keys)
        answers = []
        for i, f in enumerate(args.files):
            truth.add(pq.read_table(f, columns=list(args.keys) + ["content"]))
            if args.prefixes or i == len(args.files) - 1:
                answers.append([[list(k), v] for k, v in truth.answer().items()])
        out = {"answers": answers}
    with open(args.out, "w") as fh:
        json.dump(out, fh)


def load_answers(path: str) -> list[dict]:
    """-> one ``{key tuple: answer}`` per answered prefix (sketch workloads)."""
    import json

    with open(path) as fh:
        return [{tuple(k): v for k, v in ans} for ans in json.load(fh)["answers"]]


def perturbed(result: pa.Table, column: str) -> pa.Table:
    """A copy of ``result`` with one value of ``column`` changed (self-test)."""
    col = result.column(column).to_numpy().copy()
    col[0] = col[0] * 1.5 + 1 if col.dtype.kind == "f" else col[0] + 1
    return result.set_column(result.schema.get_field_index(column), column, pa.array(col))


if __name__ == "__main__":
    main()
