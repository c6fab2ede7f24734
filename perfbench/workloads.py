"""The four benchmark workloads, as calls into the library's public API.

Each job builds its Dataset from the generated Parquet files, runs it to
completion and pulls the result to the driver as one Arrow table, which is
what a user of the pipeline waits for.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pyarrow as pa

ALPHA = 0.01
QUANTILES = (0.5, 0.9, 0.99)


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    files: int  # Parquet files = read blocks; shards for incremental_ingest
    repos: int
    dup_share: float
    group_keys: tuple  # () for the dedup workload

    @property
    def columns(self) -> list[str]:
        return list(self.group_keys) + ["content"] if self.group_keys else ["doc_id", "content"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lang_flagship", 240_000, 8, 500, 0.05, ("lang",)),
        Workload("repo_groups", 40_000, 2, 20, 0.05, ("lang", "repo")),
        Workload("dedup_exchange", 300_000, 8, 500, 0.10, ()),
        Workload("incremental_ingest", 90_000, 6, 500, 0.05, ("lang",)),
    )
}


def scaled(w: Workload, scale: float) -> Workload:
    """The same workload with ``scale`` times the rows (smoke runs)."""
    from dataclasses import replace

    return replace(w, rows=max(int(w.rows * scale), 50 * w.files))


def sketch_specs():
    """The flagship job's specs: bytes and lines DDSketches plus the XOR
    signature of per-row sha256 prefixes."""
    from ddsketch_ruby_ray.functions.specs import DDSketchSpec, XorSigSpec

    kw = dict(relative_accuracy=ALPHA, quantiles=QUANTILES)
    return [
        DDSketchSpec(on="content_bytes", name="bytes", **kw),
        DDSketchSpec(on="n_lines", name="lines", **kw),
        XorSigSpec(on="sha64", name="sig"),
    ]


def derive(t: pa.Table) -> pa.Table:
    """Content -> content_bytes, n_lines, sha64 (content dropped)."""
    from ddsketch_ruby_ray.stages import derive_content_metrics
    from ddsketch_ruby_ray.stages.derive import add_sha64

    t = derive_content_metrics(t, content_col="content")
    return add_sha64(t, content_col="content").drop_columns(["content"])


def pull(ds) -> pa.Table:
    """Run ``ds`` and collect its blocks on the driver as one table."""
    tables = [t for t in ds.iter_batches(batch_size=None, batch_format="pyarrow") if t.num_rows]
    return pa.concat_tables(tables) if tables else pa.table({})


def read(w: Workload, files):
    from ddsketch_ruby_ray.pipelines import read_corpus

    return read_corpus(files, w.columns, num_blocks=len(files))


def query_ds(w: Workload, files):
    """The workload's one-shot query as a Dataset (not yet executed)."""
    if w.group_keys:
        from ddsketch_ruby_ray.pipelines import corpus_sketch_pipeline

        return corpus_sketch_pipeline(
            read(w, files), group_keys=w.group_keys, alpha=ALPHA, quantiles=QUANTILES,
            verify_sha256=True,
        )
    from ddsketch_ruby_ray.pipelines.dedup import exact_dedup_pipeline

    return exact_dedup_pipeline(read(w, files), key_col="doc_id", text_col="content")


def checkpointed_run(w: Workload, ck_dir: str):
    from ddsketch_ruby_ray.state import CheckpointedRun

    return CheckpointedRun(ck_dir, sketch_specs(), w.group_keys, derive=derive, columns=w.columns)


def commit_bytes(ck_dir: str, entry: dict) -> int:
    run_dir = os.path.join(ck_dir, entry["run_id"])
    return sum(os.path.getsize(os.path.join(run_dir, f)) for f in os.listdir(run_dir))
