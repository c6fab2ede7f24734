"""Resumable sketch jobs: per-shard state checkpoints + lineage manifest.

The reference serializes sketches one-way for shipping to a central node
(`/root/reference/lib/ddsketch/proto.rb:18-44`, README.md:96-113); here the
state tables round-trip (SURVEY.md §2.4 #29), which is what makes a
100 TB run resumable: sketch states are per-input-shard partial aggregates,
so a killed run only re-processes shards whose states were never committed.

Layout under ``checkpoint_dir``:

    manifest.json              - committed runs: shard list, rows, timings
    run-000/*.parquet          - state table for that run's shards
    run-001/*.parquet          - ...

Commit protocol: the run dir is cleared (``shutil.rmtree``), the run's states
are written via ``write_parquet``, then the manifest is atomically replaced
(tmp + rename).  A crash before the rename leaves an orphan run dir whose
files the retry DELETES before re-writing — ``write_parquet`` in Ray 2.49
APPENDS into an existing directory, so without the rmtree a retry into the
same run id would double-count every shard's states.  Shards are only ever
skipped when their states are durably committed.  Because sketch
merge is associative/commutative and accumulation is deterministic per shard,
re-processing after a crash yields bit-identical final results.

The manifest doubles as per-partition LINEAGE + metrics: every committed run
records which input shards produced which state partition, with row counts,
wall time and throughput (the north_rule's "per-partition checkpoints with
lineage and throughput metrics").

The manifest records ``state_format``, the layout of the committed state
tables.  A checkpoint committed in another layout is refused with a clear
error instead of being merged: layout 1 (no ``state_format`` key) carried
DDSketch stores as dense ``bins``/``bin_offset`` arrays, layout 2 as
sparse ``keys``/``counts`` lists.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time
from typing import Sequence

__all__ = ["CheckpointedRun", "checkpointed_sketch_job", "STATE_FORMAT"]

#: layout of the committed state tables (see the module docstring)
STATE_FORMAT = 2


class CheckpointedRun:
    """Driver for a resumable rows -> states -> merged-result sketch job."""

    def __init__(
        self,
        checkpoint_dir: str,
        specs: Sequence,
        group_keys: Sequence[str] = (),
        *,
        derive=None,
        columns: Sequence[str] | None = None,
    ):
        self.dir = checkpoint_dir
        self.specs = list(specs)
        self.group_keys = tuple(group_keys)
        self.derive = derive
        self.columns = list(columns) if columns else None
        os.makedirs(self.dir, exist_ok=True)

    # -- manifest ----------------------------------------------------------
    @property
    def _manifest_path(self) -> str:
        return os.path.join(self.dir, "manifest.json")

    def manifest(self) -> dict:
        if os.path.exists(self._manifest_path):
            with open(self._manifest_path) as f:
                return json.load(f)
        return {"runs": []}

    def done_shards(self) -> set[str]:
        return {s for run in self.manifest()["runs"] for s in run["shards"]}

    def _check_format(self) -> None:
        m = self.manifest()
        got = m.get("state_format", 1)
        if m["runs"] and got != STATE_FORMAT:
            raise ValueError(
                f"checkpoint {self.dir} holds state tables in layout {got}; this version "
                f"reads layout {STATE_FORMAT} only - re-run into a new checkpoint_dir"
            )

    def _commit(self, run_entry: dict) -> None:
        m = self.manifest()
        m["state_format"] = STATE_FORMAT
        m["runs"].append(run_entry)
        tmp = self._manifest_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(m, f, indent=2)
        os.replace(tmp, self._manifest_path)  # atomic commit

    # -- processing --------------------------------------------------------
    def process(self, input_files: Sequence[str], *, max_shards: int | None = None) -> dict:
        """Accumulate states for not-yet-committed shards; commit atomically.

        ``max_shards`` bounds one invocation (lets tests simulate a killed
        run).  Returns the lineage entry (empty dict if nothing pending).
        """
        from ..pipelines.corpus import read_corpus, sketch_states

        self._check_format()
        pending = [f for f in input_files if f not in self.done_shards()]
        if max_shards is not None:
            pending = pending[:max_shards]
        if not pending:
            return {}

        from .metrics import parse_stage_metrics

        run_id = f"run-{len(self.manifest()['runs']):03d}"
        out_dir = os.path.join(self.dir, run_id)
        # A crashed previous attempt may have left files under this run id;
        # write_parquet APPENDS into an existing dir, so clear it first or the
        # retry would commit two copies of every shard's states.
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        ds = read_corpus(pending, self.columns, num_blocks=len(pending))
        rows = ds.count()
        states = sketch_states(ds, self.specs, self.group_keys, derive=self.derive)
        materialized = states.materialize()
        materialized.write_parquet(out_dir)
        wall = time.perf_counter() - t0
        entry = {
            "run_id": run_id,
            "shards": list(pending),
            "rows": rows,
            "wall_s": round(wall, 3),
            "rows_per_sec": round(rows / wall, 1) if wall else None,
            "committed_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "stage_metrics": parse_stage_metrics(materialized.stats()),
        }
        self._commit(entry)
        return entry

    # -- results -----------------------------------------------------------
    def states_dataset(self):
        """All committed state tables as one Dataset (orphan runs excluded)."""
        import ray.data as rd

        self._check_format()
        run_ids = [r["run_id"] for r in self.manifest()["runs"]]
        files = [f for rid in run_ids for f in sorted(glob.glob(os.path.join(self.dir, rid, "*.parquet")))]
        if not files:
            raise FileNotFoundError(f"no committed state checkpoints under {self.dir}")
        return rd.read_parquet(files)

    def result(self):
        """Merge all committed states -> finalized per-group result Dataset."""
        from ..pipelines.corpus import merge_sketch_states
        from ..stages import unnest

        out = merge_sketch_states(self.states_dataset(), self.specs, self.group_keys)
        for spec in self.specs:
            out = unnest(out, columns=[spec.name], prefix=f"{spec.name}_")
        return out


def checkpointed_sketch_job(
    input_files: Sequence[str],
    checkpoint_dir: str,
    specs: Sequence,
    group_keys: Sequence[str] = (),
    *,
    derive=None,
    columns: Sequence[str] | None = None,
    max_shards_per_run: int | None = None,
):
    """One-call convenience: process everything pending, return result Dataset."""
    run = CheckpointedRun(
        checkpoint_dir, specs, group_keys, derive=derive, columns=columns
    )
    while True:
        entry = run.process(input_files, max_shards=max_shards_per_run)
        if not entry or max_shards_per_run is None:
            break
    return run.result()
