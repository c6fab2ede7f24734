"""Two-phase resumable jobs for SHUFFLE pipelines (postings family).

`state/sink.py` makes per-shard-PURE transforms resumable; the postings
pipelines (duplicate-span detection, per-doc duplication scoring - the two
longest walls in BASELINE.md) are not per-shard pure: their reduce is a
global keyed shuffle, so a window duplicated across two input shards only
counts when both shards' postings meet.  They do, however, split cleanly at
the stage boundary:

* **Phase A - postings map** (the dominant cost: tokenize/shingle/hash every
  doc) IS per-shard pure -> checkpointed through ``PartitionedParquetSink``,
  one postings part per input shard, exactly-once.  A run killed at shard
  7000/10000 re-shingles only the remaining 3000.
* **Phase B - keyed reduce** runs over the checkpointed postings (never the
  raw corpus) and commits atomically: output dir cleared, written, then a
  sibling ``_DONE`` marker.  A crash mid-reduce re-runs ONLY phase B, reading
  phase A's parquet - cheap relative to re-shingling 100 TB of text.

The phase-A postings rows already carry their shuffle key (the window
hash), so phase B is pure exchange + vectorized reduce.  Determinism: both phases are
deterministic functions of the input shards, so resume yields bit-identical
results to a single uninterrupted run (pytest-pinned in test_checkpoint.py).
"""

from __future__ import annotations

import os
import shutil
from typing import Callable, Sequence

from .sink import PartitionedParquetSink

__all__ = ["staged_shuffle_job"]


def staged_shuffle_job(
    input_files: Sequence[str],
    workdir: str,
    *,
    phase_a: Callable,
    phase_b: Callable,
    read_columns: Sequence[str] | None = None,
    max_shards: int | None = None,
):
    """Run ``phase_b(union of phase_a(shard) for all shards)`` resumably.

    ``phase_a``: Dataset -> Dataset, per-shard pure (the postings map).
    ``phase_b``: Dataset -> Dataset, the global keyed reduce.
    ``max_shards`` bounds phase A for one invocation (tests simulate kills);
    phase B only runs once every input shard is committed.

    Returns the final Dataset (read back from the committed output), or
    ``None`` when ``max_shards`` stopped the run before phase A finished.
    """
    import ray.data as rd

    sink = PartitionedParquetSink(os.path.join(workdir, "postings"))
    sink.process(input_files, phase_a, read_columns=read_columns, max_shards=max_shards)
    shard_ids = sorted(map(sink._shard_id, input_files))
    pending = set(shard_ids) - sink.done_shards()
    if pending:
        return None  # phase A incomplete (max_shards); call again to resume

    final_dir = os.path.join(workdir, "final")
    done_marker = os.path.join(workdir, "final_DONE")  # sibling: the output
    # dir must hold only parquet for the read-back.  The marker records the
    # SHARD SET the final output was reduced from: re-running with extra
    # input shards re-runs phase B over the grown postings instead of
    # silently returning the stale output (review r3).
    stamp = "\n".join(shard_ids)
    done = (
        os.path.exists(done_marker) and open(done_marker).read() == stamp
    )
    if not done:
        shutil.rmtree(final_dir, ignore_errors=True)  # crashed/stale attempt
        if os.path.exists(done_marker):
            os.remove(done_marker)
        # reduce over exactly THIS call's shard set (the sink may hold
        # committed parts from other invocations of the same workdir)
        import glob as _glob

        want = set(shard_ids)
        files = [
            f
            for p in sink.manifest()["parts"]
            if p["shard"] in want
            for f in sorted(
                _glob.glob(os.path.join(sink.dir, f"part-{p['shard']}", "*.parquet"))
            )
        ]
        phase_b(rd.read_parquet(files)).write_parquet(final_dir)
        with open(done_marker, "w") as f:
            f.write(stamp)
    return rd.read_parquet(final_dir)
