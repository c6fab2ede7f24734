"""Checkpoint / resume / lineage tests (north_rule: resumable from
per-partition checkpoints, any merge order -> identical results)."""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np
import pytest

from ddsketch_ruby_ray.functions.specs import DDSketchSpec
from ddsketch_ruby_ray.functions.family_specs import HLLSpec
from ddsketch_ruby_ray.state import CheckpointedRun
from ddsketch_ruby_ray.state.checkpoint import STATE_FORMAT


@pytest.fixture(scope="module")
def corpus_files(ray_session, tmp_path_factory):
    """Small deterministic corpus split across 6 parquet shards."""
    from ddsketch_ruby_ray.sources.corpus import write_corpus

    d = str(tmp_path_factory.mktemp("ckpt_corpus"))
    write_corpus(d, 3000, num_blocks=6)
    files = sorted(glob.glob(os.path.join(d, "*.parquet")))
    assert len(files) >= 4
    return files


def _specs():
    from ddsketch_ruby_ray.stages import derive_content_metrics

    specs = [
        DDSketchSpec(on="content_bytes", name="bytes", quantiles=(0.5, 0.99)),
        HLLSpec(on="repo", name="repos", p=12, kind="str"),
    ]
    derive = lambda t: derive_content_metrics(t, content_col="content").drop_columns(["content"])
    return specs, derive


def _result_df(run):
    return (
        run.result()
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )


class TestCheckpointResume:
    def test_single_run_matches_direct(self, ray_session, corpus_files, tmp_path):
        import ray.data as rd

        from ddsketch_ruby_ray.pipelines import grouped_sketch_pipeline, read_corpus

        specs, derive = _specs()
        run = CheckpointedRun(str(tmp_path / "ck"), specs, ("lang",), derive=derive,
                              columns=["repo", "lang", "content"])
        entry = run.process(corpus_files)
        assert sorted(entry["shards"]) == sorted(corpus_files)
        assert entry["rows"] == 3000
        assert run.manifest()["state_format"] == STATE_FORMAT
        ck = _result_df(run)

        direct = grouped_sketch_pipeline(
            read_corpus(corpus_files, ["repo", "lang", "content"]),
            specs, ("lang",), derive=derive,
            prefixes={"bytes": "bytes_", "repos": "repos_"},
        ).to_pandas().sort_values("lang").reset_index(drop=True)
        assert list(ck.columns) == list(direct.columns)
        for c in ck.columns:
            if ck[c].dtype.kind in "fi":
                assert np.allclose(ck[c], direct[c], rtol=0, atol=0, equal_nan=True), c
            else:
                assert (ck[c] == direct[c]).all(), c

    def test_interrupted_run_resumes_without_reprocessing(
        self, ray_session, corpus_files, tmp_path
    ):
        specs, derive = _specs()
        ck_dir = str(tmp_path / "ck2")
        run = CheckpointedRun(ck_dir, specs, ("lang",), derive=derive,
                              columns=["repo", "lang", "content"])
        # "killed" after two shards
        e1 = run.process(corpus_files, max_shards=2)
        assert len(e1["shards"]) == 2

        # fresh driver resumes
        run2 = CheckpointedRun(ck_dir, specs, ("lang",), derive=derive,
                               columns=["repo", "lang", "content"])
        assert run2.done_shards() == set(e1["shards"])
        e2 = run2.process(corpus_files)
        assert set(e2["shards"]) == set(corpus_files) - set(e1["shards"])
        # lineage: two committed runs with metrics
        m = run2.manifest()
        assert len(m["runs"]) == 2
        assert all(r["rows_per_sec"] > 0 for r in m["runs"])
        # nothing left to do; idempotent
        assert run2.process(corpus_files) == {}

        # result identical to a single uninterrupted run (merge associativity)
        single = CheckpointedRun(str(tmp_path / "ck3"), specs, ("lang",), derive=derive,
                                 columns=["repo", "lang", "content"])
        single.process(corpus_files)
        a, b = _result_df(run2), _result_df(single)
        for c in a.columns:
            if a[c].dtype.kind in "fi":
                assert np.allclose(a[c], b[c], equal_nan=True), c
            else:
                assert (a[c] == b[c]).all(), c

    def test_orphan_run_dir_is_ignored(self, ray_session, corpus_files, tmp_path):
        specs, derive = _specs()
        ck_dir = str(tmp_path / "ck4")
        run = CheckpointedRun(ck_dir, specs, ("lang",), derive=derive,
                              columns=["repo", "lang", "content"])
        run.process(corpus_files, max_shards=3)
        # simulate a crash AFTER writing states but BEFORE manifest commit:
        # copy run-000 to run-001 (uncommitted orphan)
        shutil.copytree(os.path.join(ck_dir, "run-000"), os.path.join(ck_dir, "run-001"))
        df_with_orphan = _result_df(run)
        # counts reflect only committed shards (3 of 6 -> half the corpus)
        assert df_with_orphan["bytes_count"].sum() < 3000

    def test_crash_between_write_and_commit_then_retry(
        self, ray_session, corpus_files, tmp_path, monkeypatch
    ):
        """Regression: a crash AFTER write_parquet but BEFORE the manifest
        rename leaves run-000 files; the retry reuses run id run-000 and must
        NOT append a second copy of every shard's states (Ray's write_parquet
        appends into an existing dir)."""
        specs, derive = _specs()
        ck_dir = str(tmp_path / "ck6")
        run = CheckpointedRun(ck_dir, specs, ("lang",), derive=derive,
                              columns=["repo", "lang", "content"])
        orig_commit = CheckpointedRun._commit
        state = {"calls": 0}

        def crashing_commit(self, entry):
            state["calls"] += 1
            if state["calls"] == 1:
                raise RuntimeError("simulated crash pre-commit")
            return orig_commit(self, entry)

        monkeypatch.setattr(CheckpointedRun, "_commit", crashing_commit)
        with pytest.raises(RuntimeError):
            run.process(corpus_files, max_shards=2)
        # orphan run-000 parquet files exist but are uncommitted
        assert glob.glob(os.path.join(ck_dir, "run-000", "*.parquet"))
        assert run.manifest()["runs"] == []

        # fresh driver retries into the SAME run id, then finishes the rest
        run2 = CheckpointedRun(ck_dir, specs, ("lang",), derive=derive,
                               columns=["repo", "lang", "content"])
        e1 = run2.process(corpus_files, max_shards=2)
        assert e1["run_id"] == "run-000"
        run2.process(corpus_files)
        total = _result_df(run2)["bytes_count"].sum()
        assert total == 3000  # every row counted exactly once, no double-append

    def test_dense_layout_checkpoint_is_refused(self, corpus_files, tmp_path):
        """A checkpoint committed with dense DDSketch states (``bins`` and
        ``bin_offset``, no ``state_format`` in the manifest) is neither
        resumed nor finalized: mixing its tables with sparse ones would not
        merge."""
        import json

        import pyarrow as pa
        import pyarrow.parquet as pq

        ck_dir = tmp_path / "ck_dense"
        (ck_dir / "run-000").mkdir(parents=True)
        dense = pa.struct([("bins", pa.list_(pa.float64())), ("bin_offset", pa.int32()),
                           ("count", pa.float64())])
        pq.write_table(
            pa.table({"lang": ["ruby"],
                      "bytes": pa.array([{"bins": [1.0, 2.0], "bin_offset": 7, "count": 3.0}],
                                        dense)}),
            str(ck_dir / "run-000" / "part-0.parquet"),
        )
        (ck_dir / "manifest.json").write_text(
            json.dumps({"runs": [{"run_id": "run-000", "shards": corpus_files[:1]}]})
        )
        specs, derive = _specs()
        run = CheckpointedRun(str(ck_dir), specs, ("lang",), derive=derive,
                              columns=["repo", "lang", "content"])
        with pytest.raises(ValueError, match="layout 1"):
            run.process(corpus_files)
        with pytest.raises(ValueError, match="layout 1"):
            run.result()
        assert sorted(os.listdir(ck_dir)) == ["manifest.json", "run-000"]

    def test_result_without_checkpoints_raises(self, ray_session, tmp_path):
        specs, derive = _specs()
        run = CheckpointedRun(str(tmp_path / "ck5"), specs, ("lang",), derive=derive)
        with pytest.raises(FileNotFoundError):
            run.states_dataset()
