"""Per-stage metrics emission tests."""

from __future__ import annotations

import json


class TestStageMetrics:
    def test_run_with_metrics_emits_stages(self, ray_session, tmp_path, sf_dir):
        from ddsketch_ruby_ray.pipelines import documents_sketch_pipeline
        from ddsketch_ruby_ray.state.metrics import run_with_metrics

        path = str(tmp_path / "metrics.json")
        out, metrics = run_with_metrics(
            documents_sketch_pipeline(sf_dir), metrics_path=path
        )
        assert metrics["rows"] == out.count() > 0
        assert metrics["wall_s"] > 0
        stages = metrics["stages"]
        # read+accumulate, then the small state table's one-task fold + unnest
        assert len(stages) >= 2
        names = " ".join(s["name"] for s in stages)
        assert "SketchStateAccumulator" in names
        assert "fold_in_one_task" in names
        assert any(s["rows_out"] for s in stages)
        on_disk = json.load(open(path))
        assert on_disk["stages"] == stages

    def test_checkpoint_manifest_carries_stage_metrics(
        self, ray_session, tmp_path
    ):
        import glob
        import os

        from ddsketch_ruby_ray.functions.specs import DDSketchSpec
        from ddsketch_ruby_ray.sources.corpus import write_corpus
        from ddsketch_ruby_ray.stages import derive_content_metrics
        from ddsketch_ruby_ray.state import CheckpointedRun

        d = str(tmp_path / "corpus")
        write_corpus(d, 500, num_blocks=2)
        files = sorted(glob.glob(os.path.join(d, "*.parquet")))
        run = CheckpointedRun(
            str(tmp_path / "ck"),
            [DDSketchSpec(on="content_bytes", name="b")],
            ("lang",),
            derive=lambda t: derive_content_metrics(t, content_col="content").drop_columns(
                ["content"]
            ),
            columns=["lang", "content"],
        )
        entry = run.process(files)
        assert entry["stage_metrics"], "lineage entry must carry per-stage metrics"
        assert all("wall_s" in s for s in entry["stage_metrics"])
