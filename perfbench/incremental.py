"""The ``incremental_ingest`` workload: the ``ray job submit`` path of
``jobs/flagship_job.py``, measured step by step.

The input arrives in shards (one per generated file).  Each step commits one
more shard with ``CheckpointedRun.process`` and then answers the per-lang
query with ``CheckpointedRun.result``, which reads and merges every
committed state; the result must equal the exact answer over the shards
committed so far.  ``ingest_s`` and ``query_s`` (median per-step latencies)
go on the detail line with every step's value.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

from perfbench import layers, spans, workloads
from perfbench.run import Bench, Failed


class IncrementalBench(Bench):
    oracle_args = ("--prefixes",)

    def warm_up(self) -> None:
        """Two commit + query steps on the warm-up set."""
        ck = os.path.join(self.work, "ck-warm")
        shutil.rmtree(ck, ignore_errors=True)
        run = workloads.checkpointed_run(self.w, ck)
        for i in range(2):
            run.process(self.warm[: i + 1])
            workloads.pull(run.result())

    def incremental_pass(self, ck_dir: str, on_step) -> None:
        """Commit the shards one by one; after each commit query the merged
        result of everything committed so far."""
        shutil.rmtree(ck_dir, ignore_errors=True)
        run = workloads.checkpointed_run(self.w, ck_dir)
        for i in range(len(self.files)):
            with self.tracer.span("step", shard=i):
                t0 = time.perf_counter()
                with self.tracer.span("state.commit"):
                    entry = run.process(self.files[: i + 1])
                t1 = time.perf_counter()
                with self.tracer.span("state.result"):
                    result = workloads.pull(run.result())
                t2 = time.perf_counter()
            on_step(i, ck_dir, entry, t1 - t0, t2 - t1, result)

    def measure(self, seconds: float) -> None:
        """Whole passes over the shards until the next one would end after
        ``seconds`` (at least one)."""
        smp = self.samples
        c0 = spans.tree_cpu_s()

        def on_step(i, ck_dir, entry, t_ingest, t_query, result):
            nonlocal c0
            smp["step_cpu_s"].append(spans.tree_cpu_s() - c0)
            smp["ingest_s"].append(t_ingest)
            smp["query_s"].append(t_query)
            smp["step_rows"].append(entry["rows"])
            self.check(result, prefix=i, self_test=len(smp["query_s"]) == 1)
            c0 = spans.tree_cpu_s()

        start = time.perf_counter()
        while True:
            self.attempted += len(self.files)
            t0 = time.perf_counter()
            try:
                self.incremental_pass(os.path.join(self.work, "ck"), on_step)
            except Failed:
                raise
            except Exception as e:
                raise Failed(f"step raised {type(e).__name__}: {e}") from e
            if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
                break

    def job_s(self) -> float:
        """Median wall of one commit + query step."""
        smp = self.samples
        return statistics.median(a + b for a, b in zip(smp["ingest_s"], smp["query_s"]))

    def rates(self) -> tuple[float, float]:
        """-> (median over steps of shard rows per second of commit wall,
        CPU-s per million committed rows)."""
        smp = self.samples
        return (
            statistics.median(r / t for r, t in zip(smp["step_rows"], smp["ingest_s"])),
            sum(smp["step_cpu_s"]) / sum(smp["step_rows"]) * 1e6,
        )

    def detail(self) -> dict:
        smp = self.samples
        return {
            **super().detail(),
            "steps": len(smp["ingest_s"]),
            "ingest_s_median": statistics.median(smp["ingest_s"]),
            "query_s_median": statistics.median(smp["query_s"]),
        }

    def traced_state(self, out: dict) -> float:
        """state.* as medians over a traced shard-by-shard pass; -> its median
        step wall (this workload's job)."""
        samples, steps = [], []

        def on_step(i, ck_dir, entry, t_commit, t_result, result):
            self.check(result, prefix=i)
            samples.append(layers.state_sample(ck_dir, entry, t_commit, t_result))
            steps.append(t_commit + t_result)

        self.incremental_pass(os.path.join(self.work, "ck-trace"), on_step)
        out.update({k: statistics.median(s[k] for s in samples) for k in samples[0]})
        return statistics.median(steps)
