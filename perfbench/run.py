#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the ddsketch_ruby_ray pipelines.

    python3 perfbench/run.py --workload lang_flagship --seed 1 --seconds 18 --trace 0

One run: start a fixed-size local Ray cluster, generate the workload's input
from ``--seed`` and warm up (timed as set-up), compute the exact answers off
the clock, then run the workload's job in a closed loop (one driver, one job
at a time); this repeats on SETUPS fresh clusters that share ``--seconds``
of timed jobs.  Every result is checked against the exact answers.  The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records the run's configuration and every sample.  With ``--trace 1`` the metrics are the per-layer ones (layers.py).

Exit codes: 0 ok; 1 a job failed, timed out or gave a wrong answer (the
last line then has ``"correct": false`` and no metrics); 2 the library is
not importable next to this directory (nothing is printed on stdout).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import logging
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".pbw")

NUM_CPUS = 2
OBJECT_STORE_BYTES = 768 * 1024**2
WARM_ROWS = 4_000
DEADLINE_S = 170  # the whole run, then it fails instead of hanging
SETUPS = 2  # set-ups per run; setup_s is their median


E2E_UNITS = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "cpu_s_per_mrow": "s/Mrow",
    "peak_rss_mb": "MB",
}


class Failed(RuntimeError):
    """A job raised, timed out or returned a wrong answer."""


def _quiet_ray_logs() -> None:
    """Drop Ray Data's 'RefBundle with a different schema' warnings (the sort
    shuffle emits schema-less empty blocks; the pipelines emit typed ones)
    and its per-execution INFO lines."""

    class _F(logging.Filter):
        def filter(self, rec: logging.LogRecord) -> bool:
            return "RefBundle with a different schema" not in rec.getMessage()

    logging.getLogger("ray.data._internal.execution.streaming_executor_state").addFilter(_F())
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def _on_term(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the cleanup in main()


class Bench:
    """One benchmark run: cluster, inputs, exact answers, timed loop of the
    workload's one-shot query.  ``incremental.IncrementalBench`` overrides
    the job-specific methods for ``incremental_ingest``."""

    oracle_args: tuple = ()

    def __init__(self, w, seed: int, seconds: float, work: str):
        from perfbench import spans

        self.w, self.seed, self.seconds = w, seed, seconds
        self.work = work
        # Ray puts its AF_UNIX sockets under its temp dir and refuses socket
        # paths longer than 107 bytes, which ``work`` under a deep checkout
        # exceeds; the same directory reached through an open descriptor
        # of this process has a short absolute path
        self._work_fd = os.open(work, os.O_RDONLY | os.O_DIRECTORY)
        self.ray_tmp = f"/proc/{os.getpid()}/fd/{self._work_fd}/r"
        self.tracer = spans.Tracer(f"{w.name}-{seed}-{os.getpid()}", enabled=False)
        self.files: list[str] = []
        self.warm: list[str] = []
        self.setup_s: list[float] = []
        self.setup_parts: list[dict] = []
        self.truth = None
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.result_sha256 = None
        self.samples: dict[str, list] = collections.defaultdict(list)
        self.peak_rss_mb = 0.0

    # -- cluster and inputs ------------------------------------------------
    def ray_init(self) -> None:
        import ray
        from ray.data import DataContext

        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            _temp_dir=self.ray_tmp,
        )
        DataContext.get_current().enable_progress_bars = False

    def ray_shutdown(self) -> None:
        import ray

        if ray.is_initialized():
            ray.shutdown()
        reap_children()

    def start_generator(self) -> subprocess.Popen:
        w = self.w
        return subprocess.Popen(
            [
                sys.executable, os.path.join(HERE, "gen.py"), os.path.join(self.work, "data"),
                "--seed", str(self.seed), "--rows", str(w.rows), "--files", str(w.files),
                "--repos", str(w.repos), "--dup-share", str(w.dup_share),
                "--warm-rows", str(WARM_ROWS),
            ],
            stdout=subprocess.PIPE, text=True,
        )

    def wait_generator(self, proc: subprocess.Popen) -> None:
        out, _ = proc.communicate()
        if proc.returncode:
            raise Failed(f"input generator exited with {proc.returncode}")
        paths = json.loads(out)
        self.files, self.warm = paths["in"], paths["warm"]

    def setup(self) -> None:
        """ray.init + input generation + warm-up, timed as one set-up."""
        t0 = time.perf_counter()
        gen = self.start_generator()  # runs while the cluster starts
        try:
            self.ray_init()
            t1 = time.perf_counter()
        finally:
            self.wait_generator(gen)
        t2 = time.perf_counter()
        self.warm_up()
        t3 = time.perf_counter()
        self.setup_s.append(t3 - t0)
        self.setup_parts.append({"ray_init": t1 - t0, "inputs": t2 - t1, "warm_up": t3 - t2})

    def run(self) -> None:
        """SETUPS rounds of set-up then an equal share of ``seconds`` of
        timed jobs on that fresh cluster; every cluster but the last is shut
        down.  Job walls drift with the host's load and differ between
        clusters, so each run samples more than one of both."""
        from perfbench import spans

        for i in range(SETUPS):
            self.setup()
            if self.truth is None:
                self.compute_truth()
            self.measure(self.seconds / SETUPS)
            self.peak_rss_mb = max(self.peak_rss_mb, spans.tree_hwm_mb())
            if i < SETUPS - 1:
                self.ray_shutdown()

    def warm_up(self) -> None:
        """The workload's own job on the small warm-up set: starts every
        worker and imports the library there, off the clock."""
        from perfbench import workloads

        workloads.pull(workloads.query_ds(self.w, self.warm))

    def compute_truth(self) -> None:
        """Exact answers in a separate process (numpy/pyarrow/hashlib only)."""
        from perfbench import oracle

        path = os.path.join(self.work, "truth.json")
        cmd = [sys.executable, os.path.join(HERE, "oracle.py"), path, *self.files, *self.oracle_args]
        if self.w.group_keys:
            cmd += ["--keys", *self.w.group_keys]
        subprocess.run(cmd, check=True)
        if self.w.group_keys:
            self.truth = oracle.load_answers(path)
        else:
            import numpy as np

            with open(path) as fh:
                self.truth = np.array(json.load(fh)["kept"], dtype=np.int64)

    # -- checks --------------------------------------------------------------
    def check(self, result, prefix: int = -1, self_test: bool = False) -> None:
        """Raise Failed unless ``result`` equals the exact answer (for the
        first ``prefix + 1`` shards); with ``self_test`` also require that a
        copy with one value changed is rejected."""
        from perfbench import oracle
        from perfbench.workloads import ALPHA, QUANTILES

        def verdict(table):
            if self.w.group_keys:
                return oracle.check_sketch(
                    table, self.truth[prefix], self.w.group_keys, ALPHA, QUANTILES
                )
            ok, msg = oracle.check_dedup(table, self.truth)
            return ok, None, msg

        ok, err, msg = verdict(result)
        if not ok:
            raise Failed(f"wrong result: {msg}")
        if err is not None:
            self.max_rel_err = max(self.max_rel_err, err)
        if self_test:
            column = "bytes_p50" if self.w.group_keys else "doc_id"
            if verdict(oracle.perturbed(result, column))[0]:
                raise Failed(f"self-test: a changed {column} passed the check")
        self.result_sha256 = result_digest(result, self.w.group_keys)

    # -- timed loops ---------------------------------------------------------
    def measure(self, seconds: float) -> None:
        from perfbench import spans, workloads

        walls, start = [], time.perf_counter()
        while True:
            self.attempted += 1
            c0, t0 = spans.tree_cpu_s(), time.perf_counter()
            try:
                result = workloads.pull(workloads.query_ds(self.w, self.files))
            except Exception as e:
                raise Failed(f"job raised {type(e).__name__}: {e}") from e
            walls.append(time.perf_counter() - t0)
            self.samples["job_s"].append(walls[-1])
            self.samples["job_cpu_s"].append(spans.tree_cpu_s() - c0)
            self.check(result, self_test=len(self.samples["job_s"]) == 1)
            if len(walls) >= 3 and time.perf_counter() - start + statistics.median(walls) > seconds:
                break

    def job_s(self) -> float:
        """Median wall of one job."""
        return statistics.median(self.samples["job_s"])

    def rates(self) -> tuple[float, float]:
        """-> (input rows per second of job wall, CPU-s per million rows)."""
        smp = self.samples
        return (
            self.w.rows / self.job_s(),
            sum(smp["job_cpu_s"]) / (self.w.rows * len(smp["job_s"])) * 1e6,
        )

    def end_to_end(self) -> dict:
        rows_per_s, cpu_s_per_mrow = self.rates()
        values = {
            "setup_s": statistics.median(self.setup_s),
            "rows_per_s": rows_per_s,
            "cpu_s_per_mrow": cpu_s_per_mrow,
            "peak_rss_mb": self.peak_rss_mb,
        }
        return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    def detail(self) -> dict:
        """Every sample and the job-wall median, for the detail line."""
        return {**self.samples, "job_s_median": self.job_s()}

    def traced_state(self, out: dict) -> float | None:
        """state.* of the traced run; -> the traced job wall when it is not
        the one-shot query's (None here)."""
        from perfbench import layers

        layers.state_layer(self, out)
        return None


def result_digest(table, group_keys) -> str:
    """sha256 of the result, independent of row order."""
    if group_keys:
        rows = sorted(table.to_pylist(), key=lambda r: tuple(str(r[k]) for k in group_keys))
        blob = json.dumps(rows, sort_keys=True).encode()
    else:
        import numpy as np

        blob = np.sort(table.column("doc_id").to_numpy()).tobytes()
    return hashlib.sha256(blob).hexdigest()


def reap_children(timeout: float = 20.0) -> None:
    """Wait for every descendant process to end; kill what outlives ``timeout``."""
    from perfbench import spans

    deadline = time.monotonic() + timeout
    while True:
        while True:  # collect exited direct children
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                break
        pids, table = spans.tree()
        alive = [p for p in pids if p != os.getpid() and table[p][0] != "Z"]
        if not alive:
            return
        if time.monotonic() > deadline:
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5
        time.sleep(0.1)


def config(bench: Bench) -> dict:
    import pyarrow
    import ray

    return {
        "workload": bench.w.name,
        "seed": bench.seed,
        "rows": bench.w.rows,
        "files": bench.w.files,
        "repos": bench.w.repos,
        "dup_share": bench.w.dup_share,
        "groups": len(bench.truth[-1]) if bench.w.group_keys else None,
        "kept_docs": None if bench.w.group_keys else len(bench.truth),
        "num_cpus": NUM_CPUS,
        "object_store_bytes": OBJECT_STORE_BYTES,
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "seconds": bench.seconds,
        "setups": SETUPS,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="row-count factor (smoke runs)")
    args = ap.parse_args(argv)

    import importlib.util

    spec = importlib.util.find_spec("ddsketch_ruby_ray")
    if spec is None or not os.path.abspath(spec.origin).startswith(ROOT + os.sep):
        print(f"perfbench: package ddsketch_ruby_ray not found in {ROOT}", file=sys.stderr)
        return 2
    from perfbench import spans, workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    w = workloads.scaled(workloads.WORKLOADS[args.workload], args.scale)

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="w", dir=WORK)
    # Ray's processes inherit this environment: workers (the pre-started ones
    # too) import the library from the repo root whatever the cwd, and keep
    # temporary files inside the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(os.environ["TMPDIR"])
    import ray  # noqa: F401  (import cost stays out of every set-up)
    import ddsketch_ruby_ray.pipelines  # noqa: F401

    _quiet_ray_logs()
    if w.name == "incremental_ingest":
        from perfbench.incremental import IncrementalBench as cls
    else:
        cls = Bench
    bench = cls(w, args.seed, args.seconds, work)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.alarm(DEADLINE_S)
    detail: dict = {}
    metrics: dict = {}
    ok = False
    try:
        steal0 = spans.cpu_times()
        bench.run()
        detail = {**config(bench), "steal_pct": spans.steal_pct(steal0, spans.cpu_times())}
        detail.update(
            setup_s=bench.setup_s, setup_parts_s=bench.setup_parts, jobs=bench.attempted,
            max_rel_err=bench.max_rel_err or None, result_sha256=bench.result_sha256,
            **bench.detail(),
        )
        if args.trace:
            from perfbench import layers

            metrics, detail["trace"] = layers.traced_run(bench, bench.job_s())
        else:
            metrics = bench.end_to_end()
        ok = True
    except (Failed, TimeoutError) as e:
        bench.failed += 1
        print(f"perfbench: {e}", file=sys.stderr)
    except Exception:
        bench.failed += 1
        traceback.print_exc()
    finally:
        signal.alarm(0)
        bench.ray_shutdown()
        shutil.rmtree(work, ignore_errors=True)

    if ok:
        print(json.dumps(detail))
    verdict = {"correct": ok, "attempted": max(bench.attempted, 1), "failed": bench.failed}
    print(json.dumps({**verdict, "metrics": metrics if ok else {}}))
    return 0 if ok else 1


if __name__ == "__main__":
    # run as perfbench.run, the module layers.py and incremental.py import
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench import run

    sys.exit(run.main())
