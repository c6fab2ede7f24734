"""Determinism, check self-tests and smoke runs of the benchmark.

    python3 -m pytest perfbench/tests -q

Each smoke run sets up a real local Ray cluster twice, as a full run does
(about four minutes for all of them).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, ROOT)

from perfbench import gen, oracle  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    def files(seed, name):
        return gen.write(gen.generate(seed, 3_000, n_repos=50), str(tmp_path / name), 3)

    assert _digest(files(7, "a")) == _digest(files(7, "b"))
    assert _digest(files(7, "a")) != _digest(files(8, "c"))


def test_generator_shape():
    t = gen.generate(3, 20_000, n_repos=100, dup_share=0.1)
    assert t.column_names == ["repo", "path", "commit", "lang", "content", "doc_id"]
    langs = t.column("lang").to_pylist()
    top = max(langs.count(x) for x in set(langs)) / len(langs)
    assert 0.35 < top < 0.45
    nbytes, _ = oracle.content_metrics(t.column("content"))
    assert 0.005 < (nbytes == 0).mean() < 0.02
    # sources/corpus.py's shape: ~exp(2.7) lines of ~40 characters
    assert 450 < np.median(nbytes) < 700 and 800 < nbytes.mean() < 1200
    assert len(np.unique(t.column("doc_id").to_numpy())) == t.num_rows
    distinct = len(set(t.column("content").to_pylist())) / t.num_rows
    assert 0.85 < distinct < 0.95


def _exact_result(truth: dict, keys) -> pa.Table:
    """A result table that equals the exact answer."""
    rows = []
    for key, t in truth.items():
        r = dict(zip(keys, key))
        r["sig_count"], r["sig_sig"] = float(t["count"]), t["sig"]
        for m in oracle.METRICS:
            r[f"{m}_count"] = float(t["count"])
            for stat, v in t[m].items():
                r[f"{m}_{stat}"] = v
        rows.append(r)
    return pa.Table.from_pylist(rows)


def test_sketch_check_accepts_exact_and_rejects_one_changed_value():
    table = gen.generate(5, 4_000, n_repos=20)
    truth = oracle.SketchTruth(("lang",))
    truth.add(table)
    answer = truth.answer()
    exact = _exact_result(answer, ("lang",))
    ok, err, msg = oracle.check_sketch(exact, answer, ("lang",), 0.01, (0.5, 0.9, 0.99))
    assert ok and err == 0.0, msg
    for column in ("bytes_p50", "lines_max", "sig_sig", "bytes_count"):
        bad = oracle.perturbed(exact, column)
        assert not oracle.check_sketch(bad, answer, ("lang",), 0.01, (0.5, 0.9, 0.99))[0], column


def test_dedup_check_accepts_exact_and_rejects_one_changed_value():
    table = gen.generate(5, 4_000, n_repos=20, dup_share=0.2)
    kept = oracle.dedup_truth(table)
    assert len(kept) < table.num_rows
    exact = pa.table({"doc_id": pa.array(kept[::-1].copy())})
    assert oracle.check_dedup(exact, kept)[0]
    assert not oracle.check_dedup(oracle.perturbed(exact, "doc_id"), kept)[0]


_RUNS: dict = {}


def _run(workload: str, trace: int, seed: int = 5, rep: int = 0, cwd: str = ROOT):
    key = (workload, trace, seed, rep)
    if key not in _RUNS:
        p = subprocess.run(
            [
                sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                "--scale", "0.02",
            ],
            cwd=cwd, capture_output=True, text=True, timeout=180,
        )
        _RUNS[key] = p
    return _RUNS[key]


# incremental_ingest runs by name but is not in BENCHMARK.json (see README.md)
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["incremental_ingest"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload, trace, tmp_path):
    p = _run(workload, trace, cwd=str(tmp_path))  # any working directory
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for k, v in result["metrics"].items():
        assert np.isfinite(v["value"]), k
    assert detail["num_cpus"] == 2 and detail["seed"] == 5
    if trace:
        report = detail["trace"]
        assert "ray.floor_s" in report["floor_plus_work"]
        assert "tracing_overhead_s" in report and report["plan"]
        assert os.path.exists(os.path.join(ROOT, report["spans_file"]))


def test_same_seed_same_result_hash():
    first = _run("lang_flagship", 0)
    again = _run("lang_flagship", 0, rep=1)
    assert first.returncode == again.returncode == 0
    h1 = json.loads(first.stdout.strip().splitlines()[-2])["result_sha256"]
    h2 = json.loads(again.stdout.strip().splitlines()[-2])["result_sha256"]
    assert h1 == h2


def test_without_the_library_it_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert p.returncode != 0
    assert p.stdout == ""


def test_runs_from_a_checkout_whose_path_is_too_long_for_ray_sockets(tmp_path):
    # Ray refuses AF_UNIX socket paths over 107 bytes; its session directory
    # lives under the checkout, which may sit arbitrarily deep
    deep = tmp_path / ("checkout-" + "x" * 80)
    for d in ("perfbench", "ddsketch_ruby_ray"):
        shutil.copytree(os.path.join(ROOT, d), deep / d, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), deep)
    p = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "5",
         "--seconds", "1", "--trace", "0", "--scale", "0.02"],
        cwd=deep, capture_output=True, text=True, timeout=180,
    )
    assert p.returncode == 0, p.stderr[-3000:]
    assert json.loads(p.stdout.strip().splitlines()[-1])["correct"] is True
