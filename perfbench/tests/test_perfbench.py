"""Tests of the benchmark itself, on the tiny self-check worlds.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import newsrec.features  # noqa: E402
import newsrec.ranker  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(set(n) <= NAME_CHARS and n[0].isalnum() for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    assert all(m["better"] in ("higher", "lower") for m in metrics)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_selfcheck_emits_every_metric(tmp_path, workload, trace):
    seed = WORKLOADS[workload].heldout_seed
    proc = run_bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--selfcheck", "--results-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)

    (record_path,) = [p for p in tmp_path.glob("*.json")]
    record = json.loads(record_path.read_text(encoding="utf-8"))
    assert record["seed"] == seed and record["heldout_seed"] == seed
    assert {"nproc", "cpu_model", "python", "numpy", "blas_threads",
            "git_commit"} <= set(record["machine"])
    assert len(record["digests"]) == len(record["world_seeds"])
    assert all(len(d) == 64 for world in record["digests"].values() for d in world.values())
    if trace:
        assert (tmp_path / record["spans_file"]).is_file()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "cli-chain", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_install_patches_every_lookup_site_and_uninstall_restores():
    original = newsrec.features.extract_matrix
    with Tracer():
        assert newsrec.ranker.extract_matrix is newsrec.features.extract_matrix
        assert newsrec.ranker.extract_matrix is not original
    assert newsrec.ranker.extract_matrix is original
    assert newsrec.features.extract_matrix is original


def test_self_time_excludes_child_spans():
    tr = Tracer()
    inner = tr.wrap("inner", lambda: time.sleep(0.02))

    def outer_fn():
        time.sleep(0.01)
        inner()
        inner()

    tr.wrap("outer", outer_fn)()
    totals = tr.totals()
    assert totals["inner"]["calls"] == 2 and totals["outer"]["calls"] == 1
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["s"] - totals["inner"]["s"])
    assert 0.01 <= totals["outer"]["self_s"] < totals["inner"]["s"]
