"""Tests of the benchmark runner itself.

    python -m pytest perfbench -q

Each test drives ``perfbench/run.py`` as the benchmark command does, on
the full workload inputs; together they take about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "0",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_broken_atomicity_fails_units_but_prints_every_metric():
    proc = run_bench("--workload", "xcluster-rmw", "--trace", "0",
                     "--violate-atomicity")
    result = result_of(proc)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert "FAILED InvariantViolation" in proc.stdout
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_run_reports_every_layer_and_matches_untraced():
    proc = run_bench("--workload", "xcluster-read", "--trace", "1")
    result = result_of(proc)
    # A traced RunResult that differs from its untraced twin fails.
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for layer in ("engine", "network", "cpu", "l1", "bridge", "port",
                  "home"):
        assert metrics[f"{layer}.self_s"] > 0, layer
    assert metrics["mc.states"] == 0
    assert metrics["trace.overhead"] > 1


def test_litmus_check_is_exhaustive_and_clean():
    proc = run_bench("--workload", "litmus-check", "--trace", "0")
    result = result_of(proc)
    assert result["correct"] is True
    assert result["attempted"] >= 4  # every check ran


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "xcluster-rmw", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
