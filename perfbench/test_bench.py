"""Checks on the benchmark itself: metric names, exact counts, refusal without source.

    python3 -m pytest perfbench/test_bench.py -q

Takes a few minutes: each workload's traced run is made twice.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc):
    return json.loads(proc.stdout.splitlines()[-1])


def units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def counts(proc):
    lines = [line for line in proc.stdout.splitlines() if line.startswith("counts ")]
    assert len(lines) == 1, proc.stdout
    return json.loads(lines[0][len("counts "):])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    for proc in (first, second):
        assert proc.returncode == 0, proc.stderr
        result = last_json(proc)
        assert result["correct"] and result["failed"] == 0
        assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert counts(first) == counts(second)


def test_untraced_run_prints_every_end_to_end_metric():
    proc = bench("study_run", 0)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("study_run", 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()  # kept while a benchmark run is using it
        except OSError:
            pass
