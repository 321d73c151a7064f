"""Canary tests for the benchmark: every workload at a tiny size.

    python -m pytest benchmarks

They check that each metric of BENCHMARK.json prints with its unit, that
the exact counts of the traced run repeat between two runs, and that the
benchmark refuses to report anything when the program is absent.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = ["mc-default", "mc-scale128", "mc-default-w2"]
EXACT = ["channel.freq_channel.calls", "sweep.acquire.calls", "detect.omp.calls",
         "detect.omp.ridge_fallbacks", "codebooks.designed_codebook.total_coherence"]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def tiny(workload, seed, trace):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--trials", "2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    return proc.stdout, result


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_manifest_workloads_exist():
    assert {w["name"] for w in MANIFEST["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    stdout, result = tiny(workload, 12345, 0)
    expected = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert units(result) == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    lines = [line.split() for line in stdout.splitlines()]
    for name, unit in expected.items():
        assert [name, unit] in [[line[0], line[-1]] for line in lines if line]
    assert ["records_changed", "0"] in lines
    assert ["failed_frac", "0", "ratio"] in lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = [tiny(workload, 3, 1)[1] for _ in range(2)]
    expected = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    for result in runs:
        assert units(result) == expected
    for name in EXACT:
        assert runs[0]["metrics"][name]["value"] == runs[1]["metrics"][name]["value"], name
    assert runs[0]["metrics"]["channel.freq_channel.calls"]["value"] > 0
    assert runs[0]["metrics"]["detect.omp.calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = bench("--workload", "mc-default", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
