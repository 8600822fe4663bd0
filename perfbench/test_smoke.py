"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, reports every metric BENCHMARK.json names, and its deterministic
counters repeat. Not part of the tier-1 suite; run it with

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """(final JSON result, deterministic counters) of one run."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    counts = next(line for line in lines if line.startswith("counts "))
    return json.loads(lines[-1]), json.loads(counts[len("counts "):])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload):
    untraced, counts = parse(run(workload, 0))
    traced, traced_counts = parse(run(workload, 1))

    for result, group in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[group]
        }
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    # Same seed: the untraced counters repeat in the traced run, and the
    # traced counters repeat in a second traced process.
    assert {k: v for k, v in traced_counts.items() if k != "traced"} == counts
    assert parse(run(workload, 1))[1] == traced_counts


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark, it exits non-zero
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("wide-tree", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
