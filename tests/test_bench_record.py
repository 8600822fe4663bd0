"""``tools/bench_record.py --check`` names each count that does not repeat.

Only the pure comparison is tested here; the tool's runs of perfbench are
not part of this suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)


def test_count_differences_names_each_differing_count_traced_ones_included():
    old = {"counts": {"cycles": 10, "emitted_tokens": 40, "report_sha256": "ab",
                      "traced": {"decode.verify": 10, "tree.expand": 10}},
           "metrics": {"tokens_per_s": 1.0}}
    assert bench_record.count_differences("demo-matrix/trace1", old, old) == []

    new = {"counts": {"cycles": 11, "emitted_tokens": 40, "report_sha256": "cd",
                      "traced": {"decode.verify": 11, "tree.expand": 10, "workload": 1}},
           "metrics": {"tokens_per_s": 2.0}}
    assert bench_record.count_differences("demo-matrix/trace1", old, new) == [
        "demo-matrix/trace1: cycles 10 -> 11",
        "demo-matrix/trace1: report_sha256 ab -> cd",
        "demo-matrix/trace1: traced.decode.verify 10 -> 11",
        "demo-matrix/trace1: traced.workload absent -> 1",
    ]
