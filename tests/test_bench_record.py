"""``tools/bench_record.py --check`` names each count that does not repeat,
and ``--compare`` reads two records' metrics against their bounds.

Only the pure comparisons are tested here; the tool's runs of perfbench are
not part of this suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

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


END_TO_END = [
    {"name": "tokens_per_s", "unit": "tok/s", "better": "higher", "bound": 0.15},
    {"name": "bench_wall_s", "unit": "s", "better": "lower", "bound": 0.15},
    {"name": "gamma", "unit": "tok/pass", "better": "higher", "bound": 0.05},
]


def _record(seed, seconds, **runs):
    return {"seed": seed, "seconds": seconds, "runs": {
        run: {"metrics": {name: {"value": value} for name, value in metrics.items()}}
        for run, metrics in runs.items()}}


def test_compare_prints_each_metric_ratio_against_its_bound_and_refuses_unlike_records():
    old = _record(7, 32, **{
        "chain-long/trace0": {"tokens_per_s": 400.0, "bench_wall_s": 0.2, "gamma": 2.0},
        "chain-long/trace1": {"tree.expand.self_s": 0.3},
        "wide-tree/trace0": {"tokens_per_s": 100.0},
    })
    new = _record(7, 32, **{
        "chain-long/trace0": {"tokens_per_s": 500.0, "bench_wall_s": 0.24, "gamma": 1.8},
        "chain-long/trace1": {"tree.expand.self_s": 0.1},
    })
    assert bench_record.compare(old, new, END_TO_END) == [
        "chain-long/trace0 tokens_per_s: 400 -> 500 tok/s x1.250 inside 0.15",
        "chain-long/trace0 bench_wall_s: 0.2 -> 0.24 s x1.200 OUTSIDE 0.15",
        "chain-long/trace0 gamma: 2 -> 1.8 tok/pass x0.900 OUTSIDE 0.05",
        "wide-tree/trace0: absent",
    ]
    assert all(" inside " in line for line in bench_record.compare(old, old, END_TO_END)[:3])
    for key, value in (("seed", 8), ("seconds", 8)):
        with pytest.raises(ValueError, match=key):
            bench_record.compare(old, {**new, key: value}, END_TO_END)
