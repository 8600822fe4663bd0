"""``tools/bench_record.py --check`` names each count that does not repeat,
and ``--compare`` reads two records' metrics against their bounds.

Only the pure comparisons are tested here; the tool's runs of perfbench are
not part of this suite."""

from __future__ import annotations

import importlib.util
import json
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
    assert bench_record.compare([old], [new], END_TO_END) == [
        "chain-long/trace0 tokens_per_s: 400 -> 500 tok/s x1.250 inside 0.15 (1 run per side)",
        "chain-long/trace0 bench_wall_s: 0.2 -> 0.24 s x1.200 OUTSIDE 0.15 (1 run per side)",
        "chain-long/trace0 gamma: 2 -> 1.8 tok/pass x0.900 OUTSIDE 0.05 (1 run per side)",
        "wide-tree/trace0: absent",
    ]
    assert all(" inside " in line for line in bench_record.compare([old], [old], END_TO_END)[:3])
    for key, value in (("seed", 8), ("seconds", 8)):
        with pytest.raises(ValueError, match=key):
            bench_record.compare([old], [{**new, key: value}], END_TO_END)
        with pytest.raises(ValueError, match=key):
            bench_record.compare([old, {**old, key: value}], [new], END_TO_END)


def test_compare_takes_the_median_of_several_runs_per_side_and_prints_their_range():
    def side(*values):
        return [_record(7, 32, **{"chain-long/trace0": {"tokens_per_s": v, "gamma": 2.0}})
                for v in values]

    olds, news = side(400.0, 440.0, 380.0), side(500.0, 300.0, 520.0, 510.0)
    assert bench_record.compare(olds, news, END_TO_END) == [
        "chain-long/trace0 tokens_per_s: 400 -> 505 tok/s x1.262 inside 0.15 "
        "(old 3 runs 380–440; new 4 runs 300–520)",
        "chain-long/trace0 gamma: 2 -> 2 tok/pass x1.000 inside 0.05 "
        "(old 3 runs 2–2; new 4 runs 2–2)",
    ]
    # One run on one side only still gives both sides' spread.
    assert bench_record.compare(olds[:1], news, END_TO_END)[0] == (
        "chain-long/trace0 tokens_per_s: 400 -> 505 tok/s x1.262 inside 0.15 "
        "(old 1 run 400–400; new 4 runs 300–520)")
    # A run missing from any other record, on either side, is absent.
    olds[2]["runs"].clear()
    assert bench_record.compare(olds, news, END_TO_END) == ["chain-long/trace0: absent"]
    news[1]["runs"].clear()
    assert bench_record.compare(olds[:1], news, END_TO_END) == ["chain-long/trace0: absent"]


def test_compare_reads_comma_separated_sides_from_the_command_line(tmp_path, capsys):
    paths = []
    for i, value in enumerate((400.0, 420.0, 300.0)):
        path = tmp_path / f"r{i}.json"
        path.write_text(json.dumps(_record(7, 32, **{"chain-long/trace0": {"gamma": value}})),
                        encoding="utf-8")
        paths.append(str(path))
    assert bench_record.main(["--compare", ",".join(paths[:2]), paths[2]]) == 1
    assert capsys.readouterr().out == (
        "chain-long/trace0 gamma: 410 -> 300 tok/pass x0.732 OUTSIDE 0.05 "
        "(old 2 runs 400–420; new 1 run 300–300)\n")
