"""End-to-end tests for the command-line interface and its exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

import specdec.harness as harness
from specdec.cli import main
from specdec.models import load_model, next_distribution

from conftest import TRAIN_TEXT


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(TRAIN_TEXT, encoding="utf-8")
    return path


@pytest.fixture
def config_file(tmp_path, corpus_file):
    path = tmp_path / "run.cfg"
    path.write_text(
        f"""
corpus = {corpus_file}
lambda_grid = 0.0, 1.0
tau_grid = 0.35
branch_grid = 1, 3
depth_grid = 3
budget_grid = 6
prompt_count = 3
prompt_length = 6
probe_count = 6
probe_length = 5
max_tokens = 24
seed = 5
""",
        encoding="utf-8",
    )
    return path


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus-command"])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--config"])  # missing value
    assert excinfo.value.code == 1


def test_train_writes_loadable_models(tmp_path, corpus_file):
    out = tmp_path / "models"
    code = main(["train", "--corpus", str(corpus_file), "--out", str(out)])
    assert code == 0
    target = load_model(out / "target.json")
    draft = load_model(out / "draft_base.json")
    assert target.order == 3
    assert draft.order == 1
    row = next_distribution(target, (target.vocab.bos_id,))
    assert abs(float(np.sum(row)) - 1.0) <= 1e-9


def test_train_missing_corpus_exits_two(tmp_path):
    code = main(["train", "--corpus", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
    assert code == 2


def test_decode_prints_tokens_and_stats(capsys, config_file):
    code = main(["decode", "--config", str(config_file), "--lambda", "0.5", "the cat"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("tokens: [")
    assert "text: " in out
    assert "gamma=" in out
    assert "draft_calls=" in out


def test_decode_rejects_bad_lambda_and_unknown_chars(config_file):
    assert main(["decode", "--config", str(config_file), "--lambda", "1.5", "the"]) == 1
    assert main(["decode", "--config", str(config_file), "--lambda", "0.5", "zzzz#"]) == 1


def test_bench_and_report_round_trip(tmp_path, config_file, capsys):
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(config_file), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "losslessness-verified" in printed
    for name in ("report.csv", "scatter.csv", "report.json", "timings.log"):
        assert (out / name).exists()

    reemit = tmp_path / "reemit"
    code = main(["report", str(out / "report.json"), "--out", str(reemit), "--format", "csv"])
    assert code == 0
    assert (reemit / "report.csv").read_bytes() == (out / "report.csv").read_bytes()
    assert not (reemit / "report.json").exists()


def test_bench_format_csv_skips_json(tmp_path, config_file):
    out = tmp_path / "csvonly"
    code = main(["bench", "--config", str(config_file), "--out", str(out), "--format", "csv"])
    assert code == 0
    assert (out / "report.csv").exists()
    assert not (out / "report.json").exists()


def test_bench_seed_override_changes_report(tmp_path, config_file):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["bench", "--config", str(config_file), "--out", str(out_a)]) == 0
    assert main(["bench", "--config", str(config_file), "--out", str(out_b),
                 "--seed", "77"]) == 0
    assert (out_a / "report.csv").read_bytes() != (out_b / "report.csv").read_bytes()


def test_bench_missing_config_exits_two(tmp_path):
    code = main(["bench", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path)])
    assert code == 2


def test_bench_losslessness_violation_exits_three(tmp_path, config_file, monkeypatch):
    real = harness.greedy_decode
    monkeypatch.setattr(
        harness, "greedy_decode", lambda model, prompt, n: real(model, prompt, n)[:-1]
    )
    code = main(["bench", "--config", str(config_file), "--out", str(tmp_path / "x")])
    assert code == 3


def test_report_rejects_non_report_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "other"}', encoding="utf-8")
    code = main(["report", str(bad), "--out", str(tmp_path / "y")])
    assert code == 1


def _truncate(doc_text: str) -> str:
    return doc_text[: len(doc_text) // 2]


def _drop_config_key(doc_text: str) -> str:
    doc = json.loads(doc_text)
    del doc["config"]["lambda_grid"]
    return json.dumps(doc)


def _future_version(doc_text: str) -> str:
    doc = json.loads(doc_text)
    doc["version"] = 99
    return json.dumps(doc)


@pytest.mark.parametrize("corrupt", [_truncate, _drop_config_key, _future_version])
def test_report_rejects_broken_report_with_one_line(tmp_path, config_file, capsys, corrupt):
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(config_file), "--out", str(out), "--format", "json"]) == 0
    broken = tmp_path / "broken.json"
    broken.write_text(corrupt((out / "report.json").read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    code = main(["report", str(broken), "--out", str(tmp_path / "re")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("specdec: error: ") and err.count("\n") == 1
    assert not (tmp_path / "re").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--out", "{out}"],
        ["decode", "the"],
        ["train", "--corpus", "{corpus}", "--out", "{out}"],
    ],
    ids=["bench", "decode", "train"],
)
def test_non_utf8_config_exits_two(tmp_path, corpus_file, capsys, argv):
    config = tmp_path / "latin1.cfg"
    config.write_bytes(f"corpus = {corpus_file}\n# caf\xe9\n".encode("latin-1"))
    args = [a.format(out=tmp_path / "out", corpus=corpus_file) for a in argv]
    code = main(args + ["--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("specdec: i/o error: ") and err.count("\n") == 1
    assert "UTF-8" in err


def test_bench_nan_config_value_exits_one_naming_the_key(tmp_path, corpus_file, capsys):
    config = tmp_path / "nan.cfg"
    config.write_text(f"corpus = {corpus_file}\ntarget_alpha = nan\n", encoding="utf-8")
    code = main(["bench", "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and "target_alpha" in err
    assert not (tmp_path / "out").exists()


def test_bench_infinite_draft_cost_exits_one_without_a_report(tmp_path, corpus_file, capsys):
    config = tmp_path / "inf.cfg"
    config.write_text(f"corpus = {corpus_file}\ndraft_cost = inf\n", encoding="utf-8")
    code = main(["bench", "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and "draft_cost must be finite" in err
    assert not (tmp_path / "out" / "report.json").exists()
