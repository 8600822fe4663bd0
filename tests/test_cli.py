"""End-to-end tests for the command-line interface and its exit codes."""

from __future__ import annotations

import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specdec.cli as cli
import specdec.harness as harness
from specdec.cli import main
from specdec.errors import InputError
from specdec.harness import CSV_COLUMNS, ExperimentConfig, RunRecord, load_records
from specdec.models import load_model, next_distribution

from conftest import TRAIN_TEXT, mutate_json


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(TRAIN_TEXT, encoding="utf-8")
    return path


_CONFIG_TEXT = """
corpus = {corpus}
lambda_grid = 0.0, 1.0
branch_grid = 1, 3
depth_grid = 3
budget_grid = 6
prompt_count = 3
prompt_length = 6
probe_count = 6
probe_length = 5
max_tokens = 24
seed = 5
"""


@pytest.fixture
def config_file(tmp_path, corpus_file):
    path = tmp_path / "run.cfg"
    path.write_text(_CONFIG_TEXT.format(corpus=corpus_file), encoding="utf-8")
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
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--config", "x.cfg", "--out", "out", "--format", "csv"])  # no such option
    assert excinfo.value.code == 1


def test_main_calls_in_one_process_parse_independently(monkeypatch, capsys):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "bench", lambda args: seen.append(vars(args)) or 0)
    assert main(["bench", "--config", "a.cfg", "--out", "a", "--seed", "3",
                 "--max-tokens", "9"]) == 0
    assert main(["bench", "--config", "b.cfg", "--out", "b"]) == 0
    assert seen == [
        {"command": "bench", "config": "a.cfg", "out": "a", "seed": 3, "corpus": None,
         "max_tokens": 9},
        {"command": "bench", "config": "b.cfg", "out": "b", "seed": None, "corpus": None,
         "max_tokens": None},
    ]
    with pytest.raises(SystemExit) as excinfo:  # a usage error in between changes nothing
        main(["bench", "--config", "c.cfg", "--seed", "x"])
    assert excinfo.value.code == 1
    assert "argument --seed: invalid int value: 'x'" in capsys.readouterr().err
    assert main(["bench", "--config", "b.cfg", "--out", "b"]) == 0
    assert seen[-1] == seen[1]
    assert cli._build_parser() is cli._build_parser()  # built once per process


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


def test_train_alpha_whose_row_mass_overflows_exits_one(tmp_path, corpus_file, capsys):
    config = tmp_path / "huge.cfg"
    config.write_text(f"corpus = {corpus_file}\ntarget_alpha = 1e308\n", encoding="utf-8")
    code = main(["train", "--corpus", str(corpus_file), "--config", str(config),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and "smoothing_alpha" in err
    assert not (tmp_path / "out").exists()


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


DEMO_CONFIG = Path(__file__).resolve().parent.parent / "demo" / "bench.cfg"


@pytest.fixture(scope="module")
def demo_cells():
    """The demo matrix's (draft, target, policy) by (lambda, branch, depth,
    budget), as run_matrix hands them to speculative_decode."""
    original, cells = harness.speculative_decode, {}

    def record(draft, target, prompt, max_tokens, policy):
        cell = (draft.lam, policy.max_branch, policy.max_depth, policy.node_budget)
        cells[cell] = draft, target, policy
        return original(draft, target, prompt, max_tokens, policy)

    harness.speculative_decode = record
    try:
        harness.run_matrix(ExperimentConfig.from_file(DEMO_CONFIG))
    finally:
        harness.speculative_decode = original
    return cells


@pytest.mark.parametrize("lam", ["0", "0.5", "1"])
def test_decode_drafts_as_the_matching_bench_cell_does(capsys, demo_cells, lam):
    """decode runs the bench cell of each grid's first value: for a lambda
    of the grid it reports the draft calls that speculative_decode reports
    for its prompt under that cell's policy."""
    config = ExperimentConfig.from_file(DEMO_CONFIG)
    draft, target, policy = demo_cells[float(lam), 1, 4, 8]
    assert policy.acceptance is not None
    prompt = (target.vocab.bos_id,) + target.vocab.encode("the cat")
    _, stats = harness.speculative_decode(draft, target, prompt, config.max_tokens, policy)
    assert main(["decode", "--config", str(DEMO_CONFIG), "--lambda", lam, "the cat"]) == 0
    out = capsys.readouterr().out
    assert f" draft_calls={stats.draft_calls} " in out
    assert f"cycles={stats.cycles} " in out


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
    code = main(["report", str(out / "report.json"), "--out", str(reemit)])
    assert code == 0
    for name in ("report.csv", "scatter.csv", "report.json"):
        assert (reemit / name).read_bytes() == (out / name).read_bytes()


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_reports_are_plain_json_dumps(tmp_path, config_file):
    # Every value is finite, so a report is exactly what json.dumps writes,
    # with no non-JSON constant.
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(config_file), "--out", str(out)]) == 0
    text = (out / "report.json").read_text(encoding="utf-8")
    doc = json.loads(text, parse_constant=_refuse_constant)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


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


def test_config_paths_resolve_against_the_config_file(tmp_path, monkeypatch):
    demo = Path(__file__).resolve().parent.parent / "demo"
    monkeypatch.chdir(tmp_path)
    argv = ["bench", "--config", str(demo / "bench.cfg"), "--max-tokens", "2", "--out", "out"]
    assert main(argv) == 0
    config = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))["config"]
    # The echo holds the paths as the config file wrote them.
    assert config["corpus"] == "corpus.txt"
    assert config["ood_corpus"] == "ood.txt"

    # A --corpus on the command line resolves against the current directory.
    assert main(argv + ["--corpus", "corpus.txt"]) == 2
    shutil.copy(demo / "corpus.txt", tmp_path)
    assert main(argv + ["--corpus", "corpus.txt"]) == 0
    config = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))["config"]
    assert config["corpus"] == "corpus.txt"
    assert config["ood_corpus"] == "ood.txt"


def test_report_bytes_do_not_depend_on_how_the_config_path_is_spelled(tmp_path, monkeypatch):
    root = Path(__file__).resolve().parent.parent
    spellings = [
        (root, "demo/bench.cfg"),
        (root, str(root / "demo" / "bench.cfg")),
        (tmp_path, str(root / "demo" / "bench.cfg")),
        (root / "demo", "bench.cfg"),
    ]
    reports = []
    for i, (cwd, config) in enumerate(spellings):
        monkeypatch.chdir(cwd)
        out = tmp_path / f"out{i}"
        assert main(["bench", "--config", config, "--max-tokens", "2", "--out", str(out)]) == 0
        reports.append([(out / name).read_bytes() for name in ("report.json", "report.csv")])
    assert all(report == reports[0] for report in reports)


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


def _deeply_nested(doc_text: str) -> str:
    return "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("corrupt", [_truncate, _drop_config_key, _future_version, _deeply_nested])
def test_report_rejects_broken_report_with_one_line(tmp_path, config_file, capsys, corrupt):
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(config_file), "--out", str(out)]) == 0
    broken = tmp_path / "broken.json"
    broken.write_text(corrupt((out / "report.json").read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    code = main(["report", str(broken), "--out", str(tmp_path / "re")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("specdec: error: ") and err.count("\n") == 1
    assert not (tmp_path / "re").exists()


@pytest.fixture(scope="module")
def report_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("report")
    (root / "corpus.txt").write_text(TRAIN_TEXT, encoding="utf-8")
    (root / "run.cfg").write_text(_CONFIG_TEXT.format(corpus="corpus.txt"), encoding="utf-8")
    code = main(["bench", "--config", str(root / "run.cfg"), "--out", str(root / "bench")])
    assert code == 0
    return root / "bench" / "report.json"


#: Values of the wrong JSON type for each field type of a report.
_WRONG_JSON = {
    int: ["3", 2.5, True],
    float: ["0.5", True],
    str: [7],
    bool: ["no", 1],
    tuple[int, ...]: ["abc", [0.5], ["x"]],
    tuple[float, ...]: ["abc", ["x"]],
}
_CONFIG_HINTS = get_type_hints(ExperimentConfig)
_RECORD_HINTS = get_type_hints(RunRecord)


def _typed_case(part: str, key: str, value):
    """One case, named by its part, key and value, so that adding or
    deleting a field renames no other case. A string is written as itself,
    as pytest writes it; any other value by its repr."""
    shown = value if isinstance(value, str) else repr(value)
    return pytest.param(part, key, value, id=f"{part}-{key}-{shown}")


@pytest.mark.parametrize(
    "part,key,value",
    [_typed_case("config", key, value)
     for key, kind in _CONFIG_HINTS.items() for value in _WRONG_JSON[kind]]
    + [_typed_case("record", key, value) for key in CSV_COLUMNS
       for value in _WRONG_JSON[_RECORD_HINTS["lam" if key == "lambda" else key]]],
)
def test_report_rejects_a_field_of_the_wrong_json_type(
    report_file, tmp_path, capsys, part, key, value
):
    doc = json.loads(report_file.read_text(encoding="utf-8"))
    (doc["config"] if part == "config" else doc["records"][0])[key] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["report", str(path), "--out", str(tmp_path / "re")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("specdec: error: ") and err.count("\n") == 1
    assert f"{part} {key}: expected" in err
    assert not (tmp_path / "re").exists()


#: Record values of the right JSON type that no run can produce.
_OUT_OF_RANGE = [
    ("gamma", math.nan), ("gamma", math.inf), ("gamma", 0.5),
    ("cycles", -5), ("emitted_tokens", -1), ("target_context_evals", -1),
    ("target_contexts_scored", -1), ("draft_calls", -1), ("tree_nodes", -1),
    ("prompts", 0), ("branch", 0), ("depth", 0), ("budget", 0),
    ("lambda", 7.0), ("lambda", -0.5), ("lambda", math.nan),
    ("kl_estimate", -1.0), ("kl_estimate", math.inf),
    ("predicted_speedup", -1.0), ("predicted_speedup", math.nan),
]


@pytest.mark.parametrize("key,value", _OUT_OF_RANGE)
def test_report_rejects_a_record_value_out_of_range(report_file, tmp_path, capsys, key, value):
    doc = json.loads(report_file.read_text(encoding="utf-8"))
    doc["records"][0][key] = value
    path = tmp_path / "ranged.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["report", str(path), "--out", str(tmp_path / "re")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("specdec: error: ") and err.count("\n") == 1
    assert f": {key} must" in err
    assert not (tmp_path / "re").exists()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_reports_end_in_an_exit_code_not_a_traceback(report_file, data):
    """Dropped keys, swapped types, NaN, integers beyond int64 and a wrong
    version: load_records raises only InputError or OSError, and the report
    command exits 0 to 3 with at most one line on stderr."""
    doc = json.loads(report_file.read_text(encoding="utf-8"))
    # The config and each record are as likely a target as the whole
    # document, so most mutations reach past the format and version checks.
    part = data.draw(st.sampled_from([None, "config", *range(len(doc["records"]))]), label="part")
    if part is None:
        doc = mutate_json(data, doc)
    elif part == "config":
        doc["config"] = mutate_json(data, doc["config"])
    else:
        doc["records"][part] = mutate_json(data, doc["records"][part])
    path = report_file.with_name("mutated.json")
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        load_records(path)
    except (InputError, OSError):
        pass
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["report", str(path), "--out", str(report_file.parent / "re")])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue() and err.getvalue().count("\n") <= 1


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


@pytest.mark.parametrize("key", ["prompt_count", "probe_count"])
def test_bench_huge_sample_count_exits_one_naming_the_key(tmp_path, corpus_file, capsys, key):
    # numpy refuses 10**20 samples before it allocates anything, so this
    # costs nothing even if the config check is missing.
    config = tmp_path / "huge.cfg"
    config.write_text(f"corpus = {corpus_file}\n{key} = {10**20}\n", encoding="utf-8")
    code = main(["bench", "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and f"{key} must be below 2**60" in err
    assert not (tmp_path / "out").exists()


_RUN_CLI = """
import sys
from specdec.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _limit_address_space():
    # About 1.5 GB: room for the interpreter and numpy, not for 2**40 samples.
    resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, 1536 * 2**20))


@pytest.mark.parametrize("key", ["prompt_count", "probe_count"])
def test_bench_sample_count_too_large_for_memory_exits_one_naming_the_key(
        tmp_path, corpus_file, key):
    # Below the 2**60 bound, so the config accepts it and the sampling
    # allocation fails. Run only under the address-space limit.
    config = tmp_path / "huge.cfg"
    config.write_text(f"corpus = {corpus_file}\n{key} = {2**40}\n", encoding="utf-8")
    src = str(Path(harness.__file__).resolve().parent.parent)
    # One BLAS thread: per-thread buffers on a many-core host could take
    # the address space the limit leaves.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_CLI,
         "bench", "--config", str(config), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.count("\n") == 1 and key in proc.stderr, proc.stderr
    assert not (tmp_path / "out").exists()


def test_bench_infinite_draft_cost_exits_one_without_a_report(tmp_path, corpus_file, capsys):
    config = tmp_path / "inf.cfg"
    config.write_text(f"corpus = {corpus_file}\ndraft_cost = inf\n", encoding="utf-8")
    code = main(["bench", "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and "draft_cost must be finite" in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--out", "{out}", "--config", "{empty}"],
        ["bench", "--out", "{out}", "--config", "{config}", "--corpus", ""],
        ["decode", "the", "--config", "{empty}"],
        ["decode", "the", "--config", "{config}", "--corpus", ""],
        ["train", "--out", "{out}", "--corpus", ""],
    ],
    ids=["bench-config", "bench-flag", "decode-config", "decode-flag", "train-flag"],
)
def test_an_empty_corpus_exits_one_naming_the_key(tmp_path, config_file, capsys, argv):
    empty = tmp_path / "empty.cfg"
    empty.write_text("corpus =\n", encoding="utf-8")
    args = [a.format(out=tmp_path / "out", empty=empty, config=config_file) for a in argv]
    code = main(args)
    err = capsys.readouterr().err
    assert code == 1
    assert err == "specdec: error: corpus must be a non-empty path\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["bench", "--out", "{out}"], ["decode", "the"]],
                         ids=["bench", "decode"])
def test_a_branch_wider_than_a_budget_exits_one_naming_both_grids(
        tmp_path, config_file, capsys, monkeypatch, argv):
    config = tmp_path / "wide.cfg"
    text = config_file.read_text(encoding="utf-8")
    text = text.replace("branch_grid = 1, 3", "branch_grid = 1, 4")
    config.write_text(text.replace("budget_grid = 6", "budget_grid = 2"), encoding="utf-8")

    def no_training(config):
        raise AssertionError("models trained before the config was checked")

    monkeypatch.setattr(harness, "build_models", no_training)
    monkeypatch.setattr("specdec.cli.build_models", no_training)
    code = main([a.format(out=tmp_path / "out") for a in argv] + ["--config", str(config)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "specdec: error: branch_grid value 4 exceeds budget_grid value 2\n"


def test_bench_with_a_huge_depth_grid_finishes(tmp_path, corpus_file):
    # The chain floor stops where deeper chains add no tokens, not at the
    # depth the grid names.
    config = tmp_path / "deep.cfg"
    text = _CONFIG_TEXT.format(corpus=corpus_file)
    config.write_text(text.replace("depth_grid = 3", f"depth_grid = {10**12}"), encoding="utf-8")
    assert main(["bench", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["records"][0]["depth"] == 10**12
