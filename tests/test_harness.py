"""Unit tests for corpus ingestion, experiment config, matrix runs, reports."""

from __future__ import annotations

import gc
import json
import re
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specdec.harness as harness
from specdec.errors import InputError, LosslessnessError
from specdec.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    emit_report,
    ingest_corpus,
    load_records,
    run_matrix,
    split_corpus,
)
from specdec.models import BOS_STRING, EOS_STRING

from conftest import TRAIN_TEXT

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "demo" / "bench.cfg"

OOD_TEXT = (
    "nine green engines run on steam and sing near the iron gate. "
    "seven red trains rest near the gate in the morning rain. "
) * 3


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(TRAIN_TEXT, encoding="utf-8")
    return path


def small_config(corpus_path, **overrides) -> ExperimentConfig:
    base = dict(
        corpus=str(corpus_path),
        target_order=3,
        draft_order=1,
        target_alpha=0.1,
        draft_alpha=0.5,
        lambda_grid=(1.0,),
        tau_grid=(float("inf"),),
        branch_grid=(1,),
        depth_grid=(3,),
        budget_grid=(3,),
        prompt_count=4,
        prompt_length=6,
        probe_count=6,
        probe_length=5,
        max_tokens=32,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_ingest_tiny_file(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("abab", encoding="utf-8")
    vocab, seq = ingest_corpus(path)
    assert vocab.size == 4
    assert vocab.tokens == ("a", "b", BOS_STRING, EOS_STRING)
    assert vocab.bos_id == 2 and vocab.eos_id == 3
    assert seq == (0, 1, 0, 1)


def test_ingest_three_characters(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("cabbac", encoding="utf-8")
    vocab, _ = ingest_corpus(path)
    assert vocab.size == 5
    assert vocab.tokens[:3] == ("c", "a", "b")  # first-occurrence order


def test_ingest_is_deterministic(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(TRAIN_TEXT, encoding="utf-8")
    first = ingest_corpus(path)
    second = ingest_corpus(path)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_ingest_error_paths(tmp_path):
    missing = tmp_path / "missing.txt"
    with pytest.raises(OSError):
        ingest_corpus(missing)
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(OSError) as excinfo:
        ingest_corpus(empty)
    assert str(empty) in str(excinfo.value)
    binary = tmp_path / "bad.txt"
    binary.write_bytes(b"\xff\xfe\x00\x01")
    with pytest.raises(OSError):
        ingest_corpus(binary)


def test_split_corpus_fractions():
    train, held = split_corpus(tuple(range(100)))
    assert len(train) == 85
    assert len(held) == 15
    assert train + held == tuple(range(100))


def test_config_file_parsing(tmp_path, corpus_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"""
# comment line
corpus = {corpus_file}
lambda_grid = 0.0, 0.5, 1.0   # inline comment
branch_grid = 1, 4
seed = 99
""",
        encoding="utf-8",
    )
    config = ExperimentConfig.from_file(cfg)
    assert config.lambda_grid == (0.0, 0.5, 1.0)
    assert config.branch_grid == (1, 4)
    assert config.seed == 99
    assert config.prompt_count == 200  # default applied
    assert config.kl_direction == "target-draft"


def test_config_file_errors(tmp_path, corpus_file):
    no_corpus = tmp_path / "a.cfg"
    no_corpus.write_text("seed = 1\n", encoding="utf-8")
    with pytest.raises(InputError):
        ExperimentConfig.from_file(no_corpus)

    unknown = tmp_path / "b.cfg"
    unknown.write_text(f"corpus = {corpus_file}\nwibble = 3\n", encoding="utf-8")
    with pytest.raises(InputError):
        ExperimentConfig.from_file(unknown)

    bad_value = tmp_path / "c.cfg"
    bad_value.write_text(f"corpus = {corpus_file}\nseed = soon\n", encoding="utf-8")
    with pytest.raises(InputError):
        ExperimentConfig.from_file(bad_value)

    no_equals = tmp_path / "d.cfg"
    no_equals.write_text(f"corpus = {corpus_file}\njust words\n", encoding="utf-8")
    with pytest.raises(InputError):
        ExperimentConfig.from_file(no_equals)


def test_config_validation(corpus_file):
    with pytest.raises(InputError):
        small_config(corpus_file, lambda_grid=())
    with pytest.raises(InputError):
        small_config(corpus_file, lambda_grid=(1.5,))
    with pytest.raises(InputError):
        small_config(corpus_file, kl_direction="sideways")
    with pytest.raises(InputError):
        small_config(corpus_file, seed=2**64)
    with pytest.raises(InputError):
        small_config(corpus_file, prompt_count=0)
    for key, grid in (("tau_grid", (1.0, -1.0)), ("branch_grid", (0,)), ("depth_grid", (0,)),
                      ("budget_grid", (4, 0))):
        with pytest.raises(InputError, match=f"{key} values must be >= "):
            small_config(corpus_file, **{key: grid})


def test_run_matrix_perfect_draft_chain_cell(corpus_file):
    config = small_config(corpus_file)
    records = run_matrix(config)
    assert len(records) == 1
    rec = records[0]
    assert rec.domain == "in"
    assert rec.lam == 1.0
    assert rec.losslessness_verified is True
    assert rec.kl_estimate == 0.0
    assert rec.gamma == 4.0  # depth-3 chain, perfect draft, 32 = 8 x 4 tokens
    assert rec.prompts == 4
    assert rec.cycles == 32  # 8 cycles per prompt
    assert rec.emitted_tokens == 4 * 32
    assert rec.target_context_evals == rec.cycles


def test_run_matrix_kl_ordering_over_lambda(corpus_file):
    config = small_config(corpus_file, lambda_grid=(0.0, 1.0), prompt_count=2)
    records = run_matrix(config)
    assert len(records) == 2
    by_lam = {r.lam: r for r in records}
    assert by_lam[1.0].kl_estimate == 0.0
    assert by_lam[0.0].kl_estimate > by_lam[1.0].kl_estimate


def test_run_matrix_includes_ood_domain(tmp_path, corpus_file):
    ood = tmp_path / "ood.txt"
    ood.write_text(OOD_TEXT, encoding="utf-8")
    config = small_config(corpus_file, ood_corpus=str(ood), prompt_count=2)
    records = run_matrix(config)
    assert [r.domain for r in records] == ["in", "ood"]
    assert all(r.losslessness_verified for r in records)


def test_run_matrix_builds_one_draft_per_lambda_for_every_domain(
    tmp_path, corpus_file, monkeypatch
):
    ood = tmp_path / "ood.txt"
    ood.write_text(OOD_TEXT, encoding="utf-8")
    config = small_config(
        corpus_file, ood_corpus=str(ood), lambda_grid=(0.0, 0.5, 1.0), prompt_count=2
    )
    built = []
    real = harness.distill_interpolate
    monkeypatch.setattr(
        harness, "distill_interpolate", lambda *args: built.append(real(*args)) or built[-1]
    )
    records = run_matrix(config)
    assert sorted(d.lam for d in built) == [0.0, 0.5, 1.0]
    assert {(r.domain, r.lam) for r in records} == {
        (domain, lam) for domain in ("in", "ood") for lam in (0.0, 0.5, 1.0)
    }


def test_run_matrix_rejects_disjoint_ood(tmp_path, corpus_file):
    ood = tmp_path / "ood.txt"
    ood.write_text("αβγ" * 40, encoding="utf-8")
    config = small_config(corpus_file, ood_corpus=str(ood), prompt_count=2)
    with pytest.raises(InputError):
        run_matrix(config)


def test_run_matrix_aborts_on_divergence(corpus_file, monkeypatch):
    config = small_config(corpus_file, prompt_count=2)
    real = harness.greedy_decode
    monkeypatch.setattr(
        harness, "greedy_decode", lambda model, prompt, n: real(model, prompt, n)[:-1]
    )
    with pytest.raises(LosslessnessError) as excinfo:
        run_matrix(config)
    err = excinfo.value
    assert err.seed == config.seed
    assert "lam=1" in err.cell
    assert isinstance(err.prompt, tuple)
    assert str(err.seed) in str(err)


def test_emit_report_single_record(tmp_path, corpus_file):
    config = small_config(corpus_file)
    records = run_matrix(config)
    paths = emit_report(records, config, tmp_path / "out", "csv")
    csv_path = paths[0]
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# specdec report v3")
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    assert lines[2].startswith("in,1,")


def test_emit_report_is_deterministic(tmp_path, corpus_file):
    config = small_config(corpus_file, lambda_grid=(0.0, 1.0), prompt_count=2)
    records = run_matrix(config)
    emit_report(records, config, tmp_path / "a", "both")
    emit_report(records, config, tmp_path / "b", "both")
    for name in ("report.csv", "scatter.csv", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_scatter_orders_by_lambda_with_nonincreasing_kl(tmp_path, corpus_file):
    config = small_config(
        corpus_file, lambda_grid=(0.0, 0.25, 0.5, 0.75, 1.0), prompt_count=2
    )
    records = run_matrix(config)
    emit_report(records, config, tmp_path / "out", "csv")
    rows = (tmp_path / "out" / "scatter.csv").read_text().splitlines()[2:]
    kls = [float(r.split(",")[0]) for r in rows]
    assert len(kls) == 5
    assert all(kls[i] >= kls[i + 1] for i in range(len(kls) - 1))


def test_emit_report_rejects_bad_inputs(tmp_path, corpus_file):
    config = small_config(corpus_file)
    with pytest.raises(InputError):
        emit_report([], config, tmp_path, "csv")
    records = run_matrix(config)
    with pytest.raises(InputError):
        emit_report(records, config, tmp_path, "yaml")
    unverified = replace(records[0], losslessness_verified=False)
    with pytest.raises(InputError):
        emit_report([unverified], config, tmp_path, "csv")


def test_report_json_round_trip(tmp_path, corpus_file):
    config = small_config(corpus_file, lambda_grid=(0.0, 1.0), prompt_count=2)
    records = run_matrix(config)
    emit_report(records, config, tmp_path / "out", "json")
    loaded_config, loaded_records = load_records(tmp_path / "out" / "report.json")
    assert loaded_config == config
    assert [r.to_dict() for r in loaded_records] == [r.to_dict() for r in records]
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["format"] == "specdec-report"
    assert "wall_clock_ms" not in json.dumps(doc)


def test_a_demo_run_with_its_models_kept_alive_retains_at_most_150_kb(monkeypatch):
    """What each model row keeps (its checked values, greedy token, entropy
    and proposal fan) is held for the model's lifetime. perfbench's
    demo-matrix keeps every draft alive in its latency keys, so its peak RSS
    grows by this amount per bench round."""
    config = ExperimentConfig.from_file(DEMO_CONFIG)
    original, kept = harness.speculative_decode, []

    def keep_draft(draft, target, prompt, max_tokens, policy):
        kept.append(draft)
        return original(draft, target, prompt, max_tokens, policy)

    monkeypatch.setattr(harness, "speculative_decode", keep_draft)
    run_matrix(config)  # imports and other one-time allocations happen here
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_matrix(config)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == 2 * 288
    assert retained <= 150 * 1024


@pytest.fixture(scope="module")
def demo_seed_7():
    """The demo matrix at seed 7, and the (draft, policy) of every decode."""
    config = ExperimentConfig.from_file(DEMO_CONFIG).override(seed=7)
    original, decodes = harness.speculative_decode, []

    def record(draft, target, prompt, max_tokens, policy):
        decodes.append((draft, policy))
        return original(draft, target, prompt, max_tokens, policy)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "speculative_decode", record)
        records = run_matrix(config)
    return config, records, decodes


def _chain_and_tree_cells(records):
    by_key = {r.cell_key: r for r in records}
    pairs = [(by_key[(r.domain, r.lam, r.tau, 1, r.depth, r.budget)], r)
             for r in records if r.branch > 1]
    assert pairs
    return pairs


def test_demo_dynamic_trees_predict_at_least_their_chains_speedup_at_every_lambda(demo_seed_7):
    _, records, _ = demo_seed_7
    for chain, tree in _chain_and_tree_cells(records):
        assert tree.predicted_speedup >= chain.predicted_speedup, tree.cell_label


def test_demo_dynamic_trees_accept_at_least_their_chains_gamma_at_lambda_half_and_one(
    demo_seed_7
):
    _, records, _ = demo_seed_7
    pairs = [(c, t) for c, t in _chain_and_tree_cells(records) if t.lam in (0.5, 1.0)]
    assert {t.lam for _, t in pairs} == {0.5, 1.0}
    for chain, tree in pairs:
        assert tree.gamma >= chain.gamma, tree.cell_label


def test_demo_domains_of_one_lambda_decode_under_equal_hashable_policies(demo_seed_7):
    # perfbench's demo-matrix groups latency samples by (draft, policy), so
    # a policy that differed between domains would split its samples.
    config, records, decodes = demo_seed_7
    per_draft: dict = {}
    for draft, policy in decodes:
        per_draft.setdefault(draft, {})
        per_draft[draft][policy] = per_draft[draft].get(policy, 0) + 1
    assert len(per_draft) == len(config.lambda_grid)
    grid = {(r.tau, r.branch, r.depth, r.budget) for r in records}
    for counts in per_draft.values():
        assert len(counts) == len(grid)
        assert set(counts.values()) == {2 * config.prompt_count}  # both domains
        for policy in counts:
            assert policy.acceptance is not None and policy.cost == config.cost_model
            assert len(policy.acceptance) == max(config.branch_grid)


# The report format as version 1 wrote it, held literally: CSV_COLUMNS and
# the to_dict methods are derived from the dataclasses, so comparing them
# with each other cannot catch a renamed or reordered field.
V1_CSV_HEADER = (
    "domain,lambda,tau,branch,depth,budget,prompts,cycles,emitted_tokens,"
    "target_context_evals,target_contexts_scored,draft_calls,tree_nodes,gamma,"
    "kl_estimate,predicted_speedup,losslessness_verified"
)
V1_RECORD_KEYS = set(V1_CSV_HEADER.split(","))
V1_CONFIG_KEYS = {
    "corpus", "ood_corpus", "target_order", "draft_order", "target_alpha",
    "draft_alpha", "lambda_grid", "tau_grid", "branch_grid", "depth_grid",
    "budget_grid", "prompt_count", "prompt_length", "probe_count", "probe_length",
    "max_tokens", "seed", "kl_direction", "draft_cost", "batch_cost",
}


def test_report_format_matches_v1_literally(tmp_path, corpus_file):
    config = small_config(corpus_file)
    emit_report(run_matrix(config), config, tmp_path, "both")
    lines = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()
    assert lines[:2] == ["# specdec report v3", V1_CSV_HEADER]
    doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert set(doc) == {"format", "version", "config", "records"}
    assert set(doc["config"]) == V1_CONFIG_KEYS
    assert [set(r) for r in doc["records"]] == [V1_RECORD_KEYS]


@pytest.mark.parametrize(
    "key", ["target_alpha", "draft_alpha", "draft_cost", "batch_cost", "lambda_grid", "tau_grid"]
)
def test_config_rejects_nan_naming_the_key(tmp_path, corpus_file, key):
    value = "1.0, nan" if key.endswith("_grid") else "nan"
    path = tmp_path / "nan.cfg"
    path.write_text(f"corpus = {corpus_file}\n{key} = {value}\n", encoding="utf-8")
    with pytest.raises(InputError, match=f"{key} must not be NaN"):
        ExperimentConfig.from_file(path)


@pytest.mark.parametrize("value", ["inf", "-inf"])
@pytest.mark.parametrize("key", ["target_alpha", "draft_alpha", "draft_cost", "batch_cost"])
def test_config_rejects_infinite_scalar_naming_the_key(tmp_path, corpus_file, key, value):
    path = tmp_path / "inf.cfg"
    path.write_text(f"corpus = {corpus_file}\n{key} = {value}\n", encoding="utf-8")
    with pytest.raises(InputError, match=f"{key} must be finite"):
        ExperimentConfig.from_file(path)


def _parse_config_text(tmp_dir, text: str):
    path = tmp_dir / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    return ExperimentConfig.from_file(path)


CONFIG_KEYS = [f.name for f in fields(ExperimentConfig)]
_VALUE_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.integers().map(str),
    st.floats().map(repr),
    st.lists(st.floats(), min_size=1, max_size=3).map(lambda xs: ", ".join(map(repr, xs))),
    st.lists(st.integers(-3, 9), min_size=1, max_size=3).map(lambda xs: ",".join(map(str, xs))),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.tuples(st.sampled_from(CONFIG_KEYS + ["bogus"]), _VALUE_TEXT),
                      max_size=8))
def test_from_file_fuzz_raises_only_input_error(tmp_path_factory, lines):
    text = "\n".join(f"{key} = {value}" for key, value in lines)
    try:
        config = _parse_config_text(tmp_path_factory.getbasetemp(), text)
    except InputError:
        return
    assert isinstance(config, ExperimentConfig)


# A valid value of each field type; floats >= 1 satisfy every float bound,
# and grid floats in [0, 1] satisfy the lambda bound.
_SAFE_TEXT = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"), blacklist_characters="#"),
    max_size=12,
).map(str.strip)
_BY_TYPE = {
    str: _SAFE_TEXT,
    int: st.integers(1, 2**63),
    float: st.floats(1.0, 1e12),
    tuple[int, ...]: st.lists(st.integers(1, 2**31), min_size=1, max_size=4).map(tuple),
    tuple[float, ...]: st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4).map(tuple),
}
_CONFIGS = st.fixed_dictionaries({
    name: (st.sampled_from(["target-draft", "draft-target"]) if name == "kl_direction"
           else st.integers(1, 2**60 - 1) if name in ("prompt_count", "probe_count")
           else _BY_TYPE[kind])
    for name, kind in get_type_hints(ExperimentConfig).items()
}).map(lambda values: ExperimentConfig(**values))


def _render(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


@settings(max_examples=200, deadline=None)
@given(config=_CONFIGS)
def test_from_file_round_trips_rendered_config(tmp_path_factory, config):
    text = "\n".join(f"{f.name} = {_render(getattr(config, f.name))}" for f in fields(config))
    tmp_dir = tmp_path_factory.getbasetemp()
    # The corpus paths come back resolved against the config file's directory.
    paths = {key: str(tmp_dir / value) if value else value
             for key, value in (("corpus", config.corpus), ("ood_corpus", config.ood_corpus))}
    assert _parse_config_text(tmp_dir, text) == replace(config, **paths)


def test_readme_config_table_lists_every_field():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Config file format", 1)[1].split("\n\n")[2]
    rows = [line.split("|")[1] for line in table.splitlines()[2:]]
    keys = [key for row in rows for key in re.findall(r"`(\w+)`", row)]
    assert sorted(keys) == sorted(CONFIG_KEYS)
