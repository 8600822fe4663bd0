"""The benchmark's traced run still fits the program.

``perfbench/spans.py`` replaces public ``specdec`` names with timing
wrappers while a traced pass runs, so each name it patches must still
resolve, and the counts it reads must still add up. This runs one traced
decode of the demo models through its ``Tracer`` without changing it.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from specdec import decode, harness, models, tree

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    return importlib.import_module("perfbench.spans")


def test_a_traced_decode_installs_counts_and_restores(spans, monkeypatch):
    monkeypatch.chdir(ROOT)
    config = harness.ExperimentConfig.from_file("demo/bench.cfg")
    vocab, target, base, held = harness.build_models(config)
    draft = models.distill_interpolate(target, base, 0.5)
    prompt = (vocab.bos_id,) + held[:config.prompt_length]
    policy = tree.BranchPolicy(0.35, 4, 4, 8)
    want, _ = decode.speculative_decode(draft, target, prompt, 32, policy)  # fills the tables

    tracer = spans.Tracer()
    with tracer.installed(draft=draft, target=target), tracer.span("workload"):
        tokens, stats = decode.speculative_decode(draft, target, prompt, 32, policy)

    assert tokens == want == decode.greedy_decode(target, prompt, 32)
    totals = tracer.totals()
    assert totals["decode.verify"]["calls"] == stats.cycles
    assert tracer.counts["tree.draft_queries"] == stats.draft_calls
    assert totals["models.next_distribution"]["calls"] == (
        stats.draft_calls + stats.target_contexts_scored
    )
    metrics = spans.layer_metrics(tracer, 0.0, 0.0)
    assert metrics["dists.validations_per_model_call"] == 0.0  # every row came from a table

    # Leaving the block put every original back.
    assert tree.next_distribution is models.next_distribution
    assert decode.expand_tree is tree.expand_tree
    assert "distribution" not in vars(draft) and "distribution" not in vars(target)
    for module, attr in spans.LEAVES:
        assert getattr(module, attr).__module__.startswith("specdec")
