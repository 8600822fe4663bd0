"""A warm decode cycle calls nothing but its three stages and its row reads.

``sys.setprofile`` reports a ``call`` event for every Python frame entered
and none for a C function, so counting those events by code name shows
every Python call a decode makes, without timing anything. The decodes run
the demo models (``demo/bench.cfg``) at lambda = 0.5, on row tables that an
identical decode filled first, from a prompt ``validate_context`` already
accepted.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

from specdec.decode import speculative_decode
from specdec.harness import ExperimentConfig, build_models, cell_policies, in_domain_probes
from specdec.models import distill_interpolate, validate_context
from specdec.tree import BranchPolicy, expand_tree

ROOT = Path(__file__).resolve().parent.parent

#: The Python calls a decode makes once, outside its cycles: itself, the
#: vocabulary comparison, the window (and its list comprehension, a frame
#: of its own before Python 3.12), the prompt's check, returned as given,
#: and the DecodeStats constructor.
PER_DECODE = Counter({"speculative_decode": 1, "__eq__": 1, "_window": 1,
                      "validate_context": 1, "__init__": 1})
if sys.version_info < (3, 12):
    PER_DECODE["<listcomp>"] = 1


def _calls(fn, *args):
    """``fn(*args)`` and the Python frames it entered, counted by code name."""
    names: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            names[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, names


@pytest.fixture(scope="module")
def demo():
    config = ExperimentConfig.from_file(str(ROOT / "demo" / "bench.cfg"))
    vocab, target, base, held = build_models(config)
    draft = distill_interpolate(target, base, 0.5)
    policies = cell_policies(config, draft, target, in_domain_probes(config, vocab, held))
    prompts = [validate_context(vocab, (vocab.bos_id,) + held[i:i + 8]) for i in range(0, 400, 40)]
    return draft, target, prompts, policies


def _warm_decode_calls(draft, target, prompts, policy, max_tokens):
    """Per prompt: the decode's stats and the Python calls of a second,
    warm-table run of it."""
    out = []
    for prompt in prompts:
        tokens, _ = speculative_decode(draft, target, prompt, max_tokens, policy)
        (again, stats), names = _calls(speculative_decode, draft, target, prompt, max_tokens,
                                       policy)
        assert again == tokens
        out.append((stats, names))
    return out


def _cycle_calls(stats, fan_calls: bool) -> Counter:
    calls = Counter({"expand_tree": stats.cycles, "prune_tree": stats.cycles,
                     "verify_tree": stats.cycles,
                     "next_distribution": stats.draft_calls + stats.target_contexts_scored})
    if fan_calls:
        calls["fan"] = stats.draft_calls
    return calls


def test_a_warm_chain_cycle_calls_only_its_stages_and_row_reads(demo):
    draft, target, prompts, _ = demo
    for stats, names in _warm_decode_calls(draft, target, prompts, BranchPolicy.chain(4), 256):
        assert stats.cycles > 20
        assert names == _cycle_calls(stats, fan_calls=False) + PER_DECODE
        assert sum(names.values()) == (3 * stats.cycles + stats.draft_calls
                                       + stats.target_contexts_scored + sum(PER_DECODE.values()))


def test_a_threshold_0_tree_cycle_adds_one_fan_per_draft_query(demo):
    """The wide-tree policy with its entropy gate off, and the demo's own
    cells, whose acceptance vector leaves a fan of one (a chain) at lambda =
    0.5; all have the threshold 0, which reads no entropy."""
    draft, target, prompts, policies = demo
    for policy in (BranchPolicy(0.0, 4, 4, 8), *policies.values()):
        assert policy.entropy_threshold == 0.0
        for stats, names in _warm_decode_calls(draft, target, prompts, policy, 32):
            assert names == _cycle_calls(stats, fan_calls=policy.fan_width > 1) + PER_DECODE


def test_an_expanded_tree_has_slots_and_no_instance_dict(demo):
    draft, _, prompts, policies = demo
    for policy in (BranchPolicy.chain(4), *policies.values()):
        tree = expand_tree(draft, prompts[0], policy)
        assert not hasattr(tree, "__dict__")
