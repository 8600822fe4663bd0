"""Contexts are checked once, where a caller hands them in.

``greedy_decode``, ``speculative_decode``, ``expand_tree``, ``verify_tree``
and ``estimate_kl`` each run ``validate_context`` on the context they are
given. It walks a context once: one it already accepted for an equal
vocabulary comes back as given, so a ``speculative_decode`` walks only its
prompt, and a bench walks only the prompts and probes it samples.
``next_distribution`` trusts its caller and does not walk the context
again. The traced benchmark wraps functions under the names their callers
look them up by, so those names are pinned here too.
"""

from __future__ import annotations

import copy
import pickle
import sys

import numpy as np
import pytest

import specdec.decode as decode
import specdec.harness as harness
import specdec.metrics as metrics
import specdec.models as models
import specdec.tree as tree
from specdec.decode import greedy_decode, speculative_decode, verify_tree
from specdec.errors import InputError
from specdec.metrics import estimate_kl
from specdec.models import ConstantModel, distill_interpolate, next_distribution, train_ngram
from specdec.tree import ROOT_ID, BranchPolicy, SpecTree, expand_tree

from conftest import TRAIN_TEXT, add_child, make_vocab, text_vocab

VOCAB = make_vocab(2)  # a=0, b=1, bos=2, eos=3
BOS, EOS = VOCAB.bos_id, VOCAB.eos_id
MODEL = ConstantModel(VOCAB, [0.5, 0.3, 0.0, 0.2])


def _hand_built_tree(ctx):
    spec = SpecTree(ctx)
    add_child(spec, ROOT_ID, 0, 0.5)
    return spec


ENTRY_POINTS = {
    "greedy_decode": lambda ctx: greedy_decode(MODEL, ctx, 4),
    "speculative_decode": lambda ctx: speculative_decode(
        MODEL, MODEL, ctx, 4, BranchPolicy(0.5, 2, 2, 4)
    ),
    "expand_tree": lambda ctx: expand_tree(MODEL, ctx, BranchPolicy(0.5, 2, 2, 4)),
    "verify_tree": lambda ctx: verify_tree(MODEL, _hand_built_tree(ctx)),
    "estimate_kl": lambda ctx: estimate_kl(MODEL, MODEL, [(BOS, 0), ctx]),
}

MALFORMED = {
    "empty": (),
    "no bos": (0, 1),
    "token out of range": (BOS, 0, 99),
    "eos before the end": (BOS, EOS, 0),
    "ends in eos": (BOS, 0, EOS),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_entry_points_reject_malformed_contexts(entry, case):
    ENTRY_POINTS[entry]((BOS, 0))  # a well-formed context passes
    with pytest.raises(InputError):
        ENTRY_POINTS[entry](MALFORMED[case])


@pytest.fixture
def context_checks(monkeypatch):
    """The length of each context that any module's ``validate_context``
    name walks; a context it returns as given was not walked."""
    calls = []
    original = models.validate_context

    def counting(vocab, ctx):
        checked = original(vocab, ctx)
        if checked is not ctx:
            calls.append(len(ctx))
        return checked

    for module in (models, tree, decode, metrics, harness):
        monkeypatch.setattr(module, "validate_context", counting)
    return calls


def _demo_pair():
    vocab, corpus = text_vocab(TRAIN_TEXT)
    target = train_ngram(corpus, order=3, smoothing_alpha=0.1, vocab=vocab)
    draft = distill_interpolate(
        target, train_ngram(corpus, order=1, smoothing_alpha=0.5, vocab=vocab), 0.5
    )
    return vocab, corpus, draft, target


def test_each_context_is_checked_once_where_it_enters(context_checks):
    vocab, corpus, draft, target = _demo_pair()
    prompt = (vocab.bos_id,) + corpus[:6]

    tokens, stats = speculative_decode(draft, target, prompt, 48, BranchPolicy(0.5, 3, 4, 8))
    assert stats.cycles > 1
    assert context_checks == [len(prompt)]  # expand_tree and verify_tree trust it

    for max_tokens in (1, 8, 48):
        context_checks.clear()
        assert greedy_decode(target, prompt, max_tokens) == tokens[:max_tokens]
        assert context_checks == [len(prompt)]

    context_checks.clear()
    probes = [(vocab.bos_id,) + corpus[i:i + 4] for i in range(0, 40, 8)]
    estimate_kl(draft, target, probes)
    assert context_checks == [len(p) for p in probes]

    context_checks.clear()
    next_distribution(target, prompt)
    assert context_checks == []


def test_a_bench_walks_each_sampled_context_once(context_checks, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(TRAIN_TEXT, encoding="utf-8")
    (tmp_path / "ood.txt").write_text("the sun saw a hill. " * 8, encoding="utf-8")
    config = harness.ExperimentConfig(
        corpus=str(corpus), ood_corpus=str(tmp_path / "ood.txt"), lambda_grid=(0.0, 0.5),
        branch_grid=(1, 3), depth_grid=(3,), budget_grid=(6,), prompt_count=5,
        prompt_length=6, probe_count=7, probe_length=4, max_tokens=12,
    )
    records = harness.run_matrix(config)
    assert len(records) == 2 * 2 * 2
    # Per domain, the probes and then the prompts, each walked where it is
    # drawn; no decode, KL or acceptance estimate walks one again.
    per_domain = ([config.probe_length + 1] * config.probe_count
                  + [config.prompt_length + 1] * config.prompt_count)
    assert context_checks == per_domain * 2


def test_a_context_checked_for_one_vocabulary_is_checked_again_for_another():
    spec = expand_tree(MODEL, (BOS, 0), BranchPolicy(0.5, 2, 2, 4))
    equal = ConstantModel(make_vocab(2), [0.5, 0.3, 0.0, 0.2])  # an equal vocabulary
    assert verify_tree(equal, spec) == verify_tree(MODEL, spec)
    assert expand_tree(equal, spec.context, BranchPolicy(0.5, 2, 2, 4)).tokens == spec.tokens
    smaller = ConstantModel(make_vocab(1), [0.5, 0.0, 0.5])  # bos_id 1, not 2
    with pytest.raises(InputError, match="bos_id=1"):
        verify_tree(smaller, spec)
    with pytest.raises(InputError, match="bos_id=1"):
        expand_tree(smaller, spec.context, BranchPolicy(0.5, 2, 2, 4))


def test_a_checked_context_keeps_its_check_through_copy_and_pickle():
    ctx = models.validate_context(VOCAB, (BOS, 0))
    for clone in (copy.deepcopy(ctx), pickle.loads(pickle.dumps(ctx))):
        assert clone == ctx and models.validate_context(VOCAB, clone) is clone


def test_a_fresh_context_is_walked_without_a_python_frame_per_token():
    # sys.setprofile reports a "call" event for each Python frame entered,
    # none for a C function: the walk enters no generator frame per token.
    vocab, corpus = text_vocab(TRAIN_TEXT)
    ctx = [vocab.bos_id, *corpus[:8]]
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        checked = models.validate_context(vocab, ctx)
    finally:
        sys.setprofile(None)
    assert checked == tuple(ctx)
    assert sorted(names) == ["size", "validate_context"]


def test_a_hand_built_tree_with_a_malformed_context_is_rejected():
    checked = expand_tree(MODEL, (BOS, 0), BranchPolicy(0.5, 2, 2, 4)).context
    for ctx in (checked + (99,), checked + (EOS, 0), [0, 1]):
        with pytest.raises(InputError):
            verify_tree(MODEL, _hand_built_tree(ctx))


def test_decode_loop_calls_its_stages_through_module_names(monkeypatch):
    vocab, corpus, draft, target = _demo_pair()
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            key = f"{module.__name__}.{name}"
            calls[key] = calls.get(key, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("expand_tree", "prune_tree", "verify_tree", "next_distribution"):
        count(decode, name)
    count(tree, "next_distribution")

    _, stats = speculative_decode(
        draft, target, (vocab.bos_id,) + corpus[:6], 48, BranchPolicy(0.5, 3, 4, 8)
    )
    assert stats.cycles > 1
    assert calls == {
        "specdec.decode.expand_tree": stats.cycles,
        "specdec.decode.prune_tree": stats.cycles,
        "specdec.decode.verify_tree": stats.cycles,
        "specdec.decode.next_distribution": stats.target_contexts_scored,
        "specdec.tree.next_distribution": stats.draft_calls,
    }


class _ListModel(models.LanguageModel):
    """Plug-in model whose rows are plain Python lists."""

    def __init__(self, vocab, row) -> None:
        self.vocab = vocab
        self.row = row

    def distribution(self, ctx):
        return list(self.row)


def test_a_list_row_is_converted_where_it_leaves_the_model():
    model = _ListModel(VOCAB, [0.25, 0.5, 0.0, 0.25])
    row = next_distribution(model, (BOS,))
    assert isinstance(row, np.ndarray) and row.dtype == np.float64
    assert greedy_decode(model, (BOS,), 3) == [1, 1, 1]
    tokens, _ = speculative_decode(model, model, (BOS,), 3, BranchPolicy(0.5, 2, 2, 4))
    assert tokens == [1, 1, 1]


def test_a_list_row_of_the_wrong_length_is_an_input_error():
    model = _ListModel(VOCAB, [0.5, 0.5, 0.0])
    with pytest.raises(InputError, match="length 3, expected 4"):
        greedy_decode(model, (BOS,), 3)


@pytest.mark.parametrize(
    "row",
    [
        [0.5, [0.5], 0.0, 0.0],
        ["a", "b", "c", "d"],
        [True, False, False, False],
        ["0.25", "0.5", "0", "0.25"],
        [b"0.25", b"0.5", b"0", b"0.25"],
        [True, 0.0, 0.0, 0.0],
    ],
    ids=["ragged", "strings", "bools", "numeric strings", "bytes", "bools and floats"],
)
def test_a_list_row_that_is_not_numbers_is_a_one_line_input_error(row):
    model = _ListModel(VOCAB, row)
    with pytest.raises(InputError, match="not a vector of numbers") as excinfo:
        next_distribution(model, (BOS,))
    assert "\n" not in str(excinfo.value)
    with pytest.raises(InputError, match="not a vector of numbers"):
        greedy_decode(model, (BOS,), 3)


def test_a_blend_with_a_list_side_converts_it():
    side = _ListModel(VOCAB, [0.25, 0.5, 0.0, 0.25])
    for blend in (distill_interpolate(side, MODEL, 0.5), distill_interpolate(MODEL, side, 0.5)):
        row = next_distribution(blend, (BOS,))
        assert row.tolist() == pytest.approx([0.375, 0.4, 0.0, 0.225])
        assert greedy_decode(blend, (BOS,), 3) == [1, 1, 1]


def test_a_blend_side_must_be_a_distribution_on_its_own():
    """Each side is read through ``next_distribution``, so a plug-in side
    that is not a distribution is rejected with that call's message, even
    where the blend of the two would be one."""
    left, right = _ListModel(VOCAB, [1.5, -0.5, 0.0, 0.0]), _ListModel(VOCAB, [-0.5, 1.5, 0.0, 0.0])
    with pytest.raises(InputError) as side:
        next_distribution(left, (BOS,))
    with pytest.raises(InputError) as blended:
        next_distribution(distill_interpolate(left, right, 0.5), (BOS,))
    assert str(blended.value) == str(side.value) == "distribution has negative entries"


@pytest.mark.parametrize(
    ("values", "message"),
    [(["a", "b", "c", "d"], "not a vector of numbers"), ([0.5, 0.5, 0.0], "length 3, expected 4")],
    ids=["not numbers", "wrong length"],
)
def test_a_bad_blend_side_is_a_one_line_input_error(values, message):
    side = _ListModel(VOCAB, values)
    for blend in (distill_interpolate(side, MODEL, 0.5), distill_interpolate(MODEL, side, 0.5)):
        with pytest.raises(InputError, match=message) as excinfo:
            next_distribution(blend, (BOS,))
        assert "\n" not in str(excinfo.value)


class _Unwindowed(models.LanguageModel):
    """Plug-in wrapper that declares no window, so it reads whole contexts."""

    def __init__(self, model) -> None:
        self.vocab = model.vocab
        self.model = model

    def distribution(self, ctx):
        return self.model.distribution(ctx)


@pytest.fixture
def context_lengths(monkeypatch):
    """The length of each context that reaches ``next_distribution`` through
    the ``tree`` and ``decode`` module names."""
    lengths = []
    original = models.next_distribution

    def counting(model, ctx):
        lengths.append(len(ctx))
        return original(model, ctx)

    for module in (tree, decode):
        monkeypatch.setattr(module, "next_distribution", counting)
    return lengths


LONG = 4096


@pytest.mark.parametrize(
    "policy", [BranchPolicy.chain(4), BranchPolicy(0.35, 4, 4, 8)], ids=["chain", "tree"]
)
def test_long_outputs_match_greedy_on_contexts_of_window_plus_depth(policy, context_lengths):
    vocab, corpus, draft, target = _demo_pair()
    prompt = (vocab.bos_id,) + corpus[:7]
    window = max(draft.context_window, target.context_window, 1)
    assert window == 2

    want = greedy_decode(target, prompt, LONG)
    tokens, stats = speculative_decode(draft, target, prompt, LONG, policy)
    assert len(want) == LONG and vocab.eos_id not in want
    assert tokens == want
    assert stats.emitted_tokens == LONG
    assert len(context_lengths) == LONG + stats.target_contexts_scored + stats.draft_calls
    assert len(prompt) > window + policy.max_depth  # so the prompt is cut too
    assert max(context_lengths) <= window + policy.max_depth


def test_a_plug_in_without_a_window_sees_whole_contexts(context_lengths):
    vocab, corpus, draft, target = _demo_pair()
    draft, target = _Unwindowed(draft), _Unwindowed(target)
    prompt = (vocab.bos_id,) + corpus[:7]
    policy = BranchPolicy.chain(4)

    want = greedy_decode(target, prompt, LONG)
    assert max(context_lengths) == len(prompt) + LONG - 1
    context_lengths.clear()
    tokens, _ = speculative_decode(draft, target, prompt, LONG, policy)
    assert tokens == want
    assert max(context_lengths) >= len(prompt) + LONG - policy.max_depth - 1
