"""Unit tests for greedy decoding, tree verification, and the lossless loop."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec import decode
from specdec.decode import VerificationResult, greedy_decode, speculative_decode, verify_tree
from specdec.dists import Row
from specdec.errors import InputError
from specdec.metrics import CostModel
from specdec.models import ConstantModel, LanguageModel, distill_interpolate, train_ngram
from specdec.tree import (
    ROOT_ID,
    BranchPolicy,
    SpecTree,
    expand_tree,
    prune_tree,
    render_tree,
)

from conftest import (
    PermutedModel,
    RandomTableModel,
    TableModel,
    add_child,
    full_expand,
    make_vocab,
    one_hot,
    text_vocab,
)
from test_tree import build_random_tree


def walk_oracle(target, tree):
    """Brute-force verification walk, re-deriving every greedy step itself."""
    eos = target.vocab.eos_id
    accepted: list[int] = []
    ctx = tuple(tree.context)
    node_id = ROOT_ID
    scored = 0
    while True:
        probs = target.distribution(ctx)
        scored += 1
        best = int(np.flatnonzero(probs == probs.max())[0])
        match = None
        for cid in tree.children.get(node_id, []):
            if tree.nodes[cid].token == best:
                match = cid
                break
        if match is None:
            return accepted, best, scored
        accepted.append(best)
        if best == eos:
            return accepted, None, scored
        ctx = ctx + (best,)
        node_id = match


def random_pair(seed: int, vocab):
    draft = RandomTableModel(vocab, seed=seed * 2 + 1, concentration=0.5)
    target = RandomTableModel(vocab, seed=seed * 2 + 2, concentration=0.5)
    return draft, target


def test_greedy_one_hot_repeats_token():
    vocab = make_vocab(4)
    model = ConstantModel(vocab, one_hot(vocab.size, 2))
    assert greedy_decode(model, (vocab.bos_id,), 5) == [2, 2, 2, 2, 2]


def test_greedy_immediate_eos():
    vocab = make_vocab(2)
    model = ConstantModel(vocab, one_hot(vocab.size, vocab.eos_id))
    assert greedy_decode(model, (vocab.bos_id,), 7) == [vocab.eos_id]


def test_greedy_bigram_hand_computed():
    vocab, corpus = text_vocab("abcabcabc")
    model = train_ngram(corpus, order=2, smoothing_alpha=0.0, vocab=vocab)
    a, b, c = vocab.encode("abc")
    prompt = (vocab.bos_id, a, b)
    # bigram argmaxes: b->c, c->a, a->b, b->c
    assert greedy_decode(model, prompt, 4) == [c, a, b, c]


def test_greedy_validates_inputs():
    vocab = make_vocab(2)
    model = ConstantModel(vocab, np.full(4, 0.25))
    with pytest.raises(InputError):
        greedy_decode(model, (vocab.bos_id,), 0)
    with pytest.raises(InputError):
        greedy_decode(model, (0,), 4)


def test_verify_perfect_chain_accepts_everything():
    vocab = make_vocab(3)
    model = ConstantModel(vocab, one_hot(vocab.size, 1))
    for depth in (1, 3, 5):
        tree = expand_tree(model, (vocab.bos_id,), BranchPolicy.chain(depth))
        result = verify_tree(model, tree)
        assert list(result.accepted_tokens) == [1] * depth
        assert result.bonus_token == 1
        assert len(result.accepted_tokens) + (result.bonus_token is not None) == depth + 1
        assert result.nodes_scored == depth + 1


def test_verify_immediate_mismatch_bonus_only():
    vocab = make_vocab(3)
    target = ConstantModel(vocab, one_hot(vocab.size, 0))
    tree = SpecTree(context=(vocab.bos_id,))
    add_child(tree, ROOT_ID, 1, 0.6)
    add_child(tree, ROOT_ID, 2, 0.4)
    result = verify_tree(target, tree)
    assert result.accepted_tokens == ()
    assert result.bonus_token == 0
    assert len(result.accepted_tokens) + (result.bonus_token is not None) == 1
    assert result.nodes_scored == 1


def test_verification_result_is_an_immutable_named_tuple():
    vocab = make_vocab(3)
    model = ConstantModel(vocab, one_hot(vocab.size, 1))
    result = verify_tree(model, expand_tree(model, (vocab.bos_id,), BranchPolicy.chain(2)))
    assert VerificationResult._fields == ("accepted_tokens", "bonus_token", "nodes_scored")
    assert result == ((1, 1), 1, 3)
    assert len(result.accepted_tokens) + (result.bonus_token is not None) == 3
    for field in VerificationResult._fields:
        with pytest.raises(AttributeError):
            setattr(result, field, 0)


def test_verify_accepted_eos_suppresses_bonus():
    vocab = make_vocab(2)
    target = ConstantModel(vocab, one_hot(vocab.size, vocab.eos_id))
    tree = SpecTree(context=(vocab.bos_id,))
    add_child(tree, ROOT_ID, vocab.eos_id, 0.9)
    result = verify_tree(target, tree)
    assert list(result.accepted_tokens) == [vocab.eos_id]
    assert result.bonus_token is None
    assert len(result.accepted_tokens) + (result.bonus_token is not None) == 1
    assert result.nodes_scored == 1


def test_verify_matches_brute_force_oracle():
    vocab = make_vocab(6)
    rng = np.random.default_rng(123)
    for seed in range(200):
        draft, target = random_pair(seed, vocab)
        policy = BranchPolicy(
            entropy_threshold=float(rng.choice([0.0, 0.5, 1.2])),
            max_branch=int(rng.integers(1, 4)),
            max_depth=int(rng.integers(1, 5)),
            node_budget=int(rng.integers(4, 10)),
        )
        tree = prune_tree(
            expand_tree(draft, (vocab.bos_id,), policy), policy.node_budget
        )
        result = verify_tree(target, tree)
        accepted, bonus, scored = walk_oracle(target, tree)
        assert list(result.accepted_tokens) == accepted
        assert result.bonus_token == bonus
        assert result.nodes_scored == scored


def test_verify_matches_brute_force_oracle_on_interleaved_trees_and_their_cuts():
    # Random hand-built trees attach nodes under random parents, so a node's
    # children interleave with its cousins', often with equal tokens; their
    # cuts leave holes in the ids. Four tokens keep fans narrow and walks deep.
    vocab = make_vocab(2)
    rng = np.random.default_rng(2107)
    deepest = 0
    for seed in range(300):
        tree = build_random_tree(rng, vocab_size=vocab.size)
        target = RandomTableModel(vocab, seed=seed, concentration=0.3)
        for cut in (tree, prune_tree(tree, int(rng.integers(1, 12)))):
            result = verify_tree(target, cut)
            accepted, bonus, scored = walk_oracle(target, cut)
            assert (list(result.accepted_tokens), result.bonus_token, result.nodes_scored) == (
                accepted, bonus, scored)
            deepest = max(deepest, len(accepted))
    assert deepest >= 3


def test_a_chain_policy_tree_verifies_and_prunes_as_its_equal_hand_built_tree():
    # One-hot models make each case exact: `a` and `b` always predict 'a'
    # and 'b', and `eos_second` predicts EOS after BOS 'a', else 'a'. Each
    # case's chain is checked against the equal SpecTree, built node by node.
    vocab = make_vocab(3)
    bos, eos, size = vocab.bos_id, vocab.eos_id, vocab.size
    a, b = ConstantModel(vocab, one_hot(size, 0)), ConstantModel(vocab, one_hot(size, 1))
    eos_second = TableModel(vocab, {(bos, 0): one_hot(size, eos)}, one_hot(size, 0))
    cases = (
        # an accepted EOS mid-path: no bonus, one context scored per token
        (eos_second, eos_second, BranchPolicy.chain(4), ((0, eos), None, 2)),
        # a full accept plus the bonus
        (a, a, BranchPolicy.chain(3), ((0, 0, 0), 0, 4)),
        # a miss at the first token
        (a, b, BranchPolicy.chain(3), ((), 1, 1)),
        # a budget smaller than the depth
        (a, a, BranchPolicy(0.0, 1, 4, 2), ((0, 0), 0, 3)),
    )
    for draft, target, policy, want in cases:
        path = expand_tree(draft, (bos,), policy)
        assert path.draft_queries == path.non_root_count == len(path.tokens)
        tree, parent = SpecTree(path.context), ROOT_ID
        for token, row in zip(path.tokens, path.rows):
            parent = add_child(tree, parent, token, row.item(token))
        assert render_tree(path, vocab) == render_tree(tree, vocab)
        assert verify_tree(target, path) == verify_tree(target, tree) == want
        assert prune_tree(path, path.non_root_count) is path
    # A prune that cuts keeps the path's first n nodes, as it does the tree's.
    path = expand_tree(a, (bos,), BranchPolicy.chain(4))
    for n in (1, 2, 3):
        cut = prune_tree(path, n)
        assert cut.non_root_count == n
        assert [cut.nodes[nid] for nid in sorted(cut.nodes)] == [path.nodes[i] for i in range(n + 1)]
        assert verify_tree(a, cut) == ((0,) * n, 0, n + 1)
    with pytest.raises(InputError):
        prune_tree(path, 0)


def test_speculative_equals_greedy_seeded_sample():
    vocab = make_vocab(7)
    for seed in range(120):
        draft, target = random_pair(seed + 1000, vocab)
        policy = BranchPolicy(0.6, 2, 3, 6)
        prompt = (vocab.bos_id, seed % 7)
        spec, stats = speculative_decode(draft, target, prompt, 12, policy)
        base = greedy_decode(target, prompt, 12)
        assert spec == base
        assert stats.emitted_tokens == len(spec)
        assert stats.cycles == len(stats.per_cycle_acceptance)
        assert sum(stats.per_cycle_acceptance) == stats.emitted_tokens


def test_perfect_draft_hits_chain_ceiling():
    vocab, corpus = text_vocab("the cat sat on the mat. " * 8)
    target = train_ngram(corpus, order=3, smoothing_alpha=0.1, vocab=vocab)
    prompt = (vocab.bos_id,) + tuple(corpus[:4])
    depth = 3
    tokens, stats = speculative_decode(
        target, target, prompt, 32, BranchPolicy.chain(depth)
    )
    assert tokens == greedy_decode(target, prompt, 32)
    assert stats.per_cycle_acceptance == [depth + 1] * 8
    assert stats.gamma == 4.0


def test_truncated_final_cycle_keeps_exact_length():
    vocab, corpus = text_vocab("the cat sat on the mat. " * 8)
    target = train_ngram(corpus, order=3, smoothing_alpha=0.1, vocab=vocab)
    prompt = (vocab.bos_id,) + tuple(corpus[:4])
    tokens, stats = speculative_decode(
        target, target, prompt, 30, BranchPolicy.chain(3)
    )
    assert tokens == greedy_decode(target, prompt, 30)
    assert len(tokens) == 30
    assert stats.per_cycle_acceptance == [4] * 7 + [2]
    assert stats.gamma == pytest.approx(30 / 8, abs=0.0)


def test_adversarial_draft_emits_bonus_only():
    vocab = make_vocab(6)
    target = RandomTableModel(vocab, seed=5, concentration=0.4)
    draft = PermutedModel(target)
    prompt = (vocab.bos_id, 0)
    tokens, stats = speculative_decode(draft, target, prompt, 10, BranchPolicy.chain(3))
    assert tokens == greedy_decode(target, prompt, 10)
    assert stats.per_cycle_acceptance == [1] * len(tokens)
    assert stats.gamma == 1.0


def test_policy_changes_stats_but_never_output():
    vocab = make_vocab(6)
    draft, target = random_pair(77, vocab)
    prompt = (vocab.bos_id, 2)
    policies = [
        BranchPolicy.chain(1),
        BranchPolicy.chain(4),
        BranchPolicy(0.0, 3, 3, 9),
        BranchPolicy(0.8, 2, 5, 8),
        BranchPolicy(3.0, 4, 4, 12),  # above every entropy: one-wide fans
    ]
    outputs = {
        tuple(speculative_decode(draft, target, prompt, 16, p)[0]) for p in policies
    }
    assert len(outputs) == 1
    assert list(outputs.pop()) == greedy_decode(target, prompt, 16)


def test_speculative_stops_at_accepted_eos():
    vocab = make_vocab(2)
    model = ConstantModel(vocab, one_hot(vocab.size, vocab.eos_id))
    tokens, stats = speculative_decode(
        model, model, (vocab.bos_id,), 9, BranchPolicy.chain(4)
    )
    assert tokens == [vocab.eos_id]
    assert stats.cycles == 1
    assert stats.per_cycle_acceptance == [1]


def test_speculative_validates_inputs():
    v1, v2 = make_vocab(2), make_vocab(3)
    m1 = ConstantModel(v1, np.full(4, 0.25))
    m2 = ConstantModel(v2, np.full(5, 0.2))
    with pytest.raises(InputError):
        speculative_decode(m1, m2, (v2.bos_id,), 4, BranchPolicy.chain(2))
    with pytest.raises(InputError):
        speculative_decode(m1, m1, (v1.bos_id,), 0, BranchPolicy.chain(2))


def test_draft_calls_counted_for_chain():
    vocab, corpus = text_vocab("the cat sat on the mat. " * 8)
    target = train_ngram(corpus, order=3, smoothing_alpha=0.1, vocab=vocab)
    prompt = (vocab.bos_id,) + tuple(corpus[:4])
    _, stats = speculative_decode(target, target, prompt, 32, BranchPolicy.chain(3))
    # a chain of depth 3 issues exactly 3 draft queries per cycle
    assert stats.draft_calls == 3 * stats.cycles
    assert stats.tree_nodes == 3 * stats.cycles


def expand_all_then_prune_decode(draft, target, prompt, max_tokens, policy):
    """The decode loop with every tree fully expanded and then pruned.

    Returns (tokens, per-cycle emitted counts, summed kept tree nodes).
    """
    eos = target.vocab.eos_id
    out: list[int] = []
    per_cycle: list[int] = []
    nodes = 0
    while len(out) < max_tokens:
        full = full_expand(draft, tuple(prompt) + tuple(out), policy)
        tree = prune_tree(full, policy.node_budget)
        result = verify_tree(target, tree)
        emitted = list(result.accepted_tokens)
        if result.bonus_token is not None:
            emitted.append(result.bonus_token)
        emitted = emitted[: max_tokens - len(out)]
        out.extend(emitted)
        per_cycle.append(len(emitted))
        nodes += tree.non_root_count
        if eos in emitted:
            break
    return out, per_cycle, nodes


def test_best_first_decode_matches_expand_all_then_prune():
    vocab = make_vocab(5)
    policies = (
        BranchPolicy(0.35, 4, 4, 8),
        BranchPolicy(0.0, 3, 3, 5),
        BranchPolicy(1.0, 2, 5, 12),
        BranchPolicy.chain(4),
    )
    for seed in range(8):
        base, target = random_pair(seed, vocab)
        prompt = (vocab.bos_id, seed % 5)
        for lam in (0.0, 0.5, 0.9):
            draft = distill_interpolate(target, base, lam)
            for policy in policies:
                tokens, stats = speculative_decode(draft, target, prompt, 24, policy)
                ref_tokens, ref_cycles, ref_nodes = expand_all_then_prune_decode(
                    draft, target, prompt, 24, policy
                )
                assert tokens == ref_tokens
                assert stats.per_cycle_acceptance == ref_cycles
                assert stats.cycles == len(ref_cycles)
                assert stats.emitted_tokens == sum(ref_cycles)
                assert stats.tree_nodes == ref_nodes
                assert stats.draft_calls <= stats.cycles * policy.node_budget


def test_a_chain_decode_never_reads_the_draft_entropy(monkeypatch):
    vocab, corpus = text_vocab("the cat sat on the mat. the dog sat on the rug. " * 4)
    target = train_ngram(corpus, 3, 0.1, vocab)
    draft = distill_interpolate(target, train_ngram(corpus, 1, 0.5, vocab), 0.5)
    prompt = (vocab.bos_id,) + corpus[:6]
    want = greedy_decode(target, prompt, 24)

    def unread(row):
        raise AssertionError("a chain read Row.entropy")

    monkeypatch.setattr(Row, "entropy", property(unread))
    # A width of 1 makes a chain whatever the threshold and the entropy.
    for policy in (BranchPolicy.chain(4), BranchPolicy(0.35, 1, 4, 4)):
        assert speculative_decode(draft, target, prompt, 24, policy)[0] == want
    with pytest.raises(AssertionError, match="Row.entropy"):
        speculative_decode(draft, target, prompt, 24, BranchPolicy(0.35, 4, 4, 8))


class _PlugIn(LanguageModel):
    """Serves another model's rows with no row table, declaring its window
    only if asked to."""

    def __init__(self, model: LanguageModel, windowed: bool) -> None:
        self.vocab = model.vocab
        self.model = model
        self.context_window = model.context_window if windowed else None

    def distribution(self, ctx):
        return self.model.distribution(ctx)


#: A chain, a wide tree, and vector policies whose fan width runs from 1
#: (only rank 0 clears the floor) to max_branch.
_POLICIES = st.one_of(
    st.integers(1, 4).map(BranchPolicy.chain),
    st.builds(BranchPolicy, st.sampled_from([0.0, 0.35]), st.integers(2, 4),
              st.integers(1, 4), st.integers(4, 12)),
    st.builds(
        lambda tau, depth, rates, draft_cost: BranchPolicy(
            tau, 3, depth, 8, rates, CostModel(draft_cost, 1.0)),
        st.sampled_from([0.0, 0.35]),
        st.integers(1, 4),
        st.lists(st.sampled_from([1.0, 0.9, 0.5, 0.3, 0.1, 0.01]), min_size=3, max_size=3)
        .map(lambda rates: tuple(sorted(rates, reverse=True))),
        st.sampled_from([0.0, 0.05, 0.3]),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    text=st.text("abcde .", min_size=4, max_size=60),
    orders=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    alphas=st.tuples(st.sampled_from([0.0, 0.1]), st.sampled_from([0.0, 0.5])),
    lam=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    policy=_POLICIES,
    start=st.integers(0, 60),
    prompt_len=st.integers(0, 6),
    max_tokens=st.integers(1, 16),
)
def test_tabled_and_plug_in_models_decode_alike(
    text, orders, alphas, lam, policy, start, prompt_len, max_tokens,
):
    # The tabled pair (tail hits, key hits, a cold then a warm table) and
    # the same rows served by plug-ins with no table, with and without a
    # declared window, whole or as the sides of a blend (keys of None):
    # every path must emit the same tokens, count the same stats and build
    # the same tree in every cycle.
    vocab, corpus = text_vocab(text)  # at least 4 tokens, enough for order 4
    target = train_ngram(corpus, orders[0], alphas[0], vocab)
    base = train_ngram(corpus, orders[1], alphas[1], vocab)
    start %= len(corpus)
    prompt = (vocab.bos_id,) + corpus[start:start + prompt_len]
    pairs = [(distill_interpolate(target, base, lam), target)] * 2
    for windowed in (False, True):
        plug_target = _PlugIn(target, windowed)
        pairs.append((_PlugIn(pairs[0][0], windowed), plug_target))
        pairs.append((distill_interpolate(plug_target, _PlugIn(base, windowed), lam), plug_target))
    runs = []
    for draft, tgt in pairs:
        trees = []

        def recorded(*args):
            trees.append(expand_tree(*args))
            return trees[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decode, "expand_tree", recorded)
            tokens, stats = speculative_decode(draft, tgt, prompt, max_tokens, policy)
        assert len(trees) == stats.cycles
        runs.append((tokens, stats, [render_tree(tree, vocab) for tree in trees]))
    assert runs[0][0] == greedy_decode(target, prompt, max_tokens)
    for run in runs[1:]:
        assert run == runs[0]
