"""Unit tests for draft-tree construction, entropy-gated expansion, pruning."""

from __future__ import annotations

import heapq
import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import specdec
from specdec.decode import greedy_decode, speculative_decode
from specdec.errors import InputError
from specdec.metrics import CostModel, predicted_speedup
from specdec.models import ConstantModel, distill_interpolate, next_distribution, train_ngram
from specdec.tree import (
    ROOT_ID,
    BranchPolicy,
    SpecNode,
    SpecTree,
    expand_tree,
    prune_tree,
    render_tree,
)

from conftest import (
    TRAIN_TEXT,
    RandomTableModel,
    TableModel,
    add_child,
    best_nodes,
    branch_width,
    check_tree,
    full_expand,
    make_vocab,
    one_hot,
    path_tokens,
    text_vocab,
    top_tokens,
)


def rank_key(node):
    """Pruning order re-derived independently of the implementation."""
    return (-node.cum_logprob, node.depth, node.id)


def build_random_tree(rng, vocab_size: int = 8, max_nodes: int = 30) -> SpecTree:
    tree = SpecTree(context=(vocab_size - 2,))
    for _ in range(int(rng.integers(1, max_nodes + 1))):
        # Every id 0..n is kept; a parent's child tokens are read off the
        # flat sequences, without deriving the nodes.
        parent = int(rng.choice(np.arange(tree.non_root_count + 1, dtype=np.int64)))
        used = {t for t, up in zip(tree.tokens, tree.parents) if up == parent}
        available = [t for t in range(vocab_size) if t not in used]
        if not available:
            continue
        token = int(rng.choice(available))
        prob = float(rng.uniform(0.05, 1.0))
        add_child(tree, parent, token, prob)
    return tree


def test_policy_validation():
    with pytest.raises(InputError):
        BranchPolicy(-0.1, 2, 3, 8)
    with pytest.raises(InputError):
        BranchPolicy(1.0, 0, 3, 8)
    with pytest.raises(InputError):
        BranchPolicy(1.0, 2, 0, 8)
    with pytest.raises(InputError):
        BranchPolicy(1.0, 9, 3, 8)  # branch wider than budget
    chain = BranchPolicy.chain(5)
    assert chain.max_branch == 1
    assert chain.max_depth == 5
    assert chain.node_budget == 5
    assert chain.entropy_threshold == 0.0


def test_branch_width_cases():
    policy = BranchPolicy(1.0, 4, 3, 8)
    assert branch_width(one_hot(8, 2), policy) == 1
    assert branch_width(np.full(16, 1.0 / 16.0), policy) == 4
    assert branch_width(np.array([0.5, 0.5, 0.0, 0.0]), policy) == 1
    wide = BranchPolicy(0.0, 4, 3, 8)
    assert branch_width(np.array([0.9, 0.1, 0.0, 0.0]), wide) == 2  # nonzero cap


def test_top_tokens_stable_ties():
    row = np.array([0.25, 0.25, 0.25, 0.25])
    assert list(top_tokens(row, 2)) == [0, 1]
    row2 = np.array([0.1, 0.4, 0.4, 0.1])
    assert list(top_tokens(row2, 3)) == [1, 2, 0]


def test_add_child_validation():
    tree = SpecTree(context=(6,))
    child = add_child(tree, ROOT_ID, 3, 0.5)
    with pytest.raises(InputError):
        add_child(tree, 99, 0, 0.5)
    with pytest.raises(InputError):
        add_child(tree, ROOT_ID, 3, 0.5)  # duplicate sibling token
    with pytest.raises(InputError):
        add_child(tree, child, 0, 0.0)
    with pytest.raises(InputError):
        add_child(tree, child, 0, 1.5)
    assert tree.nodes[child].cum_logprob == pytest.approx(math.log(0.5), abs=1e-15)


def test_add_child_on_an_expanded_tree_takes_the_next_free_id():
    vocab, corpus = text_vocab(TRAIN_TEXT)
    target = train_ngram(corpus, 3, 0.1, vocab)
    draft = distill_interpolate(target, train_ngram(corpus, 1, 0.5, vocab), 0.5)
    for policy in (BranchPolicy.chain(4), BranchPolicy(0.35, 4, 4, 8)):
        tree = expand_tree(draft, (vocab.bos_id,) + corpus[:6], policy)
        assert sorted(tree.nodes) == list(range(tree.non_root_count + 1))
        taken = {tree.nodes[c].token for c in tree.children[ROOT_ID]}
        token = min(set(range(vocab.size)) - taken)
        count = tree.non_root_count
        assert add_child(tree, ROOT_ID, token, 0.5) == count + 1
        check_tree(tree)


def test_expand_one_hot_draft_yields_chain():
    vocab = make_vocab(3)
    draft = ConstantModel(vocab, one_hot(vocab.size, 1))
    policy = BranchPolicy(1.0, 4, 4, 16)
    tree = expand_tree(draft, (vocab.bos_id,), policy)
    assert tree.non_root_count == 4
    depths = sorted(node.depth for nid, node in tree.nodes.items() if nid != ROOT_ID)
    assert depths == [1, 2, 3, 4]
    for nid, node in tree.nodes.items():
        if nid != ROOT_ID:
            assert node.token == 1
            assert node.cum_logprob == 0.0
    assert tree.draft_queries == 4  # depth-4 frontier is not queried


def test_expand_uniform_binary_tree():
    vocab = make_vocab(2)  # V = 4 including bos/eos
    draft = ConstantModel(vocab, np.full(4, 0.25))
    policy = BranchPolicy(0.0, 2, 2, 16)
    tree = expand_tree(draft, (vocab.bos_id,), policy)
    assert tree.non_root_count == 6
    leaves = [n for nid, n in tree.nodes.items() if nid != ROOT_ID and n.depth == 2]
    assert len(leaves) == 4
    for leaf in leaves:
        assert leaf.cum_logprob == pytest.approx(2 * math.log(0.25), abs=1e-12)
    assert tree.draft_queries == 3


def test_expand_never_extends_eos():
    vocab = make_vocab(2)
    row = np.zeros(vocab.size)
    row[vocab.eos_id] = 0.9
    row[0] = 0.1
    draft = ConstantModel(vocab, row)
    policy = BranchPolicy(0.0, 1, 4, 8)
    tree = expand_tree(draft, (vocab.bos_id,), policy)
    assert tree.non_root_count == 1
    only = tree.nodes[1]
    assert only.token == vocab.eos_id
    assert tree.children.get(1, []) == []

    wide = BranchPolicy(0.0, 2, 3, 16)
    tree2 = expand_tree(draft, (vocab.bos_id,), wide)
    for nid, node in tree2.nodes.items():
        if node.token == vocab.eos_id:
            assert tree2.children.get(nid, []) == []


def test_expand_validates_context():
    vocab = make_vocab(2)
    draft = ConstantModel(vocab, np.full(4, 0.25))
    policy = BranchPolicy.chain(2)
    with pytest.raises(InputError):
        expand_tree(draft, (0,), policy)  # no bos anchor


def test_prune_chain_noop_and_errors():
    vocab = make_vocab(3)
    draft = ConstantModel(vocab, one_hot(vocab.size, 2))
    tree = expand_tree(draft, (vocab.bos_id,), BranchPolicy.chain(4))
    pruned = prune_tree(tree, 10)
    assert set(pruned.nodes) == set(tree.nodes)
    with pytest.raises(InputError):
        prune_tree(tree, 0)


def test_prune_to_single_best_depth_one_node():
    vocab = make_vocab(2)
    draft = ConstantModel(vocab, np.array([0.7, 0.3, 0.0, 0.0]))
    tree = expand_tree(draft, (vocab.bos_id,), BranchPolicy(0.0, 2, 3, 16))
    pruned = prune_tree(tree, 1)
    assert pruned.non_root_count == 1
    node = next(n for nid, n in pruned.nodes.items() if nid != ROOT_ID)
    assert node.depth == 1
    assert node.token == 0
    assert node.cum_logprob == pytest.approx(math.log(0.7), abs=1e-12)


def test_prune_binary_tree_against_enumeration_oracle():
    vocab = make_vocab(2)
    draft = ConstantModel(vocab, np.full(4, 0.25))
    tree = expand_tree(draft, (vocab.bos_id,), BranchPolicy(0.0, 2, 2, 16))
    assert tree.non_root_count == 6
    pruned = prune_tree(tree, 3)
    kept = {nid for nid in pruned.nodes if nid != ROOT_ID}
    assert len(kept) == 3

    # oracle: enumerate every ancestor-closed 3-subset and its total score
    node_ids = [nid for nid in tree.nodes if nid != ROOT_ID]
    closed_subsets = []
    for combo in combinations(node_ids, 3):
        chosen = set(combo)
        if all(tree.nodes[nid].parent in chosen | {ROOT_ID} for nid in chosen):
            closed_subsets.append(chosen)
    score = lambda subset: sum(tree.nodes[nid].cum_logprob for nid in subset)
    best_score = max(score(s) for s in closed_subsets)
    assert kept in closed_subsets
    assert score(kept) == pytest.approx(best_score, abs=1e-12)

    # the globally best-ranked node survives
    best = min((n for nid, n in tree.nodes.items() if nid != ROOT_ID), key=rank_key)
    assert best.id in kept

    # idempotent
    again = prune_tree(pruned, 3)
    assert set(again.nodes) == set(pruned.nodes)


def test_chain_degeneration_with_branch_one_and_a_threshold_above_every_entropy():
    vocab = make_vocab(6)
    for seed in range(10):
        draft = RandomTableModel(vocab, seed=seed)
        # Entropies over 8 tokens stay below log(8) < 3: every fan is one wide.
        for policy in (BranchPolicy(0.0, 1, 5, 5), BranchPolicy(3.0, 4, 5, 16)):
            tree = expand_tree(draft, (vocab.bos_id,), policy)
            for nid in tree.nodes:
                assert len(tree.children.get(nid, [])) <= 1


def test_a_row_at_the_exact_threshold_expands_max_branch_children():
    """At or above the threshold the top ``max_branch`` tokens expand, so a
    threshold equal to the root row's entropy gives it three children, and
    the next float up gives it one."""
    vocab = make_vocab(3)
    draft = ConstantModel(vocab, [0.5, 0.3, 0.2, 0.0, 0.0])
    gate = next_distribution(draft, (vocab.bos_id,)).entropy
    for threshold, width in ((gate, 3), (math.nextafter(gate, math.inf), 1)):
        tree = expand_tree(draft, (vocab.bos_id,), BranchPolicy(threshold, 3, 1, 3))
        assert len(tree.children[ROOT_ID]) == width


def test_random_trees_validate_and_prune_cleanly():
    rng = np.random.default_rng(42)
    for _ in range(300):
        tree = build_random_tree(rng)
        check_tree(tree)
        n = int(rng.integers(1, 12))
        pruned = prune_tree(tree, n)
        check_tree(pruned)
        assert pruned.non_root_count <= min(n, tree.non_root_count)
        for nid, node in pruned.nodes.items():
            assert tree.nodes[nid] == node
        best = min((n_ for i, n_ in tree.nodes.items() if i != ROOT_ID), key=rank_key)
        assert best.id in pruned.nodes


def test_path_tokens_and_context_preserved_by_prune():
    rng = np.random.default_rng(9)
    tree = build_random_tree(rng, max_nodes=20)
    pruned = prune_tree(tree, 5)
    assert pruned.context == tree.context
    for nid in pruned.nodes:
        assert path_tokens(pruned, nid) == path_tokens(tree, nid)


def test_render_tree_golden():
    vocab = make_vocab(3)
    tree = SpecTree(context=(vocab.bos_id,))
    a = add_child(tree, ROOT_ID, 0, 0.5)
    add_child(tree, a, 1, 0.25)
    add_child(tree, ROOT_ID, 2, 0.5)
    expected = (
        "<root>\n"
        "  'a' p=0.500000 lp=-0.693147\n"
        "    'b' p=0.250000 lp=-2.079442\n"
        "  'c' p=0.500000 lp=-0.693147\n"
    )
    assert render_tree(tree, vocab) == expected


def test_cum_logprob_matches_external_recomputation():
    rng = np.random.default_rng(77)
    for _ in range(50):
        tree = build_random_tree(rng, max_nodes=15)
        for nid, node in tree.nodes.items():
            if nid == ROOT_ID:
                continue
            total, cursor = 0.0, node
            while cursor.id != ROOT_ID:
                total += math.log(cursor.draft_prob)
                cursor = tree.nodes[cursor.parent]
            assert abs(node.cum_logprob - total) <= 1e-12


def test_policy_rejects_nan_threshold():
    with pytest.raises(InputError, match="entropy_threshold"):
        BranchPolicy(math.nan, 2, 3, 8)
    # A chain is max_branch=1, never an infinite threshold.
    with pytest.raises(InputError, match="entropy_threshold must be finite and >= 0"):
        BranchPolicy(math.inf, 4, 3, 8)


def test_chain_policy_queries_once_per_depth():
    vocab = make_vocab(4)
    row = np.array([0.1, 0.5, 0.2, 0.1, 0.0, 0.1])  # EOS has mass but never wins
    draft = ConstantModel(vocab, row)
    for depth in range(1, 8):
        tree = expand_tree(draft, (vocab.bos_id,), BranchPolicy.chain(depth))
        assert tree.draft_queries == depth
        assert tree.non_root_count == depth


def test_a_tree_deeper_than_the_recursion_limit_reads_back():
    # Node reads, cuts and renders walk a tree by loops, never one call
    # frame per level.
    vocab = make_vocab(2)
    depth = sys.getrecursionlimit() + 100
    draft = ConstantModel(vocab, [0.9, 0.1, 0.0, 0.0])
    tree = expand_tree(draft, (vocab.bos_id,), BranchPolicy.chain(depth))
    assert tree.non_root_count == depth
    assert tree.nodes[depth].depth == depth
    assert list(prune_tree(tree, 10).nodes) == list(range(11))
    assert len(render_tree(tree, vocab).splitlines()) == depth + 1


def one_ulp_draft() -> ConstantModel:
    """'b' outranks 'a' by one ulp; below 'b' their cumulative scores round
    to the same float, so only the rank order tells the children apart."""
    vocab = make_vocab(3)
    high = 0.48
    low = float(np.nextafter(high, 0.0))
    assert math.log(high) + math.log(high) == math.log(high) + math.log(low)
    return ConstantModel(vocab, np.array([low, high, 1.0 - high - low, 0.0, 0.0]))


def test_expansion_keeps_rank_order_when_scores_round_equal():
    draft = one_ulp_draft()
    vocab = draft.vocab
    policy = BranchPolicy(0.0, 2, 2, 6)
    tree = expand_tree(draft, (vocab.bos_id,), policy)
    reference = prune_tree(full_expand(draft, (vocab.bos_id,), policy), 6)
    assert render_tree(tree, vocab) == render_tree(reference, vocab)
    for kids in tree.children.values():
        assert [tree.nodes[k].token for k in kids] in ([], [1, 0])


@pytest.mark.parametrize("budget", range(2, 7))
def test_a_budget_cut_between_equal_scores_keeps_the_pruned_nodes(budget):
    # Depth-2 nodes tie on score, so a cut below 6 nodes keeps the ones
    # that depth and then the draft's rank path order first.
    draft = one_ulp_draft()
    ctx = (draft.vocab.bos_id,)
    policy = BranchPolicy(0.0, 2, 2, budget)
    tree = expand_tree(draft, ctx, policy)
    reference = prune_tree(full_expand(draft, ctx, policy), budget)
    assert tree.non_root_count == budget
    assert render_tree(tree, draft.vocab) == render_tree(reference, draft.vocab)


def successor_tie_draft() -> ConstantModel:
    """Ranks 1 and 2 ('c', then 'b') are one ulp apart, and the lower-ranked
    'b' has the lower id. Where their cumulative scores round equal, 'c'
    still attaches first, by rank; both wait behind rank 0 ('d'), so the
    tie is met when a sibling is pushed after an attach, not at a query."""
    vocab = make_vocab(4)
    big, high = 0.4, 0.25
    low = float(np.nextafter(high, 0.0))
    return ConstantModel(vocab, np.array([1.0 - big - high - low, low, high, big, 0.0, 0.0]))


@pytest.mark.parametrize("budget", range(3, 14))
def test_a_tie_behind_an_attached_sibling_attaches_as_the_pruned_tree_does(budget):
    draft = successor_tie_draft()
    ctx = (draft.vocab.bos_id,)
    policy = BranchPolicy(0.0, 3, 3, budget)
    tree = expand_tree(draft, ctx, policy)
    reference = prune_tree(full_expand(draft, ctx, policy), budget)
    assert render_tree(tree, draft.vocab) == render_tree(reference, draft.vocab)


def count_heap_calls(monkeypatch) -> dict[str, int]:
    """Count heapq.heappush and heapq.heappushpop calls from here on."""
    calls = {"push": 0, "pushpop": 0}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(heapq, "heappush", counted("push", heapq.heappush))
    monkeypatch.setattr(heapq, "heappushpop", counted("pushpop", heapq.heappushpop))
    return calls


def assert_one_push_per_query_and_attach(monkeypatch, draft):
    calls = count_heap_calls(monkeypatch)
    vocab = draft.vocab
    ctx, policy = (vocab.bos_id, 0, 1), BranchPolicy(0.0, 4, 4, 8)
    tree = expand_tree(draft, ctx, policy)
    assert tree.non_root_count == 8 and tree.draft_queries > 1
    assert calls["pushpop"] == tree.draft_queries
    assert calls["push"] + calls["pushpop"] <= tree.draft_queries + tree.non_root_count
    reference = best_nodes(full_expand(draft, ctx, policy), policy)
    assert render_tree(tree, vocab) == render_tree(reference, vocab)


def test_expansion_pushes_one_proposal_per_query_and_attach(monkeypatch):
    # Each query offers its rank 0 and each attach pushes one sibling, so a
    # draft costs the heap no more than that, however wide its fans.
    assert_one_push_per_query_and_attach(monkeypatch, RandomTableModel(make_vocab(6), seed=3))


def test_a_uniform_draft_pushes_one_proposal_per_query_and_attach(monkeypatch):
    # The same bound holds when every fan rank ties in a uniform row.
    vocab = make_vocab(6)
    draft = ConstantModel(vocab, np.full(vocab.size, 1.0 / vocab.size))
    assert_one_push_per_query_and_attach(monkeypatch, draft)


def test_equal_rates_keep_the_grandchild_the_draft_ranks_first():
    # Rates of 0.5 tie 'd' (0.4) with 'c' (0.3), and 'dd' with 'dc' and
    # 'cd'. The third node goes to 'dd', the draft's own first choice on
    # the first-ranked path, not to 'dc' for its lower token id.
    vocab = make_vocab(4)
    draft = ConstantModel(vocab, np.array([0.1, 0.2, 0.3, 0.4, 0.0, 0.0]))
    policy = BranchPolicy(0.0, 2, 2, 3, (0.5, 0.5), CostModel(0.05, 1.0))
    ctx = (vocab.bos_id,)
    tree = expand_tree(draft, ctx, policy)
    assert sorted(vocab.decode(path_tokens(tree, n)) for n in tree.nodes if n) == ["c", "d", "dd"]
    assert [tree.nodes[c].token for c in tree.children[ROOT_ID]] == [3, 2]
    reference = best_nodes(full_expand(draft, ctx, policy), policy)
    assert render_tree(tree, vocab) == render_tree(reference, vocab)


def test_one_wide_policies_never_touch_the_heap(monkeypatch):
    # A chain, and a vector policy whose rank 1 can never clear the floor,
    # attach each query's one proposal directly: the heap stays empty.
    calls = count_heap_calls(monkeypatch)
    vocab = make_vocab(6)
    draft, ctx = RandomTableModel(vocab, seed=4), (vocab.bos_id, 0, 1)  # argmax never EOS
    vector = BranchPolicy(0.0, 4, 4, 8, (0.9, 0.01, 0.01, 0.01), CostModel(0.05, 1.0))
    assert vector.fan_width == 1
    for policy in (BranchPolicy.chain(4), vector):
        tree = expand_tree(draft, ctx, policy)
        assert tree.draft_queries == tree.non_root_count == 4
        reference = best_nodes(full_expand(draft, ctx, policy), policy)
        assert render_tree(tree, vocab) == render_tree(reference, vocab)
        assert tree.draft_queries == reference.draft_queries
    assert calls == {"push": 0, "pushpop": 0}


def test_a_one_wide_query_waits_behind_a_better_queued_proposal():
    # The root fans out to 'a' (0.5) and 'b' (0.45); below 'a' the draft is
    # peaked enough for one-wide fans, but 'aa' scores 0.5 * 0.85 < 0.45,
    # so 'b' attaches second, and 'aa' only with a third node.
    vocab = make_vocab(3)
    bos = vocab.bos_id
    draft = TableModel(vocab, {
        (bos,): [0.5, 0.45, 0.05, 0.0, 0.0],
        (bos, 0): [0.85, 0.15, 0.0, 0.0, 0.0],
    }, fallback=[0.85, 0.15, 0.0, 0.0, 0.0])
    for budget, paths in ((2, ["a", "b"]), (3, ["a", "aa", "b"])):
        policy = BranchPolicy(0.5, 2, 2, budget)
        tree = expand_tree(draft, (bos,), policy)
        assert sorted(vocab.decode(path_tokens(tree, n)) for n in tree.nodes if n) == paths
        reference = prune_tree(full_expand(draft, (bos,), policy), budget)
        assert render_tree(tree, vocab) == render_tree(reference, vocab)


def test_a_policy_derives_its_fan_width_from_the_floor():
    cost = CostModel(0.05, 1.0)
    assert BranchPolicy(0.35, 4, 3, 8).fan_width == 4
    assert BranchPolicy.chain(3).fan_width == 1
    assert BranchPolicy(1.0, 1, 3, 8).fan_width == 1
    # The floor is about 0.1495 (see the floor test above): ranks 0 and 1
    # clear it, ranks 2 and 3 do not; the count stops at max_branch.
    policy = BranchPolicy(0.35, 4, 3, 8, (0.9, 0.5, 0.1, 0.1), cost)
    assert policy.fan_width == 2
    assert BranchPolicy(0.35, 2, 3, 8, (0.9,) * 5, cost).fan_width == 2
    assert BranchPolicy(0.35, 4, 3, 8, (0.01,) * 4, cost).fan_width == 0
    assert BranchPolicy(0.35, 4, 3, 8, (0.9, 0.01, 0.01, 0.01), CostModel(0.0, 1.0)).fan_width == 4
    # Counted in the log space expansion compares in, one ulp either side of
    # the floor included.
    floor = policy.floor
    for rate in (float(np.nextafter(floor, 0.0)), floor, float(np.nextafter(floor, 1.0))):
        near = BranchPolicy(0.35, 4, 3, 8, (0.9, rate, rate, 0.01), cost)
        assert near.floor == floor
        assert near.fan_width == (3 if math.log(rate) >= near.log_floor else 1)
    # Derived, so it enters neither equality, hashing nor the repr.
    assert "fan_width" not in repr(policy)
    assert policy == BranchPolicy(0.35, 4, 3, 8, (0.9, 0.5, 0.1, 0.1), cost)
    assert hash(policy) == hash((0.35, 4, 3, 8, (0.9, 0.5, 0.1, 0.1), cost))
    assert hash(BranchPolicy.chain(3)) == hash((0.0, 1, 3, 3, None, None))


def per_cycle_walk(policy: BranchPolicy) -> int:
    """How deep a chain drafted when each cycle walked the scores itself."""
    rate = policy.log_rates[0] if policy.log_rates else 0.0
    depth, score = 0, 0.0
    for _ in range(min(policy.node_budget, policy.max_depth)):
        score += rate
        if score < policy.log_floor:
            break
        depth += 1
    return depth


@settings(max_examples=200, deadline=None)
@given(
    acceptance=st.one_of(
        st.none(),
        st.lists(st.sampled_from([1.0, 0.97, 0.9, 0.5, 0.1, 0.01]), min_size=1, max_size=3)
        .map(lambda rates: tuple(sorted(rates, reverse=True))),
    ),
    draft_cost=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    batch_cost=st.sampled_from([1.0, 2.5]),
    max_depth=st.integers(1, 30),
    node_budget=st.integers(1, 30),
)
# Rate 1.0 at draft_cost = batch_cost = 1: every chain's speedup is 1, so the
# floor is 1 and every depth's score equals log_floor, 0.0; each is drafted.
@example(acceptance=(1.0,), draft_cost=1.0, batch_cost=1.0, max_depth=6, node_budget=9)
# A rank-0 rate below the floor: the walk stops before the first query.
@example(acceptance=(0.01,), draft_cost=0.05, batch_cost=1.0, max_depth=4, node_budget=8)
def test_path_depth_is_the_per_cycle_walk_derived_once(
    acceptance, draft_cost, batch_cost, max_depth, node_budget,
):
    cost = None if acceptance is None else CostModel(draft_cost, batch_cost)
    policy = BranchPolicy(0.0, 1, max_depth, node_budget, acceptance, cost)
    assert policy.path_depth == per_cycle_walk(policy)
    # A draft that never proposes EOS drafts exactly path_depth nodes a
    # cycle, and the decode stays greedy whatever the depth, 0 included.
    vocab = make_vocab(3)
    draft = ConstantModel(vocab, one_hot(vocab.size, 1))
    target = ConstantModel(vocab, [0.2, 0.5, 0.3, 0.0, 0.0])
    prompt = (vocab.bos_id, 0)
    tree = expand_tree(draft, prompt, policy)
    assert tree.draft_queries == tree.non_root_count == policy.path_depth
    tokens, stats = speculative_decode(draft, target, prompt, 12, policy)
    assert tokens == greedy_decode(target, prompt, 12)
    assert stats.draft_calls == policy.path_depth * stats.cycles


def test_a_huge_chain_policy_derives_its_path_depth_where_the_walk_stops():
    huge = 10**12
    policy = BranchPolicy(0.0, 1, huge, huge, (0.9,), CostModel(0.05, 1.0))
    assert 0 < policy.path_depth == per_cycle_walk(policy) < 100
    # A floor of 0 stops no walk: every depth is drafted, with no walk.
    assert BranchPolicy(0.0, 1, huge, huge, (0.9,), CostModel(0.0, 1.0)).path_depth == huge
    assert BranchPolicy(0.0, 1, huge, 7).path_depth == 7
    # A rank-0 rate of 1: the score never falls, so there is no walk to
    # stop. Built in a child process, so that a walk over every depth
    # fails the test instead of hanging the suite.
    src = str(Path(specdec.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", _SURE_CHAIN_SCRIPT], capture_output=True, text=True, env=env,
        timeout=30,
    )
    assert result.returncode == 0, result.stderr
    cost = CostModel(0.05, 1.0)
    lines = result.stdout.splitlines()
    assert [line.split() for line in lines[:2]] == [
        [str(huge), "1", repr(cost.draft_cost * predicted_speedup(huge + 1.0, cost, huge))],
        # A draft call dearer than a target pass: no depth reaches the floor.
        ["0", "0"],
    ]
    # A rank-0 rate just below 1: gamma keeps growing in floating point for
    # hundreds of millions of depths, but the speedup peaks near depth
    # 20,000. The floor is the best speedup a walk of every depth to 10**5
    # finds, and the path stops where the per-cycle walk does.
    depth, width, floor = lines[2].split()
    rate, gamma, reach, best = 0.9999999, 1.0, 1.0, 0.0
    for d in range(1, 10**5 + 1):
        reach *= rate
        gamma += reach
        best = max(best, predicted_speedup(gamma, cost, d))
    assert float(floor) == cost.draft_cost * best and width == "1"
    score, walked = 0.0, 0
    while score + math.log(rate) >= math.log(float(floor)):
        score += math.log(rate)
        walked += 1
    assert 0 < int(depth) == walked < 10**5
    # A free draft call: a floor of 0 and every depth drafted, with no walk.
    assert lines[3].split() == [str(huge), "1", "0.0"]
    # The largest rate below 1: both walks stop after 2**20 depths.
    assert lines[4].split()[:2] == [str(2**20), "1"]


_SURE_CHAIN_SCRIPT = """
from specdec.metrics import CostModel
from specdec.tree import BranchPolicy
huge = 10**12
policy = BranchPolicy(0.0, 1, huge, huge, (1.0,), CostModel(0.05, 1.0))
print(policy.path_depth, policy.fan_width, repr(policy.floor))
dear = BranchPolicy(0.0, 1, huge, huge, (1.0,), CostModel(2.0, 1.0))
print(dear.path_depth, dear.fan_width)
for rate, cost in ((0.9999999, CostModel(0.05, 1.0)), (0.9999999, CostModel(0.0, 1.0)),
                   (1 - 2**-53, CostModel(0.05, 1.0))):
    near = BranchPolicy(0.0, 1, huge, huge, (rate,), cost)
    print(near.path_depth, near.fan_width, repr(near.floor))
"""


def test_spec_node_is_an_immutable_named_tuple():
    tree = SpecTree(context=(3,))
    child = add_child(tree, ROOT_ID, 1, 0.5)
    node = tree.nodes[child]
    assert SpecNode._fields == ("id", "token", "parent", "depth", "draft_prob", "cum_logprob")
    assert node == (1, 1, ROOT_ID, 1, 0.5, math.log(0.5))
    assert tree.nodes[ROOT_ID] == (ROOT_ID, None, -1, 0, 1.0, 0.0)
    for field in SpecNode._fields:
        with pytest.raises(AttributeError):
            setattr(node, field, 0)
    assert tree.nodes[1] == node


def test_each_read_of_nodes_and_children_is_a_fresh_snapshot():
    tree = SpecTree(context=(3,))
    a = add_child(tree, ROOT_ID, 1, 0.5)
    b = add_child(tree, ROOT_ID, 0, 0.25)
    first, again = tree.nodes, tree.nodes
    assert first == again and first is not again
    leaf = add_child(tree, a, 0, 0.5)
    assert leaf not in first and leaf in tree.nodes
    assert tree.children == {ROOT_ID: [a, b], a: [leaf], b: [], leaf: []}
    # A cut to 2 keeps b over the equally scored, deeper leaf.
    cut = prune_tree(tree, 2)
    assert list(cut.nodes) == [ROOT_ID, a, b]
    assert cut.children == {ROOT_ID: [a, b], a: [], b: []}


_NGRAM_VOCAB, _NGRAM_CORPUS = text_vocab(TRAIN_TEXT)
_NGRAM_TARGET = train_ngram(_NGRAM_CORPUS, 3, 0.1, _NGRAM_VOCAB)
_NGRAM_BASE = train_ngram(_NGRAM_CORPUS, 1, 0.5, _NGRAM_VOCAB)


def draft_and_context(kind: str, seed: int, n_chars: int, lam: float, prompt_len: int):
    """A draft model of the given kind and a bos-anchored context for it.

    "uniform" and "steps" are constant rows, so sibling and cousin nodes tie
    on cumulative log-probability at every depth; "ngram" blends the n-gram
    pair the demo config trains, as the bench does.
    """
    rng = np.random.default_rng(seed)
    if kind == "ngram":
        start = int(rng.integers(0, len(_NGRAM_CORPUS) - prompt_len))
        draft = distill_interpolate(_NGRAM_TARGET, _NGRAM_BASE, lam)
        return draft, (_NGRAM_VOCAB.bos_id,) + _NGRAM_CORPUS[start:start + prompt_len]
    vocab = make_vocab(n_chars)
    ctx = (vocab.bos_id,) + tuple(int(t) for t in rng.integers(0, n_chars, prompt_len))
    if kind == "random":
        return RandomTableModel(vocab, seed=seed), ctx
    if kind == "uniform":
        return ConstantModel(vocab, np.full(vocab.size, 1.0 / vocab.size)), ctx
    weights = rng.integers(0, 3, vocab.size).astype(np.float64)  # few values, zeros
    weights[0] += 1.0
    return ConstantModel(vocab, weights / weights.sum()), ctx


#: Acceptance vectors for the property test: none, or four non-increasing
#: rates from a few values, so equal rates (tie runs) are common. Four 0.01
#: rates put rank 0 below every positive floor, so the tree is empty. A
#: ("floor", rate, step) entry stands for (rate, r, r, r / 2) with r one ulp
#: below (step -1), at (0) or above (1) the floor, so rank 1 sits just
#: where the fan width is cut.
ACCEPTANCE = st.one_of(
    st.none(),
    st.lists(st.sampled_from([1.0, 0.9, 0.5, 0.3, 0.3, 0.1, 0.01]), min_size=4, max_size=4)
    .map(lambda rates: tuple(sorted(rates, reverse=True))),
    st.just((0.01,) * 4),
    st.tuples(st.just("floor"), st.sampled_from([1.0, 0.9, 0.5]), st.sampled_from([-1, 0, 1])),
)


def near_floor(rate: float, step: int, policy: BranchPolicy) -> tuple[float, ...]:
    """(rate, r, r, r / 2) with r one ulp below, at or above the floor of
    ``policy``, a policy whose rank 0 rate is ``rate``; (rate,) * 4 when no
    such r lies in (0, rate]."""
    r = policy.floor if step == 0 else float(np.nextafter(policy.floor, step))
    return (rate, r, r, r / 2) if 0.0 < r / 2 and r <= rate else (rate,) * 4


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["random", "uniform", "steps", "ngram"]),
    seed=st.integers(0, 2**32 - 1),
    n_chars=st.integers(2, 5),
    lam=st.sampled_from([0.0, 0.5, 1.0]),
    prompt_len=st.integers(0, 4),
    threshold=st.sampled_from([0.0, 0.35, 1.0, 9.0]),  # 9.0: above every entropy
    max_branch=st.integers(1, 4),
    max_depth=st.integers(1, 4),
    extra_budget=st.integers(0, 10),
    acceptance=ACCEPTANCE,
    draft_cost=st.sampled_from([0.0, 0.05, 0.3]),
)
def test_best_first_expansion_equals_pruned_full_expansion(
    kind, seed, n_chars, lam, prompt_len, threshold, max_branch, max_depth, extra_budget,
    acceptance, draft_cost,
):
    draft, ctx = draft_and_context(kind, seed, n_chars, lam, prompt_len)
    cost = None if acceptance is None else CostModel(draft_cost, 1.0)
    shape = (threshold, max_branch, max_depth, max_branch + extra_budget)
    if acceptance is not None and acceptance[0] == "floor":
        _, rate, step = acceptance
        acceptance = near_floor(rate, step, BranchPolicy(*shape, (rate,) * 4, cost))
    policy = BranchPolicy(*shape, acceptance, cost)
    tree = expand_tree(draft, ctx, policy)
    full = full_expand(draft, ctx, policy)
    reference = best_nodes(full, policy)
    if acceptance is None:
        assert render_tree(reference, draft.vocab) == render_tree(
            prune_tree(full, policy.node_budget), draft.vocab
        )
    check_tree(tree)
    assert render_tree(tree, draft.vocab) == render_tree(reference, draft.vocab)
    assert tree.non_root_count == reference.non_root_count
    assert tree.draft_queries == reference.draft_queries
    assert tree.draft_queries <= min(policy.node_budget, full.draft_queries)
    assert prune_tree(tree, policy.node_budget) is tree


def test_a_policy_with_an_acceptance_vector_checks_it_and_derives_its_floor():
    cost = CostModel(0.05, 1.0)
    policy = BranchPolicy(0.35, 4, 3, 8, [0.9, 0.5, 0.5, 0.1, 0.1], cost)
    assert policy.acceptance == (0.9, 0.5, 0.5, 0.1, 0.1)
    assert policy == BranchPolicy(0.35, 4, 3, 8, (0.9, 0.5, 0.5, 0.1, 0.1), cost)
    assert hash(policy) == hash(BranchPolicy(0.35, 4, 3, 8, (0.9, 0.5, 0.5, 0.1, 0.1), cost))
    assert policy != BranchPolicy(0.35, 4, 3, 8)
    # Chains of depth 1, 2, 3 at r0 = 0.9 emit 1.9, 2.71, 3.439 tokens a
    # cycle for 1.05, 1.10, 1.15 target calls; depth 3 is best.
    assert policy.floor == pytest.approx(0.05 * 3.439 / 1.15, rel=1e-12)
    assert policy.log_floor == math.log(policy.floor)
    assert policy.log_rates == tuple(math.log(r) for r in policy.acceptance)
    free = BranchPolicy(0.35, 4, 3, 8, (0.9,) * 4, CostModel(0.0, 1.0))
    assert free.floor == 0.0 and free.log_floor == -math.inf
    plain = BranchPolicy(0.35, 4, 3, 8)
    assert (plain.acceptance, plain.cost, plain.log_rates) == (None, None, None)
    assert plain.floor == 0.0 and plain.log_floor == -math.inf
    for bad in ([0.9, 0.5, 0.1], [0.9, 0.5, 0.6, 0.1], [0.9, 0.5, 0.0, 0.0],
                [1.5, 0.5, 0.1, 0.1], [0.9, math.nan, 0.1, 0.1]):
        with pytest.raises(InputError):
            BranchPolicy(0.35, 4, 3, 8, bad, cost)
    with pytest.raises(InputError):
        BranchPolicy(0.35, 4, 3, 8, (0.9,) * 4)
    with pytest.raises(InputError):
        BranchPolicy(0.35, 4, 3, 8, cost=cost)


def test_the_chain_floor_stops_once_deeper_chains_add_no_tokens(monkeypatch):
    # Past some depth, r0**depth no longer moves gamma in floating point, so
    # a deeper chain only costs more. The demo bench's lambda = 0.5 vector
    # (ROADMAP) stops near depth 290 and the README example's (rank-0 rate
    # 0.971) near 1,140, not at max_depth = 10**5, with the floor a walk of
    # every depth to 10**4 finds, bit for bit.
    cost = CostModel(0.05, 1.0)
    calls = []

    def counted(*args):
        calls.append(args)
        return predicted_speedup(*args)

    monkeypatch.setattr("specdec.tree.predicted_speedup", counted)
    for rates in ((0.888, 0.112, 0.01, 0.01), (101 / 104, 3 / 104, 1 / 104, 1 / 104)):
        calls.clear()
        policy = BranchPolicy(0.35, 4, 10**5, 8, rates, cost)
        assert len(calls) <= 1200
        gamma = reach = 1.0
        best = 0.0
        for depth in range(1, 10**4 + 1):
            reach *= rates[0]
            gamma += reach
            best = max(best, predicted_speedup(gamma, cost, depth))
        assert policy.floor == cost.draft_cost * best


def test_the_chain_floor_walk_stops_where_the_speedup_first_falls(monkeypatch):
    # Gamma is concave in the depth and the cost linear, so the speedup has
    # one peak: the first depth whose speedup falls ends the walk, with the
    # floor a walk of every depth finds, bit for bit.
    calls = []

    def counted(*args):
        calls.append(args)
        return predicted_speedup(*args)

    monkeypatch.setattr("specdec.tree.predicted_speedup", counted)
    for rate in (0.05, 0.3, 0.888, 0.99, 0.999):
        for draft_cost in (1e-3, 0.05, 0.5, 2.0):
            for batch_cost in (1.0, 2.5):
                cost = CostModel(draft_cost, batch_cost)
                calls.clear()
                policy = BranchPolicy(0.0, 1, 3000, 3000, (rate,), cost)
                speedups = []
                gamma = reach = 1.0
                for depth in range(1, 3001):
                    reach *= rate
                    gamma += reach
                    speedups.append(predicted_speedup(gamma, cost, depth))
                assert policy.floor == draft_cost * max(speedups)
                peak = speedups.index(max(speedups)) + 1
                assert len(calls) == min(peak + 1, 3000)


def test_a_node_whose_best_child_misses_the_floor_is_not_queried():
    # Four equal rates of 0.3 at draft_cost 0.05: the best chain is depth 2
    # (1.39 tokens for 1.1 target calls), so the floor is about 0.063. The
    # root's children (0.3) and grandchildren (0.09) clear it, but no
    # grandchild is queried, since its own children would reach 0.027.
    vocab = make_vocab(4)
    draft = ConstantModel(vocab, np.array([0.4, 0.3, 0.2, 0.1, 0.0, 0.0]))
    policy = BranchPolicy(0.0, 4, 4, 20, (0.3,) * 4, CostModel(0.05, 1.0))
    assert policy.floor == pytest.approx(0.05 * 1.39 / 1.1, rel=1e-12)
    tree = expand_tree(draft, (vocab.bos_id,), policy)
    assert tree.draft_queries == 5
    assert tree.non_root_count == 4 + 16
    assert max(node.depth for node in tree.nodes.values()) == 2
    # Equal rates tie every sibling: children keep the draft's rank order.
    assert [tree.nodes[c].token for c in tree.children[ROOT_ID]] == [0, 1, 2, 3]


def test_a_later_rank_below_the_floor_is_never_attached():
    # Rates (0.9, 0.5) at draft_cost 0.05 and depth 4 put the floor at about
    # 0.171, so both ranks are in the fan. 'bb', rank 1 twice (0.25), is
    # queried, since its rank 0 child 'bba' reaches 0.225, but its rank 1
    # child 'bbb' (0.125) misses the floor, though the budget has room.
    vocab = make_vocab(4)
    draft = ConstantModel(vocab, np.array([0.4, 0.3, 0.2, 0.1, 0.0, 0.0]))
    policy = BranchPolicy(0.0, 2, 4, 40, (0.9, 0.5), CostModel(0.05, 1.0))
    assert policy.floor == pytest.approx(0.05 * 4.0951 / 1.2, rel=1e-12)
    assert policy.fan_width == 2
    ctx = (vocab.bos_id,)
    tree = expand_tree(draft, ctx, policy)
    paths = {vocab.decode(path_tokens(tree, n)) for n in tree.nodes if n}
    assert {"bb", "bba"} <= paths and "bbb" not in paths
    assert tree.non_root_count < policy.node_budget
    reference = best_nodes(full_expand(draft, ctx, policy), policy)
    assert render_tree(tree, vocab) == render_tree(reference, vocab)


def test_a_rank_0_rate_below_the_floor_drafts_nothing_and_decodes_losslessly():
    vocab, corpus = _NGRAM_VOCAB, _NGRAM_CORPUS
    draft = distill_interpolate(_NGRAM_TARGET, _NGRAM_BASE, 0.0)
    policy = BranchPolicy(0.35, 4, 4, 8, (0.01,) * 4, CostModel(0.05, 1.0))
    assert policy.floor > 0.01
    prompt = (vocab.bos_id,) + corpus[:6]
    tree = expand_tree(draft, prompt, policy)
    assert (tree.draft_queries, tree.non_root_count) == (0, 0)
    tokens, stats = speculative_decode(draft, _NGRAM_TARGET, prompt, 24, policy)
    assert tokens == greedy_decode(_NGRAM_TARGET, prompt, 24)
    assert stats.draft_calls == stats.tree_nodes == 0
    assert stats.per_cycle_acceptance == [1] * 24
