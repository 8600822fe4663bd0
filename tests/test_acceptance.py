"""Acceptance gate: the eight measurable claims this engine must satisfy.

Each test is one criterion; the summary block printed at the end of the
pytest run shows one PASS/FAIL line per criterion. Tolerances and sample
sizes are fixed here and must not be loosened to make a failing criterion
pass.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from specdec.cli import main
from specdec.decode import greedy_decode, speculative_decode, verify_tree
from specdec.dists import EPSILON_FLOOR, entropy, kl_divergence
from specdec.metrics import estimate_kl
from specdec.models import train_ngram, distill_interpolate
from specdec.tree import ROOT_ID, BranchPolicy, SpecTree, expand_tree, prune_tree

from conftest import RandomTableModel, TRAIN_TEXT, check_tree, make_vocab, text_vocab
from test_decode import walk_oracle
from test_tree import build_random_tree, rank_key


def corpus_models():
    vocab, corpus = text_vocab(TRAIN_TEXT)
    cut = int(len(corpus) * 0.85)
    train_seq, held = corpus[:cut], corpus[cut:]
    target = train_ngram(train_seq, 3, 0.1, vocab)
    base = train_ngram(train_seq, 1, 0.5, vocab)
    return vocab, target, base, held


def sample_contexts(rng, vocab, zone, length: int, count: int):
    starts = rng.integers(0, len(zone) - length + 1, size=count)
    return [(vocab.bos_id,) + tuple(zone[s:s + length]) for s in starts]


@pytest.mark.criterion("1: losslessness over 1000 seeded quadruples")
def test_losslessness_thousand_quadruples():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    for case in range(1000):
        n_chars = int(rng.integers(2, 9))
        vocab = make_vocab(n_chars)
        draft = RandomTableModel(
            vocab, seed=2 * case + 1, concentration=float(rng.uniform(0.2, 1.2))
        )
        target = RandomTableModel(
            vocab, seed=2 * case + 2, concentration=float(rng.uniform(0.2, 1.2))
        )
        prompt = (vocab.bos_id,) + tuple(
            int(rng.integers(0, n_chars)) for _ in range(int(rng.integers(0, 3)))
        )
        policy = BranchPolicy(
            entropy_threshold=float(rng.choice([0.0, 0.3, 0.9, math.inf])),
            max_branch=int(rng.integers(1, 4)),
            max_depth=int(rng.integers(1, 5)),
            node_budget=int(rng.integers(3, 8)),
        )
        max_tokens = int(rng.integers(4, 17))
        spec, stats = speculative_decode(draft, target, prompt, max_tokens, policy)
        base = greedy_decode(target, prompt, max_tokens)
        assert spec == base, f"case {case}: {spec} != {base}"
        assert stats.emitted_tokens == len(spec)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"losslessness sweep took {elapsed:.1f}s (budget 60s)"


@pytest.mark.criterion("2: perfect-draft chain ceiling at depths 1, 3, 7")
def test_perfect_draft_ceiling():
    vocab, target, _, held = corpus_models()
    prompt = (vocab.bos_id,) + tuple(held[:5])
    for depth in (1, 3, 7):
        max_tokens = 32  # divisible by depth + 1 for all three depths
        tokens, stats = speculative_decode(
            target, target, prompt, max_tokens, BranchPolicy.chain(depth)
        )
        assert tokens == greedy_decode(target, prompt, max_tokens)
        assert stats.per_cycle_acceptance == [depth + 1] * (max_tokens // (depth + 1))
        assert stats.gamma == depth + 1


@pytest.mark.criterion("3: KL vs acceptance length, Spearman <= -0.8")
def test_kl_acceptance_rank_correlation():
    vocab, target, base, held = corpus_models()
    half = len(held) // 2
    lambdas = (0.0, 0.25, 0.5, 0.75, 1.0)
    n_seeds = 24
    mean_kl, mean_gamma = [], []
    for lam in lambdas:
        draft = distill_interpolate(target, base, lam)
        kls, gammas = [], []
        for seed in range(n_seeds):
            rng = np.random.default_rng(1000 + seed)
            probes = sample_contexts(rng, vocab, held[:half], 5, 4)
            prompts = sample_contexts(rng, vocab, held[half:], 6, 3)
            kls.append(estimate_kl(draft, target, probes))
            for prompt in prompts:
                _, stats = speculative_decode(
                    draft, target, prompt, 24, BranchPolicy.chain(4)
                )
                gammas.append(stats.gamma)
        mean_kl.append(float(np.mean(kls)))
        mean_gamma.append(float(np.mean(gammas)))
    rho = float(spearmanr(mean_kl, mean_gamma).statistic)
    assert rho <= -0.8, f"spearman {rho:.3f} over kl={mean_kl} gamma={mean_gamma}"


@pytest.mark.criterion("4: dynamic tree beats chain by >= 5% on weak draft")
def test_dynamic_tree_beats_chain_on_weak_draft():
    vocab, target, base, held = corpus_models()
    weak_lambda = 0.0  # must stay <= 0.25
    draft = distill_interpolate(target, base, weak_lambda)
    budget = 8
    chain_policy = BranchPolicy.chain(budget)
    dynamic_policy = BranchPolicy(0.35, 4, 4, budget)
    assert chain_policy.node_budget == dynamic_policy.node_budget
    chain_g, dyn_g = [], []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        prompts = sample_contexts(rng, vocab, held, 6, 6)
        for prompt in prompts:
            out_c, s_chain = speculative_decode(draft, target, prompt, 24, chain_policy)
            out_d, s_dyn = speculative_decode(draft, target, prompt, 24, dynamic_policy)
            assert out_c == out_d  # policy never changes output
            chain_g.append(s_chain.gamma)
            dyn_g.append(s_dyn.gamma)
    chain_mean = float(np.mean(chain_g))
    dyn_mean = float(np.mean(dyn_g))
    assert dyn_mean >= 1.05 * chain_mean, (
        f"dynamic gamma {dyn_mean:.4f} vs chain {chain_mean:.4f} "
        f"(ratio {dyn_mean / chain_mean:.4f}, bar 1.05)"
    )


@pytest.mark.criterion("5: tree invariants over 10000 randomized trees")
def test_tree_invariant_suite():
    rng = np.random.default_rng(13)
    vocab = make_vocab(6)

    checked = 0
    for _ in range(9000):
        tree = build_random_tree(rng, vocab_size=8, max_nodes=24)
        n = int(rng.integers(1, 11))
        pruned = prune_tree(tree, n)
        check_tree(pruned)  # connectivity, depth, score coherence <= 1e-12
        assert pruned.non_root_count <= min(n, tree.non_root_count)
        best = min(
            (node for nid, node in tree.nodes.items() if nid != ROOT_ID), key=rank_key
        )
        assert best.id in pruned.nodes  # containment of the top node
        checked += 1

    # expansion-produced trees: same invariants plus chain degeneration at b=1
    for seed in range(1000):
        draft = RandomTableModel(vocab, seed=seed, concentration=0.5)
        if seed % 2 == 0:
            policy = BranchPolicy(
                float(rng.choice([0.0, 0.5, 1.1])),
                int(rng.integers(2, 4)),
                int(rng.integers(1, 5)),
                int(rng.integers(4, 10)),
            )
        else:
            policy = BranchPolicy.chain(int(rng.integers(1, 7)))
        tree = expand_tree(draft, (vocab.bos_id,), policy)
        check_tree(tree)
        pruned = prune_tree(tree, policy.node_budget)
        check_tree(pruned)
        assert pruned.non_root_count <= policy.node_budget
        if policy.max_branch == 1:
            for nid in tree.nodes:
                assert len(tree.children.get(nid, [])) <= 1  # chain degeneration
        checked += 1

    assert checked >= 10000


@pytest.mark.criterion("6: numeric closed forms and independent KL oracle")
def test_numeric_closed_forms():
    assert entropy(np.array([0.0, 1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-9)
    assert entropy(np.full(16, 1.0 / 16.0)) == pytest.approx(math.log(16), abs=1e-9)
    rng = np.random.default_rng(21)
    row = rng.dirichlet(np.ones(12))
    assert kl_divergence(row, row.copy()) == pytest.approx(0.0, abs=1e-9)
    assert kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(
        math.log(2), abs=1e-9
    )

    def oracle(p, q):
        scale = 1.0 + EPSILON_FLOOR * len(q)
        return sum(
            pi * math.log(pi / ((qi + EPSILON_FLOOR) / scale))
            for pi, qi in zip(p, q)
            if pi > 0.0
        )

    for _ in range(500):
        size = int(rng.integers(2, 20))
        p = rng.dirichlet(np.full(size, 0.5))
        q = rng.dirichlet(np.full(size, 0.5))
        assert kl_divergence(p, q) == pytest.approx(oracle(p, q), abs=1e-12)


@pytest.mark.criterion("7: verify_tree equals brute-force walker on 500 pairs")
def test_verifier_matches_independent_walker():
    vocab = make_vocab(6)
    rng = np.random.default_rng(31)
    for case in range(500):
        draft = RandomTableModel(vocab, seed=3 * case, concentration=0.5)
        target = RandomTableModel(vocab, seed=3 * case + 1, concentration=0.5)
        policy = BranchPolicy(
            entropy_threshold=float(rng.choice([0.0, 0.6, 1.3])),
            max_branch=int(rng.integers(1, 4)),
            max_depth=int(rng.integers(1, 5)),
            node_budget=int(rng.integers(3, 9)),
        )
        prompt = (vocab.bos_id,) + tuple(
            int(rng.integers(0, 6)) for _ in range(int(rng.integers(0, 3)))
        )
        tree = prune_tree(expand_tree(draft, prompt, policy), policy.node_budget)
        result = verify_tree(target, tree)
        accepted, bonus, scored = walk_oracle(target, tree)
        assert list(result.accepted_tokens) == accepted
        assert result.bonus_token == bonus
        assert result.nodes_scored == scored


@pytest.mark.criterion("8: byte-identical reports for identical config and seed")
def test_bench_reports_are_byte_identical(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(TRAIN_TEXT, encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text(
        f"""
corpus = {corpus}
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
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["bench", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["bench", "--config", str(config), "--out", str(out_b)]) == 0
    for name in ("report.csv", "scatter.csv", "report.json"):
        bytes_a = (out_a / name).read_bytes()
        bytes_b = (out_b / name).read_bytes()
        assert bytes_a == bytes_b, f"{name} differs between identical runs"
    assert (out_a / "timings.log").exists()  # informational, not compared
