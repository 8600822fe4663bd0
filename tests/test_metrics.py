"""Unit tests for decode statistics, KL estimation, and the cost model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from specdec.errors import InputError
from specdec.metrics import (
    CostModel,
    DecodeStats,
    combine_stats,
    estimate_acceptance,
    estimate_kl,
    non_increasing,
    predicted_speedup,
)
from specdec.models import ConstantModel

from conftest import TableModel, make_vocab, one_hot


def test_gamma_basic():
    stats = DecodeStats(cycles=3, emitted_tokens=12, per_cycle_acceptance=[3, 5, 4])
    assert stats.gamma == 4.0


def test_gamma_requires_cycles():
    with pytest.raises(InputError):
        DecodeStats().gamma


def test_combine_stats_sums_counters():
    a = DecodeStats(
        cycles=2, emitted_tokens=5, target_contexts_scored=4, draft_calls=6, tree_nodes=6,
        per_cycle_acceptance=[2, 3],
    )
    b = DecodeStats(
        cycles=1, emitted_tokens=4, target_contexts_scored=4, draft_calls=3, tree_nodes=3,
        per_cycle_acceptance=[4],
    )
    merged = combine_stats([a, b])
    assert merged.cycles == 3
    assert merged.emitted_tokens == 9
    assert merged.target_contexts_scored == 8
    assert merged.draft_calls == 9
    assert merged.tree_nodes == 9
    assert merged.per_cycle_acceptance == [2, 3, 4]
    assert merged.gamma == 3.0
    with pytest.raises(InputError):
        combine_stats([])


def test_cost_model_validation():
    CostModel(0.0, 1.0)  # free draft is the degenerate reference case
    with pytest.raises(InputError):
        CostModel(-0.1, 1.0)
    with pytest.raises(InputError):
        CostModel(0.1, 0.5)


def test_cost_model_rejects_nan():
    with pytest.raises(InputError, match="draft_cost"):
        CostModel(math.nan, 1.0)
    with pytest.raises(InputError, match="batch_cost"):
        CostModel(0.1, math.nan)


def test_cost_model_rejects_infinite_costs():
    with pytest.raises(InputError, match="draft_cost must be finite"):
        CostModel(math.inf, 1.0)
    with pytest.raises(InputError, match="batch_cost must be finite"):
        CostModel(0.1, math.inf)


def test_predicted_speedup_closed_forms():
    free = CostModel(0.0, 1.0)
    assert predicted_speedup(4.0, free, 10.0) == 4.0
    cost = CostModel(0.05, 1.0)
    assert predicted_speedup(3.5, cost, 4.0) == pytest.approx(3.5 / 1.2, abs=1e-9)


def test_predicted_speedup_monotone_in_draft_cost():
    values = [
        predicted_speedup(3.0, CostModel(c, 1.0), 5.0)
        for c in (0.0, 0.05, 0.1, 0.2)
    ]
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))


def test_predicted_speedup_validation():
    cost = CostModel(0.05, 1.0)
    with pytest.raises(InputError):
        predicted_speedup(0.5, cost, 1.0)
    with pytest.raises(InputError):
        predicted_speedup(2.0, cost, -1.0)


def test_estimate_kl_identity_is_zero():
    vocab = make_vocab(3)
    model = ConstantModel(vocab, np.array([0.4, 0.3, 0.3, 0.0, 0.0]))
    probes = [(vocab.bos_id,), (vocab.bos_id, 0)]
    assert estimate_kl(model, model, probes) == 0.0


def test_estimate_kl_directions_and_mean():
    vocab = make_vocab(2)
    bos = vocab.bos_id
    p1 = np.array([0.9, 0.1, 0.0, 0.0])
    p2 = np.array([0.6, 0.4, 0.0, 0.0])
    q = np.array([0.5, 0.5, 0.0, 0.0])
    target = TableModel(vocab, {(bos,): p1, (bos, 0): p2}, p1)
    draft = ConstantModel(vocab, q)
    probes = [(bos,), (bos, 0)]

    def hand_kl(p_row, q_row):
        eps = 1e-10
        total = 0.0
        for pi, qi in zip(p_row, q_row):
            if pi > 0:
                total += pi * math.log(pi / ((qi + eps) / (1 + eps * len(q_row))))
        return total

    # KL(target || draft): the target is p. The reverse direction differs,
    # so an estimate with p and q swapped fails the first assertion.
    forward = estimate_kl(draft, target, probes)
    expected = (hand_kl(p1, q) + hand_kl(p2, q)) / 2
    assert forward == pytest.approx(expected, abs=1e-9)
    expected_rev = (hand_kl(q, p1) + hand_kl(q, p2)) / 2
    assert forward != pytest.approx(expected_rev, abs=1e-3)


def test_estimate_kl_validation():
    v1, v2 = make_vocab(2), make_vocab(3)
    m1 = ConstantModel(v1, np.full(4, 0.25))
    m2 = ConstantModel(v2, np.full(5, 0.2))
    with pytest.raises(InputError):
        estimate_kl(m1, m1, [])
    with pytest.raises(InputError):
        estimate_kl(m1, m2, [(v1.bos_id,)])


def test_estimate_acceptance_counts_fan_ranks_with_add_half_smoothing():
    vocab = make_vocab(4)
    bos, eos = vocab.bos_id, vocab.eos_id
    draft = ConstantModel(vocab, np.array([0.4, 0.3, 0.2, 0.1, 0.0, 0.0]))  # ranks a b c d
    wants_a = np.array([0.7, 0.1, 0.1, 0.1, 0.0, 0.0])
    wants_b = np.array([0.1, 0.7, 0.1, 0.1, 0.0, 0.0])
    wants_eos = one_hot(vocab.size, eos)  # outside the draft's fan
    target = TableModel(vocab, {(bos, 1): wants_b, (bos, 2): wants_eos}, wants_a)
    probes = [(bos,), (bos, 0), (bos, 1), (bos, 2)]
    # Hits per rank: 2, 1, 0, 0 of 4 probes; each (hits + 1/2) / 5.
    assert estimate_acceptance(draft, target, probes, 4) == (0.5, 0.3, 0.1, 0.1)
    assert estimate_acceptance(draft, target, probes, 2) == (0.5, 0.3)
    assert estimate_acceptance(draft, draft, probes, 1) == (4.5 / 5,)


def test_estimate_acceptance_pools_a_rank_that_beats_the_one_above_it():
    vocab = make_vocab(3)
    draft = ConstantModel(vocab, np.array([0.5, 0.3, 0.2, 0.0, 0.0]))
    target = ConstantModel(vocab, np.array([0.3, 0.5, 0.2, 0.0, 0.0]))
    probes = [(vocab.bos_id,), (vocab.bos_id, 0), (vocab.bos_id, 1)]
    # Raw rates 0.125, 0.875, 0.125: ranks 0 and 1 pool to their mean.
    assert estimate_acceptance(draft, target, probes, 3) == (0.5, 0.5, 0.125)


def test_non_increasing_pools_adjacent_violators():
    assert non_increasing([]) == ()
    assert non_increasing([0.9, 0.3, 0.3, 0.1]) == (0.9, 0.3, 0.3, 0.1)
    assert non_increasing([3.0, 1.0, 2.0]) == (3.0, 1.5, 1.5)
    assert non_increasing([1.0, 2.0, 3.0]) == (2.0, 2.0, 2.0)
    assert non_increasing([4.0, 1.0, 2.0, 6.0]) == (4.0, 3.0, 3.0, 3.0)


def test_estimate_acceptance_validation():
    v1, v2 = make_vocab(2), make_vocab(3)
    m1 = ConstantModel(v1, np.full(4, 0.25))
    m2 = ConstantModel(v2, np.full(5, 0.2))
    with pytest.raises(InputError):
        estimate_acceptance(m1, m1, [], 2)
    with pytest.raises(InputError):
        estimate_acceptance(m1, m2, [(v1.bos_id,)], 2)
    with pytest.raises(InputError):
        estimate_acceptance(m1, m1, [(v1.bos_id,)], 0)
