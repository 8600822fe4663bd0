"""Unit tests for distribution validation, entropy, KL, and greedy selection."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec.dists import (
    EPSILON_FLOOR,
    check_row,
    entropy,
    greedy_token,
    kl_divergence,
    kl_rows,
    validate_distribution,
)
from specdec.errors import InputError

from conftest import reference_kl


def naive_kl(p, q) -> float:
    """Independent plain-Python summation oracle for kl_divergence."""
    size = len(q)
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0.0:
            q_floored = (qi + EPSILON_FLOOR) / (1.0 + EPSILON_FLOOR * size)
            total += pi * math.log(pi / q_floored)
    return total


def weights_to_dist(weights: list[int]) -> np.ndarray:
    arr = np.asarray(weights, dtype=np.float64)
    return arr / arr.sum()


dist_weights = st.lists(st.integers(0, 1000), min_size=2, max_size=32).filter(
    lambda w: sum(w) > 0
)


def test_entropy_one_hot_is_zero():
    assert entropy(np.array([0.0, 1.0, 0.0])) == 0.0


def test_entropy_uniform_is_log_v():
    row = np.full(16, 1.0 / 16.0)
    assert entropy(row) == pytest.approx(math.log(16.0), abs=1e-9)


def test_entropy_two_point_half():
    assert entropy(np.array([0.5, 0.5, 0.0, 0.0])) == pytest.approx(
        math.log(2.0), abs=1e-9
    )


def test_kl_identical_rows_exactly_zero():
    rng = np.random.default_rng(3)
    p = rng.dirichlet(np.ones(8))
    assert kl_divergence(p, p.copy()) == 0.0


def test_kl_one_hot_vs_uniform_pair():
    p = np.array([1.0, 0.0])
    q = np.array([0.5, 0.5])
    assert kl_divergence(p, q) == pytest.approx(math.log(2.0), abs=1e-9)


def test_kl_matches_naive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        size = int(rng.integers(2, 24))
        p = rng.dirichlet(np.full(size, 0.4))
        q = rng.dirichlet(np.full(size, 0.4))
        assert kl_divergence(p, q) == pytest.approx(naive_kl(p, q), abs=1e-12)


def test_kl_handles_zero_in_q_support():
    p = np.array([0.5, 0.5, 0.0])
    q = np.array([1.0, 0.0, 0.0])
    expected = naive_kl(p, q)
    assert expected > 10.0  # epsilon floor makes this large but finite
    assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(2, 300),
    count=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.0, 0.3, 0.8]),
    equal=st.sampled_from([0, 0, 1, 2]),
)
def test_kl_rows_equal_the_reference_row_by_row(size, count, seed, zero_share, equal):
    # Dense rows, rows with zeros in p (and in q), and rows equal to their
    # pair: each block value equals the one-vector reference bit for bit.
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.full(size, rng.choice([0.1, 1.0, 10.0])), size=count)
    q = rng.dirichlet(np.full(size, rng.choice([0.1, 1.0, 10.0])), size=count)
    for block in (p, q):
        block[rng.random((count, size)) < zero_share] = 0.0
        block[:, rng.integers(size)] += 0.5  # no row is all zeros
        block /= block.sum(axis=1, keepdims=True)
    q[:equal] = p[:equal]
    values = kl_rows(p, q)
    assert values.shape == (count,)
    for i in range(count):
        want = reference_kl(p[i], q[i])
        assert values[i] == kl_divergence(p[i], q[i]) == want
        assert math.copysign(1.0, values[i]) == 1.0
    assert (values[:equal] == 0.0).all()


def test_kl_length_mismatch_rejected():
    with pytest.raises(InputError):
        kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.25, 0.25]))
    with pytest.raises(InputError, match="p has 2 entries, q has 3"):
        kl_rows(np.array([[1.0, 0.0]]), np.array([[0.5, 0.25, 0.25]]))


def test_validate_rejects_negative_entries():
    with pytest.raises(InputError):
        validate_distribution(np.array([0.6, 0.5, -0.1]))


def test_validate_rejects_sum_outside_tolerance():
    with pytest.raises(InputError):
        validate_distribution(np.array([0.5, 0.5 + 3e-9]))
    validate_distribution(np.array([0.5, 0.5 + 5e-10]))  # within tolerance


def test_validate_rejects_bad_shape_and_size():
    with pytest.raises(InputError):
        validate_distribution(np.array([[0.5, 0.5]]))
    with pytest.raises(InputError):
        validate_distribution(np.array([]))
    with pytest.raises(InputError):
        validate_distribution(np.array([0.5, 0.5]), size=3)


def test_greedy_tie_breaks_to_lowest_id():
    assert greedy_token(np.array([0.4, 0.4, 0.2])) == 0
    assert greedy_token(np.array([0.2, 0.4, 0.4])) == 1
    # Arrays numpy derives from a checked row carry no filed token: they
    # get their argmax, ties to the lowest id.
    row = check_row([0.2, 0.4, 0.4], 3)
    assert greedy_token(row) == 1
    for derived in (row * 1.0, row[:], row.copy()):
        assert greedy_token(derived) == 1
    mutated = row.copy()
    mutated[0] = 0.9
    assert greedy_token(mutated) == 0


@given(dist_weights)
def test_entropy_bounds(weights):
    row = weights_to_dist(weights)
    h = entropy(row)
    assert 0.0 <= h <= math.log(len(row)) + 1e-9


@given(dist_weights, dist_weights)
def test_kl_nonnegative(w1, w2):
    size = min(len(w1), len(w2))
    if sum(w1[:size]) == 0 or sum(w2[:size]) == 0:
        return
    p = weights_to_dist(w1[:size])
    q = weights_to_dist(w2[:size])
    assert kl_divergence(p, q) >= 0.0


@given(dist_weights, st.integers(2, 9))
def test_greedy_invariant_under_rescaling(weights, scale):
    row = weights_to_dist(weights)
    scaled = weights_to_dist([w * scale for w in weights])
    assert greedy_token(row) == greedy_token(scaled)
