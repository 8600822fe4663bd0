"""Probability-vector primitives: validation, greedy argmax, entropy, KL.

A distribution is a 1-D float64 numpy array of non-negative entries summing
to 1 within ``SUM_TOLERANCE``. Entropy and KL are reported in nats.

:func:`validate_distribution` is the one check of those invariants, and
:func:`specdec.models.next_distribution` runs it on every row a model
returns. :func:`greedy_token`, :func:`entropy` and :func:`kl_divergence`
are plain math on rows that were already checked; they do not check again.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

#: Additive floor applied to the q side of the KL divergence so that
#: surrogate drafts assigning exact zeros stay in the support.
EPSILON_FLOOR = 1e-10

#: Allowed deviation of a distribution's total mass from 1.
SUM_TOLERANCE = 1e-9


def validate_distribution(probs: np.ndarray, size: int | None = None) -> None:
    """Raise :class:`InputError` unless ``probs`` is a valid distribution."""
    if probs.ndim != 1 or probs.size == 0:
        raise InputError(f"distribution must be a non-empty vector, got shape {probs.shape}")
    if size is not None and probs.size != size:
        raise InputError(f"distribution has length {probs.size}, expected {size}")
    if np.any(probs < 0.0):
        raise InputError("distribution has negative entries")
    total = float(probs.sum())
    if not abs(total - 1.0) <= SUM_TOLERANCE:  # NaN mass fails this test too
        raise InputError(f"distribution mass {total!r} deviates from 1 by more than {SUM_TOLERANCE}")


def greedy_token(probs) -> int:
    """Argmax token id of a checked row; ties break to the LOWEST id.

    The fixed tie-break keeps greedy decoding draft-independent, which the
    losslessness guarantee relies on.
    """
    arr = np.asarray(probs, dtype=np.float64)
    # np.argmax returns the first maximal index, i.e. the lowest id.
    return int(np.argmax(arr))


def entropy(probs) -> float:
    """Shannon entropy of a checked row in nats, with 0*ln(0) taken as 0."""
    arr = np.asarray(probs, dtype=np.float64)
    positive = arr[arr > 0.0]
    value = float(-np.sum(positive * np.log(positive)))
    return 0.0 if value == 0.0 else value


def kl_divergence(p, q) -> float:
    """KL(p || q') in nats of two checked rows, where q' is q with an
    epsilon floor. Rows of different lengths raise :class:`InputError`.

    q' = (q + eps) / (1 + eps*V) with eps = ``EPSILON_FLOOR``, so q' is a
    proper distribution and zero entries in q cost a large-but-finite
    penalty instead of infinity. Bit-identical inputs return exactly 0;
    the result is clamped at 0 against floating-point underflow.
    """
    p_arr = np.asarray(p, dtype=np.float64)
    q_arr = np.asarray(q, dtype=np.float64)
    if q_arr.shape != p_arr.shape:
        raise InputError(f"length mismatch: p has {p_arr.size} entries, q has {q_arr.size}")
    if np.array_equal(p_arr, q_arr):
        return 0.0
    q_floor = (q_arr + EPSILON_FLOOR) / (1.0 + EPSILON_FLOOR * q_arr.size)
    mask = p_arr > 0.0
    value = float(np.sum(p_arr[mask] * np.log(p_arr[mask] / q_floor[mask])))
    return max(0.0, value)
