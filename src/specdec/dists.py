"""Probability-vector primitives: validation, checked rows, greedy argmax,
entropy, KL.

A distribution is a 1-D float64 numpy array of non-negative entries summing
to 1 within ``SUM_TOLERANCE``. Entropy and KL are reported in nats.

:func:`validate_distribution` is the one check of those invariants, the
row's shape included. :func:`check_row` is the one place a model's values
become a float64 vector; it runs that check and returns a :class:`Row`,
which carries the facts the engine reads from every row: its greedy
token, its entropy and its proposal fan, the ids and log-probabilities of
its best tokens.
:func:`specdec.models.next_distribution` hands out only rows made here. A
row from a built-in model's finite table is made once (a constant's when
it is built); a plug-in model's row is made on every call. :func:`greedy_token`,
:func:`entropy` and the KL functions are plain math on rows that were
already checked; they do not check again, and :func:`greedy_token` reads
the token :func:`check_row` filed in a :class:`Row`.
"""

from __future__ import annotations

import math

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


class Row(np.ndarray):
    """A checked, read-only distribution that carries its facts.

    It is the float64 vector itself, so anything that reads rows as arrays
    keeps working. Only :func:`check_row` makes one, and files its greedy
    token then, with one argmax: verification reads it for every row it
    meets. The entropy and the fan are worked out on first read and then
    kept with the row, so a row kept in a model's table yields them once,
    and a row nobody ranks is never sorted. Models keep their rows for
    their lifetime, so a row is one object with slots.

    ``greedy_token`` is a plain slot, not a property, so a read costs no
    Python frame: :func:`greedy_token` of the row, the argmax with ties to
    the lower id, which :func:`check_row` files.
    """

    __slots__ = ("greedy_token", "_entropy", "_fan_width", "_fan")

    @property
    def entropy(self) -> float:
        """:func:`entropy` of the row, in nats."""
        try:
            return self._entropy
        except AttributeError:
            self._entropy = entropy(self.view(np.ndarray))
            return self._entropy

    def fan(self, width: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """The ids and ``math.log`` probabilities of the first ``width``
        tokens with nonzero probability, by descending probability with ties
        to the lower id.

        The row keeps one fan: the first read for a width makes it, a
        narrower read takes a prefix of it and a wider one replaces it.
        """
        try:
            kept = self._fan_width
        except AttributeError:
            pass
        else:
            if width == kept:
                return self._fan
            if width < kept:
                ids, logps = self._fan
                return ids[:width], logps[:width]
        probs = self.view(np.ndarray)
        ranked = np.argsort(-probs, kind="stable")[:width]
        ranked = ranked[probs[ranked] > 0.0]  # zeros rank last
        self._fan = fan = (tuple(ranked.tolist()), tuple(map(math.log, probs[ranked].tolist())))
        self._fan_width = width
        return fan


def check_row(values, size: int) -> Row:
    """Copy ``values`` into a float64 :class:`Row` after checking it as a
    distribution over ``size`` tokens; raises :class:`InputError`.

    ``values`` must be a vector of numbers, then :func:`validate_distribution`
    checks it. Only integer and float entries count as numbers: numpy
    would also convert bools, numeric strings and bytes to float64, and
    gives a list that mixes bools with floats a float dtype.
    """
    try:
        probs = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise InputError(f"distribution is not a vector of numbers: {exc}") from None
    if probs.dtype.kind not in "iuf":
        raise InputError(f"distribution is not a vector of numbers: it holds {probs.dtype}")
    if isinstance(values, (list, tuple)) and any(isinstance(v, (bool, np.bool_)) for v in values):
        raise InputError("distribution is not a vector of numbers: it holds bools")
    probs = probs.astype(np.float64, copy=False)
    validate_distribution(probs, size)
    row = Row(probs.shape)
    row[...] = probs
    row.setflags(write=False)
    # argmax returns the first maximal index, i.e. the lowest id.
    row.greedy_token = int(probs.argmax())
    return row


def greedy_token(probs: np.ndarray) -> int:
    """Argmax token id of a checked row; ties break to the LOWEST id.

    The fixed tie-break keeps greedy decoding draft-independent, which the
    losslessness guarantee relies on. A :class:`Row` carries the token
    :func:`check_row` filed, and this reads it; an array derived from a row
    (``row * 1.0``, ``row.copy()``) carries none and gets its argmax.
    """
    try:
        return probs.greedy_token
    except AttributeError:
        return int(probs.argmax())


def entropy(probs: np.ndarray) -> float:
    """Shannon entropy of a checked row in nats, with 0*ln(0) taken as 0."""
    positive = probs[probs > 0.0]
    value = float(-np.sum(positive * np.log(positive)))
    return 0.0 if value == 0.0 else value


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q') in nats of two checked rows: :func:`kl_rows` of the pair."""
    return float(kl_rows([p], [q])[0])


def kl_rows(p, q) -> np.ndarray:
    """KL(p[k] || q'[k]) in nats of each pair of K checked rows, read as two
    (K, V) float64 blocks; blocks of different shapes raise :class:`InputError`.

    q' = (q + eps) / (1 + eps*V) with eps = ``EPSILON_FLOOR``, so q' is a
    proper distribution and zero entries in q cost a large-but-finite
    penalty instead of infinity. Bit-identical rows give exactly 0, and each
    value is clamped at 0. A row with a zero in p is summed over its nonzero
    entries alone, as one vector: with the zeros in place its last bit can move.
    """
    p, q = np.array(p, dtype=np.float64), np.array(q, dtype=np.float64)
    if q.shape != p.shape:
        raise InputError(f"length mismatch: p has {p.shape[-1]} entries, q has {q.shape[-1]}")
    q_floor = (q + EPSILON_FLOOR) / (1.0 + EPSILON_FLOOR * p.shape[1])
    positive = p > 0.0
    # A zero of p adds 0 * log(1 / q') here, not 0 * log(0).
    values = np.sum(p * np.log(np.where(positive, p, 1.0) / q_floor), axis=1)
    for i in np.flatnonzero(~positive.all(axis=1)):
        mask = positive[i]
        values[i] = np.sum(p[i, mask] * np.log(p[i, mask] / q_floor[i, mask]))
    return np.where((values > 0.0) & ~(p == q).all(axis=1), values, 0.0)
