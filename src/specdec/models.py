"""Token space, the abstract language-model interface, and n-gram surrogates.

Both the draft and the target side of the decoder speak one tiny protocol:
given a context (token-id tuple starting at BOS), return a next-token
probability distribution over a shared vocabulary. Any deterministic model
can plug in; at desk scale the models are additively-smoothed n-grams plus
an interpolation wrapper that blends a weak draft towards the target, which
gives direct control over the draft-target KL divergence.

Persistence format (``save_model`` / ``load_model``): a JSON document ::

    {
      "format": "specdec-ngram",
      "version": 1,
      "order": <int>,
      "alpha": <float>,
      "vocab": {"tokens": [...], "bos_id": <int>, "eos_id": <int>},
      "unigram": [<int> per token id],
      "contexts": [[[ctx ids...], [[token, count], ...]], ...]
    }

Counts are integers and context/token lists are sorted, so a dump is
deterministic and a load rebuilds bit-identical distributions.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dists import validate_distribution
from .errors import InputError

BOS_STRING = "<s>"
EOS_STRING = "</s>"

#: A decoding context: token ids, first entry is the vocabulary's bos_id.
Context = tuple[int, ...]


@dataclass(frozen=True)
class Vocabulary:
    """Ordered token strings with distinguished BOS / EOS ids."""

    tokens: tuple[str, ...]
    bos_id: int
    eos_id: int

    def __post_init__(self) -> None:
        if len(self.tokens) < 2:
            raise InputError("vocabulary needs at least bos and eos")
        if len(set(self.tokens)) != len(self.tokens):
            raise InputError("vocabulary token strings must be unique")
        for name, tid in (("bos_id", self.bos_id), ("eos_id", self.eos_id)):
            if not 0 <= tid < len(self.tokens):
                raise InputError(f"{name}={tid} out of range for size {len(self.tokens)}")
        if self.bos_id == self.eos_id:
            raise InputError("bos_id and eos_id must differ")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def string(self, token_id: int) -> str:
        return self.tokens[token_id]

    def encode(self, text: str, *, skip_unknown: bool = False) -> tuple[int, ...]:
        """Map each character to its token id.

        Unknown characters raise :class:`InputError` unless ``skip_unknown``
        is set, in which case they are dropped (used for out-of-domain text).
        """
        mapping = self._char_ids()
        if skip_unknown:
            return tuple(mapping[ch] for ch in text if ch in mapping)
        try:
            return tuple(mapping[ch] for ch in text)
        except KeyError as exc:
            raise InputError(f"character {exc.args[0]!r} is not in the vocabulary") from None

    def decode(self, token_ids) -> str:
        """Render token ids as text; bos/eos render as their marker strings."""
        return "".join(self.tokens[t] for t in token_ids)

    def _char_ids(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.tokens) if i not in (self.bos_id, self.eos_id)}


def validate_context(vocab: Vocabulary, ctx) -> Context:
    """Check the context invariants and return the context as a tuple."""
    tokens = tuple(int(t) for t in ctx)
    if not tokens:
        raise InputError("context must be non-empty")
    if tokens[0] != vocab.bos_id:
        raise InputError(f"context must start with bos_id={vocab.bos_id}, got {tokens[0]}")
    for t in tokens:
        if not 0 <= t < vocab.size:
            raise InputError(f"context token {t} out of range for vocabulary size {vocab.size}")
    if vocab.eos_id in tokens[:-1]:
        raise InputError("eos may only appear as the final context token")
    return tokens


class LanguageModel(ABC):
    """Deterministic next-token model over a fixed vocabulary.

    Implementations must be pure: identical contexts yield bit-identical
    distributions, and instances are immutable after construction (safe to
    query from multiple threads).
    """

    vocab: Vocabulary

    @abstractmethod
    def distribution(self, ctx: Context) -> np.ndarray:
        """Next-token distribution after ``ctx``; contract checks live in
        :func:`next_distribution`."""


def next_distribution(model: LanguageModel, ctx) -> np.ndarray:
    """Query ``model`` for the next-token distribution after ``ctx``.

    Validates the context (in range, bos-anchored, not already ended) and
    the returned row: one entry per token id, none negative, mass 1. The
    row check always runs, also under ``python -O``; it is the only one,
    so the :mod:`specdec.dists` math that follows trusts the row.
    """
    tokens = validate_context(model.vocab, ctx)
    if tokens[-1] == model.vocab.eos_id:
        raise InputError("context already ends in eos; nothing to predict")
    probs = model.distribution(tokens)
    validate_distribution(probs, model.vocab.size)
    return probs


class ConstantModel(LanguageModel):
    """Emits one fixed distribution for every context. Degenerate but handy:
    a one-hot row gives a fully deterministic chain model."""

    def __init__(self, vocab: Vocabulary, probs) -> None:
        self.vocab = vocab
        arr = np.asarray(probs, dtype=np.float64)
        validate_distribution(arr, vocab.size)
        arr = arr.copy()
        arr.flags.writeable = False
        self._probs = arr

    def distribution(self, ctx: Context) -> np.ndarray:
        return self._probs


class NGramModel(LanguageModel):
    """Additively-smoothed n-gram model.

    Conditional rows are keyed by the (order-1)-token context suffix and
    computed once at construction:

        P(t | ctx) = (count(ctx, t) + alpha) / (count(ctx) + alpha * V)

    Contexts never observed in training (including contexts shorter than
    order-1) back off to the additively-smoothed unigram row built from the
    raw corpus counts.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        order: int,
        alpha: float,
        context_counts: dict[tuple[int, ...], dict[int, int]],
        unigram_counts,
    ) -> None:
        if order < 1:
            raise InputError(f"order must be >= 1, got {order}")
        if not 0 <= alpha < math.inf:  # NaN fails this test too
            raise InputError(f"smoothing_alpha must be finite and >= 0, got {alpha}")
        self.vocab = vocab
        self.order = order
        self.alpha = float(alpha)
        self._context_counts = {k: dict(v) for k, v in context_counts.items()}
        self._unigram_counts = np.asarray(unigram_counts, dtype=np.int64)
        if self._unigram_counts.shape != (vocab.size,):
            raise InputError("unigram counts must have one entry per token id")
        self._rows = {
            ctx: self._smoothed_row(counts) for ctx, counts in self._context_counts.items()
        }
        self._backoff = self._smoothed_row(
            {t: int(c) for t, c in enumerate(self._unigram_counts) if c}
        )

    def _smoothed_row(self, counts: dict[int, int]) -> np.ndarray:
        row = np.full(self.vocab.size, self.alpha, dtype=np.float64)
        for token, count in counts.items():
            row[token] += count
        total = row.sum()
        if total <= 0:
            raise InputError("cannot smooth an empty count row with alpha=0")
        row /= total
        row.flags.writeable = False
        return row

    def distribution(self, ctx: Context) -> np.ndarray:
        suffix = ctx[-(self.order - 1):] if self.order > 1 else ()
        row = self._rows.get(suffix)
        return row if row is not None else self._backoff


def train_ngram(corpus, order: int, smoothing_alpha: float, vocab: Vocabulary) -> NGramModel:
    """Count (order-1)-gram transitions over ``corpus`` (a token-id sequence)
    and build the smoothed model. Deterministic."""
    tokens = [int(t) for t in corpus]
    if not tokens:
        raise InputError("corpus is empty")
    if order < 1:
        raise InputError(f"order must be >= 1, got {order}")
    if len(tokens) < order:
        raise InputError(f"corpus of length {len(tokens)} cannot train order-{order} model")
    for t in tokens:
        if not 0 <= t < vocab.size:
            raise InputError(f"corpus token {t} out of range for vocabulary size {vocab.size}")

    unigram = np.zeros(vocab.size, dtype=np.int64)
    for t in tokens:
        unigram[t] += 1

    context_counts: dict[tuple[int, ...], dict[int, int]] = {}
    width = order - 1
    for i in range(width, len(tokens)):
        ctx = tuple(tokens[i - width:i])
        row = context_counts.setdefault(ctx, {})
        row[tokens[i]] = row.get(tokens[i], 0) + 1

    return NGramModel(vocab, order, smoothing_alpha, context_counts, unigram)


class InterpolatedModel(LanguageModel):
    """Convex blend of a weak draft towards the target distribution.

    lam=0 reproduces the base draft, lam=1 reproduces the target exactly
    (bit-identical rows), and intermediate values move the draft-target KL
    monotonically towards zero. Stands in for distillation strength.
    """

    def __init__(self, target: LanguageModel, draft_base: LanguageModel, lam: float) -> None:
        if target.vocab != draft_base.vocab:
            raise InputError("target and draft_base must share a vocabulary")
        if not 0.0 <= lam <= 1.0:
            raise InputError(f"lambda must be in [0, 1], got {lam}")
        self.vocab = target.vocab
        self.target = target
        self.draft_base = draft_base
        self.lam = float(lam)

    def distribution(self, ctx: Context) -> np.ndarray:
        if self.lam == 1.0:
            return self.target.distribution(ctx)
        if self.lam == 0.0:
            return self.draft_base.distribution(ctx)
        blend = (
            self.lam * self.target.distribution(ctx)
            + (1.0 - self.lam) * self.draft_base.distribution(ctx)
        )
        blend.flags.writeable = False
        return blend


def distill_interpolate(
    target: LanguageModel, draft_base: LanguageModel, lam: float
) -> InterpolatedModel:
    """Alignment knob: returned model's rows are (1-lam)*draft_base + lam*target."""
    return InterpolatedModel(target, draft_base, lam)


FORMAT_NAME = "specdec-ngram"
FORMAT_VERSION = 1


def save_model(model: NGramModel, path) -> None:
    """Dump an n-gram model to the versioned JSON format (round-trips bit-exactly)."""
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "order": model.order,
        "alpha": model.alpha,
        "vocab": {
            "tokens": list(model.vocab.tokens),
            "bos_id": model.vocab.bos_id,
            "eos_id": model.vocab.eos_id,
        },
        "unigram": [int(c) for c in model._unigram_counts],
        "contexts": [
            [list(ctx), sorted((int(t), int(c)) for t, c in counts.items())]
            for ctx, counts in sorted(model._context_counts.items())
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def read_text(path, what: str) -> str:
    """A UTF-8 file's text; bytes that are not UTF-8 are an I/O error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{what} file {path} is not valid UTF-8: {exc}") from exc


def load_model(path) -> NGramModel:
    """Rebuild an n-gram model from :func:`save_model` output."""
    try:
        doc = json.loads(read_text(path, "model"))
    except json.JSONDecodeError as exc:
        raise InputError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"model file {path} does not hold a JSON object")
    if doc.get("format") != FORMAT_NAME:
        raise InputError(f"model file {path} has unknown format {doc.get('format')!r}")
    if doc.get("version") != FORMAT_VERSION:
        raise InputError(f"model file {path} has unsupported version {doc.get('version')!r}")
    try:
        vocab = Vocabulary(
            tokens=tuple(doc["vocab"]["tokens"]),
            bos_id=int(doc["vocab"]["bos_id"]),
            eos_id=int(doc["vocab"]["eos_id"]),
        )
        contexts = {
            tuple(int(t) for t in ctx): {int(t): int(c) for t, c in counts}
            for ctx, counts in doc["contexts"]
        }
        unigram = [int(c) for c in doc["unigram"]]
        # train_ngram checks its corpus; a file's tables are checked here.
        ids = [t for ctx, row in contexts.items() for t in (*ctx, *row)]
        counts = [*unigram, *(c for row in contexts.values() for c in row.values())]
        if not all(0 <= t < vocab.size for t in ids):
            raise InputError(f"a token id is out of range for vocabulary size {vocab.size}")
        if any(c < 0 for c in counts):
            raise InputError("counts must be non-negative")
        return NGramModel(vocab, int(doc["order"]), float(doc["alpha"]), contexts, unigram)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"model file {path} is malformed: {exc!r}") from exc
    except InputError as exc:
        raise InputError(f"model file {path}: {exc}") from exc
