"""Token space, the abstract language-model interface, and n-gram surrogates.

Both the draft and the target side of the decoder speak one tiny protocol:
given a context (token-id tuple starting at BOS), return a next-token
probability distribution over a shared vocabulary. Any deterministic model
can plug in; at desk scale the models are additively-smoothed n-grams plus
an interpolation wrapper that blends a weak draft towards the target, which
gives direct control over the draft-target KL divergence.

A model whose rows depend only on the last ``k`` tokens of a context says
so with ``context_window = k`` (``order - 1`` for an n-gram, 0 for a
constant row). The decode loops then keep only that tail of their context,
so a cycle costs the same at token 4,000 as at token 10, and such a model
receives its trailing tokens, which need not start at BOS. The default,
``None``, means the whole context: a plug-in that declares nothing always
receives the full context from BOS.

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
from collections import Counter
from collections.abc import Hashable
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

# validate_distribution is unused here; kept because perfbench traces it by this name.
from .dists import Row, check_row, validate_distribution
from .errors import InputError

BOS_STRING = "<s>"
EOS_STRING = "</s>"

#: A decoding context: token ids, first entry is the vocabulary's bos_id.
#: A model with a ``context_window`` may receive only its trailing tokens.
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
            text = filter(mapping.__contains__, text)
        try:
            return tuple(map(mapping.__getitem__, text))
        except KeyError as exc:
            raise InputError(f"character {exc.args[0]!r} is not in the vocabulary") from None

    def decode(self, token_ids) -> str:
        """Render token ids as text; bos/eos render as their marker strings."""
        return "".join(self.tokens[t] for t in token_ids)

    def _char_ids(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.tokens) if i not in (self.bos_id, self.eos_id)}


class _CheckedContext(tuple):
    """A context :func:`validate_context` accepted for ``vocab``, or the
    trailing tokens of one.

    :func:`validate_context` hands it back as given, without a walk, to any
    caller with an equal vocabulary. Only ``speculative_decode`` grows one,
    with the target's tokens from checked rows, and stops at EOS, so it is
    still a valid context or the tail of one, made only for models whose
    ``context_window`` it covers. Like a whole context, a tail is trusted
    only by callers with an equal vocabulary; any other walks it as a fresh
    context, which must start at BOS.

    It is made by the C-level ``tuple.__new__`` and then given its
    ``vocab``, with no Python constructor frame: the decode loop makes one
    per cycle. Copy and pickle rebuild it the same way, from tuple's own
    ``__getnewargs__`` and the instance dict that holds ``vocab``.
    """

    vocab: Vocabulary


#: Makes a _CheckedContext from a tuple without a Python frame.
_new_context = tuple.__new__


def validate_context(vocab: Vocabulary, ctx) -> Context:
    """Check the context invariants and return the context as a tuple.

    A context this function already accepted for an equal vocabulary comes
    back as given, unwalked; one checked for another vocabulary is walked
    again. The vocabulary is tested for identity before equality, which
    compares every token string.
    """
    if type(ctx) is _CheckedContext and (ctx.vocab is vocab or ctx.vocab == vocab):
        return ctx
    tokens = tuple(map(int, ctx))
    bos, eos, size = vocab.bos_id, vocab.eos_id, vocab.size
    if not tokens:
        raise InputError("context must be non-empty")
    if tokens[0] != bos:
        raise InputError(f"context must start with bos_id={bos}, got {tokens[0]}")
    for t in tokens:
        if not 0 <= t < size:
            raise InputError(f"context token {t} out of range for vocabulary size {size}")
    if eos in tokens[:-1]:
        raise InputError("eos may only appear as the final context token")
    ctx = _new_context(_CheckedContext, tokens)
    ctx.vocab = vocab
    return ctx


class LanguageModel(ABC):
    """Deterministic next-token model over a fixed vocabulary.

    Implementations must be pure: identical contexts yield bit-identical
    distributions, and instances are immutable after construction (safe to
    query from multiple threads), apart from the row table ``_table``,
    which fills itself as :func:`next_distribution` reads it.

    ``context_window`` is the number of trailing context tokens the rows
    depend on: two contexts that end in the same ``context_window`` tokens
    get bit-identical rows and equal row keys. ``None``, the default, means
    the whole context. A plug-in declares a window by setting the attribute
    on its class or instance; it must not change after construction.

    ``_table`` is None, the default, for a model that keeps no row table,
    such as a plug-in, whose rows are checked on every call. A model with
    finitely many rows declares a ``context_window``, defines
    ``_row_key(tail)``, the hashable key of the row after a context tail,
    which two tails share only if their rows are bit-identical, and sets
    ``_table = RowTable(self)`` at construction. On a miss the table tests
    the tail for EOS and then passes it to ``_row_key`` and, for a row it
    does not hold yet, to ``distribution`` (see :class:`RowTable`).
    """

    vocab: Vocabulary
    context_window: int | None = None
    _table: RowTable | None = None

    @abstractmethod
    def distribution(self, ctx: Context) -> np.ndarray:
        """Next-token distribution after ``ctx``; contract checks live in
        :func:`next_distribution`.

        ``ctx`` starts at BOS unless the model declares a
        ``context_window``; then it may be only the context's last
        ``context_window`` tokens or more.
        """


class RowTable(dict):
    """A tabled model's checked rows, filed by row key and by context tail.

    A context's *tail* is its last ``max(context_window, 1)`` tokens (all of
    a shorter context), cut by the slice ``tail``; a model without a window
    raises ``TypeError`` here. A read is ``table[ctx[table.tail]]``. On a
    miss, :meth:`__missing__` rejects a tail that ends in EOS, then looks up
    the row under the model's ``_row_key(tail)``, making and checking it
    from ``distribution(tail)`` if absent, and files it under the tail too.
    So each distinct row is checked once in the model's lifetime, and no
    entry ends in EOS: keys come from tails that do not (an n-gram's
    suffix, a blend's pair of keys, a constant's ``()``). A key must never
    equal a tail unless both name the same row; a window-0 model's tail is
    its last token, while its one row sits under ``()``.
    """

    __slots__ = ("model", "tail")

    def __init__(self, model: LanguageModel) -> None:
        super().__init__()
        self.model = model
        self.tail = slice(-max(model.context_window, 1), None)

    def __missing__(self, tail: Context) -> Row:
        model = self.model
        if tail[-1] == model.vocab.eos_id:
            raise InputError("context already ends in eos; nothing to predict")
        key = model._row_key(tail)
        row = self.get(key)
        if row is None:
            row = self[key] = check_row(model.distribution(tail), model.vocab.size)
        self[tail] = row
        return row


def next_distribution(model: LanguageModel, ctx: Context) -> Row:
    """Query ``model`` for the next-token distribution after ``ctx``.

    ``ctx`` must be a tuple that :func:`validate_context` accepted. Callers
    check it once where it enters (``greedy_decode``, ``speculative_decode``,
    ``expand_tree``, ``verify_tree``, ``estimate_kl``,
    ``estimate_acceptance``; inside ``speculative_decode``, expansion and
    verification take its checked context without a call) and extend it
    only with tokens of checked rows, so just the O(1) "already ends in
    eos" check runs here, on a plug-in's every call and on a table's miss.
    The decode loops pass a model with a ``context_window`` only the last
    tokens of the context, at least one and at least the window.

    The row comes back as a :class:`~specdec.dists.Row` from
    :func:`~specdec.dists.check_row`: converted to float64, checked (one
    entry per token id, none negative, mass 1, also under ``python -O``),
    and carrying its greedy token, entropy and proposal fan. A plug-in
    model's row, fan included, is made on every call. The check here is
    the only one, so the :mod:`specdec.dists` math that follows trusts the
    row.

    A model with a row table serves a row with one slice and one dict
    probe of its :class:`RowTable`; the eos check, the row key and the
    row's check run only on a miss, since no entry ends in eos.
    """
    table = model._table
    if table is None:
        if ctx[-1] == model.vocab.eos_id:
            raise InputError("context already ends in eos; nothing to predict")
        return check_row(model.distribution(ctx), model.vocab.size)
    return table[ctx[table.tail]]


class ConstantModel(LanguageModel):
    """Emits one fixed distribution for every context. Degenerate but handy:
    a one-hot row gives a fully deterministic chain model. The row is
    checked once, by :func:`~specdec.dists.check_row` at construction, and
    kept only in its row table, under the key ``()``."""

    context_window = 0

    def __init__(self, vocab: Vocabulary, probs) -> None:
        self.vocab = vocab
        self._table = RowTable(self)
        self._table[()] = check_row(probs, vocab.size)

    def distribution(self, ctx: Context) -> np.ndarray:
        return self._table[()].view(np.ndarray)

    def _row_key(self, ctx: Context) -> tuple[()]:
        return ()


class NGramModel(LanguageModel):
    """Additively-smoothed n-gram model.

    Conditional rows are keyed by the (order-1)-token context suffix:

        P(t | ctx) = (count(ctx, t) + alpha) / (count(ctx) + alpha * V)

    Contexts never observed in training (including contexts shorter than
    order-1) back off to the additively-smoothed unigram row built from the
    raw corpus counts. The rows depend on the last ``order - 1`` tokens
    only, the model's ``context_window``: a context that holds fewer has
    no seen suffix and backs off, whether or not it starts at BOS.

    Construction checks the count tables for every caller (a corpus, a
    model file, a direct call), ids and counts first, keeps the counts and
    builds no row. :meth:`distribution` smooths a row when asked, and its
    :class:`RowTable` keeps each checked row keyed by that suffix, or by
    ``()`` for the backoff row, filled on first use.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        order: int,
        alpha: float,
        context_counts: dict[tuple[int, ...], dict[int, int]],
        unigram_counts,
    ) -> None:
        ids = set().union(*context_counts, *context_counts.values())
        if min(ids, default=0) < 0 or max(ids, default=0) >= vocab.size:
            raise InputError(f"a token id is out of range for vocabulary size {vocab.size}")
        if min(chain(unigram_counts, *map(dict.values, context_counts.values())), default=0) < 0:
            raise InputError("counts must be non-negative")
        if order < 1:
            raise InputError(f"order must be >= 1, got {order}")
        if not 0 <= alpha < math.inf:  # NaN fails this test too
            raise InputError(f"smoothing_alpha must be finite and >= 0, got {alpha}")
        for ctx in context_counts:
            if len(ctx) != order - 1:
                raise InputError(f"context {list(ctx)} must hold order - 1 = {order - 1} ids")
        self.vocab = vocab
        self.order = order
        self.context_window = order - 1
        self.alpha = float(alpha)
        self._context_counts = {k: dict(v) for k, v in context_counts.items()}
        self._unigram_counts = np.asarray(unigram_counts, dtype=np.int64)
        if self._unigram_counts.shape != (vocab.size,):
            raise InputError("unigram counts must have one entry per token id")
        self._backoff_counts = {t: int(c) for t, c in enumerate(self._unigram_counts) if c}
        for counts in (self._backoff_counts, *self._context_counts.values()):
            mass = self.alpha * vocab.size + sum(counts.values())
            if mass <= 0:
                raise InputError("cannot smooth an empty count row with alpha=0")
            if mass == math.inf:
                raise InputError(f"smoothing_alpha={alpha} overflows a row's mass")
        self._table = RowTable(self)

    def distribution(self, ctx: Context) -> np.ndarray:
        counts = self._context_counts.get(self._row_key(ctx), self._backoff_counts)
        row = np.full(self.vocab.size, self.alpha, dtype=np.float64)
        for token, count in counts.items():
            row[token] += count
        row /= row.sum()
        return row

    def _row_key(self, ctx: Context) -> tuple[int, ...]:
        # () is a seen suffix only at order 1, where every context has it
        # and the backoff row is never reached, so it can name that row.
        suffix = ctx[-(self.order - 1):] if self.order > 1 else ()
        return suffix if suffix in self._context_counts else ()


def train_ngram(corpus, order: int, smoothing_alpha: float, vocab: Vocabulary) -> NGramModel:
    """Count (order-1)-gram transitions over ``corpus`` (a token-id sequence)
    and build the smoothed model. Deterministic: contexts and their tokens
    are filed in order of first occurrence."""
    tokens = list(map(int, corpus))
    if not tokens:
        raise InputError("corpus is empty")
    if order < 1:
        raise InputError(f"order must be >= 1, got {order}")
    if len(tokens) < order:
        raise InputError(f"corpus of length {len(tokens)} cannot train order-{order} model")
    size = vocab.size
    if min(tokens) < 0 or max(tokens) >= size:
        t = next(t for t in tokens if not 0 <= t < size)
        raise InputError(f"corpus token {t} out of range for vocabulary size {size}")

    unigram = np.bincount(tokens, minlength=size).astype(np.int64, copy=False)

    # Each gram is counted at C speed, as the tuple of ``order`` shifted tokens.
    grams = Counter(zip(*(tokens[i:len(tokens) - order + 1 + i] for i in range(order))))
    context_counts: dict[tuple[int, ...], dict[int, int]] = {}
    for gram, count in grams.items():
        context_counts.setdefault(gram[:-1], {})[gram[-1]] = count

    return NGramModel(vocab, order, smoothing_alpha, context_counts, unigram)


class InterpolatedModel(LanguageModel):
    """Convex blend of a weak draft towards the target distribution.

    lam=0 reproduces the base draft, lam=1 reproduces the target exactly
    (bit-identical rows), and intermediate values move the draft-target KL
    monotonically towards zero. Stands in for distillation strength.

    At lam=0 or 1 the rows are one model's rows, so the blend shares that
    model's keys, window and row table (None for a plug-in). In between,
    each side is read through :func:`next_distribution`, so a side row is
    made and checked once, by that side's table or on the call for a
    plug-in, and a plug-in side must return a distribution itself. A blend
    keeps a table only if both sides do: its :class:`RowTable`
    keeps the checked blends, filed under a pair of both sides' keys
    and under each context's tail (see :class:`RowTable`), so a served
    row costs one slice and one probe, not two key lookups and a tuple. A
    blend with a plug-in on either side keeps none, like a plug-in.

    The blend's ``context_window`` is its source's at lam=0 or 1; in between
    it is the larger of its sides' windows, or None if either side reads
    the whole context.
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
        #: The model whose rows an endpoint copies bit for bit, else None.
        self._source = {0.0: draft_base, 1.0: target}.get(self.lam)
        if self._source is not None:
            self._table = self._source._table
            self.context_window = self._source.context_window
        else:
            if None not in (target.context_window, draft_base.context_window):
                self.context_window = max(target.context_window, draft_base.context_window)
            if target._table is not None and draft_base._table is not None:
                self._table = RowTable(self)

    def distribution(self, ctx: Context) -> np.ndarray:
        if self._source is not None:
            return self._source.distribution(ctx)
        blend = (self.lam * next_distribution(self.target, ctx)
                 + (1.0 - self.lam) * next_distribution(self.draft_base, ctx))
        return blend.view(np.ndarray)

    def _row_key(self, ctx: Context) -> Hashable:
        if self._source is not None:
            return self._source._row_key(ctx)
        return self.target._row_key(ctx), self.draft_base._row_key(ctx)


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


def read_json(path, what: str, format_name: str, version: int) -> dict:
    """The JSON object in a UTF-8 file, with the given ``format`` and ``version``."""
    try:
        doc = json.loads(read_text(path, what))
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise InputError(f"{what} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{what} file {path} does not hold a JSON object")
    if doc.get("format") != format_name:
        raise InputError(f"{what} file {path} has unknown format {doc.get('format')!r}")
    if type(doc.get("version")) is not int or doc["version"] != version:
        raise InputError(f"{what} file {path} has unsupported version {doc.get('version')!r}")
    return doc


_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "a boolean",
          dict: "an object"}


def from_json(kind, value, where: str = ""):
    """A parsed JSON value as ``kind``, or an InputError starting ``where``.
    ``int`` is a JSON integer, never a bool; ``float`` is a JSON integer or
    float; ``str``, ``bool`` and ``dict`` take only their own JSON type;
    ``tuple[T, ...]`` is a JSON list of ``T``. A cast would take "1" as 1."""
    if get_origin(kind) is tuple:
        if type(value) is not list:
            raise InputError(f"{where}expected a list, got {value!r}")
        return tuple(from_json(get_args(kind)[0], item, where) for item in value)
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise InputError(f"{where}expected {_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def dataclass_from_json(cls, value, what: str, keys: dict[str, str] | None = None):
    """A ``cls`` from a JSON object holding exactly ``keys`` (field name to
    JSON key; by default every field under its own name), each value decoded
    by :func:`from_json` as its field's type."""
    hints = get_type_hints(cls)
    keys = keys or {name: name for name in hints}
    if set(from_json(dict, value, f"{what}: ")) != set(keys.values()):
        odd = sorted(set(value) ^ set(keys.values()))
        raise InputError(f"{what} keys missing or unknown: {odd}")
    return cls(**{n: from_json(hints[n], value[k], f"{what} {k}: ") for n, k in keys.items()})


def load_model(path) -> NGramModel:
    """Rebuild an n-gram model from :func:`save_model` output (``NGramModel`` checks its tables)."""
    doc = read_json(path, "model", FORMAT_NAME, FORMAT_VERSION)
    try:
        vocab = dataclass_from_json(Vocabulary, doc["vocab"], "vocab")
        contexts = {
            from_json(tuple[int, ...], ctx): {from_json(int, t): from_json(int, c) for t, c in row}
            for ctx, row in doc["contexts"]
        }
        unigram = from_json(tuple[int, ...], doc["unigram"])
        return NGramModel(
            vocab, from_json(int, doc["order"]), from_json(float, doc["alpha"]), contexts, unigram
        )
    except InputError as exc:
        raise InputError(f"model file {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"model file {path} is malformed: {exc!r}") from exc
