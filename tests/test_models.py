"""Unit tests for vocabularies, n-gram training, interpolation, persistence."""

from __future__ import annotations

import copy
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specdec
import specdec.decode as decode
import specdec.dists as dists
import specdec.models as models
from specdec.decode import greedy_decode, speculative_decode
from specdec.dists import entropy, greedy_token, kl_divergence, validate_distribution
from specdec.errors import InputError
from specdec.metrics import estimate_kl
from specdec.models import (
    BOS_STRING,
    EOS_STRING,
    ConstantModel,
    LanguageModel,
    NGramModel,
    RowTable,
    Vocabulary,
    distill_interpolate,
    load_model,
    next_distribution,
    save_model,
    train_ngram,
    validate_context,
)
from specdec.tree import BranchPolicy

from conftest import (
    TRAIN_TEXT,
    PermutedModel,
    make_vocab,
    mutate_json,
    reference_ngram_counts,
    text_vocab,
    top_tokens,
)


def test_vocabulary_basics():
    vocab = make_vocab(3)
    assert vocab.size == 5
    assert vocab.string(0) == "a"
    assert vocab.string(vocab.bos_id) == BOS_STRING
    assert vocab.string(vocab.eos_id) == EOS_STRING
    assert vocab.encode("cab") == (2, 0, 1)
    assert vocab.decode((2, 0, 1)) == "cab"


def test_vocabulary_encode_unknown():
    vocab = make_vocab(2)
    with pytest.raises(InputError):
        vocab.encode("abz")
    assert vocab.encode("azbza", skip_unknown=True) == (0, 1, 0)


def test_vocabulary_rejects_duplicates_and_bad_ids():
    with pytest.raises(InputError):
        Vocabulary(tokens=("a", "a", BOS_STRING, EOS_STRING), bos_id=2, eos_id=3)
    with pytest.raises(InputError):
        Vocabulary(tokens=("a", "b"), bos_id=1, eos_id=1)
    with pytest.raises(InputError):
        Vocabulary(tokens=("a", "b"), bos_id=0, eos_id=5)


def test_context_validation():
    vocab = make_vocab(3)
    bos, eos = vocab.bos_id, vocab.eos_id
    assert validate_context(vocab, (bos, 0, 1)) == (bos, 0, 1)
    assert validate_context(vocab, (bos, 0, eos)) == (bos, 0, eos)
    with pytest.raises(InputError):
        validate_context(vocab, ())
    with pytest.raises(InputError):
        validate_context(vocab, (0, 1))  # missing bos anchor
    with pytest.raises(InputError):
        validate_context(vocab, (bos, eos, 0))  # eos not final
    with pytest.raises(InputError):
        validate_context(vocab, (bos, 99))


@pytest.mark.parametrize("keep", [None, 1, 3, 5, 9])
def test_an_extended_context_is_checked_and_holds_its_last_keep_tokens(keep, monkeypatch):
    """Each cycle's context speculative_decode builds, the last one plus what
    its cycle emitted, is checked for the target's vocabulary and holds the
    last ``keep`` tokens of prompt and output: models of window ``keep``,
    or a draft with no window for ``None``."""
    vocab, corpus = text_vocab(TRAIN_TEXT)
    target = train_ngram(corpus, order=(keep or 1) + 1, smoothing_alpha=0.1, vocab=vocab)
    draft = target if keep is not None else PermutedModel(target)
    seen = []
    expand = decode.expand_tree
    monkeypatch.setattr(decode, "expand_tree",
                        lambda model, ctx, policy: seen.append(ctx) or expand(model, ctx, policy))
    prompt = (vocab.bos_id,) + corpus[:12]
    tokens, stats = speculative_decode(draft, target, prompt, 40, BranchPolicy.chain(3))
    assert tokens == greedy_decode(target, prompt, 40) and len(seen) == stats.cycles > 3
    whole = prompt + tuple(tokens)
    ends = itertools.accumulate(stats.per_cycle_acceptance, initial=len(prompt))
    for ctx, end in zip(seen, ends):
        assert type(ctx) is models._CheckedContext and ctx.vocab is vocab
        assert ctx == (whole[:end] if keep is None else whole[:end][-keep:])
    ctx, equal = seen[-1], text_vocab(TRAIN_TEXT)[0]
    assert equal is not vocab
    assert validate_context(equal, ctx) is ctx  # an equal vocabulary trusts it
    clones = [copy.deepcopy(ctx)]
    clones += [pickle.loads(pickle.dumps(ctx, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones:
        assert type(clone) is models._CheckedContext and clone == ctx and clone.vocab == vocab
        assert validate_context(vocab, clone) is clone
    # An unequal vocabulary with the same ids walks it as a fresh context,
    # which a tail that lost its BOS fails.
    renamed = Vocabulary(tuple(f"<{t}>" for t in vocab.tokens), vocab.bos_id, vocab.eos_id)
    if ctx[0] == vocab.bos_id:
        walked = validate_context(renamed, ctx)
        assert walked == ctx and walked is not ctx and walked.vocab is renamed
    else:
        with pytest.raises(InputError, match="bos_id"):
            validate_context(renamed, ctx)


def test_next_distribution_rejects_terminal_context():
    vocab = make_vocab(2)
    model = ConstantModel(vocab, np.array([0.5, 0.5, 0.0, 0.0]))
    with pytest.raises(InputError):
        next_distribution(model, (vocab.bos_id, vocab.eos_id))


def test_unigram_training_counts():
    vocab = make_vocab(2)
    corpus = vocab.encode("aab")
    model = train_ngram(corpus, order=1, smoothing_alpha=0.0, vocab=vocab)
    row = next_distribution(model, (vocab.bos_id,))
    assert row == pytest.approx([2 / 3, 1 / 3, 0.0, 0.0], abs=1e-12)


def test_bigram_alternating_successors():
    vocab, corpus = text_vocab("ababababab")
    model = train_ngram(corpus, order=2, smoothing_alpha=0.0, vocab=vocab)
    a, b = vocab.encode("ab")
    row_after_a = next_distribution(model, (vocab.bos_id, a))
    row_after_b = next_distribution(model, (vocab.bos_id, b))
    assert int(np.argmax(row_after_a)) == b
    assert int(np.argmax(row_after_b)) == a
    assert row_after_a[b] == pytest.approx(1.0, abs=1e-12)


def test_unseen_context_backs_off_to_smoothed_unigram():
    vocab = make_vocab(3)
    corpus = vocab.encode("aabca")
    alpha = 0.5
    model = train_ngram(corpus, order=3, smoothing_alpha=alpha, vocab=vocab)
    # context (c, c) never occurs; expect the smoothed unigram row
    c = vocab.encode("c")[0]
    row = next_distribution(model, (vocab.bos_id, c, c))
    counts = {0: 3, 1: 1, 2: 1}  # a=3, b=1, c=1 over 5 tokens
    total = 5 + alpha * vocab.size
    expected = [(counts.get(t, 0) + alpha) / total for t in range(vocab.size)]
    assert row == pytest.approx(expected, abs=1e-12)


def test_heavy_smoothing_flattens_rows():
    vocab, corpus = text_vocab("aaaaabbbbb")
    model = train_ngram(corpus, order=2, smoothing_alpha=1e6, vocab=vocab)
    row = next_distribution(model, (vocab.bos_id, 0))
    assert float(row.max() - row.min()) < 0.01


def test_single_symbol_corpus_is_deterministic():
    vocab = make_vocab(1)
    corpus = vocab.encode("aaaa")
    model = train_ngram(corpus, order=2, smoothing_alpha=0.0, vocab=vocab)
    row = next_distribution(model, (vocab.bos_id, 0))
    assert row[0] == 1.0 and row.sum() == 1.0


def test_train_rejects_bad_inputs():
    vocab = make_vocab(2)
    with pytest.raises(InputError):
        train_ngram((), order=1, smoothing_alpha=0.1, vocab=vocab)
    with pytest.raises(InputError):
        train_ngram((0, 1), order=0, smoothing_alpha=0.1, vocab=vocab)
    with pytest.raises(InputError):
        train_ngram((0,), order=2, smoothing_alpha=0.1, vocab=vocab)
    with pytest.raises(InputError):
        train_ngram((0, 99), order=1, smoothing_alpha=0.1, vocab=vocab)
    with pytest.raises(InputError):
        train_ngram((0, 1), order=1, smoothing_alpha=-0.5, vocab=vocab)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_train_counts_equal_the_per_token_reference(order):
    vocab, corpus = text_vocab(TRAIN_TEXT[:400])
    bos, eos = vocab.bos_id, vocab.eos_id
    # Corpora holding bos and eos ids count them like any other token.
    for tokens in (corpus, (bos, *corpus[:40], eos, bos, *corpus[40:90], eos), corpus[:order]):
        model = train_ngram(tokens, order=order, smoothing_alpha=0.1, vocab=vocab)
        contexts, unigram = reference_ngram_counts(tokens, order, vocab.size)
        assert model._context_counts == contexts
        assert list(model._context_counts) == list(contexts)  # first-occurrence order
        assert [list(row) for row in model._context_counts.values()] == [
            list(row) for row in contexts.values()]
        assert model._unigram_counts.tolist() == unigram


@pytest.mark.parametrize(
    "corpus,order",
    [((), 1), ((0, 1), 0), ((0,), 2), ((0, 99), 1), ((0, 1, -1, 99), 2), ((5, 0), 3),
     ((0, 10**30), 1), ((0, 1, -(10**30)), 1), ((2**64, -1), 2)],
    ids=["empty", "order 0", "too short", "out of range", "first bad token named",
         "too short and out of range", "huge", "huge negative", "huge first"],
)
def test_train_errors_keep_the_reference_messages(corpus, order):
    # An InputError is a one-line message and exit code 1 in the CLI.
    vocab = make_vocab(2)
    with pytest.raises(InputError) as want:
        reference_ngram_counts(corpus, order, vocab.size)
    with pytest.raises(InputError) as got:
        train_ngram(corpus, order=order, smoothing_alpha=0.1, vocab=vocab)
    assert str(got.value) == str(want.value)


def test_interpolation_endpoints_are_bit_exact():
    vocab = make_vocab(2)
    target = ConstantModel(vocab, np.array([0.8, 0.2, 0.0, 0.0]))
    base = ConstantModel(vocab, np.array([0.2, 0.8, 0.0, 0.0]))
    ctx = (vocab.bos_id,)
    at_zero = distill_interpolate(target, base, 0.0)
    at_one = distill_interpolate(target, base, 1.0)
    assert np.array_equal(next_distribution(at_zero, ctx), base.distribution(ctx))
    assert np.array_equal(next_distribution(at_one, ctx), target.distribution(ctx))


def test_interpolation_midpoint_blends_rows():
    vocab = make_vocab(2)
    target = ConstantModel(vocab, np.array([0.8, 0.2, 0.0, 0.0]))
    base = ConstantModel(vocab, np.array([0.2, 0.8, 0.0, 0.0]))
    mid = distill_interpolate(target, base, 0.5)
    row = next_distribution(mid, (vocab.bos_id,))
    assert row == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=0.0)


def test_interpolation_validates_inputs():
    vocab = make_vocab(2)
    other = make_vocab(3)
    target = ConstantModel(vocab, np.array([0.8, 0.2, 0.0, 0.0]))
    base = ConstantModel(other, np.full(5, 0.2))
    with pytest.raises(InputError):
        distill_interpolate(target, base, 0.5)
    same_base = ConstantModel(vocab, np.array([0.2, 0.8, 0.0, 0.0]))
    with pytest.raises(InputError):
        distill_interpolate(target, same_base, 1.5)


def test_interpolation_kl_decreases_monotonically():
    vocab, corpus = text_vocab(TRAIN_TEXT)
    target = train_ngram(corpus, order=3, smoothing_alpha=0.1, vocab=vocab)
    base = train_ngram(corpus, order=1, smoothing_alpha=0.5, vocab=vocab)
    rng = np.random.default_rng(5)
    starts = rng.integers(0, len(corpus) - 6, size=100)
    probes = [(vocab.bos_id,) + tuple(corpus[s:s + 5]) for s in starts]

    def mean_kl(lam: float) -> float:
        draft = distill_interpolate(target, base, lam)
        values = [
            kl_divergence(next_distribution(target, p), next_distribution(draft, p))
            for p in probes
        ]
        return float(np.mean(values))

    kls = [mean_kl(lam) for lam in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert kls[-1] == 0.0
    assert all(kls[i] >= kls[i + 1] for i in range(len(kls) - 1))


def test_persistence_round_trip_is_bit_exact(tmp_path):
    vocab, corpus = text_vocab(TRAIN_TEXT[:400])
    model = train_ngram(corpus, order=3, smoothing_alpha=0.25, vocab=vocab)
    path = tmp_path / "model.json"
    save_model(model, path)
    clone = load_model(path)
    assert clone.vocab == model.vocab
    assert clone.order == model.order
    assert clone.alpha == model.alpha
    contexts = [(vocab.bos_id,), (vocab.bos_id,) + tuple(corpus[:2]),
                (vocab.bos_id,) + tuple(corpus[10:12])]
    for ctx in contexts:
        assert np.array_equal(
            next_distribution(model, ctx), next_distribution(clone, ctx)
        )
    # a second save of the loaded model is byte-identical
    path2 = tmp_path / "model2.json"
    save_model(clone, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    for text in ("not json at all", "[" * 100_000 + "]" * 100_000):
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(InputError):
            load_model(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
    with pytest.raises(InputError):
        load_model(wrong)


def test_constant_model_row_is_read_only():
    vocab = make_vocab(2)
    model = ConstantModel(vocab, np.array([0.5, 0.5, 0.0, 0.0]))
    row = next_distribution(model, (vocab.bos_id,))
    with pytest.raises(ValueError):
        row[0] = 0.9


def test_entropy_of_trained_rows_is_finite():
    vocab, corpus = text_vocab(TRAIN_TEXT[:200])
    model = train_ngram(corpus, order=2, smoothing_alpha=0.1, vocab=vocab)
    row = next_distribution(model, (vocab.bos_id, corpus[0]))
    assert math.isfinite(float(np.sum(row)))
    assert row.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("key", ["vocab", "order", "alpha", "unigram", "contexts"])
def test_load_names_the_file_missing_a_key(tmp_path, key):
    vocab, corpus = text_vocab(TRAIN_TEXT[:200])
    path = tmp_path / "model.json"
    save_model(train_ngram(corpus, order=2, smoothing_alpha=0.5, vocab=vocab), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc[key]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InputError, match="model.json"):
        load_model(path)


def test_load_rejects_json_that_is_not_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(InputError, match="list.json"):
        load_model(path)


def test_load_non_utf8_file_is_an_io_error(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(OSError, match="binary.json.*UTF-8"):
        load_model(path)


def _corrupt(doc, fault):
    ctx, row = doc["contexts"][0]
    size = len(doc["vocab"]["tokens"])
    if fault == "context id >= size":
        ctx[0] = size
    elif fault == "entry id >= size":
        row[0][0] = size
    elif fault == "entry id -1":
        row[0][0] = -1
    elif fault == "count -1":
        row[0][1] = -1
    else:
        doc["alpha"] = {"alpha nan": math.nan, "alpha inf": math.inf}.get(fault, 1e308)


@pytest.mark.parametrize(
    "fault",
    ["context id >= size", "entry id >= size", "entry id -1", "count -1", "alpha nan",
     "alpha inf", "alpha 1e308"],
)
def test_load_rejects_corrupt_count_tables_naming_the_file(tmp_path, fault):
    vocab, corpus = text_vocab(TRAIN_TEXT[:200])
    path = tmp_path / "model.json"
    save_model(train_ngram(corpus, order=2, smoothing_alpha=0.5, vocab=vocab), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    _corrupt(doc, fault)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InputError, match="model.json"):
        load_model(path)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_ngram_rejects_non_finite_alpha(alpha):
    vocab = make_vocab(2)
    with pytest.raises(InputError, match="smoothing_alpha must be finite"):
        NGramModel(vocab, 1, alpha, {}, [1, 1, 0, 1])


class _RowModel(LanguageModel):
    """Plug-in model returning one fixed row, unchecked by construction."""

    def __init__(self, vocab, row) -> None:
        self.vocab = vocab
        self.row = np.asarray(row, dtype=np.float64)

    def distribution(self, ctx):
        return self.row


def test_next_distribution_rejects_a_nan_row():
    vocab = make_vocab(2)
    model = _RowModel(vocab, [math.nan, 0.5, 0.25, 0.25])
    with pytest.raises(InputError, match="mass"):
        next_distribution(model, (vocab.bos_id,))


def _demo_models():
    vocab, corpus = text_vocab(TRAIN_TEXT)
    target = train_ngram(corpus, order=3, smoothing_alpha=0.1, vocab=vocab)
    draft = distill_interpolate(
        target, train_ngram(corpus, order=1, smoothing_alpha=0.5, vocab=vocab), 0.5
    )
    return vocab, corpus, draft, target


def _distinct_rows(model) -> int:
    """How many distinct row objects ``model``'s table holds, after checking
    that each row filed under a context tail (a tuple of token ids) is the
    object filed under that tail's row key: one table entry per row key and
    per tail, one row object per key."""
    table = model._table
    for entry, row in table.items():
        if all(type(t) is int for t in entry):  # a blend's keys hold keys, not ids
            assert row is table.get(model._row_key(entry))
    return len({id(row) for row in table.values()})


def test_each_model_row_is_checked_exactly_once(monkeypatch):
    """Each distinct table row is checked once per model lifetime, on first
    use; a plug-in model's row is checked on every call."""
    checks = []

    def counting(probs, size=None):
        checks.append(size)
        validate_distribution(probs, size)

    monkeypatch.setattr(models, "validate_distribution", counting)
    monkeypatch.setattr(dists, "validate_distribution", counting)
    vocab, corpus, draft, target = _demo_models()
    prompt = (vocab.bos_id,) + corpus[:6]

    tokens, stats = speculative_decode(draft, target, prompt, 24, BranchPolicy(0.5, 3, 4, 8))
    assert stats.draft_calls > 0 and stats.target_contexts_scored > 0
    assert len(checks) == _distinct_rows(draft) + _distinct_rows(target)
    assert len(checks) < stats.draft_calls + stats.target_contexts_scored

    checks.clear()
    assert speculative_decode(draft, target, prompt, 24, BranchPolicy(0.5, 3, 4, 8))[0] == tokens
    assert checks == []

    vocab, corpus, draft, target = _demo_models()
    assert greedy_decode(target, prompt, 24) == tokens
    assert len(checks) == _distinct_rows(target) <= len(tokens)
    checks.clear()
    assert greedy_decode(target, prompt, 24) == tokens
    assert checks == []

    vocab, corpus, draft, target = _demo_models()
    probes = [(vocab.bos_id,) + corpus[i:i + 4] for i in range(0, 40, 8)]
    estimate_kl(draft, target, probes)
    assert len(checks) == _distinct_rows(draft) + _distinct_rows(target) <= 2 * len(probes)
    checks.clear()
    estimate_kl(draft, target, probes)
    assert checks == []

    plug_in = _RowModel(make_vocab(2), [0.25, 0.5, 0.0, 0.25])
    assert greedy_decode(plug_in, (plug_in.vocab.bos_id,), 5) == [1] * 5
    assert len(checks) == 5


def test_a_constant_model_checks_its_one_row_once(monkeypatch):
    checks = []

    def counting(probs, size=None):
        checks.append(size)
        validate_distribution(probs, size)

    vocab, corpus, _, target = _demo_models()
    monkeypatch.setattr(models, "validate_distribution", counting)
    monkeypatch.setattr(dists, "validate_distribution", counting)
    draft = ConstantModel(vocab, np.full(vocab.size, 1.0 / vocab.size))
    assert len(checks) == 1  # at construction
    prompt = (vocab.bos_id,) + corpus[:6]
    tokens, stats = speculative_decode(draft, target, prompt, 24, BranchPolicy.chain(4))
    assert tokens == greedy_decode(target, prompt, 24)
    assert stats.draft_calls > 1
    assert _distinct_rows(draft) == 1
    assert len(checks) == 1 + _distinct_rows(target)  # none of them the draft's


def test_a_tabled_model_without_a_window_raises():
    """A table probed by tail needs a window: without one, it would have no
    tail to cut, so building the table raises."""

    class Windowless(_CountsModel):
        def _row_key(self, ctx):
            return ctx

    with pytest.raises(TypeError):
        RowTable(Windowless(make_vocab(2)))


_OPTIMIZED_SCRIPT = """
import sys
import numpy as np
from specdec.decode import speculative_decode
from specdec.errors import InputError
from specdec.models import LanguageModel, Vocabulary
from specdec.tree import BranchPolicy

class TooLong(LanguageModel):
    def __init__(self, vocab):
        self.vocab = vocab
    def distribution(self, ctx):
        return np.array([1.0, 0.0, 0.0, 0.0, 0.0])  # one entry too many

vocab = Vocabulary(("a", "b", "<s>", "</s>"), bos_id=2, eos_id=3)
model = TooLong(vocab)
print("optimize", sys.flags.optimize)
try:
    print(speculative_decode(model, model, (2,), 4, BranchPolicy.chain(2)))
except InputError as exc:
    print("InputError:", exc)
"""


def test_row_check_runs_under_python_optimize():
    src = str(Path(specdec.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "optimize 1",
        "InputError: distribution has length 5, expected 4",
    ]


def _misshape(doc, fault):
    ctx, row = doc["contexts"][0]
    if fault == "count 1.7":
        row[0][1] = 1.7
    elif fault == "unigram count 1.7":
        doc["unigram"][0] = 1.7
    elif fault == "entry id 0.5":
        row[0][0] = 0.5
    elif fault == "context id 1.0":
        ctx[0] = 1.0
    elif fault == "order 2.5":
        doc["order"] = 2.5
    else:  # an order-2 key holds one id
        ctx.append(ctx[0])


@pytest.mark.parametrize(
    "fault",
    ["count 1.7", "unigram count 1.7", "entry id 0.5", "context id 1.0", "order 2.5",
     "key of length 2"],
)
def test_load_rejects_non_integer_or_misshapen_tables(tmp_path, fault):
    vocab, corpus = text_vocab(TRAIN_TEXT[:200])
    path = tmp_path / "model.json"
    save_model(train_ngram(corpus, order=2, smoothing_alpha=0.5, vocab=vocab), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    _misshape(doc, fault)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InputError, match="model.json"):
        load_model(path)


def test_load_rejects_a_count_beyond_int64_in_one_line(tmp_path):
    # The unigram counts become an int64 array, which 2**63 overflows.
    vocab, corpus = text_vocab(TRAIN_TEXT[:200])
    path = tmp_path / "model.json"
    save_model(train_ngram(corpus, order=2, smoothing_alpha=0.5, vocab=vocab), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["unigram"][0] = 2**63
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InputError, match="model.json") as caught:
        load_model(path)
    assert "\n" not in str(caught.value)


@pytest.mark.parametrize("key", [(), (0, 1)])
def test_ngram_rejects_a_context_key_of_the_wrong_length(key):
    vocab = make_vocab(2)
    with pytest.raises(InputError, match="order - 1 = 1"):
        NGramModel(vocab, 2, 0.5, {key: {0: 1}}, [1, 1, 0, 1])


@pytest.mark.parametrize("alpha", ["0.5", True])
def test_load_rejects_an_alpha_that_is_not_a_json_number(tmp_path, alpha):
    vocab, corpus = text_vocab(TRAIN_TEXT[:200])
    path = tmp_path / "model.json"
    save_model(train_ngram(corpus, order=2, smoothing_alpha=0.5, vocab=vocab), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["alpha"] = alpha
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InputError, match=r"model\.json.*expected a number"):
        load_model(path)


def test_load_rejects_vocabulary_tokens_that_are_not_strings(tmp_path):
    vocab, corpus = text_vocab(TRAIN_TEXT[:200])
    path = tmp_path / "model.json"
    save_model(train_ngram(corpus, order=2, smoothing_alpha=0.5, vocab=vocab), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["vocab"]["tokens"][:2] = [1, 2]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InputError, match=r"model\.json.*expected a string, got 1"):
        load_model(path)


def test_load_accepts_an_integer_alpha(tmp_path):
    vocab, corpus = text_vocab(TRAIN_TEXT[:200])
    path = tmp_path / "model.json"
    save_model(train_ngram(corpus, order=2, smoothing_alpha=1.0, vocab=vocab), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["alpha"] = 1
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_model(path).alpha == 1.0


class _CountsModel(LanguageModel):
    """Plug-in model returning a fresh Python list per call: small integer
    weights per context, so rows are full of ties and zeros."""

    def __init__(self, vocab) -> None:
        self.vocab = vocab

    def distribution(self, ctx):
        weights = [(sum(ctx) * 7 + 3 * t) % 4 // 2 for t in range(self.vocab.size)]
        weights[ctx[-1] % self.vocab.size] += 1
        total = sum(weights)
        return [w / total for w in weights]


def _served_models():
    vocab, corpus = text_vocab(TRAIN_TEXT)
    target = train_ngram(corpus, order=3, smoothing_alpha=0.1, vocab=vocab)
    base = train_ngram(corpus, order=1, smoothing_alpha=0.5, vocab=vocab)
    ties = np.zeros(vocab.size)
    ties[[0, 2, 3, 5]] = 0.25
    return vocab, {
        "ngram": target,
        "lam=0": distill_interpolate(target, base, 0.0),
        "lam=0.5": distill_interpolate(target, base, 0.5),
        "lam=1": distill_interpolate(target, base, 1.0),
        "constant": ConstantModel(vocab, ties),
        "list plug-in": _CountsModel(vocab),
    }


_SERVED_VOCAB, _SERVED = _served_models()


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(_SERVED)),
    tail=st.lists(st.integers(0, _SERVED_VOCAB.bos_id - 1), max_size=5),
)
def test_served_rows_carry_their_facts(name, tail):
    model = _SERVED[name]
    ctx = (_SERVED_VOCAB.bos_id, *tail)
    for _ in range(2):  # a table row is made on the first call, read on the second
        row = next_distribution(model, ctx)
        values = model.distribution(ctx)
        probs = np.array(row)
        assert np.array_equal(probs, values)
        for _ in range(2):  # worked out on the first read, kept for the second
            assert row.greedy_token == greedy_token(row) == int(np.asarray(values).argmax())
        assert row.entropy == entropy(probs)
        nonzero = int(np.count_nonzero(probs))
        fans = {}
        for width in range(1, _SERVED_VOCAB.size + 1):
            ids = tuple(top_tokens(probs, min(width, nonzero)))
            fans[width] = ids, tuple(math.log(probs[t]) for t in ids)
        assert fans[1][0] == (greedy_token(probs),)
        # Wider after narrower replaces the kept fan; narrower after wider
        # reads its prefix. A table row keeps its fan across the two calls.
        for widths in (fans, reversed(fans)):
            for width in widths:
                for _ in range(2):
                    assert row.fan(width) == fans[width]


def test_a_plug_in_base_does_not_grow_the_blend_table():
    vocab, corpus = text_vocab(TRAIN_TEXT)
    target = train_ngram(corpus, order=3, smoothing_alpha=0.1, vocab=vocab)
    draft = distill_interpolate(target, PermutedModel(target), 0.5)  # fresh arrays
    contexts = [(vocab.bos_id,) + corpus[i:i + 3] for i in range(100)]
    for i in range(10_000):
        next_distribution(draft, contexts[i % len(contexts)])
    assert draft._table is None
    for i in range(10_000):
        next_distribution(target, contexts[i % len(contexts)])
    assert 0 < _distinct_rows(target) <= len(target._context_counts) + 1  # one per distinct row

    # An endpoint blend serves the rows of the model it copies, from that
    # model's table: a unigram base has one row.
    base = train_ngram(corpus, order=1, smoothing_alpha=0.5, vocab=vocab)
    for i in range(1_000):
        next_distribution(distill_interpolate(target, base, 0.0), contexts[i % len(contexts)])
    assert _distinct_rows(base) == 1
    assert distill_interpolate(target, base, 1.0)._table is target._table


def _windowed_models():
    vocab, corpus = text_vocab(TRAIN_TEXT)
    ngrams = {order: train_ngram(corpus, order, 0.1, vocab) for order in (1, 2, 3, 4)}
    models = {f"order {order}": model for order, model in ngrams.items()}
    for lam in (0.0, 0.5, 1.0):
        # The larger window on the target side, then on the base side.
        models[f"4 over 2, lam={lam}"] = distill_interpolate(ngrams[4], ngrams[2], lam)
        models[f"2 over 3, lam={lam}"] = distill_interpolate(ngrams[2], ngrams[3], lam)
    models["constant"] = ConstantModel(vocab, np.full(vocab.size, 1.0 / vocab.size))
    return vocab, corpus, models


_WINDOWED_VOCAB, _WINDOWED_CORPUS, _WINDOWED = _windowed_models()


def _last(ctx, k):
    """The last ``k`` tokens of ``ctx``; all of it if it holds fewer."""
    return ctx[max(len(ctx) - k, 0):]


#: Tokens after BOS: seen suffixes (corpus text, near BOS when short) and
#: mostly unseen ones, BOS included.
_CONTEXT_TOKENS = st.one_of(
    st.integers(0, len(_WINDOWED_CORPUS) - 8).flatmap(
        lambda i: st.integers(0, 7).map(lambda n: _WINDOWED_CORPUS[i:i + n])),
    st.lists(st.integers(0, _WINDOWED_VOCAB.bos_id), max_size=7).map(tuple),
)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(_WINDOWED)), tokens=_CONTEXT_TOKENS)
def test_a_windowed_model_serves_the_same_row_for_its_tail(name, tokens):
    model = _WINDOWED[name]
    window = model.context_window
    full = (_WINDOWED_VOCAB.bos_id, *tokens)
    tail = _last(full, window)
    assert model._row_key(tail) == model._row_key(full)
    assert model.distribution(tail).tobytes() == model.distribution(full).tobytes()
    # next_distribution reads the last token, so a decode keeps at least one.
    row = next_distribution(model, _last(full, max(window, 1)))
    assert row.tobytes() == next_distribution(model, full).tobytes()


def test_models_declare_the_context_window_they_read():
    assert [_WINDOWED[f"order {k}"].context_window for k in (1, 2, 3, 4)] == [0, 1, 2, 3]
    assert [_WINDOWED[f"4 over 2, lam={lam}"].context_window for lam in (0.0, 0.5, 1.0)] == [
        1, 3, 3]
    assert [_WINDOWED[f"2 over 3, lam={lam}"].context_window for lam in (0.0, 0.5, 1.0)] == [
        2, 2, 1]
    assert _WINDOWED["constant"].context_window == 0
    # A plug-in reads the whole context unless it declares a window, and a
    # blend with a plug-in side does too, except at the other side's endpoint.
    ngram, plug_in = _WINDOWED["order 3"], PermutedModel(_WINDOWED["order 3"])
    assert plug_in.context_window is None
    for target, base in ((ngram, plug_in), (plug_in, ngram)):
        assert distill_interpolate(target, base, 0.5).context_window is None
    assert distill_interpolate(ngram, plug_in, 0.0).context_window is None
    assert distill_interpolate(ngram, plug_in, 1.0).context_window == 2
    plug_in.context_window = 2  # a plug-in may declare its window
    assert distill_interpolate(ngram, plug_in, 0.5).context_window == 2


@pytest.fixture(scope="module")
def order_2_file(tmp_path_factory):
    vocab, corpus = text_vocab(TRAIN_TEXT[:200])
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    save_model(train_ngram(corpus, order=2, smoothing_alpha=0.5, vocab=vocab), path)
    return path


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_load_model_survives_mutated_files(order_2_file, data):
    """Dropped keys, swapped types, out-of-range ids, NaN and integers beyond
    int64 load as a model or end in InputError or OSError, never in another
    exception."""
    doc = mutate_json(data, json.loads(order_2_file.read_text(encoding="utf-8")))
    path = order_2_file.with_name("mutated.json")
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        model = load_model(path)
    except (InputError, OSError):
        return
    assert isinstance(model, NGramModel)


_BLEND_SIDES = {
    order: train_ngram(_WINDOWED_CORPUS, order, 0.1, _WINDOWED_VOCAB) for order in range(1, 6)
}


@settings(max_examples=300, deadline=None)
@given(
    target_order=st.integers(1, 5),
    base_order=st.integers(1, 5),
    lam=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    contexts=st.lists(_CONTEXT_TOKENS, min_size=1, max_size=6),
)
def test_a_blend_tail_index_serves_the_row_its_table_holds(target_order, base_order, lam,
                                                           contexts):
    """A blend's table files each row under its key and under the context's
    last ``max(context_window, 1)`` tokens (all of a shorter context), and serves
    that one row object by either, so each distinct row is still checked
    once."""
    target, base = _BLEND_SIDES[target_order], _BLEND_SIDES[base_order]
    blend = distill_interpolate(target, base, lam)
    window = blend.context_window
    assert window == max(target_order, base_order) - 1
    assert blend._table == {}
    tails, keys = set(), set()
    for tokens in contexts:
        full = (_WINDOWED_VOCAB.bos_id, *tokens)
        tail, key = _last(full, max(window, 1)), blend._row_key(full)
        tails.add(tail)
        keys.add(key)
        # Either the whole context or the shortest one a decode passes, twice.
        for ctx in (full, _last(full, max(window, 1))) * 2:
            row = next_distribution(blend, ctx)
            assert row is blend._table.get(tail) is blend._table.get(key)
            fresh = distill_interpolate(target, base, lam)
            assert next_distribution(fresh, ctx).tobytes() == row.tobytes()
        assert blend.distribution(full).tobytes() == row.tobytes()
    assert set(blend._table) == tails | keys


#: Tabled models as specs a fresh model is built from: an n-gram of order
#: 1 to 5, a constant row, or a blend of two specs, endpoints included.
_TABLED_SPECS = st.recursive(
    st.one_of(st.integers(1, 5).map(lambda order: ("ngram", order)), st.just(("constant",))),
    lambda inner: st.tuples(
        st.just("blend"), inner, inner, st.sampled_from([0.0, 0.25, 0.5, 1.0])),
    max_leaves=4,
)


def _build_tabled(spec) -> LanguageModel:
    """A fresh model, tables empty, from a :data:`_TABLED_SPECS` spec."""
    vocab = _WINDOWED_VOCAB
    if spec[0] == "ngram":
        side = _BLEND_SIDES[spec[1]]
        return NGramModel(vocab, side.order, side.alpha, side._context_counts,
                          side._unigram_counts)
    if spec[0] == "constant":
        return ConstantModel(vocab, np.arange(1.0, vocab.size + 1) / sum(range(vocab.size + 1)))
    return distill_interpolate(_build_tabled(spec[1]), _build_tabled(spec[2]), spec[3])


@settings(max_examples=300, deadline=None)
@given(spec=_TABLED_SPECS, contexts=st.lists(_CONTEXT_TOKENS, min_size=1, max_size=6))
def test_a_tabled_model_serves_its_key_row_by_tail(spec, contexts):
    """N-grams, constants and blends of blends serve a context's row by its
    tail: the object filed under the context's row key, bit-identical to a
    fresh model's row, for contexts shorter than the window and unseen
    suffixes too. The table holds only keys and tails."""
    model = _build_tabled(spec)
    window = model.context_window
    entries = set()
    for tokens in contexts:
        full = (_WINDOWED_VOCAB.bos_id, *tokens)
        tail, key = _last(full, max(window, 1)), model._row_key(full)
        entries |= {tail, key}
        for ctx in (_last(full, max(window, 1)), full) * 2:
            row = next_distribution(model, ctx)
            assert row is model._table.get(tail) is model._table.get(key)
            assert row.tobytes() == next_distribution(_build_tabled(spec), ctx).tobytes()
    assert set(model._table) == entries


def test_only_rows_with_a_key_are_filed_under_their_tail():
    ngram, other = _BLEND_SIDES[3], _BLEND_SIDES[2]
    constant = _WINDOWED["constant"]
    # A plug-in that declares a window: a blend with it has one too.
    plug_in = PermutedModel(ngram)
    plug_in.context_window = ngram.context_window
    assert plug_in._table is None
    for lam, source in ((0.0, other), (1.0, ngram)):
        assert distill_interpolate(ngram, other, lam)._table is source._table
    assert distill_interpolate(ngram, plug_in, 1.0)._table is ngram._table
    assert distill_interpolate(ngram, plug_in, 0.0)._table is None
    for target, base in ((ngram, plug_in), (plug_in, ngram)):
        blend = distill_interpolate(target, base, 0.5)
        assert blend.context_window == ngram.context_window
        assert blend._table is None
        for i in range(20):
            ctx = (_WINDOWED_VOCAB.bos_id,) + _WINDOWED_CORPUS[i:i + 3]
            assert next_distribution(blend, ctx) is not next_distribution(blend, ctx)

    # A blend of tabled models files rows, at any depth; an endpoint of a
    # blend files into that blend's table; a blend with a plug-in anywhere
    # under it keeps no table.
    middle = distill_interpolate(ngram, constant, 0.5)
    assert distill_interpolate(middle, other, 1.0)._table is middle._table
    outer = distill_interpolate(middle, other, 0.5)
    untabled = distill_interpolate(distill_interpolate(ngram, plug_in, 0.5), other, 0.5)
    assert untabled._table is None
    ctx = (_WINDOWED_VOCAB.bos_id,) + _WINDOWED_CORPUS[:5]
    for model in (middle, outer, untabled):
        next_distribution(model, ctx)
    assert set(middle._table) == {ctx[-2:], middle._row_key(ctx)}
    assert set(outer._table) == {ctx[-2:], outer._row_key(ctx)}
    assert untabled._table is None


def _with_eos(corpus, vocab):
    """``corpus`` with an EOS after every full stop."""
    full_stop = vocab.encode(".")[0]
    return tuple(u for t in corpus for u in ((t, vocab.eos_id) if t == full_stop else (t,)))


#: N-grams trained on a corpus that holds EOS ids: some of their seen
#: suffixes end in EOS.
_EOS_SIDES = {
    order: train_ngram(_with_eos(_WINDOWED_CORPUS, _WINDOWED_VOCAB), order, 0.1, _WINDOWED_VOCAB)
    for order in range(1, 6)
}

#: :data:`_TABLED_SPECS` with an :data:`_EOS_SIDES` n-gram as a further leaf.
_ANY_TABLED_SPECS = st.recursive(
    st.one_of(st.integers(1, 5).map(lambda order: ("ngram", order)),
              st.integers(1, 5).map(lambda order: ("eos-ngram", order)),
              st.just(("constant",))),
    lambda inner: st.tuples(
        st.just("blend"), inner, inner, st.sampled_from([0.0, 0.25, 0.5, 1.0])),
    max_leaves=4,
)


def _build_any_tabled(spec) -> LanguageModel:
    """A fresh model, tables empty, from an :data:`_ANY_TABLED_SPECS` spec."""
    if spec[0] == "eos-ngram":
        side = _EOS_SIDES[spec[1]]
        return NGramModel(_WINDOWED_VOCAB, side.order, side.alpha, side._context_counts,
                          side._unigram_counts)
    if spec[0] == "blend":
        return distill_interpolate(_build_any_tabled(spec[1]), _build_any_tabled(spec[2]), spec[3])
    return _build_tabled(spec)


def _counted_misses(patch: pytest.MonkeyPatch) -> list:
    """The tails :meth:`RowTable.__missing__` is called with while ``patch``
    is active."""
    tails = []
    missing = RowTable.__missing__

    def counting(table, tail):
        tails.append(tail)
        return missing(table, tail)

    patch.setattr(RowTable, "__missing__", counting)
    return tails


_EOS_MESSAGE = "^context already ends in eos; nothing to predict$"


@settings(max_examples=300, deadline=None)
@given(spec=_ANY_TABLED_SPECS, contexts=st.lists(_CONTEXT_TOKENS, min_size=1, max_size=6))
def test_a_context_ending_in_eos_raises_on_a_cold_and_a_warm_table(spec, contexts):
    """A table tests EOS only on a miss, and no entry ends in EOS, so every
    read of a context ending in EOS raises: whole or cut to its tail,
    before and after the table holds its prefixes' rows."""
    model = _build_any_tabled(spec)
    eos, window = _WINDOWED_VOCAB.eos_id, max(model.context_window, 1)
    prefixes = [(_WINDOWED_VOCAB.bos_id, *tokens) for tokens in contexts]
    for warm in (False, True):
        for prefix in prefixes:
            for ctx in (prefix + (eos,), _last(prefix + (eos,), window)):
                with pytest.raises(InputError, match=_EOS_MESSAGE):
                    next_distribution(model, ctx)
        for prefix in prefixes:
            next_distribution(model, prefix)
            next_distribution(model, _last(prefix, window))
    assert len(model._table) > 0


@settings(max_examples=300, deadline=None)
@given(spec=_ANY_TABLED_SPECS, contexts=st.lists(_CONTEXT_TOKENS, min_size=1, max_size=6))
def test_no_table_key_ends_in_eos(spec, contexts):
    """Tails and keys alike: an n-gram trained on EOS ids has seen
    suffixes that end in EOS, but no context ending in EOS is filed."""
    model = _build_any_tabled(spec)
    eos = _WINDOWED_VOCAB.eos_id
    for tokens in contexts:
        ctx = (_WINDOWED_VOCAB.bos_id, *tokens)
        next_distribution(model, ctx)
        with pytest.raises(InputError, match=_EOS_MESSAGE):
            next_distribution(model, ctx + (eos,))
    assert model._table and not any(key and key[-1] == eos for key in model._table)


def test_an_eos_trained_ngram_has_suffixes_that_end_in_eos():
    eos = _WINDOWED_VOCAB.eos_id
    for order in range(2, 6):
        assert any(suffix[-1] == eos for suffix in _EOS_SIDES[order]._context_counts)


@settings(max_examples=300, deadline=None)
@given(spec=_ANY_TABLED_SPECS, contexts=st.lists(_CONTEXT_TOKENS, min_size=1, max_size=6))
def test_a_cold_read_misses_once_per_distinct_tail(spec, contexts):
    """Whole or cut to its tail, read twice, each context costs its table
    one miss the first time its tail is read and none after."""
    model = _build_any_tabled(spec)
    window = max(model.context_window, 1)
    with pytest.MonkeyPatch.context() as patch:
        misses = _counted_misses(patch)
        for tokens in contexts:
            full = (_WINDOWED_VOCAB.bos_id, *tokens)
            for ctx in (full, _last(full, window)) * 2:
                next_distribution(model, ctx)
    tails = [_last((_WINDOWED_VOCAB.bos_id, *tokens), window) for tokens in contexts]
    assert misses == list(dict.fromkeys(tails))


@settings(max_examples=60, deadline=None)
@given(draft=_ANY_TABLED_SPECS, target=_ANY_TABLED_SPECS, start=st.integers(0, 200),
       branch=st.sampled_from([1, 3]))
def test_a_decode_on_warm_tables_makes_no_miss(draft, target, start, branch):
    """Once a decode has filled its tables, the same decode and its greedy
    baseline read every row from them."""
    draft, target = _build_any_tabled(draft), _build_any_tabled(target)
    prompt = (_WINDOWED_VOCAB.bos_id, *_WINDOWED_CORPUS[start:start + 6])
    policy = BranchPolicy(0.5, branch, 4, 8)
    tokens, _ = speculative_decode(draft, target, prompt, 24, policy)
    with pytest.MonkeyPatch.context() as patch:
        misses = _counted_misses(patch)
        assert speculative_decode(draft, target, prompt, 24, policy)[0] == tokens
        assert greedy_decode(target, prompt, 24) == tokens
    assert misses == []
