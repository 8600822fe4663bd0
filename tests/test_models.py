"""Unit tests for vocabularies, n-gram training, interpolation, persistence."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specdec
import specdec.dists as dists
import specdec.models as models
from specdec.decode import greedy_decode, speculative_decode
from specdec.dists import kl_divergence, validate_distribution
from specdec.errors import InputError
from specdec.metrics import estimate_kl
from specdec.models import (
    BOS_STRING,
    EOS_STRING,
    ConstantModel,
    LanguageModel,
    NGramModel,
    Vocabulary,
    distill_interpolate,
    load_model,
    next_distribution,
    save_model,
    train_ngram,
    validate_context,
)
from specdec.tree import BranchPolicy

from conftest import TRAIN_TEXT, make_vocab, text_vocab


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
    bad.write_text("not json at all", encoding="utf-8")
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
        doc["alpha"] = math.nan if fault == "alpha nan" else math.inf


@pytest.mark.parametrize(
    "fault",
    ["context id >= size", "entry id >= size", "entry id -1", "count -1", "alpha nan",
     "alpha inf"],
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


def test_each_model_row_is_checked_exactly_once(monkeypatch):
    vocab, corpus = text_vocab(TRAIN_TEXT)
    target = train_ngram(corpus, order=3, smoothing_alpha=0.1, vocab=vocab)
    draft = distill_interpolate(
        target, train_ngram(corpus, order=1, smoothing_alpha=0.5, vocab=vocab), 0.5
    )
    checks = []

    def counting(probs, size=None):
        checks.append(size)
        validate_distribution(probs, size)

    monkeypatch.setattr(models, "validate_distribution", counting)
    monkeypatch.setattr(dists, "validate_distribution", counting)
    prompt = (vocab.bos_id,) + corpus[:6]

    tokens, stats = speculative_decode(draft, target, prompt, 24, BranchPolicy(0.5, 3, 4, 8))
    assert stats.draft_calls > 0 and stats.target_contexts_scored > 0
    assert len(checks) == stats.draft_calls + stats.target_contexts_scored

    checks.clear()
    assert greedy_decode(target, prompt, 24) == tokens
    assert len(checks) == len(tokens)

    checks.clear()
    probes = [(vocab.bos_id,) + corpus[i:i + 4] for i in range(0, 40, 8)]
    estimate_kl(draft, target, probes)
    assert len(checks) == 2 * len(probes)


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


@pytest.mark.parametrize("key", [(), (0, 1)])
def test_ngram_rejects_a_context_key_of_the_wrong_length(key):
    vocab = make_vocab(2)
    with pytest.raises(InputError, match="order - 1 = 1"):
        NGramModel(vocab, 2, 0.5, {key: {0: 1}}, [1, 1, 0, 1])
