"""Shared test fixtures: deterministic random models and tiny vocabularies."""

from __future__ import annotations

import math
import os
import zlib
from collections import deque

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from specdec.dists import EPSILON_FLOOR, entropy
from specdec.errors import InputError
from specdec.models import (
    BOS_STRING,
    EOS_STRING,
    LanguageModel,
    Vocabulary,
    next_distribution,
)
from specdec.tree import ROOT_ID, SpecTree

_CRITERION_RESULTS: dict[str, bool] = {}

# Property tests explore afresh on each run by default. The "derandomized"
# profile draws the same examples every run and keeps no example database,
# so a run's verdicts repeat: ``HYPOTHESIS_PROFILE=derandomized`` selects it.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(label): tags a test as one acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    label = marker.args[0]
    passed = report.passed and _CRITERION_RESULTS.get(label, True)
    _CRITERION_RESULTS[label] = passed


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label in sorted(_CRITERION_RESULTS, key=lambda s: int(s.split(":")[0])):
        status = "PASS" if _CRITERION_RESULTS[label] else "FAIL"
        terminalreporter.write_line(f"[criterion {label}] {status}")


def make_vocab(n_chars: int) -> Vocabulary:
    """Vocabulary of the first n_chars lowercase letters plus bos/eos."""
    chars = tuple("abcdefghijklmnopqrstuvwxyz"[:n_chars])
    return Vocabulary(
        tokens=chars + (BOS_STRING, EOS_STRING),
        bos_id=n_chars,
        eos_id=n_chars + 1,
    )


def one_hot(size: int, index: int) -> np.ndarray:
    row = np.zeros(size, dtype=np.float64)
    row[index] = 1.0
    return row


class RandomTableModel(LanguageModel):
    """Deterministic pseudo-random distribution per context.

    Each context hashes to an RNG seed; the row is a Dirichlet draw, so the
    same (seed, context) always yields the identical distribution without
    storing a table up front.
    """

    def __init__(self, vocab: Vocabulary, seed: int, concentration: float = 0.6):
        self.vocab = vocab
        self.seed = seed
        self.concentration = concentration
        self._cache: dict[tuple[int, ...], np.ndarray] = {}

    def distribution(self, ctx) -> np.ndarray:
        key = tuple(ctx)
        row = self._cache.get(key)
        if row is None:
            digest = zlib.crc32(repr((self.seed, key)).encode("utf-8"))
            rng = np.random.default_rng(digest)
            row = rng.dirichlet(np.full(self.vocab.size, self.concentration))
            row = row / row.sum()
            row.flags.writeable = False
            self._cache[key] = row
        return row


class PermutedModel(LanguageModel):
    """Cyclic shift of another model's rows; the argmax always moves."""

    def __init__(self, base: LanguageModel):
        self.vocab = base.vocab
        self.base = base

    def distribution(self, ctx) -> np.ndarray:
        row = np.roll(self.base.distribution(ctx), 1)
        row.flags.writeable = False
        return row


class TableModel(LanguageModel):
    """Explicit context -> row mapping with a fallback row."""

    def __init__(self, vocab: Vocabulary, rows: dict, fallback: np.ndarray):
        self.vocab = vocab
        self.rows = {k: np.asarray(v, dtype=np.float64) for k, v in rows.items()}
        self.fallback = np.asarray(fallback, dtype=np.float64)

    def distribution(self, ctx) -> np.ndarray:
        return self.rows.get(tuple(ctx), self.fallback)


def add_child(tree: SpecTree, parent_id: int, token: int, draft_prob: float) -> int:
    """Attach a checked node to ``tree`` and return its id, the next
    position of its flat sequences. Its row is ``{token: draft_prob}``."""
    if parent_id not in tree.nodes:
        raise InputError(f"parent id {parent_id} not in tree")
    if not 0.0 < draft_prob <= 1.0:
        raise InputError(f"draft_prob must be in (0, 1], got {draft_prob}")
    if (token, parent_id) in zip(tree.tokens, tree.parents):
        raise InputError(f"parent {parent_id} already has a child with token {token}")
    tree.tokens = [*tree.tokens, int(token)]
    tree.parents = [*tree.parents, parent_id]
    tree.rows = [*tree.rows, {int(token): float(draft_prob)}]
    tree.non_root_count += 1
    return len(tree.tokens)


def path_tokens(tree: SpecTree, node_id: int) -> tuple[int, ...]:
    """Tokens along the root path down to ``node_id`` (root excluded)."""
    rev: list[int] = []
    node = tree.nodes[node_id]
    while node.parent != -1:
        rev.append(node.token)
        node = tree.nodes[node.parent]
    return tuple(reversed(rev))


def check_tree(tree: SpecTree) -> None:
    """Check a tree's structural invariants; raises InputError on violation."""
    root = tree.nodes[ROOT_ID]
    if root.parent != -1 or root.depth != 0 or root.cum_logprob != 0.0:
        raise InputError("malformed root")
    for nid, node in tree.nodes.items():
        if nid == ROOT_ID:
            continue
        parent = tree.nodes.get(node.parent)
        if parent is None:
            raise InputError(f"node {nid} has missing parent {node.parent}")
        if node.depth != parent.depth + 1:
            raise InputError(f"node {nid} depth {node.depth} != parent depth + 1")
        expected = parent.cum_logprob + math.log(node.draft_prob)
        if abs(node.cum_logprob - expected) > 1e-12:
            raise InputError(f"node {nid} cum_logprob incoherent")
    for pid, kids in tree.children.items():
        tokens = [tree.nodes[k].token for k in kids]
        if len(set(tokens)) != len(tokens):
            raise InputError(f"node {pid} has duplicate child tokens")


def branch_width(dist: np.ndarray, policy) -> int:
    """1 below the entropy threshold, else ``max_branch``; never more than
    the number of nonzero-probability tokens."""
    width = 1 if entropy(dist) < policy.entropy_threshold else policy.max_branch
    return min(width, int(np.count_nonzero(dist)))


def top_tokens(dist: np.ndarray, k: int) -> list[int]:
    """The k highest-probability token ids; ties break to the lowest id."""
    # Stable sort of -p keeps equal probabilities in ascending-id order.
    order = np.argsort(-dist, kind="stable")
    return [int(t) for t in order[:k]]


class OracleTree(SpecTree):
    """A SpecTree with an instance dict, where the reference expansion keeps
    its per-node scores and the ids it queried; SpecTree itself has slots."""


def full_expand(draft: LanguageModel, ctx, policy) -> SpecTree:
    """Reference expansion: query the draft at every frontier node,
    breadth-first, up to ``policy.max_depth``, ignoring the node budget.

    ``tree.scores`` maps each node to what it ranks by: its cumulative draft
    log-probability, or, with ``policy.acceptance``, the sum of the logs of
    the rates of the fan ranks on its root path. With a vector, a node (the
    root included) is queried only if its score plus the log of rank 0's
    rate reaches ``log(policy.floor)``; ``tree.queried`` holds the ids
    queried. ``best_nodes(full_expand(...), policy)`` is the tree that
    budgeted best-first expansion must build.
    """
    tree = OracleTree(ctx)
    eos = draft.vocab.eos_id
    rates = policy.acceptance
    log_rates = None if rates is None else [math.log(r) for r in rates]
    tree.log_floor = math.log(policy.floor) if policy.floor > 0 else -math.inf
    tree.scores = {ROOT_ID: 0.0}
    tree.queried = set()
    frontier = deque([(ROOT_ID, tree.context)])
    while frontier:
        node_id, node_ctx = frontier.popleft()
        node, score = tree.nodes[node_id], tree.scores[node_id]
        if node.depth >= policy.max_depth or node.token == eos:
            continue
        if log_rates is not None and score + log_rates[0] < tree.log_floor:
            continue
        dist = next_distribution(draft, node_ctx)
        tree.draft_queries += 1
        tree.queried.add(node_id)
        for rank, token in enumerate(top_tokens(dist, branch_width(dist, policy))):
            child = add_child(tree, node_id, token, float(dist[token]))
            tree.scores[child] = (
                tree.nodes[child].cum_logprob if log_rates is None else score + log_rates[rank]
            )
            frontier.append((child, node_ctx + (token,)))
    return tree


def best_nodes(full: SpecTree, policy) -> SpecTree:
    """The tree best-first expansion must build, cut from ``full =
    full_expand(...)``: the nodes whose score reaches the floor, then the
    ``policy.node_budget`` best of them by (-score, depth, creation id), as
    :func:`prune_tree` ranks by cumulative log-probability. At one depth
    the breadth-first creation ids follow the draft's rank paths.

    Its ``draft_queries`` is what that expansion spends: one query for each
    of the root and the kept nodes that ``full`` queried, except a last
    node that filled the budget, since expansion stops there.
    """
    scores = full.scores
    ranked = sorted(
        (node for nid, node in full.nodes.items()
         if nid != ROOT_ID and scores[nid] >= full.log_floor),
        key=lambda node: (-scores[node.id], node.depth, node.id),
    )[:policy.node_budget]
    keep = {node.id for node in ranked}
    kept = SpecTree(full.context, full.tokens,
                    [p if nid in keep else -1 for nid, p in enumerate(full.parents, 1)], full.rows)
    kept.non_root_count = len(keep)
    queried = [nid for nid in (ROOT_ID, *(node.id for node in ranked)) if nid in full.queried]
    filled = len(ranked) == policy.node_budget and ranked[-1].id in full.queried
    kept.draft_queries = len(queried) - filled
    return kept


def reference_kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q') of two checked rows as one vector at a time, the
    reference :func:`specdec.dists.kl_rows` must equal bit for bit: 0 for
    equal rows, else the sum over p's nonzero entries, clamped at 0."""
    if np.array_equal(p, q):
        return 0.0
    q_floor = (q + EPSILON_FLOOR) / (1.0 + EPSILON_FLOOR * q.size)
    mask = p > 0.0
    return max(0.0, float(np.sum(p[mask] * np.log(p[mask] / q_floor[mask]))))


def reference_ngram_counts(corpus, order: int, size: int):
    """The (context counts, unigram counts) that :func:`specdec.models.train_ngram`
    must build, counted one token at a time with the same checks and
    messages. Contexts and their tokens are filed in first-occurrence order."""
    tokens = [int(t) for t in corpus]
    if not tokens:
        raise InputError("corpus is empty")
    if order < 1:
        raise InputError(f"order must be >= 1, got {order}")
    if len(tokens) < order:
        raise InputError(f"corpus of length {len(tokens)} cannot train order-{order} model")
    for t in tokens:
        if not 0 <= t < size:
            raise InputError(f"corpus token {t} out of range for vocabulary size {size}")
    unigram = [0] * size
    for t in tokens:
        unigram[t] += 1
    context_counts: dict[tuple[int, ...], dict[int, int]] = {}
    width = order - 1
    for i in range(width, len(tokens)):
        ctx = tuple(tokens[i - width:i])
        row = context_counts.setdefault(ctx, {})
        row[tokens[i]] = row.get(tokens[i], 0) + 1
    return context_counts, unigram


TRAIN_TEXT = (
    "the cat sat on the mat and the dog sat on the rug. "
    "the cat saw the dog and the dog saw the cat. "
    "the sun rose over the hill and the cat sat in the sun. "
    "the dog ran to the hill and the cat ran to the mat. "
    "the man saw the cat on the mat and the man sat on the rug. "
    "the rain fell on the hill and the dog slept on the rug. "
    "the cat slept on the mat and the man slept in the sun. "
    "the dog saw the rain and ran to the rug in the sun. "
) * 3


def text_vocab(text: str) -> tuple[Vocabulary, tuple[int, ...]]:
    """Character vocabulary in first-occurrence order plus the encoded text."""
    chars = tuple(dict.fromkeys(text))
    vocab = Vocabulary(
        tokens=chars + (BOS_STRING, EOS_STRING),
        bos_id=len(chars),
        eos_id=len(chars) + 1,
    )
    return vocab, vocab.encode(text)


def _json_paths(value, prefix=()):
    """Every position in a JSON document, as a key/index path from the root."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


#: What each kind of mutation puts in place of a position; "drop" deletes it.
_MUTATIONS = {
    "swap type": st.one_of(st.sampled_from([None, True, "0.5", 0.5, [], {}]),
                           st.integers(), st.text(max_size=3)),
    "out of range": st.sampled_from([-1, 40, 10**6]),
    "not finite": st.sampled_from([math.nan, math.inf, -math.inf]),
    "beyond int64": st.sampled_from([2**63, 10**400, -(2**70)]),
}


def mutate_json(data, doc):
    """``doc`` after one to three mutations drawn from hypothesis ``data``:
    a dropped key or item, a swapped type, an out-of-range or non-finite
    number, or an integer beyond int64, at any position."""
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = list(_json_paths(doc))
        if isinstance(doc, dict):
            # Each top-level key is as likely as any other, however many
            # positions lie under it; () mutates the whole document.
            top = data.draw(st.sampled_from([(), *((key,) for key in doc)]), label="key")
            paths = [p for p in paths if p[:1] == top]
        where = data.draw(st.sampled_from(paths), label="path")
        kind = data.draw(st.sampled_from(["drop", *_MUTATIONS]), label="kind")
        value = None if kind == "drop" else data.draw(_MUTATIONS[kind], label="value")
        if not where:
            doc = value
            continue
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        if kind == "drop":
            del parent[where[-1]]
        else:
            parent[where[-1]] = value
    return doc
