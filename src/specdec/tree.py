"""Speculative token trees: entropy-adaptive, best-first budgeted expansion.

The draft model grows a tree of candidate continuations rooted at the
current decoding context. Per-node branching is all-or-nothing: a peaked
(low-entropy) draft distribution proposes a single child, an uncertain one
fans out to the top ``max_branch`` tokens. Proposed children are attached
best-first by cumulative draft log-probability until the tree holds a
global budget of ``n`` nodes, and only attached nodes are queried for
children of their own. The result is the ``n`` best nodes of the full
entropy-gated tree; since a child never outranks its parent, every kept
node's root path is kept too, as verification needs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .dists import entropy
from .errors import InputError
from .models import Context, LanguageModel, Vocabulary, next_distribution

ROOT_ID = 0


@dataclass(frozen=True)
class SpecNode:
    """One speculative token. The root carries ``token=None`` and stands for
    the decoding context itself."""

    id: int
    token: int | None
    parent: int  # -1 for the root
    depth: int
    draft_prob: float
    cum_logprob: float


@dataclass(frozen=True)
class BranchPolicy:
    """Knobs for tree construction.

    entropy_threshold: nats; below it a node extends top-1, at or above it
        the top ``max_branch`` tokens are expanded. ``math.inf`` (or
        ``max_branch=1``) degenerates to classic chain speculation.
    node_budget: global cap on non-root nodes in a tree.
    """

    entropy_threshold: float
    max_branch: int
    max_depth: int
    node_budget: int

    def __post_init__(self) -> None:
        if not self.entropy_threshold >= 0:  # NaN fails this test too
            raise InputError(f"entropy_threshold must be >= 0, got {self.entropy_threshold}")
        if self.max_branch < 1:
            raise InputError(f"max_branch must be >= 1, got {self.max_branch}")
        if self.max_depth < 1:
            raise InputError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.node_budget < 1:
            raise InputError(f"node_budget must be >= 1, got {self.node_budget}")
        if self.max_branch > self.node_budget:
            raise InputError(
                f"max_branch={self.max_branch} exceeds node_budget={self.node_budget}"
            )

    @classmethod
    def chain(cls, depth: int) -> "BranchPolicy":
        """Single-path policy: the linear speculative decoding special case."""
        return cls(entropy_threshold=math.inf, max_branch=1, max_depth=depth, node_budget=depth)


class SpecTree:
    """Rooted tree of speculative tokens with cumulative draft log-probs.

    Nodes keep their creation ids across pruning. Children lists keep
    creation order, which :func:`expand_tree` sorts into the draft's rank
    order (most probable first, ties to the lower token id).
    ``draft_queries`` records how many draft distribution calls expansion
    consumed, for cost accounting.
    """

    def __init__(self, context) -> None:
        self.context: Context = tuple(int(t) for t in context)
        root = SpecNode(ROOT_ID, None, -1, 0, 1.0, 0.0)
        self.nodes: dict[int, SpecNode] = {ROOT_ID: root}
        self.children: dict[int, list[int]] = {ROOT_ID: []}
        self.draft_queries = 0
        self._next_id = 1

    @property
    def root(self) -> SpecNode:
        return self.nodes[ROOT_ID]

    @property
    def non_root_count(self) -> int:
        return len(self.nodes) - 1

    def add_child(self, parent_id: int, token: int, draft_prob: float) -> int:
        """Attach a new node; returns its id."""
        parent = self.nodes.get(parent_id)
        if parent is None:
            raise InputError(f"parent id {parent_id} not in tree")
        if not 0.0 < draft_prob <= 1.0:
            raise InputError(f"draft_prob must be in (0, 1], got {draft_prob}")
        for sib in self.children[parent_id]:
            if self.nodes[sib].token == token:
                raise InputError(f"parent {parent_id} already has a child with token {token}")
        node = SpecNode(
            id=self._next_id,
            token=int(token),
            parent=parent_id,
            depth=parent.depth + 1,
            draft_prob=float(draft_prob),
            cum_logprob=parent.cum_logprob + math.log(draft_prob),
        )
        self.nodes[node.id] = node
        self.children[node.id] = []
        self.children[parent_id].append(node.id)
        self._next_id += 1
        return node.id

    def path_tokens(self, node_id: int) -> tuple[int, ...]:
        """Tokens along the root path down to ``node_id`` (root excluded)."""
        rev: list[int] = []
        node = self.nodes[node_id]
        while node.parent != -1:
            rev.append(node.token)  # type: ignore[arg-type]
            node = self.nodes[node.parent]
        return tuple(reversed(rev))

    def _replace_nodes(self, keep: set[int]) -> "SpecTree":
        """New tree containing the root plus ``keep``, ids/order preserved."""
        out = SpecTree(self.context)
        out.draft_queries = self.draft_queries
        out._next_id = self._next_id
        out.nodes = {ROOT_ID: self.root}
        out.children = {ROOT_ID: []}
        for nid in sorted(keep):
            out.nodes[nid] = self.nodes[nid]
            out.children[nid] = []
        for nid in sorted(keep):
            out.children[self.nodes[nid].parent].append(nid)
        return out

    def validate(self) -> None:
        """Check structural invariants; raises InputError on violation."""
        if self.root.parent != -1 or self.root.depth != 0 or self.root.cum_logprob != 0.0:
            raise InputError("malformed root")
        for nid, node in self.nodes.items():
            if nid == ROOT_ID:
                continue
            parent = self.nodes.get(node.parent)
            if parent is None:
                raise InputError(f"node {nid} has missing parent {node.parent}")
            if node.depth != parent.depth + 1:
                raise InputError(f"node {nid} depth {node.depth} != parent depth + 1")
            expected = parent.cum_logprob + math.log(node.draft_prob)
            if abs(node.cum_logprob - expected) > 1e-12:
                raise InputError(f"node {nid} cum_logprob incoherent")
        for pid, kids in self.children.items():
            tokens = [self.nodes[k].token for k in kids]
            if len(set(tokens)) != len(tokens):
                raise InputError(f"node {pid} has duplicate child tokens")


def branch_width(dist, policy: BranchPolicy) -> int:
    """1 below the entropy threshold, else ``max_branch``; never more than
    the number of nonzero-probability tokens."""
    arr = np.asarray(dist, dtype=np.float64)
    width = 1 if entropy(arr) < policy.entropy_threshold else policy.max_branch
    return min(width, int(np.count_nonzero(arr)))


def top_tokens(dist, k: int) -> list[int]:
    """The k highest-probability token ids; ties break to the lowest id."""
    arr = np.asarray(dist, dtype=np.float64)
    # Stable sort of -p keeps equal probabilities in ascending-id order.
    order = np.argsort(-arr, kind="stable")
    return [int(t) for t in order[:k]]


def expand_tree(draft: LanguageModel, ctx, policy: BranchPolicy) -> SpecTree:
    """Grow a speculative tree best-first until it holds ``policy.node_budget``
    nodes or no proposal is left.

    The draft is queried on (context + root path) at the root and at each
    attached node; branch width follows the draft's entropy there. Proposed
    children wait on a heap in :func:`_rank_key` order and the best one is
    attached next. EOS nodes and nodes at ``policy.max_depth`` are kept but
    never queried, so a verified EOS can end decoding. At most
    ``node_budget`` draft queries are made.

    The result equals pruning the full breadth-first expansion to the
    budget: a child never outranks its parent, so the ``n`` best nodes
    always include their ancestors and pop off the heap in rank order. The
    sibling-rank path stands in for the breadth-first creation id that
    breaks the last ties in :func:`_rank_key`, since at equal depth the two
    orders agree.
    """
    tree = SpecTree(ctx)
    eos = draft.vocab.eos_id
    heap: list = []

    def propose(node_id: int, node_ctx: Context, path: tuple[int, ...]) -> None:
        node = tree.nodes[node_id]
        dist = next_distribution(draft, node_ctx)
        tree.draft_queries += 1
        for r, token in enumerate(top_tokens(dist, branch_width(dist, policy))):
            p = float(dist[token])
            key = (-(node.cum_logprob + math.log(p)), node.depth + 1, token, path + (r,))
            heapq.heappush(heap, (key, node_id, p, node_ctx + (token,)))

    propose(ROOT_ID, tree.context, ())
    while heap and tree.non_root_count < policy.node_budget:
        (_, depth, token, path), parent_id, p, node_ctx = heapq.heappop(heap)
        child = tree.add_child(parent_id, token, p)
        if tree.non_root_count < policy.node_budget and token != eos and depth < policy.max_depth:
            propose(child, node_ctx, path)
    for kids in tree.children.values():
        kids.sort(key=lambda c: (-tree.nodes[c].draft_prob, tree.nodes[c].token))
    return tree


def _rank_key(node: SpecNode) -> tuple[float, int, int, int]:
    # Highest cumulative log-prob first; ties: smaller depth, lower token id,
    # then creation id for full determinism.
    return (-node.cum_logprob, node.depth, node.token or 0, node.id)


def prune_tree(tree: SpecTree, n: int) -> SpecTree:
    """Keep the n best non-root nodes by cumulative draft log-probability.

    A tree that already fits is returned as it is. Every tree built with
    :meth:`SpecTree.add_child` keeps its ancestors when cut this way: a
    child's log-probability never exceeds its parent's, and equal scores
    rank the shallower node first. The result is a connected subtree that
    contains the top-ranked node; the operation is idempotent.
    """
    if n < 1:
        raise InputError(f"prune budget must be >= 1, got {n}")
    if tree.non_root_count <= n:
        return tree
    ranked = sorted(
        (node for nid, node in tree.nodes.items() if nid != ROOT_ID), key=_rank_key
    )
    return tree._replace_nodes({node.id for node in ranked[:n]})


def render_tree(tree: SpecTree, vocab: Vocabulary) -> str:
    """Deterministic one-node-per-line dump for golden-file tests.

    Depth-first, children in list order; two spaces of
    indent per depth; token strings are repr-escaped.
    """
    lines = ["<root>"]

    def walk(node_id: int, depth: int) -> None:
        for child_id in tree.children[node_id]:
            node = tree.nodes[child_id]
            lines.append(
                "{}{} p={:.6f} lp={:.6f}".format(
                    "  " * (depth + 1),
                    repr(vocab.string(node.token)),  # type: ignore[arg-type]
                    node.draft_prob,
                    node.cum_logprob,
                )
            )
            walk(child_id, depth + 1)

    walk(ROOT_ID, 0)
    return "\n".join(lines) + "\n"
