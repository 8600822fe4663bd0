"""Speculative token trees: entropy-adaptive, best-first budgeted expansion.

The draft model grows a tree of candidate continuations rooted at the
current decoding context. Per-node branching is all-or-nothing: a peaked
(low-entropy) draft distribution proposes a single child, an uncertain one
fans out to the top ``max_branch`` tokens. Proposed children are attached
best-first until the tree holds a global budget of ``n`` nodes, and only
attached nodes are queried for children of their own. Nodes rank by
cumulative draft log-probability, or, when the policy carries a per-rank
acceptance vector, by expected acceptance, and then a node attaches only
while it pays for its draft call. The result is the ``n`` best nodes of the
full entropy-gated tree; since a child never outranks its parent, every
kept node's root path is kept too, as verification needs. Every tree, a
chain included, is kept flat: its tokens, their parents and the draft rows
they came from, in attach order (:class:`SpecTree`).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

# Unused here; kept because perfbench traces entropy under this module's name.
from .dists import entropy
from .errors import InputError
from .metrics import CostModel, predicted_speedup
from .models import (Context, LanguageModel, Vocabulary, _CheckedContext, next_distribution,
                     validate_context)

ROOT_ID = 0


class SpecNode(NamedTuple):
    """One speculative token, an immutable named tuple. The root carries
    ``token=None`` and stands for the decoding context itself."""

    id: int
    token: int | None
    parent: int  # -1 for the root
    depth: int
    draft_prob: float
    cum_logprob: float


#: The root every tree starts from; nodes are immutable, so trees share it.
_ROOT = SpecNode(ROOT_ID, None, -1, 0, 1.0, 0.0)

#: Makes an empty SpecTree without the Python frame of its ``__init__``.
_new_tree = object.__new__


@dataclass(frozen=True)
class BranchPolicy:
    """Knobs for tree construction.

    entropy_threshold: nats, finite; below it a node extends top-1, at or
        above it the top ``max_branch`` tokens are expanded.
        ``max_branch=1`` gives a ``fan_width`` of 1: chain speculation.
    node_budget: global cap on non-root nodes in a tree.
    acceptance: optional per-rank acceptance vector, as
        :func:`~specdec.metrics.estimate_acceptance` measures it: entry r is
        the rate at which verification accepts a node that is rank r of its
        parent's proposal fan. At least ``max_branch`` rates, each in
        (0, 1], non-increasing. With it, :func:`expand_tree` ranks a node by
        its expected acceptance, the product of the rates along its root
        path, and attaches it only while that reaches ``floor``. Without it
        (the default), nodes rank by cumulative draft log-probability and
        the budget is the only stop.
    cost: the :class:`~specdec.metrics.CostModel` the floor is derived
        from; given exactly when ``acceptance`` is.

    Derived once, never set:

    floor: ``draft_cost * S``, where S is the best
        :func:`~specdec.metrics.predicted_speedup` that a chain of depth
        1 to ``max_depth`` reaches under the vector: depth d costs d draft
        calls and emits ``1 + r0 + r0**2 + ... + r0**d`` tokens a cycle. A
        node pays for its draft call when its expected acceptance exceeds
        ``draft_cost`` times the speedup it serves. 0 without a vector.
    log_rates, log_floor: ``math.log`` of the rates and of the floor, which
        expansion compares with sums of log rates; None and ``-inf``
        without a vector.
    fan_width: the widest fan expansion reads: the number of leading ranks,
        at most ``max_branch``, whose log rate reaches ``log_floor``, the
        comparison expansion makes. A node's score never exceeds its rate's
        log, so a later rank could never attach. ``max_branch`` without a
        vector. At most 1, the policy drafts a chain.
    path_depth: how deep a chain policy drafts: the number of leading
        depths, up to ``min(node_budget, max_depth)``, whose score, the sum
        of ``log_rates[0]`` down to them, reaches ``log_floor``. The scores
        are summed one depth at a time, the float additions a per-query
        walk would make, for at most ``_WALK_LIMIT`` depths.
        ``min(node_budget, max_depth)`` without a vector, with a floor of 0
        or with a rank-0 rate of 1.
    """

    entropy_threshold: float
    max_branch: int
    max_depth: int
    node_budget: int
    acceptance: tuple[float, ...] | None = None
    cost: CostModel | None = None
    floor: float = field(init=False, repr=False, compare=False)
    log_rates: tuple[float, ...] | None = field(init=False, repr=False, compare=False)
    log_floor: float = field(init=False, repr=False, compare=False)
    fan_width: int = field(init=False, repr=False, compare=False)
    path_depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.entropy_threshold < math.inf:  # NaN fails this test too
            raise InputError(
                f"entropy_threshold must be finite and >= 0, got {self.entropy_threshold}"
            )
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
        limit = min(self.node_budget, self.max_depth)
        derived = {"floor": 0.0, "log_rates": None, "log_floor": -math.inf,
                   "fan_width": self.max_branch, "path_depth": limit}
        if (self.acceptance is None) != (self.cost is None):
            raise InputError("an acceptance vector and a cost model come together")
        if self.acceptance is not None:
            rates = tuple(map(float, self.acceptance))
            if len(rates) < self.max_branch:
                raise InputError(
                    f"acceptance has {len(rates)} rates, fewer than max_branch={self.max_branch}"
                )
            if not all(0.0 < r <= 1.0 for r in rates):  # NaN fails this test too
                raise InputError(f"acceptance rates must lie in (0, 1], got {rates}")
            if any(a < b for a, b in zip(rates, rates[1:])):
                raise InputError(f"acceptance rates must be non-increasing, got {rates}")
            floor = _chain_floor(rates[0], self.cost, self.max_depth)
            log_rates = tuple(map(math.log, rates))
            log_floor = math.log(floor) if floor > 0 else -math.inf
            fan_width = 0
            while fan_width < self.max_branch and log_rates[fan_width] >= log_floor:
                fan_width += 1
            # No finite sum falls below a floor of -inf: every depth is drafted.
            path_depth = limit if log_floor == -math.inf else 0
            score = 0.0
            while path_depth < min(limit, _WALK_LIMIT):
                score += log_rates[0]
                if score < log_floor:
                    break
                # A score of 0 (a rate of 1) never falls: every depth passes.
                path_depth = limit if score == 0.0 else path_depth + 1
            derived = {
                "acceptance": rates,
                "floor": floor,
                "log_rates": log_rates,
                "log_floor": log_floor,
                "fan_width": fan_width,
                "path_depth": path_depth,
            }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def chain(cls, depth: int) -> "BranchPolicy":
        """Single-path policy: the linear speculative decoding special case.
        With ``max_branch=1`` the threshold is never read."""
        return cls(0.0, 1, depth, depth)


#: The most depths either walk of :class:`BranchPolicy` takes.
_WALK_LIMIT = 2**20


def _chain_floor(rate: float, cost: CostModel, max_depth: int) -> float:
    """``draft_cost`` times the best predicted speedup of a chain of depth 1
    to ``max_depth`` whose every node is accepted at ``rate``; 0 for a free
    draft call. Gamma is concave in the depth and the cost linear, so the
    walk ends where the speedup first falls, or after ``_WALK_LIMIT``
    depths. At a rate of exactly 1, which :func:`~specdec.metrics.estimate_acceptance`
    never returns, the speedup is monotone: the best depth is 1 or ``max_depth``."""
    if not cost.draft_cost:
        return 0.0
    if rate == 1.0:
        return cost.draft_cost * max(predicted_speedup(2.0, cost, 1),
                                     predicted_speedup(max_depth + 1.0, cost, max_depth))
    gamma = reach = 1.0
    best = 0.0
    for depth in range(1, min(max_depth, _WALK_LIMIT) + 1):
        reach *= rate
        gamma += reach
        speedup = predicted_speedup(gamma, cost, depth)
        if speedup < best:
            break
        best = speedup
    return cost.draft_cost * best


class SpecTree:
    """Rooted tree of speculative tokens, kept flat in attach order.

    Node ``i`` (1, 2, ...; the root is :data:`ROOT_ID`, 0) is position
    ``i - 1`` of three parallel sequences: ``tokens``, ``parents`` (parent
    ids) and ``rows`` (the draft row each token came from, read only as
    ``row[token]``). A parent comes before its children, so a walk from the
    root never looks back. :func:`expand_tree` attaches a parent's children
    in the draft's rank order, equal scores following the rank path, never
    the token id; a chain's ``parents`` is ``range(n)``. A cut
    (:func:`prune_tree`) keeps every position and gives a dropped node the
    parent ``-1``, which no walk reaches. ``non_root_count`` counts the kept
    nodes, ``draft_queries`` the draft calls expansion consumed.

    ``nodes`` maps each kept id, the root first, to its :class:`SpecNode`
    (depth, draft probability and cumulative log-prob derived root-down),
    and ``children`` each kept id to its child ids in attach order, ``[]``
    for a leaf. Each read builds a fresh dict in one pass over the
    sequences, a snapshot that later attachments leave as it was, so a
    caller reading many nodes should hold one. :func:`render_tree`, cuts
    and tests read them; decoding never does.

    ``context`` is the context the root stands for, and a node's context is
    it plus the node's root path. In a tree that ``speculative_decode``
    builds for models that declare a ``context_window``, it is only the
    decoding context's last tokens, enough for both models' windows, so it
    need not start at BOS.
    Its fields are slots: :func:`expand_tree` fills a bare instance, with
    no ``__init__`` frame; the constructor makes hand-built trees and cuts.
    """

    __slots__ = ("context", "tokens", "parents", "rows", "draft_queries", "non_root_count")

    def __init__(self, context, tokens=(), parents=(), rows=(), draft_queries: int = 0) -> None:
        # A tuple is kept as given, so a context validate_context accepted
        # keeps its type and verify_tree need not walk it again.
        self.context: Context = context if isinstance(context, tuple) else tuple(context)
        self.tokens: Sequence[int] = tokens
        self.parents: Sequence[int] = parents
        self.rows: Sequence = rows
        self.draft_queries = draft_queries
        self.non_root_count = len(tokens)

    @property
    def nodes(self) -> dict[int, SpecNode]:
        # A parent comes before its children; a dropped node's parent is -1.
        nodes = {ROOT_ID: _ROOT}
        for nid, (token, parent, row) in enumerate(zip(self.tokens, self.parents, self.rows), 1):
            if parent != -1:
                up = nodes[parent]
                prob = float(row[token])
                nodes[nid] = SpecNode(nid, token, parent, up.depth + 1, prob,
                                      up.cum_logprob + math.log(prob))
        return nodes

    @property
    def children(self) -> dict[int, list[int]]:
        children: dict[int, list[int]] = {ROOT_ID: []}
        for nid, parent in enumerate(self.parents, 1):
            if parent != -1:
                children[parent].append(nid)
                children[nid] = []
        return children


def expand_tree(draft: LanguageModel, ctx, policy: BranchPolicy) -> SpecTree:
    """Grow a speculative tree best-first until it holds ``policy.node_budget``
    nodes or no proposal is left; with an acceptance vector, a proposal
    that would not pay for itself is never made.

    The draft is queried on (context + root path) at the root and at each
    attached node; branch width follows the draft's entropy there, and the
    proposals are the row's kept fan for that width (:meth:`Row.fan
    <specdec.dists.Row.fan>`), never wider than ``policy.fan_width``, the
    ranks that can clear the floor; a threshold of 0 reads no entropy. EOS
    nodes and nodes at ``max_depth`` are kept but never queried, so a
    verified EOS can end decoding. At most ``node_budget`` draft queries
    are made. Attaching a node appends its token, parent id and row to the
    tree's sequences. ``ctx`` is walked unless :func:`validate_context`
    accepted it for this very vocabulary object. A chain policy
    (``fan_width <= 1``) is drafted with no heap, each row's greedy token
    attached at once, for at most ``policy.path_depth`` queries: every rule
    below but EOS is fixed by the policy. On warm tables expansion calls
    only ``next_distribution``, plus ``Row.fan`` per query on a tree.

    A node's *score* is what it ranks by: its cumulative draft log-prob, or
    with ``policy.acceptance`` the sum of ``policy.log_rates`` over the fan
    ranks on its root path, the log of its expected acceptance. With a
    vector a node attaches only if its score is at least
    ``policy.log_floor``, and a node, the root included, is queried only if
    its rank 0 child would reach the floor; a later rank is pushed only if
    it does. Without a vector the floor is ``-inf``.

    Proposals wait on a heap, best score first, one per queried node. A
    query makes an immutable *cursor* ``(ids, keys, score, parent, row,
    node_ctx)`` (the fan and its rank scores, the node's score, id, row and
    context) and hands its rank 0 to ``heapq.heappushpop``, which returns it
    untouched when it is the best proposal left; with no query due, the
    heap's best is popped. An entry is ``(-score, depth, code, cursor)``: a
    path code is ``parent_code * max_branch + rank``, so its rank is ``code
    % max_branch`` and its token ``ids[rank]``. Attaching a node pushes its
    next sibling, ``code + 1``. Codes are unique per depth, so entries never
    compare cursors, and ordered like the draft's rank paths, so siblings
    attach in rank order and equal scores follow the draft's ranking,
    never the token id. The result equals pruning the full breadth-first
    expansion to the budget, and with a vector to the floor, by score with
    :func:`_rank_key`'s tiebreaks: a child never outranks its parent, so
    the ``n`` best nodes include their ancestors and pop off the heap in
    that order.
    """
    if type(ctx) is not _CheckedContext or ctx.vocab is not draft.vocab:
        ctx = validate_context(draft.vocab, ctx)
    eos = draft.vocab.eos_id
    tokens, rows = [], []
    add_token, add_row = tokens.append, rows.append
    if policy.fan_width <= 1:
        node_ctx = ctx
        for _ in range(policy.path_depth):
            row = next_distribution(draft, node_ctx)
            token = row.greedy_token
            add_token(token)
            add_row(row)
            if token == eos:
                break
            node_ctx += (token,)
        parents, queries = range(len(tokens)), len(tokens)
    else:
        parents = []
        add_parent = parents.append
        threshold, fan_width = policy.entropy_threshold, policy.fan_width
        max_branch, budget, max_depth = policy.max_branch, policy.node_budget, policy.max_depth
        # With a vector, a node is queried only if its rank 0 would reach the
        # floor, and a later rank is pushed only if it does.
        rates, neg_floor = policy.log_rates, -policy.log_floor
        heap: list = []
        push, pushpop, pop = heapq.heappush, heapq.heappushpop, heapq.heappop
        # The node to query, the parent of its proposals: its id, depth,
        # score, context and path code; starts at the root.
        query, parent, depth, score, node_ctx, code = True, ROOT_ID, 0, 0.0, ctx, 0
        queries = count = 0
        while True:
            if query and (not rates or -(score + rates[0]) <= neg_floor):
                row = next_distribution(draft, node_ctx)
                queries += 1
                # One token below the entropy threshold, else the policy's
                # widest fan; the row's ranked ids with their log-probs.
                ids, keys = row.fan(1 if threshold and row.entropy < threshold else fan_width)
                if rates:
                    keys = rates
                cursor = (ids, keys, score, parent, row, node_ctx)
                entry = pushpop(heap, (-(score + keys[0]), depth + 1, code * max_branch, cursor))
            elif heap:
                entry = pop(heap)
            else:
                break
            neg_key, depth, code, cursor = entry
            ids, keys, score, parent, row, node_ctx = cursor
            rank = code % max_branch
            token = ids[rank]
            # Fan ids of a checked row are distinct and in range: the node
            # needs no checks.
            count += 1
            add_token(token)
            add_parent(parent)
            add_row(row)
            if count == budget:
                break
            if rank + 1 < len(ids):
                neg_next = -(score + keys[rank + 1])
                if neg_next <= neg_floor:
                    push(heap, (neg_next, depth, code + 1, cursor))
            query = token != eos and depth < max_depth
            if query:
                parent, score, node_ctx = count, -neg_key, node_ctx + (token,)
    tree = _new_tree(SpecTree)
    tree.context, tree.tokens, tree.parents, tree.rows = ctx, tokens, parents, rows
    tree.draft_queries, tree.non_root_count = queries, len(tokens)
    return tree


def _rank_key(node: SpecNode) -> tuple[float, int, int]:
    # Highest cumulative log-prob first; ties: smaller depth, then creation
    # id, which in a breadth-first tree is the draft's rank order.
    return (-node.cum_logprob, node.depth, node.id)


def prune_tree(tree: SpecTree, n: int) -> SpecTree:
    """Keep the n best non-root nodes by cumulative draft log-probability.

    A tree that already fits is returned as it is. Equal scores rank the
    shallower node first, then the lower id: in a tree built breadth-first
    in each parent's rank order, ids at one depth follow the draft's rank
    paths. (A tree expanded with an acceptance vector ranked its nodes by
    expected acceptance, so a cut of it need not keep its first nodes.) A
    child's log-probability never exceeds its parent's, so the result is a
    connected subtree holding the top-ranked node. It keeps every position
    and id, and each dropped node's parent becomes ``-1``. Idempotent.
    """
    if n < 1:
        raise InputError(f"prune budget must be >= 1, got {n}")
    if tree.non_root_count <= n:
        return tree
    ranked = sorted(tree.nodes.values(), key=_rank_key)[1:]  # the root ranks first
    keep = {node.id for node in ranked[:n]}
    parents = [parent if nid in keep else -1 for nid, parent in enumerate(tree.parents, 1)]
    cut = SpecTree(tree.context, tree.tokens, parents, tree.rows, tree.draft_queries)
    cut.non_root_count = n
    return cut


def render_tree(tree: SpecTree, vocab: Vocabulary) -> str:
    """Deterministic one-node-per-line dump for golden-file tests.

    Depth-first, children in attach order; two spaces of indent per depth;
    token strings are repr-escaped. The walk keeps its own stack, so a
    tree of any depth renders.
    """
    nodes, children = tree.nodes, tree.children
    lines = ["<root>"]
    stack = children[ROOT_ID][::-1]
    while stack:
        node = nodes[stack.pop()]
        lines.append(
            "{}{} p={:.6f} lp={:.6f}".format(
                "  " * node.depth,
                repr(vocab.string(node.token)),  # type: ignore[arg-type]
                node.draft_prob,
                node.cum_logprob,
            )
        )
        stack += children[node.id][::-1]
    return "\n".join(lines) + "\n"
