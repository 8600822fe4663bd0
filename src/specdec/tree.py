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
kept node's root path is kept too, as verification needs. A chain policy's
tree is one path, drafted and kept as its tokens alone (:class:`SpecPath`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .dists import Row
# Unused here; kept because perfbench traces entropy under this module's name.
from .dists import entropy
from .errors import InputError
from .metrics import CostModel, predicted_speedup
from .models import Context, LanguageModel, Vocabulary, next_distribution, validate_context

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

#: Makes a SpecNode from a tuple of its fields without the Python frame of
#: the named tuple's own constructor.
_new_node = tuple.__new__


@dataclass(frozen=True)
class BranchPolicy:
    """Knobs for tree construction.

    entropy_threshold: nats; below it a node extends top-1, at or above it
        the top ``max_branch`` tokens are expanded. ``math.inf`` (or
        ``max_branch=1``, or a ``fan_width`` of at most 1) degenerates to
        classic chain speculation.
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
        derived = {
            "floor": 0.0, "log_rates": None, "log_floor": -math.inf, "fan_width": self.max_branch,
        }
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
            floor = self.cost.draft_cost * _best_chain_speedup(rates[0], self.cost, self.max_depth)
            log_rates = tuple(map(math.log, rates))
            log_floor = math.log(floor) if floor > 0 else -math.inf
            fan_width = 0
            while fan_width < self.max_branch and log_rates[fan_width] >= log_floor:
                fan_width += 1
            derived = {
                "acceptance": rates,
                "floor": floor,
                "log_rates": log_rates,
                "log_floor": log_floor,
                "fan_width": fan_width,
            }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def chain(cls, depth: int) -> "BranchPolicy":
        """Single-path policy: the linear speculative decoding special case."""
        return cls(entropy_threshold=math.inf, max_branch=1, max_depth=depth, node_budget=depth)


def _best_chain_speedup(rate: float, cost: CostModel, max_depth: int) -> float:
    """The best predicted speedup of a chain of depth 1 to ``max_depth``
    whose every node is accepted at ``rate``."""
    gamma = reach = 1.0
    best = 0.0
    for depth in range(1, max_depth + 1):
        reach *= rate
        gamma += reach
        best = max(best, predicted_speedup(gamma, cost, depth))
    return best


class SpecTree:
    """Rooted tree of speculative tokens with cumulative draft log-probs.

    Node ids are unique within one tree: :func:`expand_tree` files them
    1, 2, ... in attach order, and pruning keeps them. Children lists keep
    attach order, which in a tree :func:`expand_tree` builds is the draft's
    rank order (most probable first, ties to the lower token id).
    ``draft_queries`` records how many draft distribution calls expansion
    consumed, for cost accounting. A chain policy's tree is a
    :class:`SpecPath`, which keeps only its tokens and builds these dicts
    when they are read.

    ``context`` is the context the root stands for, and a node's context is
    it plus the node's root path. In a tree that ``speculative_decode``
    builds for models that declare a ``context_window``, it is only the
    decoding context's last tokens, enough for both models' windows, so it
    need not start at BOS.
    """

    def __init__(self, context) -> None:
        # A tuple is kept as given, so a context validate_context accepted
        # keeps its type and verify_tree need not walk it again.
        self.context: Context = context if isinstance(context, tuple) else tuple(context)
        self.nodes: dict[int, SpecNode] = {ROOT_ID: _ROOT}
        self.children: dict[int, list[int]] = {ROOT_ID: []}
        self.draft_queries = 0

    @property
    def non_root_count(self) -> int:
        return len(self.nodes) - 1

    def _replace_nodes(self, keep: set[int]) -> "SpecTree":
        """New tree containing the root plus ``keep``, ids/order preserved."""
        out = SpecTree(self.context)
        out.draft_queries = self.draft_queries
        out.nodes = {ROOT_ID: self.nodes[ROOT_ID]}
        out.children = {ROOT_ID: []}
        for nid in sorted(keep):
            out.nodes[nid] = self.nodes[nid]
            out.children[nid] = []
        for nid in sorted(keep):
            out.children[self.nodes[nid].parent].append(nid)
        return out


class SpecPath(SpecTree):
    """The tree of a chain policy, kept as its path: only what verification
    reads.

    ``tokens`` holds the drafted tokens root-down, as a tuple; only the
    last one may be EOS. ``rows`` holds the draft row each was drafted
    from. Each token is rank 0 of one draft query, so ``draft_queries`` is
    their number. The ``nodes`` and ``children`` of the equal
    :class:`SpecTree`, with ids 1, 2, ... down the path, draft probabilities
    read from the rows and cumulative log-probs summed root-down, are built
    on first read (by :func:`render_tree`, by a :func:`prune_tree` that
    cuts, or by a test) and then kept.
    """

    __slots__ = ("context", "tokens", "rows", "_nodes", "_children")

    def __init__(self, context: Context, tokens: tuple[int, ...], rows: list[Row]) -> None:
        self.context = context
        self.tokens = tokens
        self.rows = rows
        self._nodes: dict[int, SpecNode] | None = None

    @property
    def draft_queries(self) -> int:
        return len(self.tokens)

    @property
    def non_root_count(self) -> int:
        return len(self.tokens)

    @property
    def nodes(self) -> dict[int, SpecNode]:
        if self._nodes is None:
            self._build()
        return self._nodes

    @property
    def children(self) -> dict[int, list[int]]:
        if self._nodes is None:
            self._build()
        return self._children

    def _build(self) -> None:
        nodes = {ROOT_ID: _ROOT}
        cum = 0.0
        for depth, (token, row) in enumerate(zip(self.tokens, self.rows), 1):
            prob = row.item(token)
            cum += math.log(prob)
            nodes[depth] = SpecNode(depth, token, depth - 1, depth, prob, cum)
        self._children = {nid: [nid + 1] for nid in range(len(self.tokens))}
        self._children[len(self.tokens)] = []
        self._nodes = nodes


def expand_tree(draft: LanguageModel, ctx, policy: BranchPolicy) -> SpecTree:
    """Grow a speculative tree best-first until it holds ``policy.node_budget``
    nodes or no proposal is left; with an acceptance vector, a proposal
    that would not pay for itself is never made.

    The draft is queried on (context + root path) at the root and at each
    attached node; branch width follows the draft's entropy there, and the
    proposals are the row's kept fan for that width (:meth:`Row.fan
    <specdec.dists.Row.fan>`): the ranked ids and their log-probabilities,
    read once per row, not once per proposal. A fan is never wider than
    ``policy.fan_width``, the ranks that can clear the floor. A chain
    policy (``fan_width <= 1`` or an infinite threshold) has width 1
    whatever the entropy: its tree is drafted as a :class:`SpecPath` by a
    short loop that reads neither the entropy nor a fan, only each row's
    greedy token, and keeps every rule below. Proposals wait on a heap,
    best score first, and the best one is attached next; only an attached
    node reads its draft probability. EOS nodes and nodes at
    ``policy.max_depth`` are kept but never queried, so a verified EOS can
    end decoding. At most ``node_budget`` draft queries are made. A node's
    own context is built only when the node is queried.

    A node's *score* is what it ranks by: its cumulative draft log-prob
    without a vector, or with ``policy.acceptance`` the sum of
    ``policy.log_rates`` over the fan ranks on its root path, the log of
    its expected acceptance. Its ``cum_logprob`` is the draft log-prob
    either way, filed when the node attaches: the score without a vector,
    its parent's ``cum_logprob`` plus the log of its draft probability with
    one. With a vector two rules make the tree draft only what pays: a node
    attaches only if its score is at least ``policy.log_floor``, and a
    node, the root included, is queried only if its best child, rank 0,
    would reach the floor, which the rate of rank 0 tells before the draft
    call. So rank 0 of a query always clears the floor, and a later rank is
    pushed only if it does; the ranks after one that fails never can, and
    are never pushed. Without a vector the floor is ``-inf`` and neither
    rule costs a comparison per node.

    It is one loop, and the heap holds a node's next proposal, not its whole
    fan. A query whose fan is one token wide and whose proposal sorts
    before the heap's best (or meets an empty heap) attaches that token at
    once, with no heap entry. Any other query
    makes one *cursor* for the queried node: its fan ids and their number,
    the scores of the fan's ranks, the node's score, id, row and context,
    the base of its children's path codes and its next unpushed rank. It
    hands rank 0 to ``heapq.heappushpop``, which returns it without
    touching the heap when it is the best proposal left. Attaching a node
    pushes the next rank of its parent's cursor, so each cursor has at most
    one entry on the heap. Nodes are filed into the tree directly, with ids
    1, 2, ... in attach order.

    Heap entries sort by ``(-score, depth, code)``, where a node's path
    code is ``parent_code * max_branch + rank``: fans are at most
    ``max_branch`` wide, so at one depth codes order like the draft's rank
    paths, and like the creation ids of the full breadth-first expansion.
    Codes are unique per depth, so the token and the cursor never take part
    in a comparison. A sibling's key is never below the key of the one
    ranked above it, since fan log-probs and rates are both non-increasing,
    and its code is higher; so siblings attach in rank order, and equal
    scores follow the draft's own ranking, never the token id.

    The result equals pruning the full breadth-first expansion to the
    budget, by score and, with a vector, to the floor, with
    :func:`_rank_key`'s tiebreaks: a child never outranks its parent, so
    the ``n`` best nodes always include their ancestors and pop off the
    heap in that order.
    """
    ctx = validate_context(draft.vocab, ctx)
    threshold, fan_width = policy.entropy_threshold, policy.fan_width
    if fan_width <= 1 or threshold == math.inf:
        return _expand_path(draft, ctx, policy)
    tree = SpecTree(ctx)
    nodes, children = tree.nodes, tree.children
    eos = draft.vocab.eos_id
    max_branch, budget, max_depth = policy.max_branch, policy.node_budget, policy.max_depth
    # With a vector, a node is queried only if its rank 0 would reach the
    # floor, and a later rank is pushed only if it does.
    rates, neg_floor = policy.log_rates, -policy.log_floor
    heap: list = []
    push, pushpop, pop, log = heapq.heappush, heapq.heappushpop, heapq.heappop, math.log
    # The node to query, the parent of its proposals: its id, depth, score,
    # context and path code; starts at the root.
    query, parent, depth, score, node_ctx, code = True, ROOT_ID, 0, 0.0, tree.context, 0
    queries = count = 0
    while True:
        if query and (not rates or -(score + rates[0]) <= neg_floor):
            row = next_distribution(draft, node_ctx)
            queries += 1
            # One token below the entropy threshold, else the policy's
            # widest fan; the row's ranked ids with their log-probs.
            ids, keys = row.fan(1 if row.entropy < threshold else fan_width)
            if rates:
                keys = rates
            width = len(ids)
            depth += 1
            code *= max_branch
            neg_key, token = -(score + keys[0]), ids[0]
            if width == 1 and (not heap or (neg_key, depth, code) < heap[0]):
                rank = 1  # the queried node's only child; no sibling to push
            else:
                # The cursor: fan ids, width and rank scores, the node's
                # score, id, row and context, its children's code base and
                # the next unpushed rank.
                cursor = [ids, width, keys, score, parent, row, node_ctx, code, 1]
                neg_key, depth, code, token, cursor = pushpop(
                    heap, (neg_key, depth, code, token, cursor))
                ids, width, keys, score, parent, row, node_ctx, base, rank = cursor
        elif heap:
            neg_key, depth, code, token, cursor = pop(heap)
            ids, width, keys, score, parent, row, node_ctx, base, rank = cursor
        else:
            break
        # Fan ids of a checked row are distinct and in range, and the key
        # holds the child's score, which is its cumulative log-prob when
        # there is no vector: the node needs no checks.
        count += 1
        prob = row.item(token)
        nodes[count] = _new_node(SpecNode, (
            count, token, parent, depth, prob,
            nodes[parent][5] + log(prob) if rates else -neg_key,
        ))
        children[count] = []
        children[parent].append(count)
        if count == budget:
            break
        if rank < width:
            neg_next = -(score + keys[rank])
            if neg_next <= neg_floor:
                push(heap, (neg_next, depth, base + rank, ids[rank], cursor))
                cursor[8] = rank + 1
        query = token != eos and depth < max_depth
        if query:
            parent, score, node_ctx = count, -neg_key, node_ctx + (token,)
    tree.draft_queries = queries
    return tree


def _expand_path(draft: LanguageModel, ctx: Context, policy: BranchPolicy) -> SpecPath:
    """:func:`expand_tree` for a chain policy: each query's one proposal is
    its row's greedy token, the fan of width 1, attached at once.

    The heap loop's rules hold as they are: an EOS node and a node at
    ``max_depth`` are not queried, nor is any node once the path holds
    ``node_budget`` nodes. With an acceptance vector a node's score is
    ``log_rates[0]`` added once per depth, as the heap loop sums it, and a
    node is queried only if its child's score would reach ``log_floor``:
    the query rule, which for rank 0 is the floor as well.
    """
    eos = draft.vocab.eos_id
    rate, log_floor = policy.log_rates[0] if policy.log_rates else 0.0, policy.log_floor
    tokens: tuple[int, ...] = ()
    rows: list[Row] = []
    node_ctx, score = ctx, 0.0
    for _ in range(min(policy.node_budget, policy.max_depth)):
        score += rate
        if score < log_floor:
            break
        row = next_distribution(draft, node_ctx)
        token = row.greedy_token
        tokens += (token,)
        rows.append(row)
        if token == eos:
            break
        node_ctx += (token,)
    return SpecPath(ctx, tokens, rows)


def _rank_key(node: SpecNode) -> tuple[float, int, int]:
    # Highest cumulative log-prob first; ties: smaller depth, then creation
    # id, which in a breadth-first tree is the draft's rank order.
    return (-node.cum_logprob, node.depth, node.id)


def prune_tree(tree: SpecTree, n: int) -> SpecTree:
    """Keep the n best non-root nodes by cumulative draft log-probability.

    A tree that already fits is returned as it is. Equal scores rank the
    shallower node first, then the lower id: in a tree built breadth-first
    in each parent's rank order, ids at one depth follow the draft's rank
    paths, the order :func:`expand_tree` attaches in. Every tree whose
    nodes carry coherent cumulative log-probabilities keeps its ancestors
    when cut this way, since a child's log-probability never exceeds its
    parent's. The result is a connected subtree that contains the
    top-ranked node; the operation is idempotent. A :class:`SpecPath` cut
    this way keeps its first ``n`` nodes, as a :class:`SpecTree`.
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
