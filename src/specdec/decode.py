"""The verification walk and the lossless speculative decode loop.

The contract that makes acceleration lossless: starting at the tree root,
compute the target's greedy token for the current root-path context; if a
child carries exactly that token, accept it and descend, otherwise stop and
emit the target's own token as a bonus. Every emission is therefore a token
the target would have produced greedily on its own, so the concatenated
output is bit-identical to plain greedy decoding; the tree shape only
changes how many target passes that output costs.
"""

from __future__ import annotations

from typing import NamedTuple

from .dists import greedy_token
from .errors import InputError
from .metrics import DecodeStats
from .models import LanguageModel, next_distribution, validate_context
from .tree import BranchPolicy, ROOT_ID, SpecPath, SpecTree, expand_tree, prune_tree


class VerificationResult(NamedTuple):
    """Outcome of verifying one speculative tree, an immutable named tuple.

    bonus_token is the target's greedy token at the stopping node, or None
    when the accepted path ended in EOS (no context remains to predict
    from). nodes_scored counts the distinct root-path contexts the target
    evaluated during the walk.
    """

    accepted_tokens: tuple[int, ...]
    bonus_token: int | None
    nodes_scored: int


#: Makes a VerificationResult from a tuple of its fields without the Python
#: frame of the named tuple's own constructor.
_new_result = tuple.__new__


def _window(*models: LanguageModel) -> int | None:
    """The trailing context tokens a decode must keep for ``models``: the
    largest ``context_window``, at least 1 because next_distribution reads
    the last token, or None if any model reads the whole context."""
    windows = [model.context_window for model in models]
    return None if None in windows else max(1, *windows)


def greedy_decode(target: LanguageModel, prompt, max_tokens: int) -> list[int]:
    """Baseline: append the target's argmax token until EOS or max_tokens.

    This is the ground truth every speculative run must reproduce exactly.
    A target with a ``context_window`` is queried on the context's last
    tokens only, so a step's cost does not grow with the output.
    """
    if max_tokens < 1:
        raise InputError(f"max_tokens must be >= 1, got {max_tokens}")
    eos = target.vocab.eos_id
    window = _window(target)
    ctx = validate_context(target.vocab, prompt)
    out: list[int] = []
    while len(out) < max_tokens:
        if window is not None:
            ctx = ctx[-window:]
        tok = greedy_token(next_distribution(target, ctx))
        out.append(tok)
        if tok == eos:
            break
        ctx += (tok,)
    return out


def verify_tree(target: LanguageModel, tree: SpecTree) -> VerificationResult:
    """Walk the tree root-down, accepting children that match the target's
    greedy token at each step.

    Equivalent to scoring the whole tree in one batched pass and then
    walking the matches; the sequential walk is the observable contract.
    An accepted EOS terminates the walk without a bonus token. A
    :class:`~specdec.tree.SpecPath` is walked along its tokens, with no
    nodes or child lists.
    """
    eos = target.vocab.eos_id
    ctx = validate_context(target.vocab, tree.context)
    scored = 0
    if type(tree) is SpecPath:
        tokens = tree.tokens
        for token in tokens:
            want = greedy_token(next_distribution(target, ctx))
            scored += 1
            if want != token:
                return _new_result(VerificationResult, (tokens[:scored - 1], want, scored))
            if token == eos:  # only ever a path's last token
                return _new_result(VerificationResult, (tokens, None, scored))
            ctx += (want,)
        want = greedy_token(next_distribution(target, ctx))
        return _new_result(VerificationResult, (tokens, want, scored + 1))
    nodes, children = tree.nodes, tree.children
    node_id = ROOT_ID
    accepted: tuple[int, ...] = ()
    while True:
        dist = next_distribution(target, ctx)
        scored += 1
        want = greedy_token(dist)
        match = None
        for child_id in children[node_id]:
            if nodes[child_id].token == want:
                match = child_id
                break
        if match is None:
            return _new_result(VerificationResult, (accepted, want, scored))
        accepted += (want,)
        if want == eos:
            return _new_result(VerificationResult, (accepted, None, scored))
        node_id = match
        ctx += (want,)


def speculative_decode(
    draft: LanguageModel,
    target: LanguageModel,
    prompt,
    max_tokens: int,
    policy: BranchPolicy,
) -> tuple[list[int], DecodeStats]:
    """Full draft-and-verify loop: expand, prune, verify, emit, repeat.

    Emits accepted tokens plus the bonus each cycle, stopping at EOS or at
    exactly max_tokens (the final cycle's emission is truncated to fit).
    The returned tokens are bit-identical to ``greedy_decode(target,
    prompt, max_tokens)`` for every policy; only the stats vary. The prompt
    is walked by :func:`validate_context` once per decode, not per cycle.
    When both models declare a ``context_window``, the loop keeps only the
    context's last ``max(draft window, target window, 1)`` tokens, so trees
    and verification see that tail plus their path and a cycle's cost does
    not grow with the output.
    """
    if draft.vocab != target.vocab:
        raise InputError("draft and target must share a vocabulary")
    if max_tokens < 1:
        raise InputError(f"max_tokens must be >= 1, got {max_tokens}")

    eos = target.vocab.eos_id
    window = _window(draft, target)
    # Checked once here and cut to the window: each cycle extends it with
    # the target's own tokens and stops at EOS, so expand_tree and
    # verify_tree take it unwalked.
    ctx = validate_context(target.vocab, prompt).extended((), window)
    out: list[int] = []
    budget = policy.node_budget
    draft_calls = scored = tree_nodes = 0
    per_cycle: list[int] = []

    while len(out) < max_tokens:
        tree = expand_tree(draft, ctx, policy)
        draft_calls += tree.draft_queries
        tree = prune_tree(tree, budget)
        accepted, bonus, nodes_scored = verify_tree(target, tree)

        emitted = accepted if bonus is None else accepted + (bonus,)
        emitted = emitted[: max_tokens - len(out)]
        out.extend(emitted)

        scored += nodes_scored
        tree_nodes += tree.non_root_count
        per_cycle.append(len(emitted))
        if eos in emitted:
            break
        ctx = ctx.extended(emitted, window)
    stats = DecodeStats(
        cycles=len(per_cycle),
        emitted_tokens=len(out),
        target_contexts_scored=scored,
        draft_calls=draft_calls,
        tree_nodes=tree_nodes,
        per_cycle_acceptance=per_cycle,
    )
    return out, stats
