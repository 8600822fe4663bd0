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

# Unused here (rows carry their greedy token); perfbench traces it by this name.
from .dists import greedy_token
from .errors import InputError
from .metrics import DecodeStats
from .models import (LanguageModel, _CheckedContext, _new_context, next_distribution,
                     validate_context)
from .tree import BranchPolicy, ROOT_ID, SpecTree, expand_tree, prune_tree


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
        tok = next_distribution(target, ctx).greedy_token
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
    An accepted EOS terminates the walk without a bonus token. The walk is
    one forward scan of the tree's sequences for every shape: a node's
    children come after it in attach order, so the child matching the
    target's token is the next position holding that token under that
    parent, and the accepted tokens are the tail of the walk's context.
    A context :func:`validate_context` accepted for this vocabulary object is not walked.
    """
    eos = target.vocab.eos_id
    ctx = tree.context
    if type(ctx) is not _CheckedContext or ctx.vocab is not target.vocab:
        ctx = validate_context(target.vocab, ctx)
    start, tokens, parents = len(ctx), tree.tokens, tree.parents
    end = len(tokens)
    # The node the walk stands on, and the next position to scan.
    node = i = ROOT_ID
    while True:
        want = next_distribution(target, ctx).greedy_token
        while i < end:
            if tokens[i] == want and parents[i] == node:
                break
            i += 1
        else:  # no child holds want: one context was scored per accepted token, plus this one
            return _new_result(VerificationResult, (ctx[start:], want, len(ctx) - start + 1))
        ctx += (want,)
        if want == eos:
            return _new_result(VerificationResult, (ctx[start:], None, len(ctx) - start))
        node = i = i + 1


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
    The loop builds each cycle's checked context itself; on warm tables a cycle calls
    only its three stages and ``next_distribution`` (a tree adds ``Row.fan`` per query).
    """
    if draft.vocab != target.vocab:
        raise InputError("draft and target must share a vocabulary")
    if max_tokens < 1:
        raise InputError(f"max_tokens must be >= 1, got {max_tokens}")

    vocab = target.vocab
    eos = vocab.eos_id
    window = _window(draft, target)
    keep = slice(None if window is None else -window, None)
    # Checked once; the loop adds only the target's own tokens, from checked
    # rows, and stops at EOS, so expand_tree and verify_tree trust it unwalked.
    ctx = _new_context(_CheckedContext, validate_context(vocab, prompt)[keep])
    ctx.vocab = vocab
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
        if len(out) + len(emitted) > max_tokens:
            emitted = emitted[: max_tokens - len(out)]
        out += emitted

        scored += nodes_scored
        tree_nodes += tree.non_root_count
        per_cycle.append(len(emitted))
        if eos in emitted:
            break
        ctx = _new_context(_CheckedContext, (ctx + emitted)[keep])
        ctx.vocab = vocab
    stats = DecodeStats(
        cycles=len(per_cycle),
        emitted_tokens=len(out),
        target_contexts_scored=scored,
        draft_calls=draft_calls,
        tree_nodes=tree_nodes,
        per_cycle_acceptance=per_cycle,
    )
    return out, stats
