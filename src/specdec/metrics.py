"""Decode statistics, draft-target KL and acceptance estimation, and the
analytic speedup model.

Speedup here is a MODEL in target-call units, not a wall-clock claim: one
batched tree verification costs ``batch_cost`` target calls and each draft
expansion query costs ``draft_cost`` of a target call. Wall-clock timing is
logged separately by the harness and carries no guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .dists import greedy_token, kl_rows
from .errors import InputError
from .models import LanguageModel, next_distribution, validate_context


@dataclass
class DecodeStats:
    """Per-run counters from the speculative decode loop.

    Each cycle is one batched verification pass (the unit the cost model
    charges ``batch_cost`` for). target_contexts_scored is the finer number:
    distinct root-path contexts the target actually evaluated.
    """

    cycles: int = 0
    emitted_tokens: int = 0
    target_contexts_scored: int = 0
    draft_calls: int = 0
    tree_nodes: int = 0  # post-prune non-root nodes, summed over cycles
    per_cycle_acceptance: list[int] = field(default_factory=list)

    @property
    def gamma(self) -> float:
        """Average tokens emitted per speculative cycle (bonus included):
        ``emitted_tokens / cycles``, the mean of ``per_cycle_acceptance``.
        Stats with no cycle raise InputError."""
        if not self.cycles:
            raise InputError("no cycles recorded; cannot compute acceptance length")
        return self.emitted_tokens / self.cycles


#: The counters that add up across runs: every field but the per-cycle list.
STAT_COUNTERS = tuple(f.name for f in fields(DecodeStats) if f.name != "per_cycle_acceptance")


def combine_stats(runs) -> DecodeStats:
    """Merge per-prompt stats into one record (counters add, cycles concatenate)."""
    runs = list(runs)
    if not runs:
        raise InputError("no stats to combine")
    return DecodeStats(
        **{name: sum(getattr(s, name) for s in runs) for name in STAT_COUNTERS},
        per_cycle_acceptance=[n for s in runs for n in s.per_cycle_acceptance],
    )


@dataclass(frozen=True)
class CostModel:
    """Relative costs in target-call units.

    draft_cost: one draft distribution call relative to one target call;
        sensible configurations keep it below 1.
    batch_cost: one batched tree-verification pass relative to one
        single-context target call (>= 1).
    """

    draft_cost: float
    batch_cost: float

    def __post_init__(self) -> None:
        # draft_cost=0 models a free draft (the degenerate reference case).
        # The chained tests reject NaN as well.
        if not 0 <= self.draft_cost < math.inf:
            raise InputError(f"draft_cost must be finite and >= 0, got {self.draft_cost}")
        if not 1 <= self.batch_cost < math.inf:
            raise InputError(f"batch_cost must be finite and >= 1, got {self.batch_cost}")


def _checked_probes(draft: LanguageModel, target: LanguageModel, probes) -> list:
    """The probe contexts, each checked against the target's vocabulary;
    an empty set or models of two vocabularies raise InputError."""
    probes = [validate_context(target.vocab, ctx) for ctx in probes]
    if not probes:
        raise InputError("probe set is empty")
    if draft.vocab != target.vocab:
        raise InputError("draft and target must share a vocabulary")
    return probes


def estimate_kl(draft: LanguageModel, target: LanguageModel, probes) -> float:
    """Mean KL(target || draft) over probe contexts: the target is p and
    the draft q, matching an alignment objective that drives the draft
    towards the target. :func:`~specdec.dists.kl_rows` takes every probe's
    KL in one pass over the two sides' rows."""
    probes = _checked_probes(draft, target, probes)
    p = [next_distribution(target, ctx) for ctx in probes]
    q = [next_distribution(draft, ctx) for ctx in probes]
    total = 0.0
    for value in kl_rows(p, q).tolist():  # summed in probe order
        total += value
    return total / len(probes)


def estimate_acceptance(
    draft: LanguageModel, target: LanguageModel, probes, width: int
) -> tuple[float, ...]:
    """Per-rank acceptance vector of ``draft`` under greedy verification.

    Entry r estimates how often the target's greedy token is rank r of the
    draft's proposal fan ``Row.fan(width)`` (rank 0 is the draft's argmax),
    as the share of ``probes`` where it is, with add-1/2 smoothing:
    ``(hits + 1/2) / (probes + 1)``, so every rate lies in (0, 1). The rates
    are then made non-increasing by :func:`non_increasing`, so a lower rank
    never promises more than a higher one. This is Sequoia's positional
    acceptance vector (Chen et al. 2024, arXiv 2402.12374).
    """
    probes = _checked_probes(draft, target, probes)
    if width < 1:
        raise InputError(f"width must be >= 1, got {width}")
    hits = [0] * width
    for ctx in probes:
        want = greedy_token(next_distribution(target, ctx))
        ids, _ = next_distribution(draft, ctx).fan(width)
        if want in ids:
            hits[ids.index(want)] += 1
    return non_increasing([(h + 0.5) / (len(probes) + 1) for h in hits])


def non_increasing(values) -> tuple[float, ...]:
    """The least-squares non-increasing fit of ``values`` by pool adjacent
    violators: each run that would rise is replaced by its mean, computed
    once, so pooled entries are exactly equal."""
    blocks: list[list] = []  # [sum, count] of each pooled run
    for value in values:
        blocks.append([value, 1])
        while len(blocks) > 1 and blocks[-2][0] / blocks[-2][1] < blocks[-1][0] / blocks[-1][1]:
            total, count = blocks.pop()
            blocks[-1][0] += total
            blocks[-1][1] += count
    return tuple(mean for total, count in blocks for mean in [total / count] * count)


def predicted_speedup(gamma: float, cost: CostModel, avg_draft_calls_per_cycle: float) -> float:
    """Tokens per cycle divided by cycle cost in target-call units.

    speedup = gamma / (batch_cost + draft_cost * avg_draft_calls_per_cycle),
    against a baseline of one token per target call. Increasing in gamma,
    decreasing in both costs.
    """
    if gamma < 1:
        raise InputError(f"gamma must be >= 1, got {gamma}")
    if avg_draft_calls_per_cycle < 0:
        raise InputError("avg_draft_calls_per_cycle must be >= 0")
    return gamma / (cost.batch_cost + cost.draft_cost * avg_draft_calls_per_cycle)
