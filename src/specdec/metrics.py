"""Decode statistics, draft-target KL estimation, and the analytic speedup model.

Speedup here is a MODEL in target-call units, not a wall-clock claim: one
batched tree verification costs ``batch_cost`` target calls and each draft
expansion query costs ``draft_cost`` of a target call. Wall-clock timing is
logged separately by the harness and carries no guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .dists import kl_divergence
from .errors import InputError
from .models import LanguageModel, next_distribution

#: Mean KL over probes with the target as p and the draft as q.
KL_TARGET_DRAFT = "target-draft"
#: The reverse convention, selectable to match either reporting style.
KL_DRAFT_TARGET = "draft-target"


@dataclass
class DecodeStats:
    """Per-run counters from the speculative decode loop.

    target_context_evals counts one batched verification pass per cycle
    (the unit the cost model charges ``batch_cost`` for), so it equals
    ``cycles``. target_contexts_scored is the finer number: distinct
    root-path contexts the target actually evaluated.
    """

    cycles: int = 0
    emitted_tokens: int = 0
    target_context_evals: int = 0
    target_contexts_scored: int = 0
    draft_calls: int = 0
    tree_nodes: int = 0  # post-prune non-root nodes, summed over cycles
    per_cycle_acceptance: list[int] = field(default_factory=list)

    @property
    def gamma(self) -> float:
        """Average tokens emitted per speculative cycle (bonus included)."""
        return mean_acceptance(self)


#: The counters that add up across runs: every field but the per-cycle list.
STAT_COUNTERS = tuple(f.name for f in fields(DecodeStats) if f.name != "per_cycle_acceptance")


def mean_acceptance(stats: DecodeStats) -> float:
    """Arithmetic mean of the per-cycle acceptance counts."""
    if not stats.per_cycle_acceptance:
        raise InputError("no cycles recorded; cannot compute acceptance length")
    return sum(stats.per_cycle_acceptance) / len(stats.per_cycle_acceptance)


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


def estimate_kl(
    draft: LanguageModel,
    target: LanguageModel,
    probes,
    direction: str = KL_TARGET_DRAFT,
) -> float:
    """Mean KL divergence between target and draft over probe contexts.

    The default direction treats the target as p and the draft as q,
    matching an alignment objective that drives the draft towards the
    target; ``direction`` flips the convention if a report needs it.
    """
    probes = list(probes)
    if not probes:
        raise InputError("probe set is empty")
    if draft.vocab != target.vocab:
        raise InputError("draft and target must share a vocabulary")
    if direction not in (KL_TARGET_DRAFT, KL_DRAFT_TARGET):
        raise InputError(f"unknown kl direction {direction!r}")
    total = 0.0
    for ctx in probes:
        t = next_distribution(target, ctx)
        d = next_distribution(draft, ctx)
        total += kl_divergence(t, d) if direction == KL_TARGET_DRAFT else kl_divergence(d, t)
    return total / len(probes)


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
