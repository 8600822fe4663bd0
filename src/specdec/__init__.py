"""Lossless speculative decoding with dynamic draft trees, at desk scale.

A small draft model proposes a tree of candidate continuations; the target
model verifies them in one batched pass per cycle and the emitted stream is
bit-identical to decoding the target alone. N-gram surrogates stand in for
the large models so every relationship (draft quality vs acceptance length,
dynamic trees vs chains) can be measured deterministically on a laptop.
"""

from __future__ import annotations

from .decode import VerificationResult, greedy_decode, speculative_decode, verify_tree
from .dists import entropy, greedy_token, kl_divergence, validate_distribution
from .errors import InputError, LosslessnessError
from .harness import (
    ExperimentConfig,
    RunRecord,
    emit_report,
    ingest_corpus,
    run_matrix,
    split_corpus,
)
from .metrics import (
    CostModel,
    DecodeStats,
    combine_stats,
    estimate_acceptance,
    estimate_kl,
    predicted_speedup,
)
from .models import (
    ConstantModel,
    InterpolatedModel,
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
from .tree import (
    BranchPolicy,
    SpecNode,
    SpecTree,
    expand_tree,
    prune_tree,
    render_tree,
)

__version__ = "0.1.0"

__all__ = [
    "BranchPolicy",
    "ConstantModel",
    "CostModel",
    "DecodeStats",
    "ExperimentConfig",
    "InputError",
    "InterpolatedModel",
    "LanguageModel",
    "LosslessnessError",
    "NGramModel",
    "RunRecord",
    "SpecNode",
    "SpecTree",
    "VerificationResult",
    "Vocabulary",
    "combine_stats",
    "distill_interpolate",
    "emit_report",
    "entropy",
    "estimate_acceptance",
    "estimate_kl",
    "expand_tree",
    "greedy_decode",
    "greedy_token",
    "ingest_corpus",
    "kl_divergence",
    "load_model",
    "next_distribution",
    "predicted_speedup",
    "prune_tree",
    "render_tree",
    "run_matrix",
    "save_model",
    "speculative_decode",
    "split_corpus",
    "train_ngram",
    "validate_context",
    "validate_distribution",
    "verify_tree",
]
