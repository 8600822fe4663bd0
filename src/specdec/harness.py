"""Benchmark harness: corpus ingestion, experiment config, matrix runs, reports.

A bench run trains a target and a base draft n-gram on one corpus, sweeps a
grid of (lambda, tree policy) cells, and for every cell decodes the same
prompt set both speculatively and with the greedy baseline, asserting exact
equality before a record is written. Reports are deterministic: a given
(config, seed) pair produces byte-identical CSV/JSON output. Wall-clock
timings are informational only and never enter the deterministic reports.

Config files are flat ``key = value`` text; ``#`` starts a comment. Grids
are comma-separated. The fields of ``ExperimentConfig`` are the keys, with
their types and defaults; ``corpus`` is the only required key.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import MISSING, dataclass, fields, replace
from itertools import product
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .decode import greedy_decode, speculative_decode
from .errors import InputError, LosslessnessError
from .metrics import (
    KL_DRAFT_TARGET,
    KL_TARGET_DRAFT,
    STAT_COUNTERS,
    CostModel,
    combine_stats,
    estimate_kl,
    mean_acceptance,
    predicted_speedup,
)
from .models import (
    BOS_STRING,
    EOS_STRING,
    Vocabulary,
    distill_interpolate,
    read_text,
    train_ngram,
)
from .tree import BranchPolicy

REPORT_VERSION = 2


def ingest_corpus(path) -> tuple[Vocabulary, tuple[int, ...]]:
    """Read a UTF-8 text file as a character stream.

    The vocabulary lists characters in first-occurrence order with the
    bos/eos markers appended after them, so repeated ingestion of the same
    file is bit-identical.
    """
    text = _read_corpus(path)
    chars = tuple(dict.fromkeys(text))
    vocab = Vocabulary(
        tokens=chars + (BOS_STRING, EOS_STRING),
        bos_id=len(chars),
        eos_id=len(chars) + 1,
    )
    ids = {ch: i for i, ch in enumerate(chars)}
    return vocab, tuple(ids[ch] for ch in text)


def _read_corpus(path) -> str:
    text = read_text(path, "corpus")
    if not text:
        raise OSError(f"corpus file {path} is empty")
    return text


def split_corpus(sequence, train_fraction: float = 0.85) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Deterministic prefix/suffix split into (training, held-out) tokens."""
    seq = tuple(sequence)
    cut = int(len(seq) * train_fraction)
    return seq[:cut], seq[cut:]


def _parse_value(kind, raw: str):
    """Parse one config value as ``kind``: a scalar type, or a tuple of one
    written comma-separated."""
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return tuple(item(x) for x in raw.split(","))
    return kind(raw)


@dataclass(frozen=True)
class ExperimentConfig:
    """One bench run: model construction, grids, sampling, and cost model."""

    corpus: str
    ood_corpus: str = ""
    target_order: int = 3
    draft_order: int = 1
    target_alpha: float = 0.1
    draft_alpha: float = 0.5
    lambda_grid: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    tau_grid: tuple[float, ...] = (1.0,)
    branch_grid: tuple[int, ...] = (4,)
    depth_grid: tuple[int, ...] = (3,)
    budget_grid: tuple[int, ...] = (8,)
    prompt_count: int = 200
    prompt_length: int = 8
    probe_count: int = 100
    probe_length: int = 8
    max_tokens: int = 32
    seed: int = 20250825
    kl_direction: str = KL_TARGET_DRAFT
    draft_cost: float = 0.05
    batch_cost: float = 1.0

    def __post_init__(self) -> None:
        for name, kind in _CONFIG_TYPES.items():
            if kind in (float, tuple[float, ...]):
                value = getattr(self, name)
                if any(map(math.isnan, value if isinstance(value, tuple) else (value,))):
                    raise InputError(f"{name} must not be NaN")
                # Grids may hold inf: tau_grid = inf means a chain.
                if kind is float and math.isinf(value):
                    raise InputError(f"{name} must be finite")
        for name in _GRIDS:
            if not getattr(self, name):
                raise InputError(f"{name} must be non-empty")
        if any(not 0.0 <= lam <= 1.0 for lam in self.lambda_grid):
            raise InputError("lambda_grid values must lie in [0, 1]")
        for name in ("target_order", "draft_order", "prompt_count", "prompt_length",
                     "probe_count", "probe_length", "max_tokens"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1")
        if self.target_alpha < 0 or self.draft_alpha < 0:
            raise InputError("smoothing alphas must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise InputError("seed must fit in 64 bits")
        if self.kl_direction not in (KL_TARGET_DRAFT, KL_DRAFT_TARGET):
            raise InputError(f"unknown kl_direction {self.kl_direction!r}")
        CostModel(self.draft_cost, self.batch_cost)  # validates

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Parse the flat key=value config format; unset keys take their
        field defaults."""
        values: dict[str, object] = {}
        for lineno, raw in enumerate(read_text(path, "config").splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_TYPES:
                raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _parse_value(_CONFIG_TYPES[key], value)
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        for f in fields(cls):
            if f.default is MISSING and f.name not in values:
                raise InputError(f"{path}: missing required config key {f.name!r}")
        return cls(**values)  # type: ignore[arg-type]

    def override(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @property
    def cost_model(self) -> CostModel:
        return CostModel(self.draft_cost, self.batch_cost)


_CONFIG_TYPES = get_type_hints(ExperimentConfig)
#: The tuple-valued fields: comma-separated grids in config files.
_GRIDS = tuple(name for name, kind in _CONFIG_TYPES.items() if get_origin(kind) is tuple)


@dataclass(frozen=True)
class RunRecord:
    """One (domain, lambda, policy) cell of the matrix, losslessness-checked."""

    domain: str
    lam: float
    tau: float
    branch: int
    depth: int
    budget: int
    prompts: int
    cycles: int
    emitted_tokens: int
    target_context_evals: int
    target_contexts_scored: int
    draft_calls: int
    tree_nodes: int
    gamma: float
    kl_estimate: float
    predicted_speedup: float
    losslessness_verified: bool
    wall_clock_ms: float = 0.0  # informational; excluded from reports

    @property
    def cell_key(self) -> tuple:
        return (self.domain, self.lam, self.tau, self.branch, self.depth, self.budget)

    @property
    def cell_label(self) -> str:
        return _cell_label(*self.cell_key)

    def to_dict(self) -> dict:
        return {key: getattr(self, name) for name, key in _REPORT_KEYS.items()}

    @classmethod
    def from_dict(cls, doc: dict) -> "RunRecord":
        return cls(**{name: _RECORD_TYPES[name](doc[key]) for name, key in _REPORT_KEYS.items()})


_RECORD_TYPES = get_type_hints(RunRecord)
#: Report key of each reported RunRecord field, in column order. The
#: wall-clock time is informational and never enters a report.
_REPORT_KEYS = {
    name: "lambda" if name == "lam" else name
    for name in _RECORD_TYPES
    if name != "wall_clock_ms"
}
CSV_COLUMNS = list(_REPORT_KEYS.values())


def _cell_label(domain, lam, tau, branch, depth, budget) -> str:
    return f"{domain},lam={lam:g},tau={tau:g},b={branch},d={depth},n={budget}"


def _sample_spans(zone: tuple[int, ...], length: int, count: int, rng, what: str):
    if len(zone) < length:
        raise InputError(
            f"corpus too small: need spans of {length} tokens for {what}, "
            f"zone has {len(zone)}"
        )
    starts = rng.integers(0, len(zone) - length + 1, size=count)
    return [tuple(zone[s:s + length]) for s in starts]


def _domain_samples(
    sequence: tuple[int, ...], vocab: Vocabulary, config: ExperimentConfig, rng
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Probe contexts from the first half of a zone, prompts from the second,
    so the two sets never share positions. Contexts are bos-anchored."""
    half = len(sequence) // 2
    probes = [
        (vocab.bos_id,) + span
        for span in _sample_spans(sequence[:half], config.probe_length,
                                  config.probe_count, rng, "probes")
    ]
    prompts = [
        (vocab.bos_id,) + span
        for span in _sample_spans(sequence[half:], config.prompt_length,
                                  config.prompt_count, rng, "prompts")
    ]
    return probes, prompts


def build_models(config: ExperimentConfig):
    """Train the target and base-draft n-grams from the config's corpus.

    Returns (vocab, target, draft_base, held_out_sequence).
    """
    vocab, sequence = ingest_corpus(config.corpus)
    train_seq, held = split_corpus(sequence)
    target = train_ngram(train_seq, config.target_order, config.target_alpha, vocab)
    draft_base = train_ngram(train_seq, config.draft_order, config.draft_alpha, vocab)
    return vocab, target, draft_base, held


def run_matrix(config: ExperimentConfig) -> list[RunRecord]:
    """Execute every (domain, lambda, policy) cell of the experiment grid.

    Each cell decodes the identical prompt set speculatively and via the
    greedy baseline; any divergence raises :class:`LosslessnessError`
    (never skipped). Records come back sorted by cell key.
    """
    vocab, target, draft_base, held = build_models(config)
    rng = np.random.default_rng(config.seed)

    domains: dict[str, tuple[int, ...]] = {"in": held}
    if config.ood_corpus:
        ood_seq = vocab.encode(_read_corpus(config.ood_corpus), skip_unknown=True)
        if not ood_seq:
            raise InputError(
                f"out-of-domain corpus {config.ood_corpus} shares no characters "
                "with the training corpus"
            )
        domains["ood"] = ood_seq

    samples = {
        name: _domain_samples(seq, vocab, config, rng)
        for name, seq in sorted(domains.items())
    }

    lambdas = sorted(set(config.lambda_grid))
    policies = sorted(
        set(product(config.tau_grid, config.branch_grid, config.depth_grid, config.budget_grid))
    )
    cost = config.cost_model

    records: list[RunRecord] = []
    for domain in sorted(samples):
        probes, prompts = samples[domain]
        for lam in lambdas:
            draft = distill_interpolate(target, draft_base, lam)
            kl = estimate_kl(draft, target, probes, config.kl_direction)
            for tau, branch, depth, budget in policies:
                policy = BranchPolicy(tau, branch, depth, budget)
                started = time.perf_counter()
                per_prompt = []
                for prompt in prompts:
                    tokens, stats = speculative_decode(
                        draft, target, prompt, config.max_tokens, policy
                    )
                    baseline = greedy_decode(target, prompt, config.max_tokens)
                    if tokens != baseline:
                        cell = _cell_label(domain, lam, tau, branch, depth, budget)
                        raise LosslessnessError(config.seed, cell, prompt)
                    per_prompt.append(stats)
                merged = combine_stats(per_prompt)
                gamma = mean_acceptance(merged)
                records.append(
                    RunRecord(
                        domain=domain,
                        lam=lam,
                        tau=tau,
                        branch=branch,
                        depth=depth,
                        budget=budget,
                        prompts=len(prompts),
                        **{name: getattr(merged, name) for name in STAT_COUNTERS},
                        gamma=gamma,
                        kl_estimate=kl,
                        predicted_speedup=predicted_speedup(
                            gamma, cost, merged.draft_calls / merged.cycles
                        ),
                        losslessness_verified=True,
                        wall_clock_ms=(time.perf_counter() - started) * 1e3,
                    )
                )
    records.sort(key=lambda r: r.cell_key)
    return records


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def emit_report(
    records: list[RunRecord],
    config: ExperimentConfig,
    out_dir,
    fmt: str = "both",
) -> list[Path]:
    """Write the deterministic report files; returns the paths written.

    csv  -> report.csv (one row per record, fixed column order) and
            scatter.csv (kl_estimate, gamma pairs for the KL-vs-acceptance
            plot, ordered by cell key so a lambda sweep reads top-down).
    json -> report.json (full config echo plus all records).
    Only losslessness-verified records may be emitted.
    """
    if not records:
        raise InputError("no records to report")
    if fmt not in ("csv", "json", "both"):
        raise InputError(f"unknown report format {fmt!r}")
    if any(not r.losslessness_verified for r in records):
        raise InputError("refusing to report records without verified losslessness")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ordered = sorted(records, key=lambda r: r.cell_key)
    written: list[Path] = []

    if fmt in ("csv", "both"):
        lines = [f"# specdec report v{REPORT_VERSION}", ",".join(CSV_COLUMNS)]
        lines.extend(",".join(map(_fmt, rec.to_dict().values())) for rec in ordered)
        csv_path = out / "report.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(csv_path)

        scatter = [f"# specdec scatter v{REPORT_VERSION}", "kl_estimate,gamma"]
        scatter.extend(f"{_fmt(r.kl_estimate)},{_fmt(r.gamma)}" for r in ordered)
        scatter_path = out / "scatter.csv"
        scatter_path.write_text("\n".join(scatter) + "\n", encoding="utf-8")
        written.append(scatter_path)

    if fmt in ("json", "both"):
        doc = {
            "format": "specdec-report",
            "version": REPORT_VERSION,
            "config": config.to_dict(),
            "records": [r.to_dict() for r in ordered],
        }
        json_path = out / "report.json"
        json_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        written.append(json_path)

    return written


def load_records(path) -> tuple[ExperimentConfig, list[RunRecord]]:
    """Read a report.json back into (config, records) for re-emission.

    Anything but a complete report of this version raises InputError.
    """
    try:
        doc = json.loads(read_text(path, "report"))
    except json.JSONDecodeError as exc:
        raise InputError(f"report file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "specdec-report":
        raise InputError(f"{path} is not a specdec report file")
    if doc.get("version") != REPORT_VERSION:
        raise InputError(f"{path} has unsupported report version {doc.get('version')!r}")
    cfg_doc = doc.get("config")
    if not isinstance(cfg_doc, dict):
        raise InputError(f"{path}: report has no config")
    if set(cfg_doc) != set(_CONFIG_TYPES):
        odd = sorted(set(cfg_doc) ^ set(_CONFIG_TYPES))
        raise InputError(f"{path}: report config keys missing or unknown: {odd}")
    try:
        config = ExperimentConfig(
            **{k: tuple(v) if k in _GRIDS else v for k, v in cfg_doc.items()}
        )
        return config, [RunRecord.from_dict(r) for r in doc["records"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed report: {exc!r}") from exc
