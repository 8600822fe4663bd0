"""Benchmark harness: corpus ingestion, experiment config, matrix runs, reports.

A bench run trains a target and a base draft n-gram on one corpus, sweeps a
grid of (lambda, tree policy) cells, and for every cell decodes the same
prompt set both speculatively and with the greedy baseline, asserting exact
equality before a record is written. Reports are deterministic: a given
(config, seed) pair produces byte-identical CSV/JSON output. Wall-clock
timings are informational only and never enter the deterministic reports.

Config files are flat ``key = value`` text; ``#`` starts a comment. Grids
are comma-separated. The fields of ``ExperimentConfig`` are the keys, with
their types and defaults; ``corpus`` is the only required key. Relative
``corpus`` and ``ood_corpus`` paths resolve against the config file's
directory; a report echoes them as the file wrote them, so its bytes do not
depend on how the config's own path was spelled.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace
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
    estimate_acceptance,
    estimate_kl,
    mean_acceptance,
    predicted_speedup,
)
from .models import (
    BOS_STRING,
    EOS_STRING,
    Vocabulary,
    dataclass_from_json,
    distill_interpolate,
    from_json,
    read_json,
    read_text,
    train_ngram,
)
from .tree import BranchPolicy

REPORT_VERSION = 3


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


#: The share of a corpus, from its start, that :func:`split_corpus` trains on.
TRAIN_FRACTION = 0.85


def split_corpus(sequence) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Deterministic prefix/suffix split into (training, held-out) tokens."""
    seq = tuple(sequence)
    cut = int(len(seq) * TRAIN_FRACTION)
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
        for name in ("tau_grid", "branch_grid", "depth_grid", "budget_grid"):
            low = 0 if name == "tau_grid" else 1
            if min(getattr(self, name)) < low:
                raise InputError(f"{name} values must be >= {low}")
        for name in ("target_order", "draft_order", "prompt_count", "prompt_length",
                     "probe_count", "probe_length", "max_tokens"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1")
        # Spans are drawn as one int64 array, which numpy caps at 2**63 - 1 bytes.
        for name in ("prompt_count", "probe_count"):
            if getattr(self, name) >= 2**60:
                raise InputError(f"{name} must be below 2**60")
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
        written = {key: values[key] for key in _PATHS if values.get(key)}
        for key in written:
            # Relative to the config file; an absolute path stays as it is.
            values[key] = str(Path(path).parent / values[key])  # type: ignore[operator]
        return cls(**values)._with_written(written)  # type: ignore[arg-type]

    def override(self, **kwargs) -> "ExperimentConfig":
        changed = {k: v for k, v in kwargs.items() if v is not None}
        kept = {k: v for k, v in self.written_paths.items() if k not in changed}
        return replace(self, **changed)._with_written(kept)

    @property
    def written_paths(self) -> dict[str, str]:
        """The ``corpus`` and ``ood_corpus`` values as a config file wrote
        them, before :meth:`from_file` resolved them; the report echoes
        these. Empty for a config not read from a file."""
        return self.__dict__.get("_written", {})

    def _with_written(self, written: dict[str, str]) -> "ExperimentConfig":
        object.__setattr__(self, "_written", written)  # not a field: no report key
        return self

    @property
    def cost_model(self) -> CostModel:
        return CostModel(self.draft_cost, self.batch_cost)


_CONFIG_TYPES = get_type_hints(ExperimentConfig)
#: The tuple-valued fields: comma-separated grids in config files.
_GRIDS = tuple(name for name, kind in _CONFIG_TYPES.items() if get_origin(kind) is tuple)
#: The file paths in a config file, resolved against its directory.
_PATHS = ("corpus", "ood_corpus")


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

    def __post_init__(self) -> None:
        # The ranges of every record run_matrix writes, so a report read
        # back holds only values a run can produce.
        for name, kind in _RECORD_TYPES.items():
            if kind not in (int, float):
                continue
            value, key = getattr(self, name), _REPORT_KEYS.get(name, name)
            # tau = inf is a chain.
            if kind is float and (math.isnan(value) or (math.isinf(value) and name != "tau")):
                raise InputError(f"{key} must be finite, got {value}")
            low = 1 if name in ("branch", "depth", "budget", "prompts", "gamma") else 0
            if value < low:
                raise InputError(f"{key} must be >= {low}, got {value}")
        if self.lam > 1:
            raise InputError(f"lambda must lie in [0, 1], got {self.lam}")

    @property
    def cell_key(self) -> tuple:
        return (self.domain, self.lam, self.tau, self.branch, self.depth, self.budget)

    @property
    def cell_label(self) -> str:
        return _cell_label(*self.cell_key)

    def to_dict(self) -> dict:
        return {key: getattr(self, name) for name, key in _REPORT_KEYS.items()}


_RECORD_TYPES = get_type_hints(RunRecord)

#: Report key of each reported RunRecord field, in column order. The
#: wall-clock time is informational and never enters a report.
_REPORT_KEYS = {
    f.name: "lambda" if f.name == "lam" else f.name
    for f in fields(RunRecord)
    if f.name != "wall_clock_ms"
}
CSV_COLUMNS = list(_REPORT_KEYS.values())


def _cell_label(domain, lam, tau, branch, depth, budget) -> str:
    return f"{domain},lam={lam:g},tau={tau:g},b={branch},d={depth},n={budget}"


def _sample_spans(zone: tuple[int, ...], length: int, count: int, rng, what: str):
    """``count`` spans of ``length`` tokens from ``zone``; ``what`` is
    "prompt" or "probe", and ``{what}_count`` the config key ``count`` came
    from."""
    if len(zone) < length:
        raise InputError(
            f"corpus too small: need spans of {length} tokens for {what}s, "
            f"zone has {len(zone)}"
        )
    try:
        starts = rng.integers(0, len(zone) - length + 1, size=count)
        return [tuple(zone[s:s + length]) for s in starts]
    except MemoryError:
        raise InputError(f"{what}_count = {count} does not fit in memory") from None


def _probes(
    sequence: tuple[int, ...], vocab: Vocabulary, config: ExperimentConfig, rng
) -> list[tuple[int, ...]]:
    """Bos-anchored probe contexts from the first half of a zone."""
    return [
        (vocab.bos_id,) + span
        for span in _sample_spans(sequence[:len(sequence) // 2], config.probe_length,
                                  config.probe_count, rng, "probe")
    ]


def _domain_samples(
    sequence: tuple[int, ...], vocab: Vocabulary, config: ExperimentConfig, rng
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Probe contexts from the first half of a zone, prompts from the second,
    so the two sets never share positions. Contexts are bos-anchored."""
    half = len(sequence) // 2
    probes = _probes(sequence, vocab, config, rng)
    prompts = [
        (vocab.bos_id,) + span
        for span in _sample_spans(sequence[half:], config.prompt_length,
                                  config.prompt_count, rng, "prompt")
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


def in_domain_probes(config: ExperimentConfig, vocab: Vocabulary, held) -> list[tuple[int, ...]]:
    """The in-domain probe contexts that :func:`run_matrix` samples from
    the held-out tokens ``held``: the first draw of ``config.seed``'s
    generator, since the in-domain samples are drawn first."""
    return _probes(held, vocab, config, np.random.default_rng(config.seed))


def cell_policies(config: ExperimentConfig, draft, target, probes) -> dict[tuple, BranchPolicy]:
    """The policy of each (tau, branch, depth, budget) cell of the config's
    grid for ``draft``, in cell order.

    Each carries the acceptance vector that :func:`estimate_acceptance`
    measures for ``draft`` against ``target`` on ``probes`` (the in-domain
    probes) over the widest fan of ``branch_grid``, and the config's cost
    model, so trees rank nodes by expected acceptance and draft only what
    pays. The vector is measured once per call.
    """
    acceptance = estimate_acceptance(draft, target, probes, max(config.branch_grid))
    cost = config.cost_model
    cells = sorted(
        set(product(config.tau_grid, config.branch_grid, config.depth_grid, config.budget_grid))
    )
    return {cell: BranchPolicy(*cell, acceptance, cost) for cell in cells}


def run_matrix(config: ExperimentConfig) -> list[RunRecord]:
    """Execute every (domain, lambda, policy) cell of the experiment grid.

    Each cell decodes the identical prompt set speculatively and via the
    greedy baseline; any divergence raises :class:`LosslessnessError`
    (never skipped). Every cell's policy, chains included, comes from
    :func:`cell_policies`, with the lambda's acceptance vector measured once
    on the in-domain probes; the out-of-domain cells reuse it. Records come
    back sorted by cell key.
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
    cost = config.cost_model

    # One draft per lambda serves every domain, so its row table fills once.
    drafts = {lam: distill_interpolate(target, draft_base, lam) for lam in lambdas}
    # One acceptance vector per lambda, from the in-domain probes; the OOD
    # cells reuse it, so every domain runs the same policies.
    policies = {
        lam: cell_policies(config, drafts[lam], target, samples["in"][0]) for lam in lambdas
    }
    records: list[RunRecord] = []
    for domain in sorted(samples):
        probes, prompts = samples[domain]
        for lam in lambdas:
            draft = drafts[lam]
            kl = estimate_kl(draft, target, probes, config.kl_direction)
            for (tau, branch, depth, budget), policy in policies[lam].items():
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
                        target_context_evals=merged.cycles,  # one batched pass per cycle
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


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, except that an
    infinite float (``tau = inf``, a chain) is written as the number
    ``1e999``: strict JSON parsers accept it and Python reads it back as
    ``inf``, where json.dumps would write the non-JSON constant
    ``Infinity``. Every other value is written as json.dumps writes it."""
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_json_text(v, inner) for v in value]
        brackets = "[]"
    elif value == math.inf:
        return "1e999"
    else:
        return json.dumps(value, allow_nan=False)
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


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
    json -> report.json (full config echo plus all records; the corpus
            paths as the config file wrote them; an infinite tau as
            ``1e999``, so the file is strict JSON).
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
            "config": {**asdict(config), **config.written_paths},
            "records": [r.to_dict() for r in ordered],
        }
        json_path = out / "report.json"
        json_path.write_text(_json_text(doc) + "\n", encoding="utf-8")
        written.append(json_path)

    return written


def load_records(path) -> tuple[ExperimentConfig, list[RunRecord]]:
    """Read a report.json back into (config, records) for re-emission.

    Anything but a complete report of this version, each field of its JSON
    type, raises InputError.
    """
    doc = read_json(path, "report", "specdec-report", REPORT_VERSION)
    try:
        config = dataclass_from_json(ExperimentConfig, doc.get("config"), "config")
        records = from_json(tuple[dict, ...], doc.get("records"), "records: ")
        return config, [dataclass_from_json(RunRecord, r, "record", _REPORT_KEYS) for r in records]
    except (InputError, OverflowError) as exc:  # a huge integer as a float
        raise InputError(f"report file {path}: {exc}") from exc
