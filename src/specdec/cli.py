"""Command-line surface: train, decode, bench, and report subcommands.

Exit codes: 0 success, 1 usage/input error, 2 I/O error, 3 losslessness
violation. Usage errors therefore exit 1, not argparse's default 2.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .decode import speculative_decode
from .errors import InputError, LosslessnessError
from .harness import (
    ExperimentConfig,
    build_models,
    cell_policies,
    emit_report,
    in_domain_probes,
    load_records,
    run_matrix,
)
from .models import distill_interpolate, save_model


class _Parser(argparse.ArgumentParser):
    """argparse subclass whose usage failures exit 1 per the CLI contract."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """Built once per process: parsing leaves no state in the parser."""
    parser = _Parser(prog="specdec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    train = sub.add_parser("train", help="train target/draft models from a corpus")
    train.add_argument("--corpus", required=True, help="UTF-8 text corpus")
    train.add_argument("--out", required=True, help="output directory for model files")
    train.add_argument("--config", help="optional config supplying orders and smoothing")

    decode = sub.add_parser("decode", help="decode one prompt and print tokens + stats")
    decode.add_argument("prompt", help="prompt text (characters from the corpus)")
    decode.add_argument("--config", required=True, help="experiment config file")
    decode.add_argument("--corpus", help="override the config's corpus path")
    decode.add_argument("--max-tokens", type=int, help="override max tokens to emit")
    decode.add_argument(
        "--lambda", dest="lam", type=float, default=0.5,
        help="draft interpolation weight in [0,1] (default 0.5)",
    )

    bench = sub.add_parser("bench", help="run the experiment matrix from a config file")
    bench.add_argument("--config", required=True, help="experiment config file")
    bench.add_argument("--out", required=True, help="output directory for reports")
    bench.add_argument("--seed", type=int, help="override the config's seed")
    bench.add_argument("--corpus", help="override the config's corpus path")
    bench.add_argument("--max-tokens", type=int, help="override max tokens per prompt")

    report = sub.add_parser("report", help="re-emit CSV/JSON from a saved report.json")
    report.add_argument("records", help="path to a report.json produced by bench")
    report.add_argument("--out", required=True, help="output directory")
    return parser


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config)
    return config.override(
        corpus=getattr(args, "corpus", None),
        max_tokens=getattr(args, "max_tokens", None),
        seed=getattr(args, "seed", None),
    )


def _cmd_train(args) -> int:
    config = _load_config(args) if args.config else ExperimentConfig(corpus=args.corpus)
    _, target, draft, _ = build_models(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    target_path = out / "target.json"
    draft_path = out / "draft_base.json"
    save_model(target, target_path)
    save_model(draft, draft_path)
    print(f"wrote {target_path}")
    print(f"wrote {draft_path}")
    return 0


def _cmd_decode(args) -> int:
    if not 0.0 <= args.lam <= 1.0:
        raise InputError("--lambda must lie in [0, 1]")
    config = _load_config(args)
    vocab, target, draft_base, held = build_models(config)
    draft = distill_interpolate(target, draft_base, args.lam)
    prompt = (vocab.bos_id,) + vocab.encode(args.prompt)
    # The bench cell of the first value of each grid, for this lambda's draft.
    cell = (config.branch_grid[0], config.depth_grid[0], config.budget_grid[0])
    policy = cell_policies(config, draft, target, in_domain_probes(config, vocab, held))[cell]
    tokens, stats = speculative_decode(draft, target, prompt, config.max_tokens, policy)
    print(f"tokens: {list(tokens)}")
    print(f"text: {vocab.decode(tokens)!r}")
    print(
        f"cycles={stats.cycles} emitted={stats.emitted_tokens} "
        f"gamma={stats.gamma:.4f} draft_calls={stats.draft_calls} "
        f"target_context_evals={stats.cycles} "
        f"target_contexts_scored={stats.target_contexts_scored}"
    )
    return 0


def _cmd_bench(args) -> int:
    config = _load_config(args)
    records = run_matrix(config)
    written = emit_report(records, config, args.out)
    timings = Path(args.out) / "timings.log"
    timings.write_text(
        "".join(f"{r.cell_label}\t{r.wall_clock_ms:.3f} ms\n" for r in records),
        encoding="utf-8",
    )
    for path in written:
        print(f"wrote {path}")
    print(f"wrote {timings}")
    print(f"{len(records)} cells, all losslessness-verified")
    return 0


def _cmd_report(args) -> int:
    config, records = load_records(args.records)
    written = emit_report(records, config, args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "decode": _cmd_decode,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except LosslessnessError as exc:
        print(f"specdec: losslessness violation: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"specdec: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"specdec: i/o error: {exc}", file=sys.stderr)
        return 2
