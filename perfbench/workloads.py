"""The benchmark's workloads. Each is an offline batch in a closed loop: one
client in one process and one thread runs its operations back to back, so
nothing queues and there is no arrival schedule.

``wide-tree`` and ``chain-long`` decode prompts sampled from the held-out
split with the workload seed; ``demo-matrix`` runs ``specdec bench`` on
``demo/bench.cfg`` in-process with the seed passed as ``--seed``. The
program only ever sees the generated prompts or that command line.

A *pass* is one decode of every prompt (or one ``bench`` command). A run
repeats passes until ``--seconds`` would be exceeded, with at least two
untraced passes, or one untraced plus one traced pass when tracing. Every
pass must reproduce the first one's deterministic counters exactly.

Times are calibrated: before every timed operation the benchmark times a
fixed piece of its own work (:func:`calibrate`), and each operation's time
is rescaled by the calibration times around it to a machine on which that
work takes ``CALIBRATION_S``. This removes the speed changes of a shared
host, which reach a factor of 1.7 within a minute; see README.md.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from contextlib import ExitStack, contextmanager, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from specdec import cli, decode, harness, models
from specdec.tree import BranchPolicy

from spans import Tracer, layer_metrics

perf = time.perf_counter

CONFIG = "demo/bench.cfg"
#: Draft interpolation weight of the decode workloads; 0.5 keeps the blend
#: path of InterpolatedModel live.
LAMBDA = 0.5
#: Set-ups timed before the first round and after every round.
SETUP_REPEATS = 7
#: Prompts per pass with ``--tiny``.
TINY_PROMPTS = 4
#: Scratch space inside the checkout (traces, result files, bench output).
OUT_DIR = Path(".perfbench-out")


@dataclass(frozen=True)
class DecodeSpec:
    policy: BranchPolicy
    max_tokens: int
    prompts: int


DECODE = {
    # Expansion is about 90% of the time: ~85 draft queries per cycle for a
    # budget of 8 nodes. Tree-construction changes show here.
    "wide-tree": DecodeSpec(BranchPolicy(0.35, 4, 4, 8), 32, 160),
    # 4-node trees with nothing to prune, on contexts growing to 264 tokens:
    # per-call context validation dominates. Tree changes should not move it.
    "chain-long": DecodeSpec(BranchPolicy.chain(4), 256, 200),
}


# -- calibration ------------------------------------------------------------

#: Reference time of one calibrate() call; calibrated times are seconds on a
#: machine where it takes this long.
CALIBRATION_S = 0.002
#: Each sample is rescaled by the median of the 2 * WINDOW + 1 calibration
#: times around it.
WINDOW = 5

_ROW = np.linspace(1.0, 2.0, 29)
_ROW /= _ROW.sum()
_TABLE = {(i, j): _ROW * 1.0 for i in range(29) for j in range(29)}


def calibrate() -> float:
    """Time a fixed mix of the interpreter work the decoder does (tuple
    slicing, dict lookups, small numpy reductions and sorts). It is the
    benchmark's own code, so no change to the program moves it."""
    start = perf()
    ctx = (0, 1)
    total = 0.0
    for i in range(150):
        ctx = ctx[-40:] + (i % 29,)
        row = _TABLE.get(ctx[-2:], _ROW)
        if np.any(row < 0.0):
            total -= 1.0
        total += float(row.sum())
        total += int(np.argsort(-row, kind="stable")[0])
        total += sum(1 for t in ctx if t < 29)
    return perf() - start


def rescale(samples: list[float], cal: list[float]) -> list[float]:
    """Each sample times CALIBRATION_S over the median calibration near it."""
    return [
        t * CALIBRATION_S / statistics.median(cal[max(0, i - WINDOW):i + WINDOW + 1])
        for i, t in enumerate(samples)
    ]


@dataclass
class Pass:
    """Raw timings of one pass, with calibrate() timed before every decode
    call. In a traced pass the calibration runs outside the layer spans.

    Calls are grouped into latency samples by a key: one prompt on the
    decode workloads, one prompt under every policy of its (domain, lambda)
    row on demo-matrix.
    """

    call_s: list[float] = field(default_factory=list)
    keys: list = field(default_factory=list)
    cal_s: list[float] = field(default_factory=list)
    #: Raw program time before the first calibration and after each one.
    seg_s: list[float] = field(default_factory=list)
    emitted: int = 0
    wall_s: float = 0.0
    _start: float = 0.0
    _mark: float = 0.0

    def begin(self) -> None:
        self._start = self._mark = perf()

    def end(self) -> None:
        now = perf()
        self.wall_s = now - self._start
        self.seg_s.append(now - self._mark)

    def time(self, key, fn, *args, **kwargs):
        """Run one speculative_decode call and record it under ``key``."""
        self.seg_s.append(perf() - self._mark)
        self.cal_s.append(calibrate())
        self._mark = perf()
        start = perf()
        try:
            out = fn(*args, **kwargs)
        finally:
            self.call_s.append(perf() - start)
            self.keys.append(key)
        self.emitted += out[1].emitted_tokens
        return out

    @property
    def program_s(self) -> float:
        """Raw wall time without the calibration work."""
        return self.wall_s - sum(self.cal_s)

    def scaled_wall(self) -> float:
        segments = self.seg_s[1:]
        segments[0] += self.seg_s[0]
        return sum(rescale(segments, self.cal_s))

    def samples(self) -> list[float]:
        """Calibrated seconds per key, in the order keys first appeared."""
        total: dict = {}
        for key, t in zip(self.keys, rescale(self.call_s, self.cal_s)):
            total[key] = total.get(key, 0.0) + t
        return list(total.values())


@dataclass
class Result:
    """What one run measured; metric values are keyed by benchmark name."""

    metrics: dict[str, float] = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"failed op: {what}")

    def same(self, label: str, first, other) -> None:
        """Deterministic counters must repeat exactly; record any drift."""
        if first != other:
            self.problems.append(f"{label} differ: {first!r} != {other!r}")


class Setup:
    """Times build_models plus distill_interpolate, SETUP_REPEATS at a time."""

    def __init__(self, config: harness.ExperimentConfig) -> None:
        self.config = config
        self.raw_s: list[float] = []
        self.scaled_s: list[float] = []

    def __call__(self):
        """Returns the last (vocab, target, draft, held-out tokens) built."""
        raw, cal = [], []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            cal.append(calibrate())
            start = perf()
            vocab, target, base, held = harness.build_models(self.config)
            draft = models.distill_interpolate(target, base, LAMBDA)
            raw.append(perf() - start)
        self.raw_s += raw
        self.scaled_s += rescale(raw, cal)
        return vocab, target, draft, held


def repeat_rounds(seconds: float, min_rounds: int, one_round, after_round) -> int:
    """Run rounds until the next one would likely end after ``seconds``."""
    start = perf()
    took: list[float] = []
    while True:
        t0 = perf()
        one_round()
        took.append(perf() - t0)
        after_round()
        if len(took) >= min_rounds and perf() - start + statistics.median(took) > seconds:
            return len(took)


def timing_metrics(passes: list[Pass], setup: Setup) -> dict[str, float]:
    """The calibrated wall-time metrics of the untraced passes. A latency
    sample is the median of its calibrated times over the passes."""
    latency = [statistics.median(ts) for ts in zip(*(p.samples() for p in passes))]
    return {
        "setup_s": statistics.median(setup.scaled_s),
        "tokens_per_s": passes[0].emitted / sum(latency),
        "prompt_ms_p50": statistics.median(latency) * 1e3,
        "prompt_ms_p90": statistics.quantiles(latency, n=10)[-1] * 1e3,
        "bench_wall_s": statistics.median(p.scaled_wall() for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def raw_samples(passes: list[Pass], setup: Setup) -> dict:
    return {
        "latency_samples": len(passes[0].samples()),
        "raw": {
            "setup_s": setup.raw_s,
            "pass_s": [p.program_s for p in passes],
            "call_s": [p.call_s for p in passes],
            "calibrate_s": [p.cal_s for p in passes],
        },
    }


def traced_metrics(rounds: list[tuple[Tracer, Pass, Pass]]) -> dict[str, float]:
    """Median over traced passes of each per-layer metric. Tracing overhead
    compares the calibrated walls of the traced and the untraced pass of
    one round."""
    per_pass = [
        layer_metrics(tracer, sum(traced.cal_s), traced.scaled_wall() / untraced.scaled_wall() - 1)
        for tracer, traced, untraced in rounds
    ]
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}


def check_traced(result: Result, rounds, expect: dict[str, int]) -> dict:
    """Traced counts repeat across traced passes and agree with what the
    untraced program reported itself."""
    counts = [tracer.deterministic_counts() for tracer, *_ in rounds]
    for other in counts[1:]:
        result.same("traced counts", counts[0], other)
    seen = {name: counts[0].get(name, 0) for name in expect}
    result.same("traced vs untraced counts", expect, seen)
    return counts[0]


# -- decode workloads -------------------------------------------------------

def run_decode(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> Result:
    spec = DECODE[name]
    setup = Setup(harness.ExperimentConfig.from_file(CONFIG))
    vocab, target, draft, held = setup()
    rng = np.random.default_rng(seed)
    length = setup.config.prompt_length
    starts = rng.integers(0, len(held) - length + 1, size=TINY_PROMPTS if tiny else spec.prompts)
    prompts = [(vocab.bos_id,) + held[s:s + length] for s in starts]
    # The ground truth, computed outside every timed region.
    expected = [decode.greedy_decode(target, p, spec.max_tokens) for p in prompts]
    result = Result(details={"prompts_per_pass": len(prompts)})

    def one_pass():
        record, stats = Pass(), []
        record.begin()
        for i, (prompt, want) in enumerate(zip(prompts, expected)):
            try:
                out, st = record.time(i, decode.speculative_decode, draft, target, prompt,
                                      spec.max_tokens, spec.policy)
            except Exception:
                traceback.print_exc()
                out, st = None, None
            result.op(out == want, f"prompt {prompt} differs from greedy_decode")
            stats.append(None if st is None else (
                st.cycles, st.emitted_tokens, st.draft_calls,
                st.tree_nodes, st.target_contexts_scored))
        record.end()
        return record, stats

    untraced: list[Pass] = []
    first_stats: list = []
    traced = []

    def untraced_round():
        record, stats = one_pass()
        untraced.append(record)
        if not first_stats:
            first_stats.extend(stats)
        result.same("per-prompt stats", first_stats, stats)

    def traced_round():
        untraced_round()
        tracer = Tracer()
        with tracer.installed(draft=draft, target=target), tracer.span("workload"):
            record, stats = one_pass()
        result.same("per-prompt stats (traced pass)", first_stats, stats)
        traced.append((tracer, record, untraced[-1]))

    result.details["rounds"] = repeat_rounds(
        seconds, 1 if trace else 2, traced_round if trace else untraced_round, setup)

    ok = [s for s in first_stats if s is not None]
    cycles, emitted, draft_calls, kept, scored = (sum(col) for col in zip(*ok)) if ok else (0,) * 5
    result.counts = {
        "cycles": cycles, "emitted_tokens": emitted, "draft_calls": draft_calls,
        "tree_nodes_kept": kept, "target_contexts_scored": scored,
    }
    if trace:
        result.counts["traced"] = check_traced(result, traced, {
            "decode.verify": cycles, "tree.draft_queries": draft_calls,
            "tree.nodes_kept": kept, "decode.contexts_scored": scored,
        })
        result.metrics = traced_metrics(traced)
        result.details["tracer"] = traced[-1][0]
        result.details["largest_self_s"] = traced[-1][0].largest_self_times()
        return result

    result.details.update(raw_samples(untraced, setup))
    result.metrics = {
        **timing_metrics(untraced, setup),
        "gamma": emitted / cycles,
        "draft_calls_per_token": draft_calls / emitted,
    }
    return result


# -- demo-matrix ------------------------------------------------------------

@contextmanager
def timed_decodes(record: Pass):
    """Time each speculative_decode that run_matrix makes (288 per bench),
    with its calibration: the only instrumentation of an untraced pass.

    The n-th decode of a draft under each policy shares key (draft, n), so
    one sample is one prompt under every policy of its (domain, lambda) row.
    A single call is no sample: chain decodes take ~7 ms and tree decodes
    20-110 ms, and the median of 288 calls falls between the two.
    """
    original = harness.speculative_decode
    seen: dict = {}

    def wrapper(draft, target, prompt, max_tokens, policy):
        n = seen[draft, policy] = seen.get((draft, policy), -1) + 1
        return record.time((draft, n), original, draft, target, prompt, max_tokens, policy)

    harness.speculative_decode = wrapper
    try:
        yield
    finally:
        harness.speculative_decode = original


def bench_once(argv: list[str], region, record: Pass) -> tuple[int, bytes | None]:
    """One in-process ``specdec bench`` inside ``region``, timed into
    ``record``; returns its exit code and report.json bytes."""
    out = tempfile.mkdtemp(prefix="bench-", dir=OUT_DIR)
    try:
        with redirect_stdout(io.StringIO()), region:
            record.begin()
            try:
                code = cli.main(argv + ["--out", out])
            except Exception:
                traceback.print_exc()
                code = -1
            record.end()
        report = Path(out, "report.json").read_bytes() if code == 0 else None
    finally:
        shutil.rmtree(out)
    return code, report


def run_demo(seed: int, seconds: float, trace: bool, tiny: bool) -> Result:
    setup = Setup(harness.ExperimentConfig.from_file(CONFIG))
    setup()
    argv = ["bench", "--config", CONFIG, "--seed", str(seed)]
    if tiny:
        argv += ["--max-tokens", "2"]
    result = Result()
    reports: list[bytes] = []
    untraced: list[Pass] = []
    traced = []

    def check(code: int, report: bytes | None) -> None:
        if report is not None and not reports:
            reports.append(report)
        result.op(code == 0 and report == reports[0],
                  f"bench exit code {code}" if code else "report.json bytes differ")

    def untraced_round():
        record = Pass()
        code, report = bench_once(argv, timed_decodes(record), record)
        untraced.append(record)
        check(code, report)

    def traced_round():
        untraced_round()
        tracer, record = Tracer(), Pass()
        with ExitStack() as region:
            region.enter_context(tracer.installed())
            region.enter_context(tracer.span("workload"))
            region.enter_context(tracer.span("bench"))
            region.enter_context(timed_decodes(record))
            code, report = bench_once(argv, region, record)
        check(code, report)
        traced.append((tracer, record, untraced[-1]))

    result.details["rounds"] = repeat_rounds(
        seconds, 1 if trace else 2, traced_round if trace else untraced_round, setup)
    if not reports:
        result.problems.append("no bench invocation succeeded")
        return result

    records = json.loads(reports[0])["records"]
    totals = {key: sum(r[key] for r in records) for key in (
        "prompts", "cycles", "emitted_tokens", "target_context_evals",
        "target_contexts_scored", "draft_calls", "tree_nodes")}
    result.counts = {**totals, "report_sha256": hashlib.sha256(reports[0]).hexdigest()}
    if trace:
        result.counts["traced"] = check_traced(result, traced, {
            "decode.verify": totals["cycles"], "tree.draft_queries": totals["draft_calls"],
            "tree.nodes_kept": totals["tree_nodes"],
            "decode.contexts_scored": totals["target_contexts_scored"],
            "harness.greedy_baseline": totals["prompts"],
        })
        result.metrics = traced_metrics(traced)
        result.details["tracer"] = traced[-1][0]
        result.details["largest_self_s"] = traced[-1][0].largest_self_times()
        return result

    result.details.update(raw_samples(untraced, setup))
    result.metrics = {
        **timing_metrics(untraced, setup),
        "gamma": totals["emitted_tokens"] / totals["target_context_evals"],
        "draft_calls_per_token": totals["draft_calls"] / totals["emitted_tokens"],
    }
    return result


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> Result:
    OUT_DIR.mkdir(exist_ok=True)
    if workload == "demo-matrix":
        return run_demo(seed, seconds, trace, tiny)
    return run_decode(workload, seed, seconds, trace, tiny)
