"""Outside-in tracing of the specdec modules for the benchmark's traced run.

Nothing under ``src/specdec`` knows about tracing. While
:meth:`Tracer.installed` is active, each traced public function is replaced,
under the name its caller looks it up by, with a wrapper that times it:
``speculative_decode`` calls ``specdec.decode.expand_tree``, so that is the
name wrapped. Leaving the ``with`` block puts every original back.

Two kinds of wrapper exist:

* a *span* for each stage of the benchmark's boundaries (prompt, expand,
  prune, verify, baseline, KL, report). Spans are kept in memory with their
  parent and a trace id shared by everything one prompt caused;
* a *leaf* for calls that happen millions of times (``next_distribution``,
  ``validate_context``, ``validate_distribution``, the models'
  ``distribution``). A leaf adds a call count and its self time to the
  enclosing span instead of making a span per call.

Self time is a frame's duration minus the durations of the frames it
directly encloses.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from specdec import cli, decode, dists, harness, metrics, models, tree

perf = time.perf_counter

#: Structural spans: time in them outside any layer span is unaccounted.
STRUCTURAL = ("workload", "bench")

#: (module, attribute) -> leaf name. Several names map to one leaf because
#: each calling module holds its own reference to the function.
LEAVES = {
    (tree, "next_distribution"): "models.next_distribution",
    (decode, "next_distribution"): "models.next_distribution",
    (metrics, "next_distribution"): "models.next_distribution",
    (models, "validate_context"): "models.validate_context",
    (models, "validate_distribution"): "dists.validate_distribution",
    (dists, "validate_distribution"): "dists.validate_distribution",
    (tree, "entropy"): "dists.entropy",
    (decode, "greedy_token"): "dists.greedy_token",
}


class Span:
    __slots__ = ("id", "trace", "parent", "name", "start", "end", "child_s", "leaves")

    def __init__(self, span_id: int, trace: int, parent: int, name: str) -> None:
        self.id = span_id
        self.trace = trace
        self.parent = parent
        self.name = name
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.leaves: dict[str, list] = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "trace": self.trace,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
            "leaves": {name: {"calls": c, "self_s": s} for name, (c, s) in self.leaves.items()},
        }


class _LeafFrame:
    __slots__ = ("name", "child_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child_s = 0.0


class Tracer:
    """Spans and counts of one traced pass. Make a new one per pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list = []
        self._span: Span | None = None
        self._traces = 0
        self._last_prompt = None
        self._patches: list = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str, new_trace: bool = False, trace: int | None = None):
        parent = self._span
        if new_trace:
            self._traces += 1
            trace = self._traces
        elif trace is None:
            trace = parent.trace if parent is not None else 0
        s = Span(len(self.spans) + 1, trace, parent.id if parent is not None else 0, name)
        self.spans.append(s)
        self._stack.append(s)
        self._span = s
        s.start = perf()
        try:
            yield s
        finally:
            s.end = perf()
            self._stack.pop()
            self._span = parent
            if self._stack:
                self._stack[-1].child_s += s.end - s.start

    def _span_wrapper(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _prompt_wrapper(self, fn):
        """speculative_decode: each call starts a new trace id."""

        def wrapper(draft, target, prompt, *args, **kwargs):
            with self.span("decode.loop", new_trace=True) as s:
                result = fn(draft, target, prompt, *args, **kwargs)
            self._last_prompt = (prompt, s.trace)
            return result

        return wrapper

    def _baseline_wrapper(self, fn):
        """greedy_decode right after a decode of the same prompt joins its trace."""

        def wrapper(target, prompt, *args, **kwargs):
            last = self._last_prompt
            same = last is not None and last[0] == prompt
            with self.span("harness.greedy_baseline", new_trace=not same,
                           trace=last[1] if same else None):
                return fn(target, prompt, *args, **kwargs)

        return wrapper

    # -- leaves ------------------------------------------------------------

    def _leaf(self, name: str, fn, on_result=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = _LeafFrame(name)
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - start
                stack.pop()
                stack[-1].child_s += dur
                entry = self._span.leaves.get(name)
                if entry is None:
                    entry = self._span.leaves[name] = [0, 0.0]
                entry[0] += 1
                entry[1] += dur - frame.child_s
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def instrument_model(self, model, name: str):
        """Time ``model.distribution`` as leaf ``name`` through an instance
        attribute, removed again when :meth:`installed` exits.

        A target row looked up inside the draft's blend is part of the
        draft's cost, so the target's wrapper stays silent there.
        """
        original = model.distribution
        timed = self._leaf(name, original)
        if name == "models.target":
            def distribution(ctx):
                if self._stack[-1].name == "models.draft":
                    return original(ctx)
                return timed(ctx)
        else:
            distribution = timed
        model.distribution = distribution
        self._patches.append((model, "distribution", None))
        return model

    # -- installing --------------------------------------------------------

    def _patch(self, obj, attr: str, replacement) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, replacement)

    def _on_validate(self, tokens) -> None:
        self.counts["models.context_tokens_validated"] += len(tokens)

    def _on_expand(self, result) -> None:
        self.counts["tree.draft_queries"] += result.draft_queries
        self.counts["tree.nodes_created"] += result.non_root_count

    def _on_prune(self, result) -> None:
        self.counts["tree.nodes_kept"] += result.non_root_count

    def _on_verify(self, result) -> None:
        self.counts["decode.contexts_scored"] += result.nodes_scored
        self.counts["decode.accepted"] += len(result.accepted_tokens)

    def _on_build(self, result) -> None:
        self.instrument_model(result[1], "models.target")

    @contextmanager
    def installed(self, draft=None, target=None):
        """Wrap every traced name; ``draft`` and ``target`` are models the
        caller built itself. Models built by ``run_matrix`` are picked up
        from ``build_models`` and ``distill_interpolate``."""
        spans = {
            (decode, "expand_tree"): ("tree.expand", self._on_expand),
            (decode, "prune_tree"): ("tree.prune", self._on_prune),
            (decode, "verify_tree"): ("decode.verify", self._on_verify),
            (harness, "estimate_kl"): ("metrics.estimate_kl", None),
            (harness, "build_models"): ("harness.build_models", self._on_build),
            (cli, "emit_report"): ("harness.emit_report", None),
        }
        try:
            for (module, attr), leaf in LEAVES.items():
                on_result = self._on_validate if leaf == "models.validate_context" else None
                self._patch(module, attr, self._leaf(leaf, getattr(module, attr), on_result))
            for (module, attr), (name, on_result) in spans.items():
                self._patch(module, attr, self._span_wrapper(name, getattr(module, attr), on_result))
            for module in (decode, harness):
                self._patch(module, "speculative_decode",
                            self._prompt_wrapper(module.speculative_decode))
            self._patch(harness, "greedy_decode", self._baseline_wrapper(harness.greedy_decode))
            distill = harness.distill_interpolate
            self._patch(harness, "distill_interpolate",
                        lambda *a, **k: self.instrument_model(distill(*a, **k), "models.draft"))
            if draft is not None:
                self.instrument_model(draft, "models.draft")
            if target is not None:
                self.instrument_model(target, "models.target")
            yield self
        finally:
            for obj, attr, original in reversed(self._patches):
                if original is None:
                    delattr(obj, attr)
                else:
                    setattr(obj, attr, original)
            self._patches.clear()

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_dict()) + "\n")

    def totals(self) -> dict[str, dict]:
        """Per name: calls, inclusive seconds (spans only) and self seconds."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        names = {s.id: s.name for s in self.spans}
        for s in self.spans:
            keys = [s.name]
            # A decode that run_matrix started is also the harness's own.
            if s.name == "decode.loop" and names.get(s.parent) == "bench":
                keys.append("harness.speculative")
            for key in keys:
                row = out[key]
                row["calls"] += 1
                row["s"] += s.end - s.start
                row["self_s"] += s.self_s
            for name, (calls, self_s) in s.leaves.items():
                out[name]["calls"] += calls
                out[name]["self_s"] += self_s
        return out

    def largest_self_times(self, n: int = 3) -> list[tuple[str, float]]:
        """The n layer names with the most self time."""
        rows = [(name, row["self_s"]) for name, row in self.totals().items()
                if name not in STRUCTURAL and name != "harness.speculative"]
        return sorted(rows, key=lambda r: -r[1])[:n]

    def deterministic_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly for the same inputs."""
        out = {name: row["calls"] for name, row in sorted(self.totals().items())}
        out.update(sorted(self.counts.items()))
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, calibration_s: float, overhead_share: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by their benchmark names.

    ``calibration_s`` is the benchmark's own calibration work, done inside
    the structural spans; it counts neither as program time nor as
    unaccounted time.
    """
    t = tracer.totals()
    c = tracer.counts
    wall = sum(s.end - s.start for s in tracer.spans if s.name == "workload") - calibration_s
    cycles = t["decode.verify"]["calls"]
    model_calls = t["models.next_distribution"]["calls"]
    unaccounted = sum(t[name]["self_s"] for name in STRUCTURAL) - calibration_s
    return {
        "tree.expand.self_s": t["tree.expand"]["self_s"],
        "tree.expand.share": _ratio(t["tree.expand"]["s"], wall),
        "tree.prune.self_s": t["tree.prune"]["self_s"],
        "tree.draft_queries_per_cycle": _ratio(c["tree.draft_queries"], cycles),
        "tree.nodes_created_per_cycle": _ratio(c["tree.nodes_created"], cycles),
        "tree.nodes_kept_per_cycle": _ratio(c["tree.nodes_kept"], cycles),
        "tree.kept_share": _ratio(c["tree.nodes_kept"], c["tree.nodes_created"]),
        "decode.verify.self_s": t["decode.verify"]["self_s"],
        "decode.loop.self_s": t["decode.loop"]["self_s"],
        "decode.cycles": cycles,
        "decode.contexts_scored_per_cycle": _ratio(c["decode.contexts_scored"], cycles),
        "decode.accepted_per_kept_node": _ratio(c["decode.accepted"], c["tree.nodes_kept"]),
        "models.next_distribution.calls": model_calls,
        "models.next_distribution.self_s": t["models.next_distribution"]["self_s"],
        "models.validate_context.calls": t["models.validate_context"]["calls"],
        "models.validate_context.self_s": t["models.validate_context"]["self_s"],
        "models.context_tokens_validated": c["models.context_tokens_validated"],
        "models.draft.calls": t["models.draft"]["calls"],
        "models.draft.self_s": t["models.draft"]["self_s"],
        "models.target.calls": t["models.target"]["calls"],
        "models.target.self_s": t["models.target"]["self_s"],
        "dists.validate_distribution.calls": t["dists.validate_distribution"]["calls"],
        "dists.validate_distribution.self_s": t["dists.validate_distribution"]["self_s"],
        "dists.validations_per_model_call": _ratio(
            t["dists.validate_distribution"]["calls"], model_calls),
        "dists.entropy.calls": t["dists.entropy"]["calls"],
        "dists.greedy_token.calls": t["dists.greedy_token"]["calls"],
        "metrics.estimate_kl.calls": t["metrics.estimate_kl"]["calls"],
        "metrics.estimate_kl.self_s": t["metrics.estimate_kl"]["self_s"],
        "harness.build_models.s": t["harness.build_models"]["s"],
        "harness.greedy_baseline.calls": t["harness.greedy_baseline"]["calls"],
        "harness.greedy_baseline.self_s": t["harness.greedy_baseline"]["self_s"],
        "harness.speculative.self_s": t["harness.speculative"]["self_s"],
        "harness.emit_report.s": t["harness.emit_report"]["s"],
        "trace.wall_s": wall,
        "trace.overhead_share": overhead_share,
        "trace.unaccounted_share": _ratio(unaccounted, wall),
    }
