"""Record the benchmark: every workload at one seed, untraced and traced.

Runs ``perfbench/run.py`` once per workload of ``BENCHMARK.json`` and trace
setting, each for that file's ``run_seconds``, and merges the full records
it writes to ``.perfbench-out/result-<workload>-seed<N>-trace<T>.json``
into one JSON file, keyed ``<workload>/trace<T>``. Each record keeps everything but its
raw latency samples (``details.raw``), which are about 180 KB per 8 s run.
The seed is the trajectory seed, 7 (the demo's own), unless ``--seed``
names another: the demo's tree shapes depend on the seed, so only records
at one seed compare. With ``--check``, the runs are compared with a file
this tool wrote instead: every ``counts`` entry must repeat exactly, and
each one that does not is printed as ``<run>: <count path> <old> ->
<new>``. With ``--compare``, two files are compared metric by metric
against the bounds of ``BENCHMARK.json``; no run is made. Standard library
only.

    python tools/bench_record.py --out BENCH_26.json
    python tools/bench_record.py --check BENCH_26.json
    python tools/bench_record.py --compare BENCH_25_seed7.json BENCH_26.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The seed of the committed trajectory, fixed before any number was seen.
TRAJECTORY_SEED = 7


def record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run's record, without its raw samples."""
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    path = ROOT / ".perfbench-out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    result = json.loads(path.read_text(encoding="utf-8"))
    result["details"].pop("raw", None)
    return result


def count_differences(run: str, old: dict, new: dict) -> list[str]:
    """One line ``<run>: <count path> <old> -> <new>`` per ``counts`` entry
    of two records of ``run`` that differs. A nested count is named by its
    dotted path (``traced.decode.verify``); one missing on a side reads
    ``absent`` there."""

    def walk(old: dict, new: dict, prefix: str):
        for key in dict.fromkeys([*old, *new]):
            a, b = old.get(key, "absent"), new.get(key, "absent")
            if isinstance(a, dict) and isinstance(b, dict):
                yield from walk(a, b, f"{prefix}{key}.")
            elif a != b:
                yield f"{run}: {prefix}{key} {a} -> {b}"

    return list(walk(old["counts"], new["counts"], ""))


def compare(old: dict, new: dict, end_to_end: list[dict]) -> list[str]:
    """One line per run of ``old`` and end-to-end metric of ``BENCHMARK.json``
    that the run carries: ``<run> <metric>: <old> -> <new> <unit> x<ratio>
    inside|OUTSIDE <bound>``. A ratio is outside when the new value is
    worse than the old by more than the metric's bound; a run absent from
    ``new`` reads ``<run>: absent``. Records at different seeds or run lengths raise
    ``ValueError``: their runs measure different work."""
    for key in ("seed", "seconds"):
        if old[key] != new[key]:
            raise ValueError(f"the records differ in {key}: {old[key]} and {new[key]}")
    lines = []
    for run, before in old["runs"].items():
        after = new["runs"].get(run)
        if after is None:
            lines.append(f"{run}: absent")
            continue
        for metric in end_to_end:
            name = metric["name"]
            if name not in before["metrics"] or name not in after["metrics"]:
                continue
            a, b = before["metrics"][name]["value"], after["metrics"][name]["value"]
            ratio = b / a if a else (1.0 if b == a else float("inf"))
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            verdict = "inside" if worse <= metric["bound"] else "OUTSIDE"
            lines.append(f"{run} {name}: {a:.6g} -> {b:.6g} {metric['unit']} "
                         f"x{ratio:.3f} {verdict} {metric['bound']}")
    return lines


def record_all(seed: int) -> dict:
    """Every workload of ``BENCHMARK.json``, untraced and traced, at its ``run_seconds``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            print(f"{workload} trace={trace}", file=sys.stderr, flush=True)
            runs[f"{workload}/trace{trace}"] = record(workload, seed, seconds, trace)
    return {"seed": seed, "seconds": seconds, "runs": runs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=TRAJECTORY_SEED,
                        help=f"the workload seed of every run (default: {TRAJECTORY_SEED}, the "
                             "trajectory seed; a record at another seed goes to a file named "
                             "for it)")
    parser.add_argument("--out", type=Path, help="the file to write")
    parser.add_argument("--check", type=Path, help="rerun at this file's seed and compare counts")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"),
                        help="compare two records' end-to-end metrics with their bounds")
    args = parser.parse_args(argv)
    if args.compare is not None:
        old, new = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        try:
            lines = compare(old, new, spec["end_to_end"])
        except ValueError as exc:
            print(f"bench_record: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines))
        return 1 if any(" OUTSIDE " in line for line in lines) else 0
    if args.check is not None:
        old = json.loads(args.check.read_text(encoding="utf-8"))
        differ = 0
        for key, run in old["runs"].items():
            workload, trace = key.split("/trace")
            print(key, file=sys.stderr, flush=True)
            new = record(workload, old["seed"], old["seconds"], int(trace))
            lines = count_differences(key, run, new)
            for line in lines:
                print(line)
            differ += bool(lines)
        print(f"{len(old['runs']) - differ}/{len(old['runs'])} runs repeat their counts")
        return 1 if differ else 0
    if args.out is None:
        parser.error("--out is required unless --check or --compare is given")
    args.out.write_text(json.dumps(record_all(args.seed), indent=2) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
