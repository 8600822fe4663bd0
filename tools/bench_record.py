"""Record the benchmark: every workload at one seed, untraced and traced.

Runs ``perfbench/run.py`` once per workload of ``BENCHMARK.json`` and trace
setting, each for that file's ``run_seconds``, and merges the full records
it writes to ``.perfbench-out/result-<workload>-seed<N>-trace<T>.json``
into one JSON file, keyed ``<workload>/trace<T>``. Each record keeps everything but its
raw latency samples (``details.raw``), which are about 180 KB per 8 s run.
The seed is the trajectory seed, 7 (the demo's own), unless ``--seed``
names another: the demo's tree shapes depend on the seed, so only records
at one seed compare. With ``--check``, the runs are compared with a file
this tool wrote: every ``counts`` entry must repeat exactly, and each one
that does not is printed as ``<run>: <count path> <old> -> <new>``. Alone,
``--check`` reruns that file's runs at its seed and run length; with
``--out``, the runs just recorded are the ones compared, so one set of
runs makes the record and its check, and the two files must agree on
seed and run length. With ``--compare``, two sides are compared metric by
metric against the bounds of ``BENCHMARK.json``, each side one file or a
comma-separated list of files (say, the records of alternating runs of two
commits), by the median of its runs; no run is made. Standard library
only.

    python tools/bench_record.py --out BENCH_26.json
    python tools/bench_record.py --check BENCH_26.json
    python tools/bench_record.py --out BENCH_27.json --check BENCH_26.json
    python tools/bench_record.py --compare BENCH_25_seed7.json BENCH_26.json
    python tools/bench_record.py --compare old-1.json,old-2.json new-1.json,new-2.json
"""

from __future__ import annotations

import argparse
import json
import statistics
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


def compare(olds: list[dict], news: list[dict], end_to_end: list[dict]) -> list[str]:
    """One line per run of the first old record and end-to-end metric of
    ``BENCHMARK.json`` that the run carries: ``<run> <metric>: <old> -> <new>
    <unit> x<ratio> inside|OUTSIDE <bound> (<spread>)``. ``olds`` and
    ``news`` are several records of each side, and each side's value is the
    median of its runs; the spread gives each side's run count and min–max,
    or reads ``1 run per side``, where one run's drift between sessions can
    read as a change. A ratio is outside when the new median is worse than
    the old by more than the metric's bound; a run absent from any other
    record reads ``<run>: absent``. Records at different seeds or run lengths
    raise ``ValueError``: their runs measure different work."""
    first = olds[0]
    for record in (*olds, *news):
        for key in ("seed", "seconds"):
            if record[key] != first[key]:
                raise ValueError(f"the records differ in {key}: {first[key]} and {record[key]}")
    lines = []
    for run in first["runs"]:
        if any(run not in record["runs"] for record in (*olds, *news)):
            lines.append(f"{run}: absent")
            continue
        for metric in end_to_end:
            name = metric["name"]
            sides = [[record["runs"][run]["metrics"].get(name) for record in records]
                     for records in (olds, news)]
            if None in sides[0] or None in sides[1]:
                continue
            old_values, new_values = ([m["value"] for m in side] for side in sides)
            a, b = statistics.median(old_values), statistics.median(new_values)
            ratio = b / a if a else (1.0 if b == a else float("inf"))
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            verdict = "inside" if worse <= metric["bound"] else "OUTSIDE"
            if len(old_values) == len(new_values) == 1:
                spread = "1 run per side"
            else:
                spread = "; ".join(f"{side} {len(v)} run{'s' * (len(v) > 1)} "
                                   f"{min(v):.6g}–{max(v):.6g}"
                                   for side, v in (("old", old_values), ("new", new_values)))
            lines.append(f"{run} {name}: {a:.6g} -> {b:.6g} {metric['unit']} "
                         f"x{ratio:.3f} {verdict} {metric['bound']} ({spread})")
    return lines


def record_all(seed: int, seconds: float, keys) -> dict:
    """A record of the runs ``keys`` (``<workload>/trace<T>``), each one
    ``record`` call at ``seed`` and ``seconds``."""
    runs = {}
    for key in keys:
        workload, trace = key.split("/trace")
        print(key, file=sys.stderr, flush=True)
        runs[key] = record(workload, seed, seconds, int(trace))
    return {"seed": seed, "seconds": seconds, "runs": runs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=TRAJECTORY_SEED,
                        help=f"the workload seed of every run (default: {TRAJECTORY_SEED}, the "
                             "trajectory seed; a record at another seed goes to a file named "
                             "for it)")
    parser.add_argument("--out", type=Path, help="the file to write")
    parser.add_argument("--check", type=Path,
                        help="compare counts with this file's: alone, rerun its runs at its "
                             "seed and run length; with --out, compare the runs recorded")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two sides' end-to-end metrics with their bounds; each "
                             "side is a record or a comma-separated list of records, "
                             "compared by their per-run medians")
    args = parser.parse_args(argv)
    if args.compare is not None:
        olds, news = ([json.loads(Path(path).read_text(encoding="utf-8"))
                       for path in side.split(",")] for side in args.compare)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        try:
            lines = compare(olds, news, spec["end_to_end"])
        except ValueError as exc:
            print(f"bench_record: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines))
        return 1 if any(" OUTSIDE " in line for line in lines) else 0
    if args.out is None and args.check is None:
        parser.error("--out is required unless --check or --compare is given")
    old = None if args.check is None else json.loads(args.check.read_text(encoding="utf-8"))
    if args.out is None:
        new = record_all(old["seed"], old["seconds"], old["runs"])
    else:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        seed, seconds = args.seed, spec["run_seconds"]
        for key, value in (("seed", seed), ("seconds", seconds)):
            if old is not None and old[key] != value:
                print(f"bench_record: the records differ in {key}: {old[key]} and {value}",
                      file=sys.stderr)
                return 2
        new = record_all(seed, seconds, [f"{w['name']}/trace{trace}"
                                         for w in spec["workloads"] for trace in (0, 1)])
        args.out.write_text(json.dumps(new, indent=2) + "\n", encoding="utf-8")
    if old is None:
        return 0
    differ = 0
    for key, run in old["runs"].items():
        lines = ([f"{key}: absent"] if key not in new["runs"]
                 else count_differences(key, run, new["runs"][key]))
        for line in lines:
            print(line)
        differ += bool(lines)
    print(f"{len(old['runs']) - differ}/{len(old['runs'])} runs repeat their counts")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
