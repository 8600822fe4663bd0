"""Record the benchmark: every workload at one seed, untraced and traced.

Runs ``perfbench/run.py`` once per workload of ``BENCHMARK.json`` and trace
setting, each for that file's ``run_seconds``, and merges the full records
it writes to ``.perfbench-out/result-<workload>-seed<N>-trace<T>.json``
into one JSON file, keyed ``<workload>/trace<T>``. Each record keeps everything but its
raw latency samples (``details.raw``), which are about 180 KB per 8 s run.
With ``--check``, the runs are compared with a file this tool wrote
instead: every ``counts`` entry must repeat exactly. Standard library only.

    python tools/bench_record.py --seed 22 --out BENCH_22.json
    python tools/bench_record.py --check BENCH_22.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
    parser.add_argument("--seed", type=int, help="the workload seed of every run")
    parser.add_argument("--out", type=Path, help="the file to write")
    parser.add_argument("--check", type=Path, help="rerun at this file's seed and compare counts")
    args = parser.parse_args(argv)
    if args.check is not None:
        old = json.loads(args.check.read_text(encoding="utf-8"))
        differ = []
        for key, run in old["runs"].items():
            workload, trace = key.split("/trace")
            print(key, file=sys.stderr, flush=True)
            new = record(workload, old["seed"], old["seconds"], int(trace))
            if new["counts"] != run["counts"]:
                differ.append(key)
        for key in differ:
            print(f"counts differ: {key}")
        print(f"{len(old['runs']) - len(differ)}/{len(old['runs'])} runs repeat their counts")
        return 1 if differ else 0
    if args.seed is None or args.out is None:
        parser.error("--seed and --out are required unless --check is given")
    args.out.write_text(json.dumps(record_all(args.seed), indent=2) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
