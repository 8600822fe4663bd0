"""Run one workload of the specdec benchmark and print its metrics.

    python3 perfbench/run.py --workload wide-tree --seed 1 --seconds 32 --trace 0

Run it from the repository root; it imports the program from ``src/``. With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones from a traced pass. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record (environment stamp, counters,
sample counts) goes to ``.perfbench-out/``. See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["wide-tree", "chain-long", "demo-matrix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few prompts or 2-token decodes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "loadavg_before": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    for needed in (spec_path, ROOT / "src" / "specdec" / "__init__.py", ROOT / "demo" / "bench.cfg"):
        if not needed.is_file():
            print(f"perfbench: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy
    import specdec
    if Path(specdec.__file__).resolve().parent != ROOT / "src" / "specdec":
        print(f"perfbench: imported specdec from {specdec.__file__}, not from src/", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment(numpy.__version__)

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    env["loadavg_after"] = list(os.getloadavg())

    missing = [m["name"] for m in wanted if m["name"] not in result.metrics]
    if missing:
        result.problems.append(f"metrics not measured: {missing}")
    metrics = {
        m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
        for m in wanted if m["name"] in result.metrics
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = result.details.pop("tracer", None)
    if tracer is not None:
        tracer.write(workloads.OUT_DIR / f"spans-{tag}.jsonl")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": env,
        "attempted": result.attempted, "failed": result.failed,
        "problems": result.problems, "details": result.details,
        "counts": result.counts, "metrics": metrics,
    }
    (workloads.OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# {tag}: " + json.dumps({k: v for k, v in result.details.items() if k != "raw"}))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        share = result.failed / result.attempted if result.attempted else 1.0
        print(f"{'failed_share':36s} {share:>16.6g} ({result.failed} of {result.attempted} ops)")
    for problem in result.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print("env " + json.dumps(env))
    print("counts " + json.dumps(result.counts, sort_keys=True))
    print(json.dumps({
        "correct": result.failed == 0 and not result.problems,
        "attempted": max(result.attempted, 1),
        "failed": result.failed if result.attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
