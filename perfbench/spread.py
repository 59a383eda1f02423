#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads flight,compare --seeds 1-10 [--trace 0] [--out FILE]

For every workload and end-to-end metric this prints the median of the
runs and the spread (first-to-third quartile distance over the median,
from ``statistics.quantiles(values, n=4)``) next to the metric's bound
from BENCHMARK.json.  --out writes the medians, quartiles and every raw
value as JSON.  Runs are sequential; each is one ``run.py`` process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary: dict[str, dict] = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"({time.perf_counter() - t0:.1f} s)", flush=True)
        table = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            table[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "values": values,
            }
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}  {'OK' if table[name]['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {name:34s} median {med:>14.6g} {table[name]['unit']:6s} "
                  f"spread {table[name]['spread']:.4f}{flag}")
        summary[workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": table,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
