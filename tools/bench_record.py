#!/usr/bin/env python3
"""Record one point of the BENCH trajectory: bench/BENCH_<label>.json.

    python3 tools/bench_record.py LABEL [--root CHECKOUT]

Runs ``perfbench/run.py --workload W --seed 1 --seconds 20 --trace 0``
three times per workload that CHECKOUT's BENCHMARK.json lists (default:
this checkout), one run at a time, each as a subprocess from CHECKOUT's
root.  The file, written with sorted keys, holds:

- the machine and build: the commit, whether src/ or perfbench/ differ
  from it, a SHA-1 of src/'s Python files, nproc, the CPU model, and the
  Python and numpy versions (as run.py's metadata line reports them);
- per workload, each end-to-end metric's three values, their median and
  their spread (max - min) / median, plus each run's ``correct`` flag and
  failed-operation count;
- the src/ line count and the defaulted-parameter count (every defaulted
  parameter of every callable the modules of tests/test_exports.py's
  rule export);
- one run of the tier-1 suite in CHECKOUT, after the benchmark runs:
  its wall time, exit code and pytest's summary line.

The file is the trajectory, not the proof of a gain: a claim still comes
from alternating parent/change pairs.  An existing file is never
overwritten, and nothing is written (exit 1) when any run is not
``"correct": true``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
RUNS = 3
RUN_ARGS = ["--seed", "1", "--seconds", "20", "--trace", "0"]
# the tier-1 verify command of ROADMAP.md, run with this interpreter
TIER1_ARGS = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
# the modules and rule of tests/test_exports.py's defaulted-parameter bound
COUNT_DEFAULTS = """
import importlib, inspect
n = 0
for name in ("numkit", "so3", "system", "averaging", "seeker", "harness", "benchmarks"):
    module = importlib.import_module(f"twoscale.{name}")
    for attr in module.__all__:
        obj = getattr(module, attr)
        if callable(obj):
            n += sum(p.default is not inspect.Parameter.empty
                     for p in inspect.signature(obj).parameters.values())
print(n)
"""


def run_once(root: Path, workload: str) -> tuple[dict, dict]:
    """The final JSON line of one run and its '# metadata' line; a run that
    exits non-zero or prints no result counts as not correct."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, *RUN_ARGS],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    meta = next((json.loads(line[len("# metadata "):]) for line in lines
                 if line.startswith("# metadata ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(proc.stderr[-2000:])
        return {"correct": False, "failed": None, "metrics": {}}, meta
    return result, meta


def time_tier1(root: Path) -> dict:
    """Wall time, exit code and summary line (pytest's last line) of one
    tier-1 run in root, with root/src first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1_ARGS], cwd=root, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    wall_s = time.perf_counter() - start
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    return {"args": TIER1_ARGS, "exit_code": proc.returncode,
            "summary": lines[-1].strip() if lines else "", "wall_s": wall_s}


def git(root: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def src_sha1(root: Path) -> str:
    digest = hashlib.sha1()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the file bench/BENCH_<label>.json")
    parser.add_argument("--root", type=Path, default=HERE,
                        help="the source checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    out = HERE / "bench" / f"BENCH_{args.label}.json"
    if out.exists():
        print(f"error: {out} exists; pick a new label", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]

    workloads, meta, correct = {}, {}, True
    for wl in (w["name"] for w in bench["workloads"]):
        runs = []
        for _ in range(RUNS):
            result, meta = run_once(root, wl)
            runs.append(result)
            print(f"{wl}: {json.dumps(result)}", flush=True)
        correct = correct and all(r["correct"] is True for r in runs)
        metrics = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) == RUNS:
                median = statistics.median(values)
                spread = (max(values) - min(values)) / median if median else None
                metrics[name] = {"median": median, "spread": spread, "values": values,
                                 "unit": runs[0]["metrics"][name]["unit"]}
        workloads[wl] = {"correct": [r["correct"] for r in runs],
                         "failed": [r["failed"] for r in runs], "metrics": metrics}
    if not correct:
        print("error: a run was not correct; nothing written", file=sys.stderr)
        return 1

    defaulted = subprocess.run(
        [sys.executable, "-c", COUNT_DEFAULTS], cwd=root, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")), check=True,
    ).stdout.strip()
    commit = git(root, "rev-parse", "HEAD") or None
    record = {
        "commit": commit,
        "dirty": None if commit is None else bool(
            git(root, "status", "--porcelain", "--", "src", "perfbench")),
        "src_sha1": src_sha1(root),
        "nproc": meta.get("nproc"),
        "cpu_model": meta.get("cpu_model"),
        "python": meta.get("python"),
        "numpy": meta.get("numpy"),
        "run": {"runs_per_workload": RUNS, "args": RUN_ARGS},
        "workloads": workloads,
        "src_lines": meta.get("src_lines"),
        "defaulted_parameters": int(defaulted),
        "tier1": time_tier1(root),
    }
    out.parent.mkdir(exist_ok=True)
    with open(out, "x") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
