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
- the kernel time of one list-state RK4 step, best of 7 ``timeit``
  rounds in CHECKOUT, in microseconds: seeker_field, the seeker model's
  full and the averaged list form, each on the log and quadratic fields,
  from the default simulate start;
- the wall time of the averaged probe (harness.probe_averaged_stability)
  on the quadratic field, best of 5 in-process calls in CHECKOUT, in
  milliseconds, at two shapes: 8 rows (deltas [2], horizon 5, entry
  radius 0.1: one ensemble operation) and 16 rows (deltas [6, 2],
  horizon 20, entry radius 1e-3: criterion 6's starts), both at dt 0.01;
- one run of the tier-1 suite in CHECKOUT, after the benchmark runs:
  its wall time, exit code and pytest's summary line;
- the host's speed before and after the benchmark runs: the time of
  CHECKOUT's perfbench/calibration.py reference kernel, best of 7 calls,
  in seconds (``host_reference_s``).  It tells a slow host from slow
  code when two points are compared; no metric is rescaled by it.

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

# one list-state RK4 step per field, from simulate's default start at its
# default omega and step: best of 7 timeit rounds, in microseconds
KERNEL_STEPS = 10000
KERNELS = f"""
import json, timeit
import numpy as np
from twoscale import numkit, seeker
omega = 4.0 * np.pi
config = seeker.SeekerConfig(omega=omega)
out = {{}}
for name, fld in sorted(seeker.builtin_fields().items()):
    x = seeker.initial_state(fld, np.array([6.0, 2.0, -2.0]), np.eye(3)).tolist()
    for kernel, field, state in [("seeker_field", seeker.seeker_field(config, fld), x),
                                 ("full", seeker.as_system_spec(fld).full(omega), x),
                                 ("averaged", seeker.averaged_seeker_field(fld), x[:12])]:
        names = dict(rk4_step=numkit.rk4_step, field=field, state=state, dt=config.dt)
        rounds = timeit.repeat("rk4_step(field, 0.0, state, dt)", globals=names,
                               number={KERNEL_STEPS}, repeat=7)
        out.setdefault(kernel, {{}})[name] = 1e6 * min(rounds) / {KERNEL_STEPS}
print(json.dumps(out))
"""

# the averaged probe at ensemble's shape and at criterion 6's (whose
# horizon is 200): best of 5 timeit rounds of one call each, in milliseconds
PROBES = """
import json, timeit
from twoscale import harness, seeker
fld = seeker.builtin_fields()["quadratic"]
out = {}
for rows, deltas, horizon, radius in [(8, [2.0], 5.0, 0.1), (16, [6.0, 2.0], 20.0, 1e-3)]:
    names = dict(probe=harness.probe_averaged_stability, fld=fld, deltas=deltas,
                 horizon=horizon, radius=radius)
    rounds = timeit.repeat("probe(fld, deltas, horizon, radius, 0.01)", globals=names,
                           number=1, repeat=5)
    out[f"{rows}_rows"] = 1e3 * min(rounds)
print(json.dumps(out))
"""

# the calibration kernel, imported from the checkout's perfbench/ without
# writing bytecode there: best of 7 calls, in seconds
HOST_REFERENCE = """
import json, sys
sys.dont_write_bytecode = True
sys.path.insert(0, "perfbench")
import calibration
print(json.dumps(min(calibration.reference_seconds() for _ in range(7))))
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
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run_script(source: str) -> str:
        """The stdout of `python -c source` in root, importing root's src/."""
        return subprocess.run([sys.executable, "-c", source], cwd=root, capture_output=True,
                              text=True, env=env, check=True).stdout

    host_before = json.loads(run_script(HOST_REFERENCE))
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
    host_after = json.loads(run_script(HOST_REFERENCE))

    defaulted = run_script(COUNT_DEFAULTS).strip()
    kernels = run_script(KERNELS)
    probes = run_script(PROBES)
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
        "host_reference_s": {"before": host_before, "after": host_after},
        "src_lines": meta.get("src_lines"),
        "defaulted_parameters": int(defaulted),
        "rk4_step_us": json.loads(kernels),
        "averaged_probe_ms": json.loads(probes),
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
