#!/usr/bin/env python3
"""Benchmark for the twoscale package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads: flight, ensemble, averaging, compare (see
perfbench/README.md).  Inputs are drawn from --seed.  One process, one
thread, one operation in flight at a time.

--trace 0 measures the end-to-end metrics.  Operations run in whole
passes over the seed's input pool until --seconds have passed (and at
least two passes and sixteen operations have run).  Set-up time is the
median over fresh interpreters.

--trace 1 runs one untraced pass, then two passes with every module's
entry points wrapped in spans, and reports per-layer metrics from the
second traced pass.  Span times are not calibrated.  Counts must repeat exactly between the two traced
passes, and outputs must match the untraced pass byte for byte.

Every operation's output passes an oracle and is hashed; repeats of an
input must hash identically.  The last line of output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import os

# one thread everywhere, set before numpy loads here or in the set-up probes
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_PROBES = 9
MIN_PASSES = 2  # every input repeats at least once, for the determinism check
# op_tail_s needs ten samples beyond its percentile; a few more keep that
# percentile off the very bottom of the sample on the slowest workload
MIN_OPS = 16
PROBE_TIMEOUT_S = 60


@dataclass
class Outcome:
    index: int
    seconds: float  # the program calls, calibrated
    raw_seconds: float  # the program calls, as measured
    check_seconds: float  # the oracle and hashing, calibrated
    raw_check_seconds: float
    ok: bool
    digest: str | None
    work: float
    readings: dict
    error: str | None = None


class HostClock:
    """Rescales timings to the reference kernel's nominal speed (see calibration.py)."""

    def __init__(self):
        self.scale = 1.0
        self.scales: list[float] = []
        self._ref = calibration.reference_seconds()

    def rescale(self) -> float:
        """Scale for the interval since the last call, from the kernel runs bracketing it."""
        ref = calibration.reference_seconds()
        self.scale = calibration.REFERENCE_NOMINAL_S / (0.5 * (self._ref + ref))
        self._ref = ref
        self.scales.append(self.scale)
        return self.scale


def _error_text(err: Exception) -> str:
    return "".join(traceback.format_exception_only(err)).strip()


def run_op(wl, i: int, clock: HostClock) -> Outcome:
    """One closed-loop operation: its timed program calls, then the untimed oracle."""
    raw = seconds = 0.0
    results = []
    for part in wl.parts(i):
        t0 = time.perf_counter()
        try:
            results.append(part())
            error = None
        except Exception as err:  # a failing operation is counted; the run goes on
            error = _error_text(err)
        dt = time.perf_counter() - t0
        raw += dt
        seconds += dt * clock.rescale()
        if error is not None:
            return Outcome(i, seconds, raw, 0.0, 0.0, False, None, 0.0, {}, error)
    t0 = time.perf_counter()
    try:
        checked = wl.check(i, results)
    except Exception as err:  # an unreadable or missing artifact fails the operation
        return Outcome(i, seconds, raw, 0.0, 0.0, False, None, 0.0, {}, _error_text(err))
    check = time.perf_counter() - t0
    return Outcome(i, seconds, raw, check * clock.scale, check, checked.ok, checked.digest,
                   checked.work if checked.ok else 0.0, checked.readings)


def run_pass(wl, clock: HostClock) -> list[Outcome]:
    return [run_op(wl, i, clock) for i in range(wl.pass_size)]


def wall(outcomes: list[Outcome]) -> float:
    """Calibrated wall time of the operations and their checks (calibration runs excluded)."""
    return sum(o.seconds + o.check_seconds for o in outcomes)


def raw_wall(outcomes: list[Outcome]) -> float:
    return sum(o.raw_seconds + o.raw_check_seconds for o in outcomes)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def digests_agree(outcomes: list[Outcome]) -> bool:
    seen: dict[int, str] = {}
    for o in outcomes:
        if o.digest is None:
            continue
        if seen.setdefault(o.index, o.digest) != o.digest:
            return False
    return True


def measure_setup(workload: str, seed: int) -> list[float]:
    """Calibrated seconds from launching a fresh interpreter to the workload being ready.

    Each probe prints "ready" once set up, then times the reference kernel
    and prints that time, which calibrates the probe.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            ready = proc.stdout.readline()
            t1 = time.perf_counter()
            rest, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
        ref = float(rest.split()[0])
        samples.append((t1 - t0) * calibration.REFERENCE_NOMINAL_S / ref)
    return samples


def count_src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def run_metadata() -> dict:
    """Machine and build facts; recorded beside the metrics, never gated."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "src_lines": count_src_lines(),
    }


def summarize_readings(outcomes: list[Outcome]) -> dict:
    """Worst accuracy reading of each kind over all operations."""
    out: dict[str, float] = {}
    for o in outcomes:
        for key, value in o.readings.items():
            out[key] = max(out.get(key, value), value)  # larger is worse for every reading
    return out


def untraced(wl, seconds: float, setup_samples: list[float]) -> tuple[dict, list[Outcome], dict]:
    """Whole passes until `seconds` have elapsed, with at least MIN_PASSES and MIN_OPS."""
    clock = HostClock()
    outcomes: list[Outcome] = []
    pass_walls: list[float] = []
    start = time.perf_counter()
    while True:
        done = run_pass(wl, clock)
        pass_walls.append(wall(done))
        outcomes.extend(done)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(pass_walls) >= MIN_PASSES and len(outcomes) >= MIN_OPS:
            break
    op_times = [o.seconds for o in outcomes]
    tail_value, tail_pct = tail(op_times)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(pass_walls), "s"),
        "work_per_s": (sum(o.work for o in outcomes) / sum(pass_walls), "1/s"),
        "op_p50_s": (statistics.median(op_times), "s"),
        "op_tail_s": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "passes": len(pass_walls),
        "pass_size": wl.pass_size,
        "measured_s": elapsed,
        "op_tail_percentile": tail_pct,
        "op_samples": len(op_times),
        "setup_samples": len(setup_samples),
        "host_speed_median": statistics.median(clock.scales),
        "uncalibrated_op_p50_s": statistics.median(o.raw_seconds for o in outcomes),
    }
    return metrics, outcomes, notes


def traced(workload_cls, wl, seed: int, workdir: Path) -> tuple[dict, list[Outcome], dict, bool]:
    import tracer as tracing
    import twoscale
    from twoscale import averaging, benchmarks, cli, harness, numkit, seeker, so3, system

    modules = {
        "twoscale": twoscale, "numkit": numkit, "so3": so3, "seeker": seeker,
        "system": system, "averaging": averaging, "harness": harness, "cli": cli,
        "benchmarks": benchmarks,
    }
    clock = HostClock()
    plain = run_pass(wl, clock)

    tracer = tracing.Tracer()
    installation = tracing.Installation(tracer, modules)
    try:
        twl = workload_cls(seed, workdir / "traced")
        tracer.reset()
        first = run_pass(twl, clock)
        first_counts = tracing.per_layer_metrics(tracer, raw_wall(first), 1.0)
        tracer.reset()
        second = run_pass(twl, clock)
        # spans hold raw times, so the accounting uses the raw wall; the
        # overhead compares calibrated walls, as host speed drifts between passes
        metrics = tracing.per_layer_metrics(tracer, raw_wall(second), wall(second) / wall(plain))
    finally:
        installation.undo()

    repeat_ok = all(first_counts[k][0] == metrics[k][0] for k in tracing.REPEATED_COUNTS)
    outcomes = plain + first + second
    identical = digests_agree(outcomes)
    notes = {
        "counts_repeat": repeat_ok,
        "traced_matches_untraced": identical,
        "repeated_counts": {k: metrics[k][0] for k in tracing.REPEATED_COUNTS},
        "waiting_s": 0.0,
    }
    if hasattr(wl, "plain_argv"):
        # the same command in a fresh interpreter, nothing wrapped
        out_dir = workdir / "plain"
        out_dir.mkdir()
        proc = subprocess.run(wl.plain_argv(0, SRC, out_dir), cwd=ROOT,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        plain_ok = (proc.returncode == 0
                    and hashlib.sha256(wl.artifact(out_dir)).hexdigest() == plain[0].digest)
        notes["unbenchmarked_run_matches"] = plain_ok
        identical = identical and plain_ok
    return metrics, outcomes, notes, repeat_ok and identical


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "twoscale" / "__init__.py").is_file():
        print(f"error: no twoscale sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = WORK_ROOT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            WORKLOADS[args.workload](args.seed, workdir)
            print("ready", flush=True)
            print(calibration.reference_seconds(), flush=True)
            return 0
        return measure(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, workload_cls, workdir: Path) -> int:
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    wl = workload_cls(args.seed, workdir / "untraced")
    if args.trace:
        metrics, outcomes, notes, correct = traced(workload_cls, wl, args.seed, workdir)
    else:
        metrics, outcomes, notes = untraced(wl, args.seconds, setup_samples)
        notes["digests_repeat"] = digests_agree(outcomes)
        correct = notes["digests_repeat"]
    failed = [o for o in outcomes if not o.ok]
    correct = correct and not failed
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {len(outcomes)}  failed {len(failed)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    for o in failed[:5]:
        print(f"# failed op {o.index}: {o.error or 'oracle missed'} {o.readings}")
    print("# notes " + json.dumps(notes, sort_keys=True))
    print("# readings " + json.dumps(summarize_readings(outcomes), sort_keys=True))
    print("# metadata " + json.dumps(run_metadata(), sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
