"""tools/bench_record.py, with the benchmark runs, the kernel, probe and
host-reference timings and the tier-1 run replaced by canned results: it
writes one sorted-key file per label, never overwrites one, writes nothing
when a run is not correct, and records the kernel and probe times, the
host's reference time around the runs and one tier-1 run."""

import importlib.util
import json
import os
import subprocess
import sys
import timeit
from pathlib import Path

import pytest
from test_exports import defaulted_parameters

ROOT = Path(__file__).resolve().parents[1]


TIER1_STDOUT = "....F.\n\n1 failed, 5 passed in 3.21s\n"


@pytest.fixture
def tier1_calls(monkeypatch):
    """The tier-1 subprocess, stubbed (run for real, a record test would run
    the suite inside itself); every other subprocess runs."""
    calls, real_run = [], subprocess.run

    def run(args, **kwargs):
        if "pytest" not in args:
            return real_run(args, **kwargs)
        calls.append((args, kwargs))
        return subprocess.CompletedProcess(args, 1, stdout=TIER1_STDOUT, stderr="")

    monkeypatch.setattr(subprocess, "run", run)
    return calls


KERNEL_US = {"averaged": {"log": 5.5, "quadratic": 4.9}, "full": {"log": 14.5, "quadratic": 11.9},
             "seeker_field": {"log": 7.4, "quadratic": 7.2}}


@pytest.fixture
def kernel_calls(monkeypatch, tier1_calls):
    """The kernel-timing subprocess, stubbed (run for real, it takes seconds);
    every other subprocess goes on to tier1_calls' stand-in."""
    calls, inner_run = [], subprocess.run

    def run(args, **kwargs):
        if "timeit" not in args[-1]:
            return inner_run(args, **kwargs)
        calls.append((args, kwargs))
        return subprocess.CompletedProcess(args, 0, stdout=json.dumps(KERNEL_US) + "\n", stderr="")

    monkeypatch.setattr(subprocess, "run", run)
    return calls


PROBE_MS = {"16_rows": 251.5, "8_rows": 30.2}


@pytest.fixture
def probe_calls(monkeypatch, kernel_calls):
    """The averaged-probe timing subprocess, stubbed (run for real, it takes
    seconds); every other subprocess goes on to kernel_calls' stand-in."""
    calls, inner_run = [], subprocess.run

    def run(args, **kwargs):
        if "probe_averaged_stability" not in args[-1]:
            return inner_run(args, **kwargs)
        calls.append((args, kwargs))
        return subprocess.CompletedProcess(args, 0, stdout=json.dumps(PROBE_MS) + "\n", stderr="")

    monkeypatch.setattr(subprocess, "run", run)
    return calls


@pytest.fixture
def host_calls(monkeypatch, probe_calls):
    """The host-reference subprocess, stubbed: it reads 0.0213 s, then
    0.0247 s; every other subprocess goes on to probe_calls' stand-in."""
    calls, inner_run, readings = [], subprocess.run, iter([0.0213, 0.0247])

    def run(args, **kwargs):
        if "reference_seconds" not in args[-1]:
            return inner_run(args, **kwargs)
        calls.append((args, kwargs))
        return subprocess.CompletedProcess(args, 0, stdout=f"{next(readings)}\n", stderr="")

    monkeypatch.setattr(subprocess, "run", run)
    return calls


def load_recorder():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def recorder(tmp_path, monkeypatch, tier1_calls, kernel_calls, probe_calls, host_calls):
    module = load_recorder()
    monkeypatch.setattr(module, "HERE", tmp_path)
    return module


def canned(flags):
    """run_once's stand-in: each run's wall_s is its index, correct as flagged."""
    runs = iter(enumerate(flags))

    def run_once(root, workload):
        i, ok = next(runs)
        metrics = {"wall_s": {"value": float(i), "unit": "s"}}
        return {"correct": ok, "failed": 0, "metrics": metrics}, {"nproc": 2, "src_lines": 7}

    return run_once


def test_records_medians_spreads_and_the_counts(recorder, tmp_path, monkeypatch):
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    monkeypatch.setattr(recorder, "run_once", canned([True] * (3 * len(workloads))))
    assert recorder.main(["x", "--root", str(ROOT)]) == 0
    text = (tmp_path / "bench" / "BENCH_x.json").read_text()
    record = json.loads(text)
    assert text == json.dumps(record, indent=2, sort_keys=True) + "\n"
    assert sorted(record["workloads"]) == sorted(workloads)
    first = record["workloads"][workloads[0]]
    assert first["correct"] == [True] * 3
    assert first["metrics"]["wall_s"] == {"median": 1.0, "spread": 2.0, "values": [0.0, 1.0, 2.0],
                                          "unit": "s"}
    assert record["defaulted_parameters"] == len(defaulted_parameters())
    assert (record["nproc"], record["src_lines"]) == (2, 7)


def test_refuses_to_overwrite(recorder, tmp_path):
    out = tmp_path / "bench" / "BENCH_x.json"
    out.parent.mkdir()
    out.write_text("kept")
    assert recorder.main(["x", "--root", str(ROOT)]) == 2
    assert out.read_text() == "kept"


def test_writes_nothing_when_a_run_is_not_correct(recorder, tmp_path, monkeypatch):
    monkeypatch.setattr(recorder, "run_once", canned([True, False] + [True] * 10))
    assert recorder.main(["x", "--root", str(ROOT)]) == 1
    assert not (tmp_path / "bench").exists()


def test_records_one_tier1_run_in_the_checkout(recorder, tier1_calls, tmp_path, monkeypatch):
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    monkeypatch.setattr(recorder, "run_once", canned([True] * (3 * len(workloads))))
    assert recorder.main(["x", "--root", str(ROOT)]) == 0
    tier1 = json.loads((tmp_path / "bench" / "BENCH_x.json").read_text())["tier1"]
    [(args, kwargs)] = tier1_calls
    assert args == [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    assert kwargs["cwd"] == ROOT
    assert kwargs["env"]["PYTHONPATH"].split(os.pathsep)[0] == str(ROOT / "src")
    assert tier1["args"] == args[1:]
    assert (tier1["exit_code"], tier1["summary"]) == (1, "1 failed, 5 passed in 3.21s")
    assert 0.0 <= tier1["wall_s"] < 60.0


def test_records_the_rk4_step_kernels_of_the_checkout(recorder, kernel_calls, tmp_path,
                                                      monkeypatch):
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    monkeypatch.setattr(recorder, "run_once", canned([True] * (3 * len(workloads))))
    assert recorder.main(["x", "--root", str(ROOT)]) == 0
    record = json.loads((tmp_path / "bench" / "BENCH_x.json").read_text())
    [(args, kwargs)] = kernel_calls
    assert args == [sys.executable, "-c", recorder.KERNELS]
    assert kwargs["cwd"] == ROOT and kwargs["check"] is True
    assert kwargs["env"]["PYTHONPATH"] == str(ROOT / "src")
    assert record["rk4_step_us"] == KERNEL_US


def test_the_kernel_script_steps_each_field_on_a_list(recorder, monkeypatch, capsys):
    # the script run in-process on this checkout, each timeit call replaced
    # by one step that reads as 1 us a step
    steps = []

    def one_step(stmt, globals, number, repeat):
        steps.append(eval(stmt, globals))
        return [1e-6 * number] * repeat

    monkeypatch.setattr(timeit, "repeat", one_step)
    exec(recorder.KERNELS, {})
    assert [(type(s), len(s)) for s in steps] == [(list, 14), (list, 14), (list, 12)] * 2
    assert json.loads(capsys.readouterr().out) == {
        kernel: {"log": pytest.approx(1.0), "quadratic": pytest.approx(1.0)}
        for kernel in ("averaged", "full", "seeker_field")}


def test_records_the_averaged_probe_times_of_the_checkout(recorder, probe_calls, tmp_path,
                                                          monkeypatch):
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    monkeypatch.setattr(recorder, "run_once", canned([True] * (3 * len(workloads))))
    assert recorder.main(["x", "--root", str(ROOT)]) == 0
    record = json.loads((tmp_path / "bench" / "BENCH_x.json").read_text())
    [(args, kwargs)] = probe_calls
    assert args == [sys.executable, "-c", recorder.PROBES]
    assert kwargs["cwd"] == ROOT and kwargs["check"] is True
    assert kwargs["env"]["PYTHONPATH"] == str(ROOT / "src")
    assert record["averaged_probe_ms"] == PROBE_MS


def test_the_probe_script_flies_both_shapes(recorder, monkeypatch, capsys):
    # the script run in-process on this checkout, each timeit call replaced
    # by one probe that reads as 1 ms
    reports = []

    def one_call(stmt, globals, number, repeat):
        reports.append(eval(stmt, globals))
        return [1e-3 * number] * repeat

    monkeypatch.setattr(timeit, "repeat", one_call)
    exec(recorder.PROBES, {})
    assert [(len(r.runs), r.deltas, r.horizon, r.entry_radius) for r in reports] == [
        (8, [2.0], 5.0, 0.1), (16, [6.0, 2.0], 20.0, 1e-3)]
    assert json.loads(capsys.readouterr().out) == {
        "8_rows": pytest.approx(1.0), "16_rows": pytest.approx(1.0)}


def test_records_the_host_reference_around_the_runs(recorder, host_calls, tmp_path,
                                                   monkeypatch):
    # one reading before the first run and one after the last, stored as
    # read: the runs' metrics are not rescaled by them
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    events, run_once = [], canned([True] * (3 * len(workloads)))

    def logged(root, workload):
        events.append(len(host_calls))
        return run_once(root, workload)

    monkeypatch.setattr(recorder, "run_once", logged)
    assert recorder.main(["x", "--root", str(ROOT)]) == 0
    record = json.loads((tmp_path / "bench" / "BENCH_x.json").read_text())
    assert events == [1] * (3 * len(workloads))
    assert len(host_calls) == 2
    for args, kwargs in host_calls:
        assert args == [sys.executable, "-c", recorder.HOST_REFERENCE]
        assert kwargs["cwd"] == ROOT and kwargs["check"] is True
    assert record["host_reference_s"] == {"before": 0.0213, "after": 0.0247}
    assert record["workloads"][workloads[0]]["metrics"]["wall_s"]["values"] == [0.0, 1.0, 2.0]


def test_the_host_script_reads_the_calibration_kernel_without_writing(tmp_path):
    # run for real, no subprocess stubbed (7 kernel calls, well under a
    # second), in a copy of perfbench/calibration.py: it prints one
    # positive time and leaves no bytecode beside the module
    recorder = load_recorder()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "calibration.py").write_bytes(
        (ROOT / "perfbench" / "calibration.py").read_bytes())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run([sys.executable, "-c", recorder.HOST_REFERENCE], cwd=tmp_path,
                          capture_output=True, text=True, check=True, env=env)
    assert 0.0 < json.loads(proc.stdout) < 10.0
    assert sorted(p.name for p in (tmp_path / "perfbench").iterdir()) == ["calibration.py"]
