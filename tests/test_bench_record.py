"""tools/bench_record.py, with the benchmark runs, the kernel and probe
timings and the tier-1 run replaced by canned results: it writes one
sorted-key file per label, never overwrites one, writes nothing when a run
is not correct, and records the kernel and probe times and one tier-1 run."""

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
def recorder(tmp_path, monkeypatch, tier1_calls, kernel_calls, probe_calls):
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
