"""tools/bench_record.py, with the benchmark runs replaced by canned results:
it writes one sorted-key file per label, never overwrites one, and writes
nothing when a run is not correct."""

import importlib.util
import json
from pathlib import Path

import pytest
from test_exports import defaulted_parameters

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def recorder(tmp_path, monkeypatch):
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
