"""The benchmark's traced mode runs on the current package.

perfbench/tracer.py wraps the package's functions and the seeker spec's
fields from outside, so a change to what those fields receive (a block
of states, say) or to a wrapped kernel (the frame projection of a flight)
must keep a traced run correct and its counts repeatable.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["averaging", "compare", "flight"])
def test_traced_benchmark_pass_is_correct_and_repeats_its_counts(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    notes = [line for line in lines if line.startswith("# notes ")]
    assert len(notes) == 1
    notes = json.loads(notes[0][len("# notes "):])
    assert notes["counts_repeat"] is True and notes["traced_matches_untraced"] is True
    # the CLI workloads (compare, flight) rerun their command in a fresh
    # interpreter, nothing wrapped, and must write the same bytes
    assert notes.get("unbenchmarked_run_matches", workload == "averaging") is True
