"""The benchmark's traced mode runs on the current package.

perfbench/tracer.py wraps the package's functions and the seeker spec's
fields from outside, so a change to what those fields receive (a block
of states, say) must keep a traced run correct and its counts repeatable.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["averaging", "compare"])
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
    assert json.loads(notes[0][len("# notes "):])["counts_repeat"] is True
