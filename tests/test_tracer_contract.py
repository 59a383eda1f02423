"""The benchmark's span tracer still finds every name it wraps.

perfbench/tracer.py rebinds the package's functions, methods and closure
factories by name, from outside src/.  Installing it in a fresh
interpreter, with the module table perfbench/run.py uses, fails on any
deleted or renamed entry point; the subprocess keeps a half-installed
tracer from leaking into the other tests.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import tracer as tracing
import twoscale
from twoscale import averaging, benchmarks, cli, harness, numkit, seeker, so3, system

modules = {{
    "twoscale": twoscale, "numkit": numkit, "so3": so3, "seeker": seeker,
    "system": system, "averaging": averaging, "harness": harness, "cli": cli,
    "benchmarks": benchmarks,
}}
originals = {{name: dict(vars(mod)) for name, mod in modules.items()}}
installation = tracing.Installation(tracing.Tracer(), modules)
assert so3.manifold_residual is not originals["so3"]["manifold_residual"]
installation.undo()
assert all(dict(vars(mod)) == originals[name] for name, mod in modules.items())
"""


def test_tracer_installs_on_every_traced_name():
    code = SCRIPT.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
