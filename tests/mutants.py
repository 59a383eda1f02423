"""Mutation audit of the gate: which one-line mutants does tier-1 miss?

Each mutant below changes one line of src/.  For each, the tree is copied
to a temporary directory, the mutant applied there, and tier-1 run on the
copy (pytest -x); a mutant the suite passes is a survivor.  Run from any
directory, optionally naming the mutants to try:

    python tests/mutants.py [name ...]

Each mutant costs up to one tier-1 run (about 50 s on a 2-core machine),
so the whole table takes several minutes; tier-1 does not collect this
file.  The exit status is 1 when a mutant that is not known to be
equivalent survives, or when a mutant no longer applies.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name, file under src/twoscale, the line's text, its mutant, what a survivor lets through
MUTANTS = [
    ("entered-tail-z", "harness.py",
     "and r.entry_time <= entry_deadline and r.tail_z <= eps_z)",
     "and r.entry_time <= entry_deadline)",
     "an entry with a large fast-state error in the tail"),
    ("entered-deadline", "harness.py",
     "and r.entry_time <= entry_deadline and r.tail_z <= eps_z)",
     "and r.entry_time <= 2 * entry_deadline and r.tail_z <= eps_z)",
     "a late entry"),
    ("contained-sup-z", "harness.py",
     "return not r.diverged and r.sup_dist <= eps_x and r.sup_z <= eps_z",
     "return not r.diverged and r.sup_dist <= eps_x",
     "containment with an unbounded filter"),
    ("all-entered-any", "harness.py",
     'all_entered=all(run["entry_time"] is not None for run in runs)',
     'all_entered=any(run["entry_time"] is not None for run in runs)',
     "exit 0 when some starts never enter"),
    ("max-vc-run-0", "harness.py",
     "max_vc_step_increase=float(np.max(np.maximum(max_inc, 0.0)))",
     "max_vc_step_increase=float(np.max(np.maximum(max_inc[:1], 0.0)))",
     "criterion 6's descent figure from one run"),
    ("decreasing-ties", "harness.py",
     "decreasing = all(b < a for a, b in zip(max_devs, max_devs[1:]))",
     "decreasing = all(b <= a for a, b in zip(max_devs, max_devs[1:]))",
     "a tied ladder passes criterion 3's 'strictly'"),
    ("parseval-nyquist", "averaging.py",
     "c = np.where(k < N // 2, 2.0, 1.0)",
     "c = np.where(k <= N // 2, 2.0, 1.0)",
     "nothing: the rfft of real data has a real Nyquist bin, so the weight "
     "multiplies Im(dG conj G) = 0 there"),
    ("periodic-bound", "system.py",
     "periodic=max_period < 1e-10,",
     "periodic=max_period < 1e-9,",
     "an aperiodic spec passes"),
    ("resonance-floor", "averaging.py",
     "np.maximum(sv[:, 0] / _MAX_CONDITION, 1e-12)",
     "np.maximum(sv[:, 0] / _MAX_CONDITION, 1e-13)",
     "a near-resonant layer matrix is accepted"),
    ("mode-sign", "averaging.py",
     "modes = (1j * (2.0 * np.pi / self.T))",
     "modes = (-1j * (2.0 * np.pi / self.T))",
     "correctors of d phi/d tau = -(A phi + b)"),
    ("source-offset", "averaging.py",
     "taus = float(offset) % self.T + self._taus",
     "taus = (float(offset) + 1e-3) % self.T + self._taus",
     "correctors solved against a source read 1e-3 off its phases"),
    ("avg-list-rate", "seeker.py",
     "h1, h2 = 0.25 * u1, 0.25 * u2",
     "h1, h2 = 0.2501 * u1, 0.2501 * u2",
     "an averaged vehicle turned at the wrong rate"),
    ("avg-list-dq2-sign", "seeker.py",
     "-h1 * a0, -h1 * a1, -h1 * a2, -h2 * a0, -h2 * a1, -h2 * a2]",
     "h1 * a0, h1 * a1, h1 * a2, -h2 * a0, -h2 * a1, -h2 * a2]",
     "an averaged vehicle whose frame leaves SO(3)"),
    # a + 2.0 * (b + c) + d would parse as the original's (a + 2.0 * (b + c)) + d
    ("rk4-list-sum-order", "numkit.py",
     '"result": "x{i} + h6 * ((a{i} + 2.0 * (b{i} + c{i})) + d{i})",',
     '"result": "x{i} + h6 * (a{i} + (2.0 * (b{i} + c{i}) + d{i}))",',
     "a list RK4 step whose last bits differ from the numpy RK4's"),
    ("rk4-list-stage4-h", "numkit.py",
     '"x_c": "x{i} + dt * c{i}",',
     '"x_c": "x{i} + h * c{i}",',
     "a list RK4 step whose fourth stage is taken half a step short"),
]

# mutants that change no output: a survivor among them is no gap in the gate
EQUIVALENT = {"parseval-nyquist"}

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".benchmarks", ".perfbench_work")


def run_mutant(name: str, path: str, old: str, new: str) -> str:
    """'killed by <test>', 'SURVIVED', or why the mutant no longer applies."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        target = tree / "src" / "twoscale" / path
        text = target.read_text()
        if text.count(old) != 1:
            return f"NOT APPLIED: {old!r} occurs {text.count(old)} times in {path}"
        target.write_text(text.replace(old, new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
            capture_output=True, text=True,
        )
    if proc.returncode == 0:
        return "SURVIVED"
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return "killed by " + (failed[0].split()[1] if failed else f"exit {proc.returncode}")


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    for name, path, old, new, lets_through in MUTANTS:
        if names and name not in names:
            continue
        verdict = run_mutant(name, path, old, new)
        if name in EQUIVALENT and verdict == "SURVIVED":
            verdict += ", equivalent"
        else:
            bad += not verdict.startswith("killed")
        print(f"{name:18} {verdict}  ({lets_through})", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
