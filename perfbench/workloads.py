"""The four benchmark workloads and their oracles.

Each workload draws a fixed pool of operation inputs from the seed at
set-up, then runs one operation at a time (a closed loop with a single
client).  ``parts(i)`` lists the program calls of operation i; only they
are timed.  ``check(i, results)`` runs afterwards, untimed: it applies the
oracle, hashes the output bytes and counts the work done.

The package is reached only through module attributes (``cli.main``,
``harness.probe_averaged_stability``, ...) so that the tracer's rebinding
of those attributes takes effect.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from twoscale import averaging, benchmarks, cli, harness, seeker, so3

TOLERANCE = 1e-6  # fbar error, corrector residuals and frame residual
SLOPE_MAX = -0.4


@dataclass
class Checked:
    ok: bool
    digest: str | None
    work: float
    readings: dict = field(default_factory=dict)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _random_frame(rng: np.random.Generator) -> np.ndarray:
    return so3.exp_so3(rng.uniform(-np.pi, np.pi, size=3))


def _shell_point(rng: np.random.Generator, lo: float, hi: float) -> np.ndarray:
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return float(rng.uniform(lo, hi)) * direction


class _CliWorkload:
    """A workload whose operation is one CLI command writing one artifact."""

    command = ""
    output = ""

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.dirs = []
        for i in range(self.pass_size):
            d = workdir / f"{self.name}-{i}"
            d.mkdir(parents=True)
            (d / "config.json").write_text(json.dumps(self.make_config(rng), sort_keys=True))
            self.dirs.append(d)

    def argv(self, i: int, out_dir: Path) -> list[str]:
        return [self.command, "--config", str(self.dirs[i] / "config.json"),
                "--out-dir", str(out_dir), "--quiet"]

    def parts(self, i: int) -> list:
        return [functools.partial(cli.main, self.argv(i, self.dirs[i]))]

    def plain_argv(self, i: int, src: Path, out_dir: Path) -> list[str]:
        """A fresh-interpreter run of the same command, with nothing wrapped."""
        boot = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
                "from twoscale.cli import main; sys.exit(main(sys.argv[1:]))")
        return [sys.executable, "-c", boot, str(src), *self.argv(i, out_dir)]

    def artifact(self, out_dir: Path) -> bytes:
        return (out_dir / self.output).read_bytes()

    @staticmethod
    def exited(rc: int) -> Checked:
        return Checked(ok=False, digest=None, work=0.0, readings={"exit_code": rc})


class Flight(_CliWorkload):
    """Seeded seeker flights on the log field: ``twoscale simulate``, stride 1, projected."""

    name = "flight"
    command = "simulate"
    output = "trajectory.csv"
    pass_size = 8
    T_F = 1.0

    def make_config(self, rng: np.random.Generator) -> dict:
        return {
            "field": "log",
            "p0": _shell_point(rng, 2.0, 6.0).tolist(),
            "R0": _random_frame(rng).tolist(),
            "t_f": self.T_F,
            "stride": 1,
            "projection": True,
            "output": self.output,
        }

    def check(self, i: int, results: list) -> Checked:
        (rc,) = results
        if rc != cli.EXIT_OK:
            return self.exited(rc)
        data = self.artifact(self.dirs[i])
        lines = data.decode().splitlines()
        frame_res = max(float(line.rsplit(",", 1)[1]) for line in lines[1:])
        return Checked(
            ok=frame_res < TOLERANCE,
            digest=_sha(data),
            work=len(lines) - 2,  # header and the initial row are not steps
            readings={"max_frame_residual": frame_res},
        )


class Compare(_CliWorkload):
    """Short seeker frequency ladders: ``twoscale sweep`` on the quadratic field."""

    name = "compare"
    command = "sweep"
    output = "sweep_report.json"
    pass_size = 4
    T_F = 1.0
    OMEGAS = [8.0 * np.pi * 2.0**k for k in range(4)]
    # 25 steps per period keeps max_devs within 1% of a 200-step run; the
    # shorter operation lets calibration.py's brackets follow the host's
    # speed changes, which come about once a second
    STEPS_PER_PERIOD = 25
    AVG_STEPS = 125
    # Starting radii where the 8*pi rung is already asymptotic in every
    # direction: from about 6.5 out, some starts deviate more at 16*pi than
    # at 8*pi (at any step count), and inside 4 the slope of some
    # directions nears -0.4.
    START_RADII = (4.5, 5.5)

    def make_config(self, rng: np.random.Generator) -> dict:
        return {
            "system": "seeker",
            "field": "quadratic",
            "p0": _shell_point(rng, *self.START_RADII).tolist(),
            "omegas": self.OMEGAS,
            "t_f": self.T_F,
            "steps_per_period": self.STEPS_PER_PERIOD,
            "avg_steps": self.AVG_STEPS,
            "slope_max": SLOPE_MAX,
            "output": self.output,
        }

    def check(self, i: int, results: list) -> Checked:
        (rc,) = results
        if rc != cli.EXIT_OK:
            return self.exited(rc)
        data = self.artifact(self.dirs[i])
        report = json.loads(data)
        # full-system steps as run_compare sizes them, plus the averaged run
        steps = sum(
            max(1, round(self.T_F / ((2.0 * np.pi / w) / self.STEPS_PER_PERIOD))) + self.AVG_STEPS
            for w in self.OMEGAS
        )
        ok = (
            report["pass"]
            and report["strictly_decreasing"]
            and report["slope"] <= SLOPE_MAX
            and all(math.isfinite(e) for e in report["max_devs"])
        )
        return Checked(ok=ok, digest=_sha(data), work=steps,
                       readings={"sweep_slope": report["slope"]})


class Ensemble:
    """Short averaged closed-loop trajectories from seeded shell radii (quadratic field).

    One operation is one ``probe_averaged_stability`` call at one radius:
    the eight shell directions, each one trajectory.
    """

    name = "ensemble"
    pass_size = 5
    HORIZON = 5.0
    DT = 0.01
    ENTRY_RADIUS = 0.1

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.fld = benchmarks.field_by_name("quadratic")
        self.deltas = [float(d) for d in rng.uniform(1.0, 4.0, size=self.pass_size)]

    def parts(self, i: int) -> list:
        return [functools.partial(
            harness.probe_averaged_stability, self.fld, [self.deltas[i]], self.HORIZON,
            entry_radius=self.ENTRY_RADIUS, dt=self.DT,
        )]

    def check(self, i: int, results: list) -> Checked:
        (report,) = results
        body = report.as_dict()
        entries = [run["entry_time"] for run in body["runs"]]
        ok = report.all_entered and all(e is not None for e in entries)
        steps = len(entries) * max(1, round(self.HORIZON / self.DT))
        return Checked(
            ok=ok,
            digest=_sha(json.dumps(body, sort_keys=True).encode()),
            work=steps,
            readings={
                "max_entry_time": max((e for e in entries if e is not None), default=math.inf),
                "max_vc_step_increase": body["max_vc_step_increase"],
            },
        )


class Averaging:
    """Seeded (p, Q) states on the log seeker: fbar and both corrector residuals.

    fbar uses the ``average-check`` panel count (256) and the residuals
    the ``bvp-check`` panel count (512), as the acceptance checks do.
    """

    name = "averaging"
    pass_size = 4
    FBAR_PANELS = 256
    BVP_PANELS = 512

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        fld = benchmarks.field_by_name("log")
        self.spec = seeker.as_system_spec(fld)
        self.fbar_bundle = averaging.build_bundle(self.spec, n_panels=self.FBAR_PANELS)
        self.bvp_bundle = averaging.build_bundle(self.spec, n_panels=self.BVP_PANELS)
        self.closed = seeker.averaged_seeker_field(fld)
        self.states = [
            np.concatenate([_shell_point(rng, 1.5, 5.0), so3.embed(_random_frame(rng))])
            for _ in range(self.pass_size)
        ]

    def parts(self, i: int) -> list:
        x = self.states[i]
        spec, b = self.spec, self.bvp_bundle
        return [
            lambda: (self.fbar_bundle.averaged.fbar(x), self.closed(0.0, x)),
            lambda: averaging.residual_bvp(b.phi1, spec.A, b.phi1.b, spec.T, x=x),
            lambda: averaging.residual_bvp(b.phi2, spec.A, b.phi2.b, spec.T, x=x),
        ]

    def check(self, i: int, results: list) -> Checked:
        (numeric, reference), r1, r2 = results
        err = float(np.linalg.norm(numeric - reference) / np.linalg.norm(reference))
        return Checked(
            ok=err < TOLERANCE and r1 < TOLERANCE and r2 < TOLERANCE,
            digest=_sha(np.asarray(numeric, dtype=float).tobytes() + np.array([r1, r2]).tobytes()),
            work=1,
            readings={"fbar_rel_error": err, "phi1_residual": r1, "phi2_residual": r2},
        )


WORKLOADS = {w.name: w for w in (Flight, Ensemble, Averaging, Compare)}
