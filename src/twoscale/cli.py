"""Command line: simulate, average-check, sweep, stability-probe, bvp-check.

Each command reads an optional JSON config (unknown keys are rejected),
writes its artifacts under --out-dir, and prints a one-line summary.
Outputs are deterministic: rerunning a command with the same config
produces byte-identical files.

Exit codes: 0 success, 1 invalid config or input, 2 trajectory
divergence, 3 a verified quantity missed its threshold.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .averaging import build_bundle, residual_bvp, solve_periodic_bvp
from .benchmarks import bvp_cosine_case, bvp_jordan_case, field_by_name, linear_benchmark
from .errors import ConfigurationError, DivergenceError, TwoscaleError
from .harness import probe_averaged_stability, probe_seeker_stability, sweep_convergence
from .seeker import (
    SeekerConfig,
    SeekerTrajectory,
    as_system_spec,
    averaged_seeker_field,
    initial_state,
    simulate_seeker,
)
from .so3 import embed, exp_so3

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_CRITERION = 3

SCHEMA_VERSION = 1

_DEFAULT_OMEGAS = [4.0 * np.pi * 2.0**k for k in range(5)]

DEFAULTS = {
    "simulate": {
        "field": "log",
        "omega": 4.0 * np.pi,
        "p0": [6.0, 2.0, -2.0],
        "R0": "identity",
        "y0": "quasi-steady",
        "t_f": 100.0,
        "steps_per_fast_period": 200,
        "projection": True,
        "stride": 1,
        "t0": 0.0,
        "output": "trajectory.csv",
    },
    "average-check": {
        "field": "log",
        "n_states": 20,
        "tolerance": 1e-6,
        "seed": 7,
        "panels": 256,
        "output": "average_check.json",
    },
    "sweep": {
        "system": "seeker",
        "field": "quadratic",
        "p0": [6.0, 2.0, -2.0],
        "y0": "quasi-steady",
        "omegas": _DEFAULT_OMEGAS,
        "t_f": 5.0,
        "steps_per_period": 400,
        "avg_steps": 4000,
        "slope_max": -0.4,
        "output": "sweep_report.json",
    },
    "stability-probe": {
        "system": "averaged",
        "field": "quadratic",
        "deltas": [6.0],
        "omegas": [4.0 * np.pi],
        "horizon": 200.0,
        "entry_radius": 0.1,
        "dt": 0.01,
        "eps_x": 1.0,
        "eps_z": 1.0,
        "entry_deadline": None,
        "steps_per_fast_period": 100,
        "output": "stability_report.json",
    },
    "bvp-check": {
        "cases": ["cosine-1d", "jordan-2d", "seeker-log"],
        "panels": 512,
        "tolerance": 1e-6,
        "n_states": 5,
        "seed": 11,
        "output": "bvp_report.json",
    },
}


def _load_config(path: str | None, command: str) -> dict:
    """Merge a JSON config over the command defaults, rejecting unknown keys."""
    merged = dict(DEFAULTS[command])
    if path is None:
        return merged
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigurationError(f"cannot read config {path}: {err}") from err
    try:
        user = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(user, dict):
        raise ConfigurationError(f"config {path} must hold a JSON object")
    unknown = sorted(set(user) - set(merged))
    if unknown:
        raise ConfigurationError(
            f"unknown config keys for {command}: {', '.join(unknown)}"
        )
    merged.update(user)
    return merged


def _write_csv(path: Path, header: list[str], rows) -> None:
    table = np.asarray(rows, dtype=float)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    body = (row * table.shape[0]) % tuple(table.ravel().tolist())
    path.write_text(",".join(header) + "\n" + body)


def _write_report(path: Path, payload: dict) -> None:
    body = {"schema_version": SCHEMA_VERSION, **payload}
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _parse_rotation(value) -> np.ndarray:
    if value == "identity":
        return np.eye(3)
    R = np.asarray(value, dtype=float)
    if R.shape != (3, 3):
        raise ConfigurationError("R0 must be 'identity' or a 3x3 nested list")
    return R


def _parse_y0(value) -> np.ndarray | None:
    """The filter start: None for quasi-steady, else the pair to use."""
    if value == "quasi-steady":
        return None
    if value == "zero":
        return np.zeros(2)
    y = np.asarray(value, dtype=float)
    if y.shape != (2,):
        raise ConfigurationError("y0 must be 'quasi-steady', 'zero', or a pair")
    return y


def _positive(cfg: dict, key: str) -> float:
    v = float(cfg[key])
    if not (np.isfinite(v) and v > 0.0):
        raise ConfigurationError(f"{key} must be positive, got {cfg[key]}")
    return v


def _whole(cfg: dict, key: str) -> int:
    """An integer setting: a JSON integer, or a float with no fraction."""
    v = cfg[key]
    if isinstance(v, bool) or not (
        isinstance(v, int) or (isinstance(v, float) and v.is_integer())
    ):
        raise ConfigurationError(f"{key} must be a whole number, got {v!r}")
    return int(v)


def _numbers(cfg: dict, key: str) -> list[float]:
    """A list setting: a JSON list of JSON numbers, read as floats (a
    string would otherwise be read one character at a time, and float()
    would take true as 1.0 and "6" as 6.0)."""
    v = cfg[key]
    if not isinstance(v, list) or any(
        isinstance(x, bool) or not isinstance(x, (int, float)) for x in v
    ):
        raise ConfigurationError(f"{key} must be a list of numbers, got {v!r}")
    return [float(x) for x in v]


def _tolerance(cfg: dict) -> float:
    # zero is a legal (if unsatisfiable) threshold: the check then reports
    # a criterion failure rather than a config error
    v = float(cfg["tolerance"])
    if not (np.isfinite(v) and v >= 0.0):
        raise ConfigurationError(f"tolerance must be >= 0, got {cfg['tolerance']}")
    return v


def _random_seeker_state(rng: np.random.Generator) -> np.ndarray:
    """A seeded seeker slow state (p, q): a random direction, a radius
    uniform in [1.5, 5] and a random frame, drawn in that order."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    p = float(rng.uniform(1.5, 5.0)) * direction
    Q = exp_so3(rng.uniform(-np.pi, np.pi, size=3))
    return np.concatenate([p, embed(Q)])


def cmd_simulate(cfg: dict, out_dir: Path, quiet: bool) -> int:
    fld = field_by_name(str(cfg["field"]))
    omega = _positive(cfg, "omega")
    p0 = np.asarray(cfg["p0"], dtype=float)
    if p0.shape != (3,):
        raise ConfigurationError("p0 must be a 3-vector")
    R0 = _parse_rotation(cfg["R0"])
    y0 = _parse_y0(cfg["y0"])
    t_f = float(cfg["t_f"])
    if not (np.isfinite(t_f) and t_f >= 0.0):
        raise ConfigurationError(f"t_f must be >= 0, got {cfg['t_f']}")
    # checked here because the t_f = 0 row never reaches simulate_seeker
    stride = _whole(cfg, "stride")
    if stride < 1:
        raise ConfigurationError(f"stride must be >= 1, got {stride}")
    if not isinstance(cfg["projection"], bool):
        raise ConfigurationError(f"projection must be true or false, got {cfg['projection']!r}")
    config = SeekerConfig(
        omega=omega,
        steps_per_fast_period=_whole(cfg, "steps_per_fast_period"),
        projection=cfg["projection"],
    )

    header = (
        ["t", "px", "py", "pz"]
        + [f"q{i}{a}" for i in (1, 2, 3) for a in "xyz"]
        + ["y1", "y2", "c_center", "v_c", "frame_residual"]
    )

    t0 = float(cfg["t0"])
    if t_f == 0.0:
        traj = SeekerTrajectory(
            times=np.array([t0]),
            states=initial_state(fld, p0, R0, y0=y0)[None, :],
            omega=omega,
            field_name=fld.name,
        )
    else:
        traj = simulate_seeker(config, fld, p0, R0, t_f, y0=y0, stride=stride, t0=t0)
    c_center = traj.center_values(fld)
    residuals = traj.frame_residuals()
    rows = np.column_stack(
        [traj.times, traj.states, c_center, traj.lyapunov_values(fld, c_center), residuals]
    )
    out_path = out_dir / str(cfg["output"])
    _write_csv(out_path, header, rows)
    p_end = traj.states[-1, 0:3]
    c_end = float(c_center[-1])
    max_res = float(np.max(residuals))
    _say(
        quiet,
        f"simulate: {traj.times.shape[0]} rows to {out_path}; "
        f"final |p - p*| = {np.linalg.norm(p_end - fld.p_star):.6g}, "
        f"c(p) = {c_end:.6g}, max frame residual = {max_res:.3g}",
    )
    return EXIT_OK


def cmd_average_check(cfg: dict, out_dir: Path, quiet: bool) -> int:
    fld = field_by_name(str(cfg["field"]))
    n_states = _whole(cfg, "n_states")
    if n_states < 1:
        raise ConfigurationError(f"n_states must be >= 1, got {n_states}")
    tol = _tolerance(cfg)
    panels = _whole(cfg, "panels")

    spec = as_system_spec(fld)
    bundle = build_bundle(spec, n_panels=panels)
    closed = averaged_seeker_field(fld)

    rng = np.random.default_rng(_whole(cfg, "seed"))
    errors = []
    for _ in range(n_states):
        x = _random_seeker_state(rng)
        numeric = bundle.averaged.fbar(x)
        reference = closed(0.0, x)
        err = float(np.linalg.norm(numeric - reference) / np.linalg.norm(reference))
        errors.append(err)
    # np.max, not max: a NaN on any state must reach the verdict
    max_err = float(np.max(errors))
    passed = max_err < tol

    _write_report(out_dir / str(cfg["output"]), {
        "field": fld.name,
        "n_states": n_states,
        "panels": panels,
        "tolerance": tol,
        "max_rel_error": max_err,
        "rel_errors": errors,
        "pass": passed,
    })
    _say(quiet, f"average-check: max relative error {max_err:.3g} "
                f"over {n_states} states ({'pass' if passed else 'FAIL'})")
    return EXIT_OK if passed else EXIT_CRITERION


def cmd_sweep(cfg: dict, out_dir: Path, quiet: bool) -> int:
    system = str(cfg["system"])
    omegas = _numbers(cfg, "omegas")
    t_f = _positive(cfg, "t_f")
    slope_max = float(cfg["slope_max"])
    if not np.isfinite(slope_max):
        raise ConfigurationError(f"slope_max must be finite, got {cfg['slope_max']}")

    y0_mode = str(cfg["y0"])
    if y0_mode not in ("quasi-steady", "zero"):
        raise ConfigurationError(f"y0 must be 'quasi-steady' or 'zero', got {y0_mode!r}")
    if system == "seeker":
        fld = field_by_name(str(cfg["field"]))
        p0 = np.asarray(cfg["p0"], dtype=float)
        if p0.shape != (3,) or not np.all(np.isfinite(p0)):
            raise ConfigurationError(f"p0 must be a finite 3-vector, got {cfg['p0']}")
        spec, averaged = as_system_spec(fld), averaged_seeker_field(fld)
        x0 = np.concatenate([p0, embed(np.eye(3))])
    elif system == "linear":
        bench = linear_benchmark()
        spec, averaged, x0 = bench.spec, bench.averaged_field, bench.x0
    else:
        raise ConfigurationError(f"unknown sweep system {system!r} (seeker or linear)")
    y0 = spec.phi0(x0) if y0_mode == "quasi-steady" else np.zeros(spec.m)

    report = sweep_convergence(
        spec, averaged, x0, y0, omegas, t_f,
        steps_per_period=_whole(cfg, "steps_per_period"),
        avg_steps=_whole(cfg, "avg_steps"),
    )
    diverged = any(not np.isfinite(e) for e in report.max_devs)
    slope_ok = report.slope <= slope_max
    payload = report.as_dict()
    payload.update({
        "system": system,
        "slope_max": slope_max,
        "slope_ok": slope_ok,
        "pass": bool(slope_ok and report.strictly_decreasing and not diverged),
    })
    _write_report(out_dir / str(cfg["output"]), payload)
    _say(quiet, f"sweep: slope {report.slope:.3f} (threshold {slope_max}), "
                f"decreasing={report.strictly_decreasing}, "
                f"{'pass' if payload['pass'] else 'FAIL'}")
    if diverged:
        return EXIT_DIVERGED
    return EXIT_OK if payload["pass"] else EXIT_CRITERION


def cmd_stability_probe(cfg: dict, out_dir: Path, quiet: bool) -> int:
    system = str(cfg["system"])
    fld = field_by_name(str(cfg["field"]))
    deltas = _numbers(cfg, "deltas")
    horizon = _positive(cfg, "horizon")

    if system == "averaged":
        report = probe_averaged_stability(
            fld, deltas, horizon,
            entry_radius=_positive(cfg, "entry_radius"),
            dt=_positive(cfg, "dt"),
        )
        payload = report.as_dict()
        payload["system"] = system
        payload["field"] = fld.name
        _write_report(out_dir / str(cfg["output"]), payload)
        _say(quiet, f"stability-probe (averaged): all_entered={report.all_entered}, "
                    f"max V_c step increase {report.max_vc_step_increase:.3g}")
        return EXIT_OK if report.all_entered else EXIT_CRITERION

    if system == "full":
        deadline = cfg["entry_deadline"]
        report = probe_seeker_stability(
            fld,
            eps_x=_positive(cfg, "eps_x"),
            eps_z=_positive(cfg, "eps_z"),
            deltas=deltas,
            omegas=_numbers(cfg, "omegas"),
            horizon=horizon,
            entry_deadline=None if deadline is None else float(deadline),
            steps_per_fast_period=_whole(cfg, "steps_per_fast_period"),
        )
        payload = report.as_dict()
        payload["system"] = system
        payload["field"] = fld.name
        _write_report(out_dir / str(cfg["output"]), payload)
        found = {d: w for d, w in report.entry_omega.items()}
        _say(quiet, f"stability-probe (full): entry frequencies {found}")
        return EXIT_OK

    raise ConfigurationError(f"unknown probe system {system!r} (averaged or full)")


def cmd_bvp_check(cfg: dict, out_dir: Path, quiet: bool) -> int:
    panels = _whole(cfg, "panels")
    tol = _tolerance(cfg)
    n_states = _whole(cfg, "n_states")
    if n_states < 1:
        raise ConfigurationError(f"n_states must be >= 1, got {n_states}")
    case_names = cfg["cases"]
    if not isinstance(case_names, list) or not case_names:
        raise ConfigurationError(f"cases must be a non-empty list of names, got {case_names!r}")
    known = ("cosine-1d", "jordan-2d", "seeker-log")
    bad = sorted({str(name) for name in case_names if name not in known})
    if bad:
        raise ConfigurationError(f"unknown bvp cases: {', '.join(bad)}")

    results = []
    for name in case_names:
        if name in ("cosine-1d", "jordan-2d"):
            case = bvp_cosine_case() if name == "cosine-1d" else bvp_jordan_case()
            phi = solve_periodic_bvp(case.A, case.b, case.T, n_panels=panels)
            res = residual_bvp(phi, case.A, case.b, case.T)
            results.append({"case": name, "residuals": [res]})
        else:
            fld = field_by_name("log")
            spec = as_system_spec(fld)
            bundle = build_bundle(spec, n_panels=panels)
            b1 = bundle.phi1.b
            b2 = bundle.phi2.b
            rng = np.random.default_rng(_whole(cfg, "seed"))
            residuals = []
            for _ in range(n_states):
                x = _random_seeker_state(rng)
                r1 = residual_bvp(bundle.phi1, spec.A, b1, spec.T, x=x)
                r2 = residual_bvp(bundle.phi2, spec.A, b2, spec.T, x=x)
                residuals.extend([r1, r2])
            results.append({"case": name, "residuals": residuals})

    # np.max, not max: a NaN residual must reach the verdict
    worst = float(np.max([r for entry in results for r in entry["residuals"]]))
    passed = worst < tol
    _write_report(out_dir / str(cfg["output"]), {
        "cases": results,
        "panels": panels,
        "tolerance": tol,
        "max_residual": worst,
        "pass": passed,
    })
    for entry in results:
        _say(quiet, f"bvp-check [{entry['case']}]: max residual "
                    f"{np.max(entry['residuals']):.3g}")
    _say(quiet, f"bvp-check: overall {'pass' if passed else 'FAIL'} "
                f"(worst {worst:.3g}, threshold {tol:.3g})")
    return EXIT_OK if passed else EXIT_CRITERION


_COMMANDS = {
    "simulate": cmd_simulate,
    "average-check": cmd_average_check,
    "sweep": cmd_sweep,
    "stability-probe": cmd_stability_probe,
    "bvp-check": cmd_bvp_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoscale",
        description="Averaging toolkit for two-time-scale oscillatory systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} check")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out-dir", default=".", help="directory for output files")
        p.add_argument("--quiet", action="store_true", help="suppress summary lines")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir, args.quiet)
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except (TwoscaleError, KeyError, TypeError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
