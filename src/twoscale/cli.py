"""Command line: simulate, average-check, sweep, stability-probe, bvp-check.

Each command reads an optional JSON config (unknown keys are rejected)
and passes every key, given or default, through its reader before any
work; it then writes its artifacts under --out-dir and prints a one-line
summary.  Outputs are deterministic: rerunning a command with the same
config produces byte-identical files.

Exit codes: 0 success, 1 invalid config or input, 2 trajectory
divergence, 3 a verified quantity missed its threshold.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .averaging import build_bundle, residual_bvp, solve_periodic_bvp
from .benchmarks import bvp_cosine_case, bvp_jordan_case, field_by_name, linear_benchmark
from .errors import ConfigurationError, DivergenceError, TwoscaleError
from .harness import _distinct, probe_averaged_stability, probe_seeker_stability, sweep_convergence
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

# Readers: each takes (key, value), returns the typed setting, or raises
# ConfigurationError naming the key.


def _number(key: str, v) -> float:
    """A scalar setting: a finite JSON number, read as a float (float()
    would take true, "1" and NaN, and overflow beyond the float range)."""
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    if not (number and abs(v) <= sys.float_info.max):
        raise ConfigurationError(f"{key} must be a number, got {v!r} ({type(v).__name__})")
    return float(v)


def _positive(key: str, v) -> float:
    if not _number(key, v) > 0.0:
        raise ConfigurationError(f"{key} must be positive, got {v}")
    return float(v)


def _whole(key: str, v) -> int:
    """An integer setting: a JSON integer, or a float with no fraction."""
    if isinstance(v, bool) or not (
        isinstance(v, int) or (isinstance(v, float) and v.is_integer())
    ):
        raise ConfigurationError(f"{key} must be a whole number, got {v!r}")
    return int(v)


def _at_least(read, low: int):
    """A reader of settings >= low.  A zero tolerance is legal (if
    unsatisfiable): the check then reports a criterion failure."""
    def reader(key: str, v):
        x = read(key, v)
        if not x >= low:
            raise ConfigurationError(f"{key} must be >= {low}, got {v}")
        return x
    return reader


def _panels(least: int):
    """A reader of even panel counts >= least, the grid's or the residual's."""
    def reader(key: str, v) -> int:
        n = _whole(key, v)
        if n < least or n % 2:
            raise ConfigurationError(f"{key} must be even and >= {least}, got {n}")
        return n
    return reader


def _numbers(key: str, v) -> list[float]:
    """A list setting: a JSON list of JSON numbers, read as floats (a
    string would otherwise be read one character at a time, float()
    would take true as 1.0 and "6" as 6.0, and an integer beyond the
    float range would overflow).  NaN and infinities pass, for the
    caller's own finiteness check."""
    if not isinstance(v, list) or any(
        isinstance(x, bool) or not isinstance(x, (int, float))
        or (isinstance(x, int) and abs(x) > sys.float_info.max) for x in v
    ):
        raise ConfigurationError(f"{key} must be a list of numbers, got {v!r}")
    return [float(x) for x in v]


def _point(key: str, v) -> np.ndarray:
    p = np.array(_numbers(key, v))
    if p.shape != (3,):
        raise ConfigurationError(f"{key} must be a 3-vector")
    if not np.all(np.isfinite(p)):
        raise ConfigurationError(f"{key} must be finite, got {p.tolist()}")
    return p


def _rotation(key: str, v) -> np.ndarray:
    """The start frame: the identity, or three rows each read by _numbers."""
    if v == "identity":
        return np.eye(3)
    R = [_numbers(key, row) for row in (v if isinstance(v, list) else [])]
    if [len(row) for row in R] != [3, 3, 3]:
        raise ConfigurationError(f"{key} must be 'identity' or a 3x3 nested list")
    return np.array(R)


def _filter_start(key: str, v) -> np.ndarray | None:
    """The filter start: None for quasi-steady, else the pair to use."""
    if v == "quasi-steady":
        return None
    if v == "zero":
        return np.zeros(2)
    y = np.array(_numbers(key, v))
    if y.shape != (2,):
        raise ConfigurationError(f"{key} must be 'quasi-steady', 'zero', or a pair")
    return y


def _choice(*names: str):
    def reader(key: str, v) -> str:
        if v not in names:
            raise ConfigurationError(f"{key} must be {' or '.join(map(repr, names))}, got {v!r}")
        return v
    return reader


def _flag(key: str, v) -> bool:
    # bool("false") is True: a string would silently switch the flag on
    if not isinstance(v, bool):
        raise ConfigurationError(f"{key} must be true or false, got {v!r}")
    return v


def _text(key: str, v) -> str:
    if not (isinstance(v, str) and v):
        raise ConfigurationError(f"{key} must be a non-empty string, got {v!r}")
    return v


def _field(key: str, v):
    return field_by_name(_text(key, v))


def _cases(key: str, v) -> list[str]:
    if not isinstance(v, list) or not v:
        raise ConfigurationError(f"{key} must be a non-empty list of names, got {v!r}")
    bad = sorted({str(name) for name in v} - set(_BVP_CASES))
    if bad:
        raise ConfigurationError(f"unknown bvp cases: {', '.join(bad)}")
    return _distinct(key, v)


_SETTINGS = {
    "simulate": {
        "field": ("log", _field),
        "omega": (4.0 * np.pi, _positive),
        "p0": ([6.0, 2.0, -2.0], _point),
        "R0": ("identity", _rotation),
        "y0": ("quasi-steady", _filter_start),
        "t_f": (100.0, _at_least(_number, 0)),
        "steps_per_fast_period": (200, _whole),
        "projection": (True, _flag),
        "stride": (1, _at_least(_whole, 1)),
        "t0": (0.0, _number),
        "output": ("trajectory.csv", _text),
    },
    "average-check": {
        "field": ("log", _field),
        "n_states": (20, _at_least(_whole, 1)),
        "tolerance": (1e-6, _at_least(_number, 0)),
        "seed": (7, _at_least(_whole, 0)),
        "panels": (256, _panels(2)),
        "output": ("average_check.json", _text),
    },
    "sweep": {
        "system": ("seeker", _choice("seeker", "linear")),
        "field": ("quadratic", _field),
        "p0": ([6.0, 2.0, -2.0], _point),
        "y0": ("quasi-steady", _choice("quasi-steady", "zero")),
        "omegas": ([4.0 * np.pi * 2.0**k for k in range(5)], _numbers),
        "t_f": (5.0, _positive),
        "steps_per_period": (400, _whole),
        "avg_steps": (4000, _whole),
        "slope_max": (-0.4, _number),
        "output": ("sweep_report.json", _text),
    },
    "stability-probe": {
        "system": ("averaged", _choice("averaged", "full")),
        "field": ("quadratic", _field),
        "deltas": ([6.0], _numbers),
        "omegas": ([4.0 * np.pi], _numbers),
        "horizon": (200.0, _positive),
        "entry_radius": (0.1, _positive),
        "dt": (0.01, _positive),
        "eps_x": (1.0, _positive),
        "eps_z": (1.0, _positive),
        "entry_deadline": (None, lambda key, v: None if v is None else _number(key, v)),
        "steps_per_fast_period": (100, _whole),
        "output": ("stability_report.json", _text),
    },
    "bvp-check": {
        "cases": (["cosine-1d", "jordan-2d", "seeker-log"], _cases),
        # below 8 panels residual_bvp can miss a source folded under the Nyquist mode
        "panels": (512, _panels(8)),
        "tolerance": (1e-6, _at_least(_number, 0)),
        "n_states": (5, _at_least(_whole, 1)),
        "seed": (11, _at_least(_whole, 0)),
        "output": ("bvp_report.json", _text),
    },
}

DEFAULTS = {
    command: {key: default for key, (default, _) in table.items()}
    for command, table in _SETTINGS.items()
}


def _load_config(path: str | None, command: str) -> dict:
    """Merge a JSON config over the command defaults, rejecting unknown
    keys, and read every key, given or default, in table order."""
    merged = dict(DEFAULTS[command])
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
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
    return {key: read(key, merged[key]) for key, (_, read) in _SETTINGS[command].items()}


def _write_csv(path: Path, header: list[str], rows) -> None:
    table = np.asarray(rows, dtype=float)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    body = (row * table.shape[0]) % tuple(table.ravel().tolist())
    path.write_text(",".join(header) + "\n" + body)


def _finite_json(v):
    """v with each non-finite float spelled "nan", "inf" or "-inf"."""
    if isinstance(v, dict):
        return {key: _finite_json(x) for key, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_json(x) for x in v]
    return str(float(v)) if isinstance(v, float) and not math.isfinite(v) else v


def _write_report(path: Path, payload: dict) -> None:
    """Strict JSON (RFC 8259): no bare NaN or Infinity, see _finite_json."""
    body = _finite_json({"schema_version": SCHEMA_VERSION, **payload})
    path.write_text(json.dumps(body, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _random_seeker_state(rng: np.random.Generator) -> np.ndarray:
    """A seeded seeker slow state (p, q): a random direction, a radius
    uniform in [1.5, 5] and a random frame, drawn in that order."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    p = float(rng.uniform(1.5, 5.0)) * direction
    Q = exp_so3(rng.uniform(-np.pi, np.pi, size=3))
    return np.concatenate([p, embed(Q)])


def cmd_simulate(cfg: dict, out_dir: Path, quiet: bool) -> int:
    fld, p0, R0, y0, t0 = (cfg[key] for key in ("field", "p0", "R0", "y0", "t0"))
    config = SeekerConfig(omega=cfg["omega"], steps_per_fast_period=cfg["steps_per_fast_period"],
                          projection=cfg["projection"])

    header = (
        ["t", "px", "py", "pz"]
        + [f"q{i}{a}" for i in (1, 2, 3) for a in "xyz"]
        + ["y1", "y2", "c_center", "v_c", "frame_residual"]
    )

    if cfg["t_f"] == 0.0:
        traj = SeekerTrajectory(np.array([t0]), initial_state(fld, p0, R0, y0=y0)[None, :])
    else:
        traj = simulate_seeker(config, fld, p0, R0, cfg["t_f"], y0=y0, stride=cfg["stride"], t0=t0)
    c_center = traj.center_values(fld)
    residuals = traj.frame_residuals()
    rows = np.column_stack(
        [traj.times, traj.states, c_center, traj.lyapunov_values(fld, c_center), residuals]
    )
    out_path = out_dir / cfg["output"]
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
    fld, n_states, panels, tol = (cfg[key] for key in ("field", "n_states", "panels", "tolerance"))
    bundle = build_bundle(as_system_spec(fld), n_panels=panels)
    closed = averaged_seeker_field(fld)

    rng = np.random.default_rng(cfg["seed"])
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

    _write_report(out_dir / cfg["output"], {
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
    if cfg["system"] == "seeker":
        fld = cfg["field"]
        spec, averaged = as_system_spec(fld), averaged_seeker_field(fld)
        x0 = initial_state(fld, cfg["p0"], np.eye(3))[:12]
    else:
        bench = linear_benchmark()
        spec, averaged, x0 = bench.spec, bench.averaged_field, bench.x0
    y0 = spec.phi0(x0) if cfg["y0"] == "quasi-steady" else np.zeros(spec.m)

    report = sweep_convergence(spec, averaged, x0, y0, cfg["omegas"], cfg["t_f"],
                               steps_per_period=cfg["steps_per_period"], avg_steps=cfg["avg_steps"])
    slope_max = cfg["slope_max"]
    diverged = any(not np.isfinite(e) for e in report.max_devs)
    slope_ok = report.slope <= slope_max
    payload = report.as_dict()
    payload.update({
        "system": cfg["system"],
        "slope_max": slope_max,
        "slope_ok": slope_ok,
        "pass": bool(slope_ok and report.strictly_decreasing and not diverged),
    })
    _write_report(out_dir / cfg["output"], payload)
    _say(quiet, f"sweep: slope {report.slope:.3f} (threshold {slope_max}), "
                f"decreasing={report.strictly_decreasing}, "
                f"{'pass' if payload['pass'] else 'FAIL'}")
    if diverged:
        return EXIT_DIVERGED
    return EXIT_OK if payload["pass"] else EXIT_CRITERION


def cmd_stability_probe(cfg: dict, out_dir: Path, quiet: bool) -> int:
    fld, system = cfg["field"], cfg["system"]
    if system == "averaged":
        report = probe_averaged_stability(
            fld, cfg["deltas"], cfg["horizon"], entry_radius=cfg["entry_radius"], dt=cfg["dt"],
        )
        summary = (f"all_entered={report.all_entered}, "
                   f"max V_c step increase {report.max_vc_step_increase:.3g}")
        code = EXIT_OK if report.all_entered else EXIT_CRITERION
    else:
        report = probe_seeker_stability(
            fld, cfg["eps_x"], cfg["eps_z"], cfg["deltas"], cfg["omegas"], cfg["horizon"],
            entry_deadline=cfg["entry_deadline"],
            steps_per_fast_period=cfg["steps_per_fast_period"],
        )
        summary, code = f"entry frequencies {report.entry_omega}", EXIT_OK
    payload = {**report.as_dict(), "system": system, "field": fld.name}
    _write_report(out_dir / cfg["output"], payload)
    _say(quiet, f"stability-probe ({system}): {summary}")
    return code


def _exact_case(make_case):
    """A bvp-check case with a known solution (tests/oracles.py): one residual on the panel grid."""
    def residuals(panels: int, n_states: int, seed: int) -> list[float]:
        case = make_case()
        phi = solve_periodic_bvp(case.A, case.b, case.T, n_panels=panels)
        return [residual_bvp(phi, case.A, case.b, case.T)]
    return residuals


def _seeker_log_case(panels: int, n_states: int, seed: int) -> list[float]:
    """Both log-seeker correctors' residuals at n_states seeded states."""
    spec = as_system_spec(field_by_name("log"))
    bundle = build_bundle(spec, n_panels=panels)
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(n_states):
        x = _random_seeker_state(rng)
        residuals += [residual_bvp(phi, spec.A, phi.b, spec.T, x=x)
                      for phi in (bundle.phi1, bundle.phi2)]
    return residuals


_BVP_CASES = {
    "cosine-1d": _exact_case(bvp_cosine_case),
    "jordan-2d": _exact_case(bvp_jordan_case),
    "seeker-log": _seeker_log_case,
}


def cmd_bvp_check(cfg: dict, out_dir: Path, quiet: bool) -> int:
    panels, tol = cfg["panels"], cfg["tolerance"]
    results = [
        {"case": name, "residuals": _BVP_CASES[name](panels, cfg["n_states"], cfg["seed"])}
        for name in cfg["cases"]
    ]

    # np.max, not max: a NaN residual must reach the verdict
    worst = float(np.max([r for entry in results for r in entry["residuals"]]))
    passed = worst < tol
    _write_report(out_dir / cfg["output"], {
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
        # made before any work, so a bad output path costs no run
        (out_dir / cfg["output"]).parent.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir, args.quiet)
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except (TwoscaleError, MemoryError, OSError) as err:
        # a bare MemoryError has no message; numpy's names the allocation
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
