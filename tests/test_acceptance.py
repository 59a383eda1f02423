"""End-to-end acceptance gate.

Each test below exercises one shipped guarantee of the toolkit at its
stated tolerance and runtime budget, and prints a single PASS/FAIL line
(visible even under capture) so a run of ``pytest tests/test_acceptance.py``
reads as a checklist.  Heavy artifacts are produced once per session
through module-scoped fixtures; the determinism check at the end reruns
every configuration and compares output bytes.
"""

import json
import math
import time

import numpy as np
import pytest

from twoscale import cli
from twoscale.benchmarks import field_by_name
from twoscale.harness import fit_boundary_layer, run_compare
from twoscale.numkit import TimeGrid, integrate_rk4
from twoscale.seeker import SeekerConfig, as_system_spec, averaged_seeker_field, cross_check
from twoscale.so3 import embed

OMEGA = 4.0 * math.pi

# column layout of trajectory.csv
COL_T = 0
COLS_P = slice(1, 4)
COL_C_CENTER = 15
COL_FRAME_RESIDUAL = 17


def _run_cli(art_root, tag, command, payload, out_name):
    """Run one CLI command against a written config and time it."""
    cfg = art_root / f"{tag}.json"
    cfg.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    out_dir = art_root / f"{tag}-first"
    start = time.perf_counter()
    code = cli.main([command, "--config", str(cfg), "--out-dir", str(out_dir), "--quiet"])
    elapsed = time.perf_counter() - start
    return {
        "command": command,
        "config": cfg,
        "out": out_dir / out_name,
        "code": code,
        "elapsed": elapsed,
    }


def _rerun_cli(run, art_root, tag):
    """Execute the same config into a fresh directory; return the new output."""
    out_dir = art_root / f"{tag}-second"
    code = cli.main([run["command"], "--config", str(run["config"]),
                     "--out-dir", str(out_dir), "--quiet"])
    assert code == run["code"]
    return out_dir / run["out"].name


def _verdict(capsys, index, ok, detail):
    with capsys.disabled():
        print(f"[acceptance {index}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def art_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def averaging_run(art_root):
    return _run_cli(art_root, "average", "average-check", {}, "average_check.json")


@pytest.fixture(scope="module")
def corrector_run(art_root):
    return _run_cli(art_root, "bvp", "bvp-check", {}, "bvp_report.json")


@pytest.fixture(scope="module")
def sweep_run(art_root):
    return _run_cli(art_root, "sweep", "sweep", {}, "sweep_report.json")


@pytest.fixture(scope="module")
def trajectory_run(art_root):
    return _run_cli(art_root, "simulate", "simulate", {}, "trajectory.csv")


@pytest.fixture(scope="module")
def trajectory_table(trajectory_run):
    return np.loadtxt(trajectory_run["out"], delimiter=",", skiprows=1)


@pytest.fixture(scope="module")
def probe_runs(art_root):
    base = {"deltas": [6.0, 2.0], "horizon": 200.0, "entry_radius": 1e-3, "dt": 0.01}
    return {
        field: _run_cli(art_root, f"probe-{field}", "stability-probe",
                        dict(base, field=field), "stability_report.json")
        for field in ("quadratic", "log")
    }


@pytest.fixture(scope="module")
def layer_fit_pipeline():
    def build_and_fit():
        fld = field_by_name("log")
        x0 = np.concatenate([[6.0, 2.0, -2.0], embed(np.eye(3))])
        avg_grid = TimeGrid(t0=0.0, dt=2.0 / 4000, n_steps=4000)
        reference = integrate_rk4(averaged_seeker_field(fld), x0, avg_grid)
        record = run_compare(as_system_spec(fld), reference, x0,
                             np.zeros(2), omega=OMEGA, t_f=2.0, steps_per_period=400)
        return record, fit_boundary_layer(record)

    start = time.perf_counter()
    record, fit = build_and_fit()
    elapsed = time.perf_counter() - start
    return {"record": record, "fit": fit, "elapsed": elapsed, "rebuild": build_and_fit}


def test_criterion_1_numeric_average_matches_closed_form(averaging_run, capsys):
    report = json.loads(averaging_run["out"].read_text(encoding="utf-8"))
    elapsed = averaging_run["elapsed"]
    ok = (averaging_run["code"] == 0 and report["pass"]
          and report["n_states"] == 20 and report["max_rel_error"] < 1e-6
          and elapsed < 30.0)
    _verdict(capsys, 1, ok,
             f"quadrature average vs closed form: max relative error "
             f"{report['max_rel_error']:.3e} over {report['n_states']} states, "
             f"threshold 1e-06 ({elapsed:.1f} s, budget 30 s)")
    assert averaging_run["code"] == 0
    assert report["n_states"] == 20
    assert report["max_rel_error"] < 1e-6
    assert elapsed < 30.0


def test_criterion_2_corrector_residuals(corrector_run, capsys):
    report = json.loads(corrector_run["out"].read_text(encoding="utf-8"))
    cases = {entry["case"]: entry["residuals"] for entry in report["cases"]}
    elapsed = corrector_run["elapsed"]
    ok = (corrector_run["code"] == 0
          and set(cases) == {"cosine-1d", "jordan-2d", "seeker-log"}
          and len(cases["seeker-log"]) == 10
          and report["max_residual"] < 1e-6
          and elapsed < 10.0)
    _verdict(capsys, 2, ok,
             f"corrector residuals (cosine, Jordan block, both seeker "
             f"correctors at 5 states): worst {report['max_residual']:.3e}, "
             f"threshold 1e-06 ({elapsed:.1f} s, budget 10 s)")
    assert corrector_run["code"] == 0
    assert set(cases) == {"cosine-1d", "jordan-2d", "seeker-log"}
    assert len(cases["seeker-log"]) == 10  # two correctors at each of 5 states
    assert report["max_residual"] < 1e-6
    assert elapsed < 10.0


def test_criterion_3_deviation_shrinks_with_frequency(sweep_run, capsys):
    report = json.loads(sweep_run["out"].read_text(encoding="utf-8"))
    elapsed = sweep_run["elapsed"]
    ok = (sweep_run["code"] == 0 and len(report["omegas"]) == 5
          and report["strictly_decreasing"] and report["slope"] <= -0.4
          and elapsed < 300.0)
    _verdict(capsys, 3, ok,
             f"seeker deviation sweep over 5 frequencies: strictly decreasing, "
             f"log-log slope {report['slope']:.3f} <= -0.4 "
             f"({elapsed:.1f} s, budget 300 s)")
    assert sweep_run["code"] == 0
    assert len(report["omegas"]) == 5
    assert report["strictly_decreasing"]
    assert report["slope"] <= -0.4
    assert elapsed < 300.0


def test_criterion_4_boundary_layer_decay_rate(layer_fit_pipeline, capsys):
    fit = layer_fit_pipeline["fit"]
    elapsed = layer_fit_pipeline["elapsed"]
    ok = 0.5 <= fit.rate <= 1.5 and elapsed < 60.0
    _verdict(capsys, 4, ok,
             f"boundary-layer fit from y(0)=0: normalized rate {fit.rate:.3f} "
             f"in [0.5, 1.5] over {fit.n_points} samples "
             f"({elapsed:.1f} s, budget 60 s)")
    assert 0.5 <= fit.rate <= 1.5
    assert elapsed < 60.0


def test_criterion_5_log_field_run_approaches_source(trajectory_run,
                                                     trajectory_table, capsys):
    t = trajectory_table[:, COL_T]
    p_norm = np.linalg.norm(trajectory_table[:, COLS_P], axis=1)
    c_center = trajectory_table[:, COL_C_CENTER]
    tail_max = float(p_norm[t >= 0.75 * t[-1]].max())
    elapsed = trajectory_run["elapsed"]
    ok = (trajectory_run["code"] == 0
          and t[-1] == 100.0
          and abs(c_center[0] - (-3.135494)) < 1e-5
          and abs(c_center[-1]) <= 0.5
          and float(p_norm.max()) <= 10.0
          and tail_max <= 1.5
          and elapsed < 120.0)
    _verdict(capsys, 5, ok,
             f"log-field run: c {c_center[0]:.6f} -> {c_center[-1]:.4f} "
             f"(|c(100)| <= 0.5), max |p| {p_norm.max():.2f} <= 10, "
             f"last-quarter |p| {tail_max:.2f} <= 1.5 "
             f"({elapsed:.1f} s, budget 120 s)")
    assert trajectory_run["code"] == 0
    assert t[-1] == 100.0
    assert abs(c_center[0] - (-3.135494)) < 1e-5
    assert abs(c_center[-1]) <= 0.5
    assert float(p_norm.max()) <= 10.0
    assert tail_max <= 1.5
    assert elapsed < 120.0


def test_criterion_6_averaged_descent_and_convergence(probe_runs, capsys):
    reports = {
        field: json.loads(run["out"].read_text(encoding="utf-8"))
        for field, run in probe_runs.items()
    }
    worst_vc = max(rep["max_vc_step_increase"] for rep in reports.values())
    worst_grad = max(r["final_grad_norm"] for r in reports["quadratic"]["runs"])
    n_starts = {field: len(rep["runs"]) for field, rep in reports.items()}
    elapsed = sum(run["elapsed"] for run in probe_runs.values())
    ok = (all(run["code"] == 0 for run in probe_runs.values())
          and all(n == 16 for n in n_starts.values())
          and worst_vc < 1e-9
          and worst_grad < 1e-3
          and elapsed < 60.0)
    _verdict(capsys, 6, ok,
             f"averaged flow from 16 starts per field: worst V_c step increase "
             f"{worst_vc:.1e} < 1e-09, quadratic worst final |grad c| "
             f"{worst_grad:.1e} < 1e-03 ({elapsed:.1f} s, budget 60 s)")
    assert all(run["code"] == 0 for run in probe_runs.values())
    assert n_starts == {"quadratic": 16, "log": 16}
    assert worst_vc < 1e-9
    assert worst_grad < 1e-3
    assert elapsed < 60.0


def test_criterion_7_geometry_preservation(trajectory_table, capsys):
    frame_residual = float(trajectory_table[:, COL_FRAME_RESIDUAL].max())
    start = time.perf_counter()
    # cross_check runs at the config's step: 400 per fast period keeps the gap near 2e-10
    config = SeekerConfig(omega=OMEGA, steps_per_fast_period=400)
    deviation = cross_check(config, field_by_name("log"), np.array([6.0, 2.0, -2.0]), np.eye(3))
    elapsed = time.perf_counter() - start
    ok = frame_residual < 1e-6 and deviation < 1e-6 and elapsed < 60.0
    _verdict(capsys, 7, ok,
             f"rotation residual along the long run {frame_residual:.3e} < 1e-06; "
             f"raw vs rotating-frame deviation over one frame period "
             f"{deviation:.3e} < 1e-06 ({elapsed:.1f} s, budget 60 s)")
    assert frame_residual < 1e-6
    assert deviation < 1e-6
    assert elapsed < 60.0


def test_criterion_8_reruns_are_bit_identical(art_root, averaging_run,
                                              corrector_run, sweep_run,
                                              trajectory_run, probe_runs,
                                              layer_fit_pipeline, capsys):
    cli_runs = [
        ("average", averaging_run),
        ("bvp", corrector_run),
        ("sweep", sweep_run),
        ("simulate", trajectory_run),
        ("probe-quadratic", probe_runs["quadratic"]),
        ("probe-log", probe_runs["log"]),
    ]
    mismatched = []
    for tag, run in cli_runs:
        second = _rerun_cli(run, art_root, tag)
        if run["out"].read_bytes() != second.read_bytes():
            mismatched.append(tag)

    record2, fit2 = layer_fit_pipeline["rebuild"]()
    fit = layer_fit_pipeline["fit"]
    refit_ok = (fit2.rate == fit.rate and fit2.gamma == fit.gamma
                and fit2.n_points == fit.n_points and fit2.t_end == fit.t_end
                and np.array_equal(record2.z_norm,
                                   layer_fit_pipeline["record"].z_norm))

    ok = not mismatched and refit_ok
    _verdict(capsys, 8, ok,
             f"{len(cli_runs)} rerun output files byte-identical, "
             f"layer-fit recomputation bit-equal "
             f"(mismatches: {mismatched if mismatched else 'none'})")
    assert not mismatched, f"outputs differ between runs: {mismatched}"
    assert refit_ok
