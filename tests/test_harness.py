"""Tests for the verification harness.

Oracles: a zero system (deviations must vanish identically), the linear
benchmark (closed-form average and a known O(1/omega) deviation trend),
and a pure boundary-layer system whose transient is exactly
exp(-omega t).
"""

import dataclasses
import json

import numpy as np
import pytest

from twoscale import harness
from twoscale.benchmarks import linear_benchmark
from twoscale.errors import ConfigurationError, DivergenceError
from twoscale.harness import (
    ProbeRun,
    RunRecord,
    aligned_frame,
    fit_boundary_layer,
    probe_averaged_stability,
    probe_seeker_stability,
    run_compare,
    shell_directions,
    sweep_convergence,
)
from twoscale.numkit import TimeGrid, integrate_rk4
from twoscale.seeker import (
    SeekerConfig,
    SeekerTrajectory,
    averaged_seeker_field,
    builtin_fields,
    lyapunov_value_and_rate,
    simulate_seeker,
)
from twoscale.so3 import embed, manifold_residual
from twoscale.system import OscillatorySystemSpec, assemble_full_field

from oracles import assembled


def zero_spec():
    """Zero fields, flown through their assembly (oracles.assembled)."""
    return assembled(OscillatorySystemSpec(
        n=1,
        m=1,
        T=2.0 * np.pi,
        A=np.array([[-1.0]]),
        phi0=lambda x: np.zeros(np.shape(x)[:-1] + (1,)),  # a state or a block
        f1=lambda x, y, tau: np.zeros(np.shape(tau) + (1,)),
        f2=lambda x, y, tau: np.zeros(np.shape(tau) + (1,)),
        g1=lambda x, y, tau: np.zeros(np.shape(tau) + (1,)),
        g2=lambda x, y, tau: np.zeros(np.shape(tau) + (1,)),
    ))


def layer_spec(A=None):
    """No slow dynamics at all: only the fast layer contraction."""
    A = np.array([[-1.0]]) if A is None else A
    m = A.shape[0]
    return assembled(OscillatorySystemSpec(
        n=1,
        m=m,
        T=2.0 * np.pi,
        A=A,
        phi0=lambda x: np.zeros(np.shape(x)[:-1] + (m,)),  # a state or a block
        f1=lambda x, y, tau: np.zeros(np.shape(tau) + (1,)),
        f2=lambda x, y, tau: np.zeros(np.shape(tau) + (1,)),
        g1=lambda x, y, tau: np.zeros(np.shape(tau) + (m,)),
        g2=lambda x, y, tau: np.zeros(np.shape(tau) + (m,)),
    ))


def zero_avg(t, x):
    return np.zeros_like(x)


def averaged_path(averaged, x0, t_f, avg_steps):
    """The averaged run a sweep shares across its ladder, as (times, states)."""
    grid = TimeGrid(t0=0.0, dt=t_f / avg_steps, n_steps=avg_steps)
    return integrate_rk4(averaged, np.asarray(x0, dtype=float), grid)


# ---------------------------------------------------------------- run_compare


def test_zero_system_has_zero_deviation():
    record = run_compare(
        zero_spec(), averaged_path(zero_avg, np.zeros(1), 1.0, 64), np.zeros(1),
        np.zeros(1), omega=8.0, t_f=1.0, steps_per_period=32,
    )
    assert record.blowup_time is None
    assert record.max_dev == 0.0
    assert np.max(record.z_norm) == 0.0


def test_linear_benchmark_tracks_closed_form_average():
    bench = linear_benchmark()
    record = run_compare(
        bench.spec, averaged_path(bench.averaged_field, bench.x0, 2.0, 4000),
        bench.x0, bench.y0, omega=16.0 * np.pi, t_f=2.0, steps_per_period=400,
    )
    # the full system stays within the first-order band of the average
    assert record.max_dev < 0.05


def test_averaged_run_follows_closed_form_flow():
    # the zero system stays at x0 while the average decays as x0 exp(-t),
    # so the deviation is the closed form x0 (1 - exp(-t)) at every step;
    # the reference path is that flow sampled on 2,000 steps
    x0 = np.array([0.7])
    avg_times = np.linspace(0.0, 2.0, 2001)
    reference = (avg_times, x0 * np.exp(-avg_times)[:, None])
    record = run_compare(
        zero_spec(), reference, x0, np.zeros(1), omega=8.0, t_f=2.0, steps_per_period=32,
    )
    exact = x0[0] * (1.0 - np.exp(-record.times))
    assert np.max(np.abs(record.x_dev - exact)) < 1e-6


def test_deviation_shrinks_with_frequency():
    bench = linear_benchmark()
    reference = averaged_path(bench.averaged_field, bench.x0, 2.0, 1000)

    def dev(w):
        record = run_compare(
            bench.spec, reference, bench.x0, bench.y0,
            omega=w, t_f=2.0, steps_per_period=200,
        )
        return record.max_dev

    assert dev(16.0 * np.pi) < dev(4.0 * np.pi)


def test_diverging_run_recorded_not_raised():
    spec = zero_spec()
    spec.f2 = lambda x, y, tau: np.full(np.shape(tau) + (1,), x[0] ** 2)
    with np.errstate(over="ignore", invalid="ignore"):
        record = run_compare(
            spec, averaged_path(zero_avg, [2.0], 2.0, 64), np.array([2.0]), np.zeros(1),
            omega=8.0, t_f=2.0, steps_per_period=64,
        )
    assert record.blowup_time is not None
    assert 0.0 < record.blowup_time <= 2.0
    assert record.max_dev == float("inf")


def test_run_compare_validation():
    spec = zero_spec()
    reference = averaged_path(zero_avg, np.zeros(1), 1.0, 10)
    with pytest.raises(ConfigurationError):
        run_compare(spec, reference, np.zeros(1), np.zeros(1), 8.0, t_f=0.0,
                    steps_per_period=400)
    with pytest.raises(ConfigurationError):
        run_compare(spec, reference, np.zeros(1), np.zeros(1), 8.0, t_f=1.0,
                    steps_per_period=4)
    for omega in (0.0, float("inf"), float("nan")):
        with pytest.raises(ConfigurationError, match="omega"):
            run_compare(spec, reference, np.zeros(1), np.zeros(1), omega, t_f=1.0,
                        steps_per_period=400)


# ---------------------------------------------------------- boundary layer fit


def pure_layer_record(omega=20.0, y0=1.0, A=None):
    spec = layer_spec(A)
    m = spec.m
    y_init = np.full(m, y0) if np.isscalar(y0) else np.asarray(y0)
    return run_compare(
        spec, averaged_path(zero_avg, np.zeros(1), 2.0, 100), np.zeros(1), y_init,
        omega=omega, t_f=2.0, steps_per_period=400,
    )


def test_layer_fit_recovers_unit_rate():
    record = pure_layer_record(omega=20.0)
    fit = fit_boundary_layer(record)
    # the transient is exactly exp(-omega t): normalized rate 1, gain 1
    assert 0.95 < fit.rate < 1.05
    assert 0.9 < fit.gamma < 1.1
    assert fit.n_points >= 10
    assert fit.t_end > 0.0


def test_layer_fit_needs_an_offset():
    record = pure_layer_record(omega=20.0, y0=0.0)
    with pytest.raises(ConfigurationError, match="offset is zero"):
        fit_boundary_layer(record)


def test_layer_fit_rejects_failed_and_short_runs():
    spec = zero_spec()
    spec.f2 = lambda x, y, tau: np.full(np.shape(tau) + (1,), x[0] ** 2)
    with np.errstate(over="ignore", invalid="ignore"):
        failed = run_compare(
            spec, averaged_path(zero_avg, [2.0], 2.0, 64), np.array([2.0]), np.zeros(1),
            omega=8.0, t_f=2.0, steps_per_period=64,
        )
    with pytest.raises(ConfigurationError):
        fit_boundary_layer(failed)
    # the offset falls below 5% at the 9th sample, one short of a fit window
    times = np.arange(12) * 0.01
    z_norm = 0.67 ** np.arange(12)
    short = RunRecord(omega=20.0, t_f=0.11, times=times, x_dev=np.zeros(12), z_norm=z_norm)
    with pytest.raises(ConfigurationError, match="9 samples before the drop, need 10"):
        fit_boundary_layer(short)
    # one sample more is enough
    short.z_norm = 0.7 ** np.arange(12)
    assert fit_boundary_layer(short).n_points == 10


# ------------------------------------------------------------------ sweep


def linear_system(y0=None):
    bench = linear_benchmark()
    return bench.spec, bench.averaged_field, bench.x0, bench.y0 if y0 is None else y0


def test_sweep_requires_a_real_ladder():
    with pytest.raises(ConfigurationError):
        sweep_convergence(*linear_system(), [4.0, 8.0, 16.0], t_f=1.0,
                          steps_per_period=400, avg_steps=4000)
    with pytest.raises(ConfigurationError):
        sweep_convergence(*linear_system(), [4.0, 8.0, 8.0, 16.0], t_f=1.0,
                          steps_per_period=400, avg_steps=4000)


def test_sweep_rejects_bad_frequencies_before_any_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the ladder was checked")

    # neither a full run nor the shared averaged run may start
    monkeypatch.setattr(harness, "run_compare", no_run)
    monkeypatch.setattr(harness, "integrate_rk4", no_run)
    for ladder in ([8.0, 16.0, 32.0, float("inf")], [8.0, 16.0, 32.0, float("nan")],
                   [-8.0, 16.0, 32.0, 64.0]):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            sweep_convergence(*linear_system(), ladder, t_f=1.0,
                              steps_per_period=400, avg_steps=4000)
    for avg_steps in (0, -3):
        with pytest.raises(ConfigurationError, match=f"avg_steps must be >= 1, got {avg_steps}"):
            sweep_convergence(*linear_system(), [8.0, 16.0, 32.0, 64.0], t_f=1.0,
                              steps_per_period=400, avg_steps=avg_steps)
    # the top rung's step is too small for the run's end time: its grid was
    # built only after the averaged run and three full rungs
    with pytest.raises(ConfigurationError, match="TimeGrid time 1 is too large for dt="):
        sweep_convergence(*linear_system(), [10.0, 20.0, 30.0, 1e300], t_f=1.0,
                          steps_per_period=400, avg_steps=4000)


def test_sweep_refuses_a_spec_without_full_before_any_run():
    # the averaged reference is integrated only once every rung's full
    # field is built, so a fields-only spec costs no averaged step
    spec, averaged, x0, y0 = linear_system()
    calls = []

    def counted(t, x):
        calls.append(t)
        return averaged(t, x)

    with pytest.raises(ConfigurationError, match="no full right-hand side"):
        sweep_convergence(dataclasses.replace(spec, full=None), counted, x0, y0,
                          [8.0, 16.0, 32.0, 64.0], t_f=1.0, steps_per_period=400,
                          avg_steps=4000)
    assert calls == []


def test_sweep_checks_its_step_count_before_any_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before steps_per_period was checked")

    def averaged(t, x):
        raise AssertionError("the averaged field was called before steps_per_period was checked")

    monkeypatch.setattr(harness, "run_compare", no_run)
    spec, _, x0, y0 = linear_system()
    for steps in (4, 7, 0):
        with pytest.raises(ConfigurationError, match=f"steps_per_period must be >= 8, got {steps}"):
            sweep_convergence(spec, averaged, x0, y0, [8.0, 16.0, 32.0, 64.0], t_f=1.0,
                              steps_per_period=steps, avg_steps=400000)
    # a t_f under half a step of the lowest rung, whose step is the longest
    dt = (spec.T / 8.0) / 16
    with pytest.raises(ConfigurationError, match=f"exceed half a step of dt={dt:g}"):
        sweep_convergence(spec, averaged, x0, y0, [8.0, 16.0, 32.0, 64.0], t_f=0.4 * dt,
                          steps_per_period=16, avg_steps=400000)


def _per_rung_max_devs(spec, averaged, x0, y0, omegas, t_f, steps_per_period, avg_steps):
    """Oracle: every rung integrates the full system and, separately, its
    own copy of the averaged run, then takes the largest slow deviation."""
    devs = []
    for w in omegas:
        grid = TimeGrid.spanning(0.0, t_f, (spec.T / w) / steps_per_period)
        times, states = integrate_rk4(assemble_full_field(spec, w), spec.pack(x0, y0).tolist(),
                                      grid)
        avg_times, avg_states = averaged_path(averaged, x0, t_f, avg_steps)
        x_avg = np.column_stack([np.interp(times, avg_times, avg_states[:, j])
                                 for j in range(spec.n)])
        devs.append(float(np.max(np.abs(states[:, : spec.n] - x_avg))))
    return devs


@pytest.mark.parametrize("devs, decreasing", [
    ([1.0, 0.5, 0.25, 0.125], True),
    ([1.0, 0.5, 0.5, 0.25], False),
    ([1.0, 0.5, 0.25, 0.5], False),
])
def test_sweep_decreasing_means_strictly(monkeypatch, devs, decreasing):
    # stand-in rungs with the given deviations: a tie is not a decrease
    remaining = list(devs)

    def rung(spec, reference, x0, y0, omega, t_f, steps_per_period):
        return RunRecord(omega=omega, t_f=t_f, times=np.array([0.0, t_f]),
                         x_dev=np.full(2, remaining.pop(0)), z_norm=np.zeros(2))

    monkeypatch.setattr(harness, "run_compare", rung)
    report = sweep_convergence(*linear_system(), [8.0, 16.0, 32.0, 64.0], t_f=1.0,
                               steps_per_period=16, avg_steps=4)
    assert report.strictly_decreasing is decreasing


@pytest.mark.parametrize("n_rungs", [4, 5])
def test_sweep_integrates_its_average_once(n_rungs):
    spec, averaged, x0, y0 = linear_system()
    calls = []

    def counting(t, x):
        calls.append(t)
        return averaged(t, x)

    omegas = [4.0 * 2.0**k for k in range(n_rungs)]
    t_f, steps_per_period, avg_steps = 0.5, 32, 50
    report = sweep_convergence(spec, counting, x0, y0, omegas, t_f,
                               steps_per_period=steps_per_period, avg_steps=avg_steps)
    # four RHS calls per RK4 step of the one shared averaged run
    assert len(calls) == 4 * avg_steps
    expected = _per_rung_max_devs(spec, averaged, x0, y0, omegas, t_f,
                                  steps_per_period, avg_steps)
    assert report.max_devs == expected


def test_sweep_linear_benchmark_first_order_trend():
    omegas = [4.0 * np.pi * 2.0**k for k in range(4)]
    report = sweep_convergence(*linear_system(), omegas, t_f=2.0,
                               steps_per_period=200, avg_steps=1000)
    assert report.strictly_decreasing
    assert report.slope <= -0.9
    assert len(report.max_devs) == 4
    # starting on the manifold leaves no transient to fit
    assert report.layer_rates == [None, None, None, None]
    assert report.layer_gammas == [None, None, None, None]


def test_sweep_fits_layers_for_offset_starts():
    # the offset must dominate the O(1/omega) quasi-steady lag so the fit
    # window closes while the transient is still exponential; component 1
    # of the layer matrix decays cleanly at the unit normalized rate
    y_off = linear_benchmark().y0 + np.array([5.0, 0.0])
    omegas = [4.0 * np.pi * 2.0**k for k in range(4)]
    report = sweep_convergence(*linear_system(y_off), omegas, t_f=1.0,
                               steps_per_period=200, avg_steps=500)
    for rate, gamma in zip(report.layer_rates, report.layer_gammas):
        assert rate is not None and 0.5 < rate < 1.5
        assert gamma is not None and gamma > 0.0


def test_sweep_report_serializes_to_json():
    omegas = [4.0, 8.0, 16.0, 32.0]
    report = sweep_convergence(*linear_system(), omegas, t_f=0.5,
                               steps_per_period=64, avg_steps=200)
    blob = json.dumps(report.as_dict(), sort_keys=True)
    data = json.loads(blob)
    assert data["omegas"] == omegas
    assert set(data) == {
        "omegas", "max_devs", "slope", "intercept", "strictly_decreasing",
        "layer_rates", "layer_gammas", "t_f",
    }


# -------------------------------------------------------------- aligned frame


def test_aligned_frame_properties():
    rng = np.random.default_rng(41)
    for _ in range(25):
        g = rng.uniform(-5.0, 5.0, 3)
        Q = aligned_frame(g)
        assert manifold_residual(Q.T.reshape(9)) < 1e-12
        assert np.max(np.abs(Q[:, 0] - g / np.linalg.norm(g))) < 1e-12


def test_aligned_frame_zero_gradient_is_identity():
    assert np.array_equal(aligned_frame(np.zeros(3)), np.eye(3))
    assert np.array_equal(aligned_frame(1e-14 * np.ones(3)), np.eye(3))


def test_aligned_frame_is_deterministic():
    g = np.array([0.3, -2.0, 1.1])
    assert np.array_equal(aligned_frame(g), aligned_frame(g))


def test_shell_directions_panel():
    dirs = shell_directions()
    assert dirs.shape == (8, 3)
    assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) < 1e-15
    # panel is symmetric: every direction has its antipode
    for d in dirs:
        assert any(np.array_equal(-d, e) for e in dirs)


# ------------------------------------------------------------ averaged probe


def test_averaged_probe_quadratic_field_enters_and_descends():
    fld = builtin_fields()["quadratic"]
    report = probe_averaged_stability(fld, deltas=[2.0], horizon=10.0,
                                      entry_radius=0.5, dt=0.01)
    assert len(report.runs) == 8
    assert report.all_entered
    assert report.max_vc_step_increase <= 1e-9
    for run in report.runs:
        # aligned start makes the approach exponential: r(t) = 2 exp(-t),
        # so the 0.5-ball is entered near t = ln 4
        assert run["entry_time"] is not None
        assert abs(run["entry_time"] - np.log(4.0)) < 0.1
        assert run["final_dist"] < 1e-3
        assert run["final_grad_norm"] < 1e-3
    blob = json.dumps(report.as_dict(), sort_keys=True)
    assert json.loads(blob)["all_entered"] is True


def test_averaged_probe_reports_a_nan_step():
    # a field whose c is NaN at the source alone starts every run finite,
    # but every height deficit c(p_star) - c(p) is NaN: so is each run's
    # step increase, and so is the report's (max(0.0, nan) would read 0.0)
    quadratic = builtin_fields()["quadratic"]

    def c(p):
        return np.where(np.any(np.asarray(p) != 0.0, axis=0), quadratic.c(p), np.nan)

    report = probe_averaged_stability(dataclasses.replace(quadratic, c=c), deltas=[2.0],
                                      horizon=0.05, entry_radius=0.1, dt=0.01)
    assert all(np.isnan(run["max_vc_step_increase"]) for run in report.runs)
    assert np.isnan(report.max_vc_step_increase)


@pytest.mark.parametrize("name", ["log", "quadratic"])
def test_averaged_probe_of_three_samples_reads_each_position_as_a_point(name):
    # two steps give 3 samples per run: the probe's (3, K, B) coordinate
    # view of its positions must read each sample and each final position
    # as the per-point list calls do, bit for bit
    fld = builtin_fields()[name]
    dt = 0.01
    report = probe_averaged_stability(fld, deltas=[2.0], horizon=2 * dt, entry_radius=0.1, dt=dt)
    field = averaged_seeker_field(fld)
    grid = TimeGrid(t0=0.0, dt=dt, n_steps=2)
    for run, d in zip(report.runs, shell_directions()):
        p0 = fld.p_star + 2.0 * d
        s0 = np.concatenate([p0, embed(aligned_frame(fld.grad(p0)))])
        states = integrate_rk4(field, s0, grid)[1]
        assert states.shape == (3, 12)
        vc = [fld.c(fld.p_star) - fld.c(s[0:3].tolist()) for s in states]
        assert run["max_vc_step_increase"] == max(vc[1] - vc[0], vc[2] - vc[1])
        final_grad = np.array(fld.grad(states[-1, 0:3].tolist()))
        assert run["final_grad_norm"] == float(np.linalg.norm(final_grad))


def test_averaged_probe_all_entered_needs_every_run():
    # the 0.05 shell starts inside the 0.1 ball; the 6 shell cannot reach it
    # in 0.05 time units
    report = probe_averaged_stability(builtin_fields()["quadratic"], deltas=[0.05, 6.0],
                                      horizon=0.05, entry_radius=0.1, dt=0.01)
    entered = [run["entry_time"] is not None for run in report.runs]
    assert entered == [True] * 8 + [False] * 8
    assert report.all_entered is False


def test_averaged_probe_max_step_increase_reads_every_run(monkeypatch):
    # a stand-in averaged field holds run 0 still, where it starts, and
    # drives every other run outward, up the height deficit: the report's
    # figure is theirs
    def outward(fld):
        still = (fld.p_star + 2.0 * shell_directions()[0]).tolist()

        def rhs(t, s):
            return [0.0] * 12 if s[0:3] == still else s[0:3] + [0.0] * 9
        return rhs

    monkeypatch.setattr(harness, "averaged_seeker_field", outward)
    report = probe_averaged_stability(builtin_fields()["quadratic"], deltas=[2.0],
                                      horizon=0.05, entry_radius=0.1, dt=0.01)
    steps = [run["max_vc_step_increase"] for run in report.runs]
    assert steps[0] == 0.0 and min(steps[1:]) > 0.0
    assert report.max_vc_step_increase == max(steps)


def test_averaged_probe_batch_matches_runs_integrated_alone():
    # the probe integrates each start alone; every run must report what
    # integrating its start here gives
    fld = builtin_fields()["log"]
    deltas, horizon, dt, radius = [3.0, 1.0], 2.0, 0.01, 0.8
    report = probe_averaged_stability(fld, deltas=deltas, horizon=horizon,
                                      entry_radius=radius, dt=dt)
    dirs = shell_directions()
    assert [(r["delta"], r["direction_index"]) for r in report.runs] == [
        (d, i) for d in deltas for i in range(dirs.shape[0])
    ]
    field = averaged_seeker_field(fld)
    grid = TimeGrid(t0=0.0, dt=dt, n_steps=round(horizon / dt))
    for run in report.runs:
        p0 = fld.p_star + run["delta"] * dirs[run["direction_index"]]
        s0 = np.concatenate([p0, embed(aligned_frame(fld.grad(p0)))])
        times, states = integrate_rk4(field, s0, grid)
        dist = np.linalg.norm(states[:, 0:3] - fld.p_star, axis=1)
        vc = [lyapunov_value_and_rate(fld, s[0:3], s[3:12])[0] for s in states]
        above = np.nonzero(dist > radius)[0]
        entry = None if above[-1] + 1 == times.shape[0] else float(times[above[-1] + 1])
        assert run["entry_time"] == entry
        expected = {
            "final_dist": dist[-1],
            "final_grad_norm": np.linalg.norm(fld.grad(states[-1, 0:3])),
            "max_vc_step_increase": np.max(np.diff(vc)),
        }
        for key, value in expected.items():
            assert run[key] == value, key
    # the far shell stays outside the ball over this horizon, the near one enters
    assert [r["entry_time"] is None for r in report.runs] == [True] * 8 + [False] * 8


@pytest.mark.parametrize("name", ["quadratic", "log"])
def test_averaged_flow_steers_misaligned_headings_without_raising_vc(name):
    # the probe's aligned starts make the averaged flow radial, so its
    # frame never turns; heading 90, 135 and 174 degrees off the gradient
    # (about q3) exercise the turn, and V_c must still fall at every step
    fld = builtin_fields()[name]
    angles = np.radians([0.0, 90.0, 135.0, 174.0])
    starts = []
    for a in angles:
        turn = np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0, 0, 1.0]])
        for delta in (6.0, 2.0):
            for d in shell_directions():
                p0 = fld.p_star + delta * d
                starts.append(np.concatenate([p0, embed(aligned_frame(fld.grad(p0)) @ turn)]))
    s0 = np.array(starts)
    grid = TimeGrid(t0=0.0, dt=0.01, n_steps=2000)  # horizon 20, each start alone
    field = averaged_seeker_field(fld)
    states = np.stack([integrate_rk4(field, start, grid)[1] for start in s0], axis=1)
    positions = states[:, :, 0:3]
    vc = float(fld.c(fld.p_star)) - fld.c(np.moveaxis(positions, -1, 0))
    max_step = np.max(np.diff(vc, axis=0), axis=0).reshape(len(angles), 16)
    moved = np.max(np.abs(states[-1, :, 3:12] - s0[:, 3:12]), axis=1).reshape(len(angles), 16)
    # measured: aligned frames move by exactly 0.0; turned ones by 0.557
    # at least (quadratic, 135 degrees), and the largest V_c step is
    # -6.8e-11 (quadratic, 174 degrees) and -1.4e-10 on log
    assert np.all(moved[0] == 0.0)
    assert np.min(moved[1:]) >= 0.5
    assert np.max(max_step[1:]) <= -5e-11


def test_averaged_turn_follows_the_orbit_law_on_the_quadratic_field():
    # With theta the angle between q1 and grad c, the quadratic field's
    # averaged flow has d theta/dt = sin theta (cos theta - |p|/4): the
    # heading settles near cos theta = |p|/4 and the vehicle circles in
    # with d|p|/dt = -|p|^3/16, so |p|^2 t rises toward 8.  From
    # (6, 2, -2) with R0 = I (155 degrees off the gradient) the frame
    # turns throughout, which aligned starts never do.  Measured at dt
    # 0.01: |p|^2 t reads 6.70416, 7.20815, 7.53564 at t = 25, 50, 100,
    # and at t = 100 cos theta is 0.068961 against |p|/4 = 0.068628.
    fld = builtin_fields()["quadratic"]
    x0 = np.concatenate([[6.0, 2.0, -2.0], embed(np.eye(3))])
    times, states = integrate_rk4(averaged_seeker_field(fld), x0, TimeGrid(0.0, 0.01, 10000))
    rows = [2500, 5000, 10000]
    assert np.array_equal(times[rows], [25.0, 50.0, 100.0])
    radius = np.linalg.norm(states[rows, 0:3], axis=1)
    law = radius**2 * times[rows]
    assert np.all(np.diff(law) > 0.0) and np.all(law < 8.0)
    np.testing.assert_allclose(law, [6.70416, 7.20815, 7.53564], rtol=0.0, atol=1e-4)
    p, q1 = states[-1, 0:3], states[-1, 3:6]
    g = fld.grad(p)
    cos_theta = float(q1 @ g / np.linalg.norm(g))
    assert abs(cos_theta - 0.068961) < 1e-5
    assert abs(cos_theta / (radius[-1] / 4.0) - 1.0) < 0.01


def test_averaged_probe_validation():
    fld = builtin_fields()["quadratic"]
    with pytest.raises(ConfigurationError):
        probe_averaged_stability(fld, deltas=[], horizon=1.0, entry_radius=0.1, dt=0.01)
    # a NaN radius would report every run as entered at t = 0
    for radius in (float("nan"), float("inf"), 0.0, -0.1):
        with pytest.raises(ConfigurationError, match="entry_radius"):
            probe_averaged_stability(fld, deltas=[3.0], horizon=1.0, entry_radius=radius,
                                     dt=0.01)
    # a zero radius starts on the optimum; a negative one repeats the shell
    for delta in (0.0, -3.0):
        with pytest.raises(ConfigurationError, match="deltas must be positive"):
            probe_averaged_stability(fld, deltas=[3.0, delta], horizon=1.0, entry_radius=0.1,
                                     dt=0.01)


# -------------------------------------------------------------- seeker probe


def test_seeker_probe_verdict_maps_and_determinism():
    fld = builtin_fields()["quadratic"]
    kwargs = dict(
        eps_x=4.0, eps_z=2.0, deltas=[2.0], omegas=[8.0 * np.pi],
        horizon=2.0, entry_deadline=1.5, steps_per_fast_period=40,
    )
    report = probe_seeker_stability(fld, **kwargs)
    assert len(report.runs) == 3 * 8  # three phases, eight directions
    assert report.containment_omega[2.0] == 8.0 * np.pi
    assert report.entry_omega[2.0] == 8.0 * np.pi
    assert report.bounded_omega[2.0] == 8.0 * np.pi
    for run in report.runs:
        assert not run.diverged
        assert run.sup_dist <= 4.0
        assert run.sup_z <= 2.0
    # bit-identical on repeat execution
    again = probe_seeker_stability(fld, **kwargs)
    assert json.dumps(report.as_dict(), sort_keys=True) == json.dumps(
        again.as_dict(), sort_keys=True
    )


def test_seeker_probe_reports_unmet_items_as_none():
    fld = builtin_fields()["quadratic"]
    report = probe_seeker_stability(
        fld, eps_x=0.01, eps_z=2.0, deltas=[2.0], omegas=[8.0 * np.pi],
        horizon=2.0, entry_deadline=1.5, steps_per_fast_period=40,
    )
    # nothing stays within 0.01 of the source from radius 2, but the runs
    # are still bounded
    assert report.containment_omega[2.0] is None
    assert report.bounded_omega[2.0] == 8.0 * np.pi


def test_seeker_probe_records_failed_projection_as_diverged():
    # four steps per dither period from radius 30: the frame drifts too far
    # to project back within the first steps, which counts as a divergence
    fld = builtin_fields()["quadratic"]
    report = probe_seeker_stability(
        fld, eps_x=1.0, eps_z=1.0, deltas=[30.0], omegas=[4.0 * np.pi],
        horizon=2.0, entry_deadline=None, steps_per_fast_period=4,
    )
    assert any(run.diverged for run in report.runs)
    assert report.bounded_omega[30.0] is None


def test_seeker_probe_runs_match_flights_flown_alone():
    # every run must report what flying its start alone gives, bit for
    # bit, diverged runs included; the shell starts are built once per
    # radius, so grad is called once per start, not per frequency and phase
    base = builtin_fields()["quadratic"]
    calls = []

    def counting_grad(p):
        calls.append(1)
        return base.grad(p)

    deltas, omegas, eps_x, deadline = [2.0, 30.0], [4.0 * np.pi, 8.0 * np.pi], 4.0, 1.5
    report = probe_seeker_stability(
        dataclasses.replace(base, grad=counting_grad), eps_x=eps_x, eps_z=1.0,
        deltas=deltas, omegas=omegas, horizon=2.0, entry_deadline=deadline,
        steps_per_fast_period=4,
    )
    assert len(calls) == 8 * len(deltas)
    assert [(r.delta, r.omega, r.phase_index, r.direction_index) for r in report.runs] == [
        (d, w, k, i) for d in deltas for w in omegas for k in range(3) for i in range(8)
    ]
    dirs = shell_directions()
    diverged = 0
    for run in report.runs:
        p0 = base.p_star + run.delta * dirs[run.direction_index]
        t0 = (0.0, 0.25, 0.5)[run.phase_index] * (2.0 * np.pi / run.omega)
        config = SeekerConfig(omega=run.omega, steps_per_fast_period=4)
        try:
            traj = simulate_seeker(config, base, p0, aligned_frame(base.grad(p0)), 2.0, t0=t0)
        except DivergenceError:
            diverged += 1
            assert run == ProbeRun(run.delta, run.omega, run.phase_index, run.direction_index,
                                   np.inf, np.inf, np.inf, np.inf, None, True)
            continue
        t = traj.times - traj.times[0]
        dist = np.linalg.norm(traj.states[:, 0:3] - base.p_star, axis=1)
        z = np.linalg.norm(traj.states[:, 12:14] - traj.center_values(base)[:, None], axis=1)
        outside = [k for k in range(t.shape[0]) if dist[k] > eps_x]
        if not outside:
            entry = float(t[0])
        else:
            entry = float(t[outside[-1] + 1]) if outside[-1] + 1 < t.shape[0] else None
        tail = t >= deadline
        assert run == ProbeRun(run.delta, run.omega, run.phase_index, run.direction_index,
                               float(np.max(dist)), float(np.max(z)), float(np.max(dist[tail])),
                               float(np.max(z[tail])), entry, False)
    # four steps per dither period from radius 30 diverge on some starts
    assert 0 < diverged < len(report.runs)


def _synthetic_flight(profile):
    """A stand-in for simulate_seeker on the quadratic field: 21 samples
    over the horizon, the vehicle dist(t) from the source on the first
    axis and the filter z(t) from its reading, (dist, z) = profile(t)."""
    def simulate(config, fld, p0, R0, t_f, t0=0.0):
        t = np.linspace(0.0, t_f, 21)
        dist, z = profile(t)
        p = np.column_stack([dist, np.zeros((21, 2))])
        y = (fld.c(p.T) + z / np.sqrt(2.0))[:, None] * np.ones(2)
        states = np.column_stack([p, np.tile(embed(np.eye(3)), (21, 1)), y])
        return SeekerTrajectory(t0 + t, states)
    return simulate


_OMEGA = 4.0 * np.pi


@pytest.mark.parametrize("profile, contained, entered", [
    # inside both tolerances throughout
    (lambda t: (0.5 + 0 * t, 0 * t), True, True),
    # inside the ball in time, but the filter error grows in the tail
    (lambda t: (np.where(t < 0.5, 2.0, 0.5), np.where(t < 1.0, 0.0, 3.0)), False, False),
    # inside the ball only after the deadline, though before twice it
    (lambda t: (np.where(t < 1.5, 2.0, 0.5), 0 * t), False, False),
    # inside the ball throughout, the filter error large at the start only
    (lambda t: (0.5 + 0 * t, np.where(t < 0.5, 3.0, 0.0)), False, True),
], ids=["both", "tail-z", "late", "early-z"])
def test_seeker_probe_verdicts_read_every_tolerance(monkeypatch, profile, contained, entered):
    # eps_x = eps_z = 1 and the deadline at 1 of a horizon of 2: containment
    # needs the distance and filter error within tolerance over the whole
    # run, entry needs the ball by the deadline and the filter within
    # tolerance after it
    monkeypatch.setattr(harness, "simulate_seeker", _synthetic_flight(profile))
    report = probe_seeker_stability(builtin_fields()["quadratic"], eps_x=1.0, eps_z=1.0,
                                    deltas=[2.0], omegas=[_OMEGA], horizon=2.0,
                                    entry_deadline=1.0, steps_per_fast_period=100)
    assert report.containment_omega == {2.0: _OMEGA if contained else None}
    assert report.entry_omega == {2.0: _OMEGA if entered else None}
    assert report.bounded_omega == {2.0: _OMEGA}


def test_seeker_probe_validation():
    fld = builtin_fields()["quadratic"]
    with pytest.raises(ConfigurationError):
        probe_seeker_stability(fld, eps_x=1.0, eps_z=1.0, deltas=[], omegas=[4.0],
                               horizon=1.0, entry_deadline=None, steps_per_fast_period=100)
    with pytest.raises(ConfigurationError):
        probe_seeker_stability(fld, eps_x=1.0, eps_z=1.0, deltas=[1.0],
                               omegas=[4.0], horizon=1.0, entry_deadline=2.0,
                               steps_per_fast_period=100)
    for delta in (0.0, -1.0):
        with pytest.raises(ConfigurationError, match="deltas must be positive"):
            probe_seeker_stability(fld, eps_x=1.0, eps_z=1.0, deltas=[delta], omegas=[4.0],
                                   horizon=1.0, entry_deadline=None,
                                   steps_per_fast_period=100)


def test_seeker_probe_checks_every_frequency_before_any_flight(monkeypatch):
    def no_flight(*args, **kwargs):
        raise AssertionError("a flight started before every frequency was checked")

    monkeypatch.setattr(harness, "simulate_seeker", no_flight)
    with pytest.raises(ConfigurationError, match="omega must be positive, got -1.0"):
        probe_seeker_stability(builtin_fields()["quadratic"], eps_x=1.0, eps_z=1.0,
                               deltas=[2.0], omegas=[4.0 * np.pi, -1.0], horizon=2.0,
                               entry_deadline=None, steps_per_fast_period=100)


# ------------------------------------------------------------------ records


def test_empty_record_reports_infinite_deviation():
    empty = np.empty((0,))
    record = RunRecord(
        omega=4.0, t_f=1.0, times=empty, x_dev=empty, z_norm=empty, blowup_time=0.5,
    )
    assert record.max_dev == float("inf")
