"""Tests for the dithered source-seeking loop and its averaged model.

Oracles: closed-form field values (log and quadratic), hand-evaluated
right-hand sides at crafted states, the equivalence of the raw and
rotating-frame representations, the pure-roll solution in a flat field
(which integrates in closed form), and the exact quarter-gain behavior
of the averaged loop.
"""

import collections
import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import array_integrate_rk4, assembled_field

from twoscale import harness
from twoscale.averaging import build_bundle, residual_bvp
from twoscale.benchmarks import linear_benchmark
from twoscale.errors import ConfigurationError, DimensionError, ManifoldError
from twoscale.harness import sweep_convergence
from twoscale.numkit import TimeGrid, integrate_rk4, jacobian_fd
from twoscale.seeker import (
    FILTER_A,
    FILTER_B,
    ScalarField,
    SeekerConfig,
    as_system_spec,
    averaged_seeker_field,
    builtin_fields,
    cross_check,
    initial_state,
    lyapunov_value_and_rate,
    raw_kinematics_field,
    seeker_field,
    sensor_position,
    simulate_seeker,
)
from twoscale.so3 import cross3, embed, exp_so3, manifold_residual, project_so3
from twoscale.system import assemble_full_field, check_assumption_A, grid_terms

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
P_REF = np.array([6.0, 2.0, -2.0])


def sum_sq(p):
    """|p|^2 of 3 floats, added left to right as the built-in fields do."""
    return p[0] * p[0] + p[1] * p[1] + p[2] * p[2]


def flat_field():
    """Zero field: the loop reduces to pure roll plus dither surge."""
    return ScalarField(
        name="flat",
        c=lambda p: 0.0,
        grad=lambda p: np.zeros(3),
        hess=lambda p: np.zeros((3, 3)),
        p_star=np.zeros(3),
    )


# ------------------------------------------------------------ scalar fields


def test_log_field_reference_values():
    fld = builtin_fields()["log"]
    assert fld.c(np.zeros(3)) == 0.0
    assert abs(fld.c(P_REF) - (-np.log(23.0))) < 1e-15
    assert abs(fld.c(P_REF) - (-3.1354942159291497)) < 1e-15
    expected_grad = -P_REF / 23.0
    assert np.max(np.abs(fld.grad(P_REF) - expected_grad)) < 1e-15


def test_quadratic_field_reference_values():
    fld = builtin_fields()["quadratic"]
    p = np.array([1.0, -2.0, 2.0])
    assert fld.c(p) == -4.5
    assert np.array_equal(fld.grad(p), -p)
    assert np.array_equal(fld.hess(p.tolist()), -np.eye(3))
    # the quadratic-growth bound is sharp: c(p*) - c(p) = |grad|^2 / 2
    deficit = fld.c(fld.p_star) - fld.c(p)
    g = np.array(fld.grad(p))
    assert abs(deficit - 0.5 * float(g @ g)) < 1e-14


def test_quadratic_hessian_is_a_fresh_negative_identity_per_call():
    # a new list per call, so a caller that writes into one changes no
    # other, with the bits of -np.eye(3), signed zeros included
    fld = builtin_fields()["quadratic"]
    H = fld.hess([1.0, -2.0, 2.0])
    assert np.array(H).tobytes() == (-np.eye(3)).tobytes()
    H[0][0] = 1.0
    assert np.array(fld.hess(P_REF.tolist())).tobytes() == (-np.eye(3)).tobytes()


def test_log_hessian_matches_a_fresh_identity_bit_for_bit():
    # its bits must be those of -np.eye(3) / s + np.outer(p, p) / (s * s),
    # built afresh, with |p|^2 in s added left to right
    fld = builtin_fields()["log"]
    rng = np.random.default_rng(83)
    points = [np.zeros(3), -np.zeros(3), P_REF]
    points += [rng.uniform(-8.0, 8.0, 3) for _ in range(300)]
    points += [1e-3 * rng.standard_normal(3) for _ in range(100)]
    for p in points:
        s = 1.0 + 0.5 * sum_sq(p.tolist())
        want = -np.eye(3) / s + np.outer(p, p) / (s * s)
        assert np.array(fld.hess(p.tolist())).tobytes() == want.tobytes(), p


def test_fields_have_critical_point_at_target():
    for fld in builtin_fields().values():
        assert np.max(np.abs(fld.grad(fld.p_star))) < 1e-10


def test_field_derivatives_match_finite_differences():
    rng = np.random.default_rng(31)
    for fld in builtin_fields().values():
        for _ in range(10):
            p = rng.uniform(-10.0, 10.0, 3)
            # jacobian_fd passes a (6, 3) block: the fields read it coordinate-first
            g_fd = jacobian_fd(lambda P: fld.c(P.T), p)[0]
            assert np.max(np.abs(np.array(fld.grad(p)) - g_fd)) < 1e-6
            H_fd = jacobian_fd(lambda P: np.array(fld.grad(P.T)).T, p)
            assert np.max(np.abs(np.array(fld.hess(p.tolist())) - H_fd)) < 1e-6


# point formulas on Python floats, |p|^2 added left to right: the oracle
# for every form of the fields' values (which the simulate CSV and the
# reports are made of)
POINT_FORMULAS = {
    "log": (lambda p: -math.log1p(0.5 * sum_sq(p)),
            lambda p: [-v / (1.0 + 0.5 * sum_sq(p)) for v in p]),
    "quadratic": (lambda p: -0.5 * sum_sq(p), lambda p: [-v for v in p]),
}


def bits(*values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("name", ["log", "quadratic"])
def test_field_blocks_match_point_calls_bit_for_bit(name):
    # a list of 3 floats, a (3,) point and a column of a (3, B) block give
    # the float formula's bits, for c, grad and hess, and so does a (3, 2, B/2)
    # block reshaped; on the list they give floats and lists of floats; also
    # at signed zeros and where |p|^2 overflows, whose inf and NaN values
    # must agree as well
    fld = builtin_fields()[name]
    rng = np.random.default_rng(41)
    dirs = rng.normal(size=(2000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    P = dirs * 10.0 ** rng.uniform(-3.0, 3.0, size=(2000, 1))
    P[0] = fld.p_star
    edges = [[-0.0, 0.0, -0.0], [-0.0, -0.0, -0.0], [1e-200, -1e-300, 5e-324],
             [1e200, 0.0, -0.0], [1e155, -1e155, 1e155], [-1e308, 1e308, 1.0]]
    P = np.vstack([P, edges])
    with np.errstate(over="ignore", invalid="ignore"):
        c_block = fld.c(P.T)
        g_block = np.array(fld.grad(P.T)).T
        H_block = np.broadcast_to(np.array(fld.hess(P.T)).T, (len(P), 3, 3))
        assert c_block.shape == (len(P),) and g_block.shape == (len(P), 3)
        folded = P.T.reshape(3, 2, -1)
        assert bits(fld.c(folded)) == bits(c_block.reshape(2, -1))
        assert bits(fld.grad(folded)) == bits(g_block.T.reshape(3, 2, -1))
        point_c, point_grad = POINT_FORMULAS[name]
        for b, p in enumerate(P):
            row = p.tolist()
            c, c_list = fld.c(p), fld.c(row)
            assert isinstance(c, float) and isinstance(c_list, float)
            assert bits(c) == bits(c_list) == bits(c_block[b]) == bits(point_c(row)), row
            g, g_list = fld.grad(p), fld.grad(row)
            assert isinstance(g_list, list) and all(type(v) is float for v in g_list)
            assert bits(*g) == bits(*g_list) == g_block[b].tobytes() == bits(*point_grad(row))
            H, H_list = fld.hess(p), fld.hess(row)
            assert len(H_list) == 3
            assert all(isinstance(r, list) and len(r) == 3 for r in H_list), row
            assert all(type(v) is float for r in H_list for v in r), row
            assert bits(H) == bits(H_list) == H_block[b].T.tobytes(), row
    overflow = P[-3:]
    assert np.all(np.isinf(c_block[-3:]))
    if name == "log":
        assert np.all(np.isnan([fld.hess(p.tolist()) for p in overflow]).any(axis=(1, 2)))


# ------------------------------------------------------------ configuration


def test_config_derived_scales():
    cfg = SeekerConfig(omega=16.0)
    assert cfg.eps == 0.25
    assert abs(cfg.dt - (np.pi / 16.0) / 200.0) < 1e-18


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SeekerConfig(omega=0.0)
    with pytest.raises(ConfigurationError):
        SeekerConfig(omega=-1.0)
    with pytest.raises(ConfigurationError):
        SeekerConfig(omega=4.0, steps_per_fast_period=1)


def test_filter_realization_matrices():
    assert np.array_equal(FILTER_A, np.array([[-1.0, 1.0], [0.0, -1.0]]))
    assert np.array_equal(FILTER_B, np.array([0.0, 1.0]))
    eigs = np.linalg.eigvals(FILTER_A)
    assert np.max(eigs.real) < 0.0


# ------------------------------------------------------------- sensor model


def test_sensor_position_examples():
    p = np.array([1.0, 2.0, 3.0])
    q = embed(np.eye(3))
    assert np.array_equal(sensor_position(p, q, 0.7, 0.0), p)
    assert np.array_equal(sensor_position(p, q, 0.0, 1.0), p + E2)
    got = sensor_position(p, q, np.pi / 2.0, 2.0)
    assert np.max(np.abs(got - (p + 2.0 * E3))) < 1e-12


def test_sensor_position_rotated_frame():
    p = np.zeros(3)
    Q = exp_so3(np.array([0.3, -0.8, 0.5]))
    tau, r = 1.1, 0.25
    expected = r * (np.cos(tau) * Q[:, 1] + np.sin(tau) * Q[:, 2])
    assert np.max(np.abs(sensor_position(p, embed(Q), tau, r) - expected)) < 1e-14
    with pytest.raises(DimensionError):
        sensor_position(p, np.zeros(8), 0.0, 1.0)


# -------------------------------------------------------------- initial state


def test_initial_state_quasi_steady_filter():
    fld = builtin_fields()["log"]
    s0 = initial_state(fld, P_REF, np.eye(3))
    assert s0.shape == (14,)
    assert np.array_equal(s0[0:3], P_REF)
    assert np.array_equal(s0[3:12], embed(np.eye(3)))
    c0 = fld.c(P_REF)
    assert np.array_equal(s0[12:14], np.array([c0, c0]))


def test_initial_state_zero_mode_and_override():
    fld = builtin_fields()["log"]
    s0 = initial_state(fld, P_REF, np.eye(3), y0=np.zeros(2))
    assert np.array_equal(s0[12:14], np.zeros(2))
    s1 = initial_state(fld, P_REF, np.eye(3), y0=(0.3, -0.2))
    assert np.array_equal(s1[12:14], np.array([0.3, -0.2]))


def test_initial_state_rejects_non_rotation():
    fld = builtin_fields()["log"]
    with pytest.raises(ManifoldError):
        initial_state(fld, P_REF, 1.5 * np.eye(3))
    with pytest.raises(DimensionError):
        initial_state(fld, np.zeros(2), np.eye(3))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_initial_state_rejects_non_finite_start(bad):
    with pytest.raises(ConfigurationError, match="p0 must be finite"):
        initial_state(builtin_fields()["log"], np.array([bad, 0.0, 0.0]), np.eye(3))


# ----------------------------------------------------------- right-hand side


def test_seeker_field_at_crafted_state():
    # sensor sits exactly at the origin where c = 0, the filter is at
    # rest, so the only motion is the full-amplitude surge along q1
    fld = builtin_fields()["log"]
    w = 16.0
    cfg = SeekerConfig(omega=w)
    r = cfg.eps
    s = np.concatenate([-r * E2, embed(np.eye(3)), np.zeros(2)])
    ds = np.array(seeker_field(cfg, fld)(0.0, s.tolist()))
    expected = np.zeros(14)
    expected[0:3] = 2.0 * np.sqrt(w) * E1
    assert np.array_equal(ds, expected)


def test_seeker_field_filter_drives_frame():
    # y = (0, 1) gives unit filter output; at phase 0 the steering axis
    # is q3, so q1 turns toward q2 and q2 toward -q1 at rate sqrt(w)
    fld = builtin_fields()["log"]
    w = 16.0
    cfg = SeekerConfig(omega=w)
    r = cfg.eps
    s = np.concatenate([-r * E2, embed(np.eye(3)), np.array([0.0, 1.0])])
    ds = np.array(seeker_field(cfg, fld)(0.0, s.tolist()))
    sqw = np.sqrt(w)
    assert np.max(np.abs(ds[0:3] - 2.0 * sqw * E1)) < 1e-14
    assert np.max(np.abs(ds[3:6] - sqw * E2)) < 1e-14
    assert np.max(np.abs(ds[6:9] + sqw * E1)) < 1e-14
    assert np.max(np.abs(ds[9:12])) < 1e-14
    assert abs(ds[12] - w) < 1e-14
    assert abs(ds[13] - (-w)) < 1e-14  # c at the sensor is 0, y2 decays


def test_seeker_field_filter_tracks_sensor_reading():
    fld = builtin_fields()["log"]
    w = 4.0 * np.pi
    cfg = SeekerConfig(omega=w)
    Q = exp_so3(np.array([0.2, 0.9, -0.4]))
    y = np.array([0.05, -0.3])
    t = 0.37
    s = np.concatenate([P_REF, embed(Q), y])
    ds = np.array(seeker_field(cfg, fld)(t, s.tolist()))
    ps = sensor_position(P_REF, embed(Q), w * t, cfg.eps)
    expected_dy = w * (FILTER_A @ y + FILTER_B * fld.c(ps))
    assert np.max(np.abs(ds[12:14] - expected_dy)) < 1e-12


def reference_seeker_field(config, fld):
    """The rotating-frame right-hand side as numpy 3-vectors: cross3 of the
    steering axis into each frame column, joined by concatenate."""
    w = config.omega
    sqw = float(np.sqrt(w))
    radius = config.eps
    amp = 2.0 * sqw

    def rhs(t, s):
        p, q1, q2, q3, y = s[0:3], s[3:6], s[6:9], s[9:12], s[12:14]
        tau = w * t
        ct, st = np.cos(tau), np.sin(tau)
        val = float(fld.c(p + radius * (ct * q2 + st * q3)))
        dp = (amp * np.cos(2.0 * tau - val)) * q1
        wv = ct * q3 - st * q2
        gain = sqw * (y[1] - y[0])
        dq = [gain * cross3(wv, qi) for qi in (q1, q2, q3)]
        return np.concatenate([dp, *dq, [w * (y[1] - y[0]), w * (val - y[1])]])

    return rhs


@pytest.mark.parametrize("name", ["log", "quadratic"])
def test_seeker_field_matches_cross_product_reference(name):
    # random states and phases with |tau| up to 1e4; each block (dp, the
    # frame, the filter) agrees with the reference to 4 eps of its size
    fld = builtin_fields()[name]
    rng = np.random.default_rng(41)
    eps = np.finfo(float).eps
    for _ in range(100):
        cfg = SeekerConfig(omega=float(rng.uniform(1.0, 100.0)))
        t = float(rng.uniform(-1e4, 1e4)) / cfg.omega
        q = embed(exp_so3(rng.uniform(-np.pi, np.pi, size=3))) + 1e-3 * rng.standard_normal(9)
        s = np.concatenate([rng.uniform(-8.0, 8.0, size=3), q, rng.standard_normal(2)])
        got = np.array(seeker_field(cfg, fld)(t, s.tolist()))
        ref = reference_seeker_field(cfg, fld)(t, s)
        assert got.shape == (14,)
        for block in (slice(0, 3), slice(3, 12), slice(12, 14)):
            scale = np.max(np.abs(ref[block]))
            assert np.max(np.abs(got[block] - ref[block])) <= 4 * eps * scale


def test_raw_and_rotating_representations_agree():
    cfg = SeekerConfig(omega=4.0 * np.pi, steps_per_fast_period=400)
    dev = cross_check(cfg, builtin_fields()["log"], P_REF, np.eye(3))
    assert dev < 1e-6


def test_cross_check_runs_at_the_config_step():
    # the raw and rotating RK4 errors differ, so their gap shrinks with the
    # step; the 400-step value is the deviation criterion 7 prints, pinned
    fld = builtin_fields()["log"]
    devs = {
        n: cross_check(SeekerConfig(omega=4.0 * np.pi, steps_per_fast_period=n),
                       fld, P_REF, np.eye(3))
        for n in (200, 400)
    }
    assert devs[400] < devs[200] < 1e-6
    assert devs[400] == 1.9929933987759493e-10


def test_flat_field_runs_are_pure_roll():
    # with nothing to sense, y stays at rest, the frame only rolls about
    # the first body axis, and the center oscillates along it:
    #   R(t) = R0 exp(w t e1^), p(t) = p0 + sin(2 w t)/sqrt(w) R0 e1
    fld = flat_field()
    w = 4.0 * np.pi
    cfg = SeekerConfig(omega=w, steps_per_fast_period=400)
    R0 = exp_so3(np.array([0.1, 0.4, -0.3]))
    p0 = np.array([1.0, 2.0, 3.0])
    s0 = initial_state(fld, p0, R0)
    n_steps = 2 * 400  # one frame period
    grid = TimeGrid(t0=0.0, dt=cfg.dt, n_steps=n_steps)
    times, states = integrate_rk4(raw_kinematics_field(cfg, fld), s0, grid)
    assert np.max(np.abs(states[:, 12:14])) == 0.0
    worst_R = worst_p = 0.0
    for k in range(0, n_steps + 1, 50):
        t = times[k]
        R_num = states[k, 3:12].reshape(3, 3).T
        R_exact = R0 @ exp_so3(w * t * E1)
        p_exact = p0 + (np.sin(2.0 * w * t) / np.sqrt(w)) * (R0 @ E1)
        worst_R = max(worst_R, float(np.max(np.abs(R_num - R_exact))))
        worst_p = max(worst_p, float(np.max(np.abs(states[k, 0:3] - p_exact))))
    assert worst_R < 1e-8
    assert worst_p < 1e-9


# ---------------------------------------------------------------- simulation


def test_simulate_records_start_and_end():
    fld = builtin_fields()["log"]
    cfg = SeekerConfig(omega=4.0 * np.pi, steps_per_fast_period=100)
    traj = simulate_seeker(cfg, fld, P_REF, np.eye(3), t_f=0.5)
    assert traj.times[0] == 0.0
    assert abs(traj.times[-1] - 0.5) < 1e-9
    assert traj.states.shape[1] == 14
    s0 = initial_state(fld, P_REF, np.eye(3))
    assert np.array_equal(traj.states[0], s0)


def test_simulate_stride_keeps_final_state():
    fld = builtin_fields()["log"]
    cfg = SeekerConfig(omega=4.0 * np.pi, steps_per_fast_period=100)
    dense = simulate_seeker(cfg, fld, P_REF, np.eye(3), t_f=0.5)
    thin = simulate_seeker(cfg, fld, P_REF, np.eye(3), t_f=0.5, stride=7)
    assert thin.states.shape[0] < dense.states.shape[0]
    assert np.array_equal(thin.states[-1], dense.states[-1])
    assert np.array_equal(thin.times[::1][0], dense.times[0])


def test_simulate_stride_beyond_the_run_keeps_first_and_last_rows():
    # every stride of at least n_steps keeps the same two rows, including
    # one past numpy's int64 range
    fld = builtin_fields()["log"]
    cfg = SeekerConfig(omega=4.0 * np.pi, steps_per_fast_period=100)
    n_steps = TimeGrid.spanning(0.0, 0.5, cfg.dt).n_steps
    whole = simulate_seeker(cfg, fld, P_REF, np.eye(3), t_f=0.5, stride=n_steps)
    huge = simulate_seeker(cfg, fld, P_REF, np.eye(3), t_f=0.5, stride=2**63)
    assert whole.states.shape[0] == 2
    assert np.array_equal(huge.times, whole.times)
    assert np.array_equal(huge.states, whole.states)


def test_simulate_projection_keeps_frame_on_manifold():
    fld = builtin_fields()["log"]
    cfg = SeekerConfig(omega=4.0 * np.pi, steps_per_fast_period=100)
    traj = simulate_seeker(cfg, fld, P_REF, np.eye(3), t_f=1.0, stride=25)
    assert float(np.max(traj.frame_residuals())) < 1e-12


def test_simulate_start_time_sets_phase():
    fld = builtin_fields()["log"]
    cfg = SeekerConfig(omega=4.0 * np.pi, steps_per_fast_period=100)
    traj = simulate_seeker(cfg, fld, P_REF, np.eye(3), t_f=0.25, t0=0.125)
    assert traj.times[0] == 0.125
    # the first recorded step must match a manual step from the same phase
    from twoscale.numkit import rk4_step

    s0 = initial_state(fld, P_REF, np.eye(3))
    manual = rk4_step(seeker_field(cfg, fld), 0.125, s0.tolist(), cfg.dt)
    from twoscale.seeker import _project_state

    assert np.max(np.abs(traj.states[1] - np.array(_project_state(manual)))) < 1e-15


def test_project_state_is_float_arithmetic(monkeypatch):
    # the projected flight calls no numpy between RK4 steps
    from twoscale import seeker, so3
    from twoscale.seeker import _project_state

    s = [0.5, -1.0, 2.0] + embed(1.001 * np.eye(3)).tolist() + [0.25, -0.75]
    eye = embed(np.eye(3)).tolist()
    monkeypatch.setattr(seeker, "np", None)
    monkeypatch.setattr(so3, "np", None)
    out = _project_state(s)
    assert all(type(v) is float for v in out)
    assert out[0:3] == s[0:3] and out[12:14] == s[12:14]
    assert max(abs(a - b) for a, b in zip(out[3:12], eye)) < 1e-15


def array_seeker_field(config, fld):
    """seeker_field as it was on arrays: the state read with tolist(), the
    dither axis and frame turn formed as lists, one np.array returned."""
    w = config.omega
    sqw = float(np.sqrt(w))
    radius = config.eps
    amp = 2.0 * sqw

    def rhs(t, s):
        x = s.tolist()
        q = x[3:12]
        ya, yb = x[12:14]
        tau = w * t
        ct = math.cos(tau)
        st = math.sin(tau)
        d = [ct * q[3] + st * q[6], ct * q[4] + st * q[7], ct * q[5] + st * q[8]]
        sensor = np.array([x[0] + radius * d[0], x[1] + radius * d[1], x[2] + radius * d[2]])
        val = float(fld.c(sensor))
        surge = amp * math.cos(2.0 * tau - val)
        gain = sqw * (yb - ya)
        v0 = ct * q[6] - st * q[3]
        v1 = ct * q[7] - st * q[4]
        v2 = ct * q[8] - st * q[5]
        turn = []
        for a0, a1, a2 in (q[0:3], q[3:6], q[6:9]):
            turn += [v1 * a2 - v2 * a1, v2 * a0 - v0 * a2, v0 * a1 - v1 * a0]
        return np.array(
            [surge * q[0], surge * q[1], surge * q[2]]
            + [gain * r for r in turn]
            + [w * (yb - ya), w * (val - yb)]
        )

    return rhs


def array_project_state(s):
    out = s.copy()
    out[3:12] = project_so3(s[3:12])
    return out


@pytest.mark.parametrize("name, projection, stride, t0, y0", [
    ("log", True, 1, 0.0, None),
    ("log", False, 7, 0.37, None),
    ("log", True, 5, 1.1, [0.0, 0.0]),
    ("quadratic", True, 3, 0.25, None),
    ("quadratic", False, 1, 0.0, [0.0, 0.0]),
])
def test_simulate_matches_the_array_flight_bit_for_bit(name, projection, stride, t0, y0):
    fld = builtin_fields()[name]
    cfg = SeekerConfig(omega=4.0 * np.pi, steps_per_fast_period=50, projection=projection)
    R0 = exp_so3(np.array([0.4, -1.2, 0.7]))
    traj = simulate_seeker(cfg, fld, P_REF, R0, t_f=1.0, y0=y0, stride=stride, t0=t0)
    grid = TimeGrid.spanning(t0, 1.0, cfg.dt)
    post = array_project_state if projection else None
    times, states = array_integrate_rk4(
        array_seeker_field(cfg, fld), initial_state(fld, P_REF, R0, y0=y0), grid, post_step=post
    )
    keep = sorted(set(range(0, grid.n_steps + 1, stride)) | {grid.n_steps})
    assert traj.times.tobytes() == times[keep].tobytes()
    assert traj.states.tobytes() == states[keep].tobytes()


def test_simulate_validation():
    fld = builtin_fields()["log"]
    cfg = SeekerConfig(omega=4.0 * np.pi)
    with pytest.raises(ConfigurationError):
        simulate_seeker(cfg, fld, P_REF, np.eye(3), t_f=0.0)
    with pytest.raises(ConfigurationError):
        simulate_seeker(cfg, fld, P_REF, np.eye(3), t_f=1.0, stride=0)


def test_trajectory_observables():
    fld = builtin_fields()["quadratic"]
    cfg = SeekerConfig(omega=4.0 * np.pi, steps_per_fast_period=100)
    traj = simulate_seeker(cfg, fld, np.array([1.0, 0.0, 0.0]), np.eye(3), t_f=0.5, stride=10)
    cv = traj.center_values(fld)
    lv = traj.lyapunov_values(fld)
    assert cv.shape == lv.shape == (traj.states.shape[0],)
    assert abs(cv[0] - (-0.5)) < 1e-14
    # V = c(p*) - c(p) and c(p*) = 0 for the quadratic field
    assert np.max(np.abs(lv + cv)) < 1e-14


@pytest.mark.parametrize("name", ["log", "quadratic"])
def test_center_values_of_a_three_row_run_read_each_row_as_a_point(name):
    # center_values passes the (3, K) coordinate view; at K = 3 a (K, 3)
    # block would unpack too, reading the rows as coordinates
    fld = builtin_fields()[name]
    cfg = SeekerConfig(omega=4.0 * np.pi, steps_per_fast_period=20)
    traj = simulate_seeker(cfg, fld, P_REF, np.eye(3), t_f=2.0 * cfg.dt)
    assert traj.states.shape == (3, 14)
    want = [fld.c(row[0:3].tolist()) for row in traj.states]
    assert traj.center_values(fld).tobytes() == bits(*want)
    assert traj.lyapunov_values(fld).tobytes() == bits(*[fld.c(fld.p_star) - v for v in want])


# ------------------------------------------------------------- averaged loop


def test_averaged_field_fixed_point_at_source():
    fld = builtin_fields()["quadratic"]
    avg = averaged_seeker_field(fld)
    s = np.concatenate([fld.p_star, embed(exp_so3(np.array([0.4, 0.1, -0.7])))])
    assert np.max(np.abs(avg(0.0, s))) == 0.0


def test_averaged_field_quarter_gain_turn():
    # gradient along e2 with identity frame: the surge axis q1 turns
    # toward the gradient at rate 1/4 and there is no translation
    fld = builtin_fields()["quadratic"]
    avg = averaged_seeker_field(fld)
    s = np.concatenate([-E2, embed(np.eye(3))])
    ds = avg(0.0, s)
    assert np.array_equal(ds[0:3], np.zeros(3))
    assert np.max(np.abs(ds[3:6] - 0.25 * E2)) < 1e-15
    assert np.max(np.abs(ds[6:9] + 0.25 * E1)) < 1e-15
    assert np.array_equal(ds[9:12], np.zeros(3))


def test_averaged_field_aligned_frame_translates_only():
    fld = builtin_fields()["quadratic"]
    avg = averaged_seeker_field(fld)
    s = np.concatenate([-E1, embed(np.eye(3))])  # gradient is e1 = q1
    ds = avg(0.0, s)
    assert np.max(np.abs(ds[0:3] - E1)) < 1e-15
    assert np.max(np.abs(ds[3:12])) < 1e-15


def test_averaged_field_time_independent():
    fld = builtin_fields()["log"]
    avg = averaged_seeker_field(fld)
    s = np.concatenate([P_REF, embed(exp_so3(np.array([0.2, -0.1, 0.5])))])
    assert np.array_equal(avg(0.0, s), avg(42.0, s))


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def reference_averaged_field(fld):
    """The averaged closed loop on (3, B) component stacks in the body
    frame, one frame column at a time: a dot product per u_j, then
    dq1 = (u2 q2 + u3 q3) / 4, dq2 = -(u2 / 4) q1, dq3 = -(u3 / 4) q1."""
    grad = fld.grad

    def rhs(t, s):
        x = s.T
        p, q1, q2, q3 = x[0:3], x[3:6], x[6:9], x[9:12]
        g = np.array(grad(p))
        u1, u2, u3 = _dot3(q1, g), _dot3(q2, g), _dot3(q3, g)
        a2, a3 = 0.25 * u2, 0.25 * u3
        return np.concatenate([u1 * q1, a2 * q2 + a3 * q3, -a2 * q1, -a3 * q1]).T

    return rhs


def cross_product_averaged_field(fld):
    """The same loop in the world frame: dq_j = wbar x q_j with angular
    velocity wbar = (u2 q3 - u3 q2) / 4, through cross3."""
    grad = fld.grad

    def rhs(t, s):
        x = s.T
        p, q1, q2, q3 = x[0:3], x[3:6], x[6:9], x[9:12]
        g = np.array(grad(p))
        u1, u2, u3 = _dot3(q1, g), _dot3(q2, g), _dot3(q3, g)
        wbar = 0.25 * (u2 * q3 - u3 * q2)
        return np.concatenate(
            [u1 * q1, cross3(wbar, q1), cross3(wbar, q2), cross3(wbar, q3)]
        ).T

    return rhs


def test_averaged_field_block_matches_rows():
    # the per-column reference on a (B, 12) block of B independent states
    # gives, row by row, the list form's value byte for byte, and the list
    # form reads grad c once per state, as a list of 3 floats.  Rows at the
    # source make grad c a signed zero on the quadratic field (-0.0), where
    # a sum that starts from +0.0 would flip the sign of zero outputs;
    # array_equal cannot see that, tobytes can.  The world-frame
    # cross-product form agrees to rounding: measured at 1.35 eps |grad c|
    # on these states, bounded at 2 eps |grad c|.
    rng = np.random.default_rng(3)
    eps = np.finfo(float).eps

    def state(kind):
        p = [np.zeros(3), 1e-3 * rng.standard_normal(3), rng.uniform(-4.0, 4.0, size=3)][kind]
        return np.concatenate([p, embed(exp_so3(rng.uniform(-np.pi, np.pi, size=3)))])

    for name, fld in builtin_fields().items():
        reads = []

        def grad(p, grad=fld.grad):
            reads.append(p)
            return grad(p)

        avg = averaged_seeker_field(dataclasses.replace(fld, grad=grad))
        ref = reference_averaged_field(fld)
        world = cross_product_averaged_field(fld)
        for n_rows in (1, 8, 16):
            for _ in range(25):
                block = np.array([state(k) for k in rng.integers(0, 3, size=n_rows)])
                reads.clear()
                out = np.array([avg(0.0, s) for s in block.tolist()])
                assert all(type(p) is list for p in reads)
                assert reads == block[:, 0:3].tolist()
                assert out.tobytes() == ref(0.0, block).tobytes(), name
                gap = np.abs(out - world(0.0, block))
                g_norm = np.linalg.norm(np.array(fld.grad(block[:, 0:3].T)), axis=0)
                assert np.all(gap <= 2.0 * eps * g_norm[:, None]), name


@st.composite
def scattered_blocks(draw):
    """(B, 12) blocks of B in {1, 8, 16} states, each entry +-0.0 or a
    magnitude in [1e-3, 1e3] of either sign: no frame need be a rotation,
    and a zero center makes the quadratic gradient -0.0."""
    n_rows = draw(st.sampled_from([1, 8, 16]))
    signed = st.builds(lambda sign, m: sign * m, st.sampled_from([1.0, -1.0]),
                       st.floats(min_value=1e-3, max_value=1e3))
    entry = st.one_of(st.sampled_from([0.0, -0.0]), signed, signed, signed)
    entries = draw(st.lists(entry, min_size=12 * n_rows, max_size=12 * n_rows))
    return np.array(entries).reshape(n_rows, 12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scattered_blocks())
def test_averaged_field_list_form_matches_the_array_forms(block):
    # the list form, which integrate_rk4 steps, gives a list of 12 Python
    # floats with the bits of the same formula on a (12,) array, which it
    # unpacks into numpy scalars, signed zeros included, on both built-in
    # fields and on one whose gradient is not radial
    for name in TERM_FIELDS:
        avg = averaged_seeker_field(term_field(name))
        for s in block:
            got = avg(0.0, s.tolist())
            assert type(got) is list and len(got) == 12
            assert all(type(v) is float for v in got)
            assert np.array(got).tobytes() == np.array(avg(0.0, s)).tobytes(), name


@st.composite
def seeker_blocks(draw):
    """(B, 12) blocks of B in {1, 8, 16} states: positions in [-10, 10]^3
    and frames exp_so3 of rotation vectors in [-pi, pi]^3."""
    n_rows = draw(st.sampled_from([1, 8, 16]))
    coords = st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=3, max_size=3)
    angles = st.lists(st.floats(min_value=-np.pi, max_value=np.pi), min_size=3, max_size=3)
    return np.array([
        np.concatenate([draw(coords), embed(exp_so3(np.array(draw(angles))))])
        for _ in range(n_rows)
    ])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seeker_blocks())
def test_averaged_field_is_tangent_and_descends(block):
    # each frame row is tangent to SO(3): Q^T dQ is skew, and
    # grad c . dp = u1^2 >= 0, the descent certificate dV_c/dt = -u1^2
    # that lyapunov_value_and_rate reports.  Both hold to rounding,
    # measured at 0.92 eps |grad c| (symmetric part) and 1.71 eps |u1|
    # |grad c| (certificate) over these examples; the floor of a few
    # subnormals covers gradients small enough to round there.
    eps, floor = np.finfo(float).eps, 16 * np.finfo(float).smallest_subnormal
    for fld in builtin_fields().values():
        avg = averaged_seeker_field(fld)
        for s in block:
            ds = np.array(avg(0.0, s.tolist()))
            g = fld.grad(s[0:3])
            g_norm = math.hypot(*g)  # np.linalg.norm underflows below 1e-154
            Q, dQ = s[3:12].reshape(3, 3).T, ds[3:12].reshape(3, 3).T
            sym = Q.T @ dQ + dQ.T @ Q
            assert np.max(np.abs(sym)) <= 2.0 * eps * g_norm + floor
            _, rate = lyapunov_value_and_rate(fld, s[0:3], s[3:12])
            assert rate <= 0.0
            assert abs(float(g @ ds[0:3]) + rate) <= 4.0 * eps * math.sqrt(-rate) * g_norm + floor


def test_averaged_flow_preserves_rotation_and_descends():
    # long unprojected integration: the average must stay on the frame
    # manifold to integrator accuracy and never climb the field
    fld = builtin_fields()["quadratic"]
    avg = averaged_seeker_field(fld)
    p0 = np.array([3.0, -1.0, 2.0])
    Q0 = exp_so3(np.array([0.2, -0.5, 0.8]))
    s0 = np.concatenate([p0, embed(Q0)])
    grid = TimeGrid(t0=0.0, dt=1e-3, n_steps=50000)
    _, states = integrate_rk4(avg, s0, grid)
    worst = max(manifold_residual(s[3:12]) for s in states[::500])
    assert worst < 1e-7
    vc = np.array([-fld.c(s[0:3]) for s in states[::100]])
    assert np.max(np.diff(vc)) <= 1e-12


def test_lyapunov_value_and_rate_examples():
    fld = builtin_fields()["quadratic"]
    q_id = embed(np.eye(3))
    value, rate = lyapunov_value_and_rate(fld, np.array([1.0, 0.0, 0.0]), q_id)
    assert value == 0.5
    assert rate == -1.0
    value, rate = lyapunov_value_and_rate(fld, fld.p_star, q_id)
    assert value == 0.0
    assert rate == 0.0
    # gradient orthogonal to the surge axis: height holds momentarily
    value, rate = lyapunov_value_and_rate(fld, -E2, q_id)
    assert value == 0.5
    assert rate == 0.0
    with pytest.raises(DimensionError):
        lyapunov_value_and_rate(fld, fld.p_star, np.zeros(3))


# ------------------------------------------------- two-time-scale decomposition


def test_seeker_spec_satisfies_standing_assumptions():
    for fld in builtin_fields().values():
        spec = as_system_spec(fld)
        report = check_assumption_A(spec)
        assert report.ok, (fld.name, report)


def test_seeker_spec_quasi_steady_map():
    fld = builtin_fields()["log"]
    spec = as_system_spec(fld)
    x = np.concatenate([P_REF, embed(np.eye(3))])
    c0 = fld.c(P_REF)
    assert np.array_equal(spec.phi0(x), np.array([c0, c0]))
    assert spec.n == 12 and spec.m == 2
    assert np.array_equal(spec.A, FILTER_A)


def test_seeker_spec_truncation_shrinks_like_inverse_sqrt():
    # the decomposition Taylor-truncates the sensor reading; against the
    # exact loop the defect should fall by ~sqrt(2) per frequency doubling
    for name in ("log", "quadratic"):
        fld = builtin_fields()[name]
        spec = as_system_spec(fld)
        p = np.array([2.0, -1.0, 1.5])
        Q = exp_so3(np.array([0.3, 0.7, -0.2]))
        y = np.array([0.12, -0.05]) + fld.c(p)
        s = np.concatenate([p, embed(Q), y])
        errs = []
        for w in (16.0 * np.pi, 32.0 * np.pi, 64.0 * np.pi):
            full = np.array(assemble_full_field(spec, w)(0.0, s.tolist()))
            exact = np.array(seeker_field(SeekerConfig(omega=w), fld)(0.0, s.tolist()))
            errs.append(float(np.max(np.abs(full - exact))))
        for k in range(len(errs) - 1):
            ratio = errs[k] / errs[k + 1]
            assert 1.2 < ratio < 1.7, (name, errs)


def test_seeker_spec_analytic_jacobians_match_differences():
    fld = builtin_fields()["log"]
    spec = as_system_spec(fld)
    rng = np.random.default_rng(9)
    p = rng.uniform(-3.0, 3.0, 3)
    Q = exp_so3(rng.uniform(-1.0, 1.0, 3))
    x = np.concatenate([p, embed(Q)])
    y = np.array([0.2, -0.4])
    tau = np.array([1.3])
    dphi0_fd = jacobian_fd(spec.phi0, x)
    assert np.max(np.abs(spec.dphi0(x) - dphi0_fd)) < 1e-6
    # the perturbed fast states come as one block, x repeated on its rows
    df1_fd = jacobian_fd(lambda w: spec.f1(np.tile(x, (len(w), 1)), w, tau), y)
    assert np.max(np.abs(spec.df1_dy(x, y, tau) - df1_fd)) < 1e-8
    dg1_fd = jacobian_fd(lambda w: spec.g1(np.tile(x, (len(w), 1)), w, tau), y)
    assert np.max(np.abs(spec.dg1_dy(x, y, tau) - dg1_fd)) < 1e-12


# ------------------------------------------------ fused phase terms vs fields


def _ref_dither_axis(q, ct, st):
    return [ct * q[3] + st * q[6], ct * q[4] + st * q[7], ct * q[5] + st * q[8]]


def _ref_frame_turn(q, ct, st):
    w0 = ct * q[6] - st * q[3]
    w1 = ct * q[7] - st * q[4]
    w2 = ct * q[8] - st * q[5]
    out = []
    for a0, a1, a2 in (q[0:3], q[3:6], q[6:9]):
        out += [w1 * a2 - w2 * a1, w2 * a0 - w0 * a2, w0 * a1 - w1 * a0]
    return out


def _ref_filter_drive(u):
    return np.array([FILTER_B[0] * u, FILTER_B[1] * u]).T


def reference_phase_fields(fld):
    """The seeker decomposition as four separate phase fields, each one
    recomputing the center value, gradient and Hessian (read on the center
    as a list of 3 floats) and the trig values with numpy (np.cos/np.sin
    also at a scalar phase): the oracle for terms."""
    c, grad = fld.c, fld.grad

    def f1(x, y, tau):
        q = x[3:12].tolist()
        ya, yb = y.tolist()
        gain = yb - ya
        s = 2.0 * np.cos(2.0 * tau - float(c(x[0:3].tolist())))
        turn = _ref_frame_turn(q, np.cos(tau), np.sin(tau))
        return np.array([s * q[0], s * q[1], s * q[2]] + [gain * r for r in turn]).T

    def f2(x, y, tau):
        p = x[0:3].tolist()
        q = x[3:12].tolist()
        g = np.asarray(grad(p), dtype=float).tolist()
        d = _ref_dither_axis(q, np.cos(tau), np.sin(tau))
        s = 2.0 * (g[0] * d[0] + g[1] * d[1] + g[2] * d[2]) * np.sin(2.0 * tau - float(c(p)))
        zero = np.zeros_like(s)
        return np.array([s * q[0], s * q[1], s * q[2]] + [zero] * 9).T

    def g1(x, y, tau):
        g = np.asarray(grad(x[0:3].tolist()), dtype=float).tolist()
        d = _ref_dither_axis(x[3:12].tolist(), np.cos(tau), np.sin(tau))
        return _ref_filter_drive(g[0] * d[0] + g[1] * d[1] + g[2] * d[2])

    def g2(x, y, tau):
        H = fld.hess(x[0:3].tolist())
        d = _ref_dither_axis(x[3:12].tolist(), np.cos(tau), np.sin(tau))
        Hd = [row[0] * d[0] + row[1] * d[1] + row[2] * d[2] for row in H]
        return _ref_filter_drive(0.5 * (d[0] * Hd[0] + d[1] * Hd[1] + d[2] * Hd[2]))

    return f1, f2, g1, g2


def reference_full_field(spec, fields, omega):
    """The full right-hand side assembled from four separate field calls:
    sqrt(w) f1 + f2 and w A (y - phi0(x)) + sqrt(w) g1 + g2, joined."""
    n = spec.n
    sqrt_w = float(np.sqrt(omega))
    f1, f2, g1, g2 = fields

    def field(t, v):
        x = v[:n]
        y = v[n:]
        tau = omega * t
        dx = sqrt_w * f1(x, y, tau) + f2(x, y, tau)
        dy = omega * (spec.A @ (y - spec.phi0(x))) + sqrt_w * g1(x, y, tau) + g2(x, y, tau)
        return np.concatenate([dx, dy])

    return field


def anisotropic_field():
    """c = -1/2 p^T K p with K = diag(1, 2, 4): its Hessian is not -I, so
    the d.H.d term of g2 depends on the dither direction.  c and grad take
    a point's three coordinates, as the built-in fields do."""
    def c(p):
        p0, p1, p2 = p
        return -0.5 * (p0 * p0 + p1 * (2.0 * p1) + p2 * (4.0 * p2))

    def grad(p):
        p0, p1, p2 = p
        return [-p0, -2.0 * p1, -4.0 * p2]

    def hess(p):
        return [[-1.0, -0.0, -0.0], [-0.0, -2.0, -0.0], [-0.0, -0.0, -4.0]]

    return ScalarField(name="anisotropic", c=c, grad=grad, hess=hess, p_star=np.zeros(3))


TERM_FIELDS = ["log", "quadratic", "anisotropic"]


def term_field(name):
    return anisotropic_field() if name == "anisotropic" else builtin_fields()[name]


def random_spec_state(rng):
    """A slow state (p, perturbed frame) and a fast filter state."""
    q = embed(exp_so3(rng.uniform(-np.pi, np.pi, size=3))) + 1e-3 * rng.standard_normal(9)
    x = np.concatenate([rng.uniform(-6.0, 6.0, size=3), q])
    return x, rng.standard_normal(2)


def same_bits(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


@pytest.mark.parametrize("name", TERM_FIELDS)
def test_three_state_blocks_read_the_field_at_each_center(name):
    # phi0, dphi0 and terms pass the field a (3, B) coordinate view; at
    # B = 3 a (B, 3) block would unpack too, reading rows as coordinates.
    # Each state's values must be those of per-point list calls
    fld = term_field(name)
    spec = as_system_spec(fld)
    f1, _, g1, _ = reference_phase_fields(fld)
    rng = np.random.default_rng(59)
    xs, ys = (np.array(v) for v in zip(*(random_spec_state(rng) for _ in range(3))))
    taus = (2.0 * np.pi / 16) * np.arange(16) + 0.3
    phi0, dphi0 = spec.phi0(xs), spec.dphi0(xs)
    F1 = spec.terms(xs, ys, taus, False)[0]
    for b, (x, y) in enumerate(zip(xs, ys)):
        center = x[0:3].tolist()
        val, grad = fld.c(center), fld.grad(center)
        assert same_bits(phi0[b], [val, val])
        assert same_bits(dphi0[b], [grad + [0.0] * 9] * 2)
        assert same_bits(F1[b], np.concatenate([f1(x, y, taus), g1(x, y, taus)], axis=-1))


@pytest.mark.parametrize("name", TERM_FIELDS)
def test_terms_match_reference_fields_bit_for_bit(name):
    # a one-phase and a 257-phase grid both give the separate fields' bits;
    # so do the spec's own f1..g2 views
    fld = term_field(name)
    spec = as_system_spec(fld)
    ref = reference_phase_fields(fld)
    rng = np.random.default_rng(57)
    for _ in range(20):
        x, y = random_spec_state(rng)
        tau = float(rng.uniform(-1e3, 1e3))
        taus = tau + (2.0 * np.pi / 256) * np.arange(257)
        for phase in (np.array([tau]), taus):
            f1, f2, g1, g2 = (r(x, y, phase) for r in ref)
            F1, F2 = spec.terms(x, y, phase)
            assert same_bits(F1, np.concatenate([f1, g1], axis=-1))
            assert same_bits(F2, np.concatenate([f2, g2], axis=-1))
            for view, want in zip((spec.f1, spec.f2, spec.g1, spec.g2), (f1, f2, g1, g2)):
                assert same_bits(view(x, y, phase), want)
        assert F1.shape == (257, 14)


def linear_full_matches_the_assembly():
    """The linear benchmark's full against its fields' generic assembly
    (oracles.assembled_field), bit for bit: random states over twelve
    decades, the same x on y = phi0(x), where the layer term is +0.0, and
    every state of signed zeros, ones, extremes and subnormals, each at
    one of three frequencies.  A subnormal x0 is left out: there -0.5 x0 rounds, and a
    BLAS product may fuse it into its sum."""
    spec = linear_benchmark().spec
    rng = np.random.default_rng(67)
    omegas = [8.0 * np.pi, 64.0 * np.pi, float(rng.uniform(1.0, 300.0))]
    fields = [(assemble_full_field(spec, w), assembled_field(spec, w)) for w in omegas]
    for k in range(2000):
        got, want = fields[k % len(fields)]
        x = rng.standard_normal(2) * 10.0 ** rng.integers(-6, 6, 2)
        t = float(rng.uniform(0.0, 5.0))
        for y in (rng.standard_normal(2), spec.phi0(x)):
            v = np.concatenate([x, y]).tolist()
            assert same_bits(got(t, v), want(t, v))
    edges = [0.0, 1.0, 1e308, 0.7]
    edges = [e * sign for e in edges for sign in (1.0, -1.0)]
    tiny = [5e-324, -5e-324, 1e-310, -1e-310]
    states = itertools.product(edges, edges + tiny, edges + tiny, edges + tiny)
    for k, v in enumerate(states):
        (got, want), t = fields[k % len(fields)], 0.5 / omegas[k % len(fields)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(got(t, list(v)), want(t, list(v)))


@pytest.mark.parametrize("name", TERM_FIELDS + ["linear"])
def test_full_field_matches_reference_assembly(name):
    # 2000 random states, frequencies and times: the one-call right-hand
    # side equals the four-call assembly of the reference fields bit for bit.
    # Every other draw adds states where the layer term y - phi0(x) has zero
    # entries, whose signs must survive too: y = phi0(x) exactly, yb = c(p)
    # with ya < c(p), and p = 0 (where the quadratic gradient is -0.0, and
    # y pairs of signed zeros and subnormals); each also with a zero frame,
    # where the dither axis vanishes and the sign of a zero layer entry
    # reaches the output.  The linear benchmark is pinned likewise against
    # its fields' assembly.
    if name == "linear":
        linear_full_matches_the_assembly()
        return
    fld = term_field(name)
    spec = as_system_spec(fld)
    ref = reference_phase_fields(fld)
    rng = np.random.default_rng(61)
    omegas = [8.0 * np.pi, 64.0 * np.pi, float(rng.uniform(1.0, 300.0))]
    fields = [(assemble_full_field(spec, w), reference_full_field(spec, ref, w)) for w in omegas]
    for k in range(2000):
        got, want = fields[k % len(fields)]
        x, y = random_spec_state(rng)
        states = [np.concatenate([x, y])]
        t = float(rng.uniform(0.0, 5.0))
        if k % 2 == 0:
            p = np.zeros(3) if k % 6 == 0 else x[0:3]
            c = float(fld.c(p))
            fasts = [[c, c], [c - 0.1 - abs(y[0]), c], y]
            if k % 6 == 0:
                fasts += [[5e-324, -0.0], [-5e-324, 0.0], [0.0, -0.0], [-0.0, 0.0]]
            for frame in (x[3:12], np.zeros(9)):
                for fast in fasts:
                    states.append(np.concatenate([p, frame, fast]))
        for v in states:
            assert same_bits(got(t, v.tolist()), want(t, v))
    # The built-in fields never read +0.0, so no layer entry above is -0.0.
    # A field that reads +0.0, with gradient -0.0 and Hessian -I, at the
    # origin with a zero frame and a phase whose cos and sin are positive,
    # makes F1 and F2 add only -0.0 to the filter rows: those rows then are
    # the layer term w A y itself, checked here over pairs of signed zeros,
    # subnormals, extremes and random values.
    zero = ScalarField(name="zero", c=lambda p: 0.0, grad=lambda p: [-0.0, -0.0, -0.0],
                       hess=lambda p: (-np.eye(3)).tolist(), p_star=np.zeros(3))
    zero_spec = as_system_spec(zero)
    zero_ref = reference_phase_fields(zero)
    edges = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.5, 1.0, 1e308]
    edges = [e * sign for e in edges for sign in (1.0, -1.0)]
    edges += rng.standard_normal(8).tolist()
    for w in omegas:
        got = assemble_full_field(zero_spec, w)
        want = reference_full_field(zero_spec, zero_ref, w)
        t = 0.5 / w
        for fast in itertools.product(edges, edges):
            v = np.concatenate([np.zeros(12), fast])
            with np.errstate(over="ignore", invalid="ignore"):
                expected, layer = want(t, v), w * (zero_spec.A @ v[12:14])
            assert same_bits(expected[12:14], layer)
            assert same_bits(got(t, v.tolist()), expected)


def test_full_field_reads_the_field_value_once_per_call():
    calls = []
    fld = builtin_fields()["quadratic"]

    def counted_c(p):
        calls.append(1)
        return fld.c(p)

    spec = as_system_spec(ScalarField(name="counted", c=counted_c, grad=fld.grad,
                                      hess=fld.hess, p_star=fld.p_star))
    rhs = assemble_full_field(spec, 16.0 * np.pi)
    rhs(0.3, np.concatenate([P_REF, embed(np.eye(3)), [0.2, -0.1]]).tolist())
    assert len(calls) == 1


def list_only_field(fld, calls):
    """fld with c, grad and hess counted in calls on a list of 3 floats;
    on a (3,) point array they raise, so a loop that builds one per
    right-hand side fails.  Blocks pass through: a sweep reads one per
    rung for its report."""
    def guarded(key, read):
        def call(p):
            if isinstance(p, list):
                calls[key] += 1
            elif np.shape(p) == (3,):
                raise AssertionError(f"{key} read a (3,) array")
            return read(p)
        return call

    return ScalarField(name=fld.name, c=guarded("c", fld.c), grad=guarded("grad", fld.grad),
                       hess=guarded("hess", fld.hess), p_star=fld.p_star)


@pytest.mark.parametrize("name", ["log", "quadratic"])
def test_flight_and_sweep_read_the_field_as_lists(name):
    # simulate reads c once per right-hand side and once at the start, a
    # sweep's full runs read c, grad and hess once per right-hand side, all
    # on lists, with the bits of the same runs on the built-in field
    fld = builtin_fields()[name]
    calls = collections.Counter()
    guarded = list_only_field(fld, calls)
    cfg = SeekerConfig(omega=4.0 * np.pi, steps_per_fast_period=20)
    R0 = exp_so3(np.array([0.4, -1.2, 0.7]))
    traj = simulate_seeker(cfg, guarded, P_REF, R0, t_f=0.5)
    assert calls == {"c": 4 * (len(traj.times) - 1) + 1}
    assert traj.states.tobytes() == simulate_seeker(cfg, fld, P_REF, R0, t_f=0.5).states.tobytes()

    calls.clear()
    spec = as_system_spec(fld)
    x0 = np.concatenate([P_REF, embed(R0)])
    omegas = [8.0 * np.pi * 2.0**k for k in range(4)]
    args = (averaged_seeker_field(fld), x0, spec.phi0(x0), omegas, 0.5)
    report = sweep_convergence(as_system_spec(guarded), *args, steps_per_period=16, avg_steps=20)
    rhs_calls = sum(4 * TimeGrid.spanning(0.0, 0.5, (spec.T / w) / 16).n_steps for w in omegas)
    assert calls == {"c": rhs_calls, "grad": rhs_calls, "hess": rhs_calls}
    assert report == sweep_convergence(spec, *args, steps_per_period=16, avg_steps=20)


def array_full_field(spec, fld, omega):
    """The seeker spec's full(omega) as it was on arrays: F1 and F2 from one
    terms call, the layer term one numpy product, one np.array returned."""
    sqrt_w = float(np.sqrt(omega))

    def rhs(t, v):
        F1, F2 = (F.tolist() for F in spec.terms(v[0:12], v[12:14], omega * t))
        la, lb = (omega * (spec.A @ (v[12:14] - float(fld.c(v[0:3]))))).tolist()
        return np.array(
            [sqrt_w * a + b for a, b in zip(F1[:12], F2[:12])]
            + [(sqrt_w * F1[12] + la) + F2[12], (sqrt_w * F1[13] + lb) + F2[13]]
        )

    return rhs


@pytest.mark.parametrize("name", TERM_FIELDS + ["linear"])
def test_sweep_matches_the_array_reference_bit_for_bit(name, monkeypatch):
    # a sweep steps its averaged reference and every rung's full run as
    # lists.  The reference must equal the same averaged field stepped by
    # the numpy RK4 on arrays; each rung, run through assemble_full_field,
    # must equal the array right-hand side the sweep used before, stepped
    # by the numpy RK4 too; and
    # the report's deviations follow.  Quasi-steady and zero filter starts,
    # the seeker also from a turned frame; the linear benchmark's rungs
    # equal its fields' generic assembly, as arrays.
    if name == "linear":
        bench = linear_benchmark()
        spec, averaged, starts = bench.spec, bench.averaged_field, [bench.x0]

        def oracle(w):
            field = assembled_field(spec, w)
            return lambda t, v: np.array(field(t, v))
    else:
        fld = term_field(name)
        spec, averaged = as_system_spec(fld), averaged_seeker_field(fld)
        frames = (np.eye(3), exp_so3(np.array([0.4, -1.2, 0.7])))
        starts = [np.concatenate([P_REF, embed(R)]) for R in frames]
        oracle = functools.partial(array_full_field, spec, fld)
    runs = []

    def recording(field, x0, grid, post_step=None):
        times, states = integrate_rk4(field, x0, grid, post_step)
        if isinstance(x0, list):
            runs.append((x0, grid, times, states))
        return times, states

    monkeypatch.setattr(harness, "integrate_rk4", recording)
    omegas = [8.0 * np.pi * 2.0**k for k in range(4)]
    t_f, avg_steps = 1.0, 80
    avg_grid = TimeGrid(t0=0.0, dt=t_f / avg_steps, n_steps=avg_steps)
    for x0 in starts:
        avg_times, avg_states = array_integrate_rk4(
            lambda t, x: np.array(averaged(t, x)), x0, avg_grid)
        for y0 in (spec.phi0(x0), np.zeros(spec.m)):
            runs.clear()
            report = sweep_convergence(spec, averaged, x0, y0, omegas, t_f,
                                       steps_per_period=16, avg_steps=avg_steps)
            (a0, grid, times, states), *full_runs = runs
            assert a0 == x0.tolist() and grid == avg_grid
            assert times.tobytes() == avg_times.tobytes()
            assert states.tobytes() == avg_states.tobytes()
            assert len(full_runs) == len(omegas)
            devs = []
            for w, (v0, grid, times, states) in zip(omegas, full_runs):
                assert v0 == np.concatenate([x0, y0]).tolist()
                ref_times, ref_states = array_integrate_rk4(oracle(w), np.array(v0), grid)
                assert times.tobytes() == ref_times.tobytes()
                assert states.tobytes() == ref_states.tobytes()
                x_avg = np.column_stack([np.interp(times, avg_times, avg_states[:, j])
                                         for j in range(spec.n)])
                devs.append(float(np.max(np.abs(ref_states[:, : spec.n] - x_avg))))
            assert report.max_devs == devs


def test_anisotropic_g2_follows_the_dither_direction():
    # d.H.d/2 with H = -diag(1, 2, 4) and the dither axis d = cos q2 + sin q3
    spec = as_system_spec(anisotropic_field())
    x = np.concatenate([P_REF, embed(np.eye(3))])
    for tau, dHd in ((0.0, -2.0), (0.5 * np.pi, -4.0)):
        _, F2 = spec.terms(x, np.zeros(2), np.array([tau]))
        assert abs(F2[0, 13] - 0.5 * dHd) < 1e-15


def test_array_phase_trig_cache_keeps_fresh_spec_bits():
    # each spec keeps the trig values of its last (phase grid, center
    # value); grids of 256 and 512 phases and a shifted one, interleaved
    # with a one-phase grid, two fields, and states that share the grid and
    # center value but not the frame, must each give the bits of the same
    # call on a freshly built spec
    rng = np.random.default_rng(71)
    two_pi = 2.0 * np.pi
    phases = [
        (two_pi / 256) * np.arange(256),
        (two_pi / 512) * np.arange(512),
        0.37 + (two_pi / 256) * np.arange(256),
        np.array([rng.uniform(0.0, two_pi)]),
    ]
    x, y = random_spec_state(rng)
    frame_moved = x.copy()
    frame_moved[3:12] += 1e-3 * rng.standard_normal(9)
    center_moved = x.copy()
    center_moved[0:3] += 0.1
    states = [(x, y), (frame_moved, y), (center_moved, rng.standard_normal(2))]
    kept = {name: as_system_spec(term_field(name)) for name in ("log", "anisotropic")}
    calls = [
        lambda s, x, y, tau: s.terms(x, y, tau, True),
        lambda s, x, y, tau: s.terms(x, y, tau, False)[:1],
        lambda s, x, y, tau: (s.f1(x, y, tau),),
        lambda s, x, y, tau: (s.full(16.0 * np.pi)(0.3, np.concatenate([x, y]).tolist()),),
    ]
    cases = [
        (name, state, tau, call)
        for name in kept for state in states for tau in phases for call in calls
    ]
    for i in rng.permutation(len(cases)):
        name, (x, y), tau, call = cases[i]
        got = call(kept[name], x, y, tau)
        want = call(as_system_spec(term_field(name)), x, y, tau)
        assert all(same_bits(a, b) for a, b in zip(got, want))


def test_fbar_matches_the_averaged_loop_on_an_anisotropic_field():
    # K = diag(1, 2, 4): the average turns the frame differently along each
    # dither direction, which the radial built-in fields cannot show
    fld = anisotropic_field()
    bundle = build_bundle(as_system_spec(fld), n_panels=256)
    closed = averaged_seeker_field(fld)
    rng = np.random.default_rng(73)
    for _ in range(5):
        direction = rng.normal(size=3)
        p = float(rng.uniform(1.5, 5.0)) * direction / np.linalg.norm(direction)
        x = np.concatenate([p, embed(exp_so3(rng.uniform(-np.pi, np.pi, size=3)))])
        numeric = bundle.averaged.fbar(x)
        reference = closed(0.0, x)
        assert np.linalg.norm(numeric - reference) < 1e-6 * np.linalg.norm(reference)


def per_row(field):
    """A one-state phase field on a block of states, row by row: the block
    contract's definition."""
    def block(x, y, tau):
        if np.ndim(x) == 1:
            return field(x, y, tau)
        return np.stack([field(a, b, tau) for a, b in zip(x, y)])

    return block


def frame_product_spec(fld):
    """The seeker spec, and a copy whose f1 frame rows are formed as
    gain * (w x q_j) at every state, +0.0 gain included, in the spec's own
    memory layout (the component axis slowest): the oracle for the rows
    the spec skips on y = phi0(x)."""
    spec = as_system_spec(fld)
    f1 = per_row(reference_phase_fields(fld)[0])

    def terms(x, y, tau, order_one=True):
        F1, F2 = spec.terms(x, y, tau, order_one)
        F1 = np.concatenate([f1(x, y, tau), F1[..., 12:]], axis=-1)
        return np.moveaxis(np.moveaxis(F1, -1, 0).copy(), 0, -1), F2

    return spec, dataclasses.replace(spec, f1=f1, terms=terms)


def manifold_oracle_states(fld, rng):
    """Random states, p = p_star = 0 (where the gradient is -0.0) and frames
    whose surge axis is the gradient (where the averaged turn is zero)."""
    states = [random_spec_state(rng)[0] for _ in range(3)]
    states += [np.concatenate([np.zeros(3), q]) for q in (embed(np.eye(3)), states[0][3:12])]
    states.append(np.concatenate([[-3.0, 0.0, 0.0], embed(np.eye(3))]))
    p = rng.uniform(-4.0, 4.0, size=3)
    q1 = fld.grad(p) / np.linalg.norm(fld.grad(p))
    q2 = np.cross(q1, [0.3, -0.5, 0.8])
    q2 /= np.linalg.norm(q2)
    states.append(np.concatenate([p, q1, q2, np.cross(q1, q2)]))
    return states


@pytest.mark.parametrize("n_panels", [16, 256])
@pytest.mark.parametrize("name", TERM_FIELDS)
def test_skipped_frame_turn_rows_keep_every_averaging_bit(name, n_panels):
    # On y = phi0(x) the filter gain is +0.0, and f1's nine frame rows are
    # +0.0 without the turn being formed, where +0.0 * (w x q_j) is a zero
    # with the sign of w x q_j.  fbar, the b2 source, both correctors on
    # their grid and both residuals must keep the oracle's bits, also where
    # every sum those zeros enter is zero (p = 0, frames along the gradient)
    fld = term_field(name)
    spec, ref = frame_product_spec(fld)
    bundles = [build_bundle(s, n_panels=n_panels) for s in (spec, ref)]
    grid = (spec.T / n_panels) * np.arange(n_panels)
    rng = np.random.default_rng(79)
    for x in manifold_oracle_states(fld, rng):
        y = spec.phi0(x)
        F1 = spec.terms(x, y, grid, False)[0]
        assert same_bits(F1[:, 3:12], np.zeros((n_panels, 9)))
        assert np.array_equal(F1[:, 3:12], ref.terms(x, y, grid, False)[0][:, 3:12])
        # off the manifold the turn is formed as before
        y_off = y + np.array([0.0, 0.25])
        assert same_bits(spec.f1(x, y_off, grid), ref.f1(x, y_off, grid))
        got, want = (
            [b.averaged.fbar(x), b.phi2.b.values_at(x, grid), b.phi1.values_on_grid(x),
             b.phi2.values_on_grid(x),
             np.array([residual_bvp(phi, spec.A, phi.b, spec.T, x=x) for phi in (b.phi1, b.phi2)])]
            for b in bundles
        )
        for a, b in zip(got, want):
            assert same_bits(a, b)


@pytest.mark.parametrize("name", TERM_FIELDS)
def test_a_spec_with_terms_never_calls_its_fields(name):
    # grid_terms is the one reader of the phase fields: with f1, f2, g1 and
    # g2 replaced by callables that raise, the bundle, fbar, both residuals
    # and the assumption check read terms alone and keep every bit
    def unused(x, y, tau):
        raise AssertionError("a phase field was called beside terms")

    spec = as_system_spec(term_field(name))
    bare = dataclasses.replace(spec, f1=unused, f2=unused, g1=unused, g2=unused)
    rng = np.random.default_rng(89)
    states = [random_spec_state(rng)[0] for _ in range(3)]

    def readings(s):
        b = build_bundle(s, n_panels=64)
        out = [check_assumption_A(s)]
        for x in states:
            out += [b.averaged.fbar(x).tobytes(), b.phi1.values_on_grid(x).tobytes(),
                    b.phi2.values_on_grid(x).tobytes()]
            out += [residual_bvp(phi, s.A, phi.b, s.T, x=x) for phi in (b.phi1, b.phi2)]
        return out

    assert readings(bare) == readings(spec)


@pytest.mark.parametrize("n_panels", [16, 512])
@pytest.mark.parametrize("name", TERM_FIELDS)
def test_seeker_correctors_satisfy_their_bvps_to_rounding(name, n_panels):
    # the residual differentiates each corrector by the solver's own
    # spectral rule, so only b2's central differences stay above rounding,
    # whatever the corrector's amplitude (a stencil's error grows with it)
    spec = as_system_spec(term_field(name))
    bundle = build_bundle(spec, n_panels=n_panels)
    rng = np.random.default_rng(97)
    for _ in range(3):
        x = random_spec_state(rng)[0]
        for phi in (bundle.phi1, bundle.phi2):
            assert residual_bvp(phi, spec.A, phi.b, spec.T, x=x) < 1e-9


@pytest.mark.parametrize("name", TERM_FIELDS)
def test_seeker_second_corrector_fails_its_bvp_at_8_panels(name):
    # b2 holds phase modes the 8-phase grid cannot resolve: they fold onto
    # its Nyquist mode, where the spectral derivative is zero, and the
    # residual reads the wrong corrector (from 10 panels on it is right)
    spec = as_system_spec(term_field(name))
    bundle = build_bundle(spec, n_panels=8)
    rng = np.random.default_rng(97)
    for _ in range(3):
        x = random_spec_state(rng)[0]
        assert residual_bvp(bundle.phi2, spec.A, bundle.phi2.b, spec.T, x=x) > 1e-3


@pytest.mark.parametrize("entry", [1, 7])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_frame_entries_give_non_finite_averages(bad, entry):
    # on y = phi0(x) f1's frame-turn rows are +0.0 even here, where
    # +0.0 * (w x q_j) is NaN; the entry still reaches fbar and phi2, q1's
    # through the surge rows s1 q1 and q3's through the dither axis (g1 and
    # F2's surge rows) and df1_dy's turn
    bundle = build_bundle(as_system_spec(builtin_fields()["log"]), n_panels=64)
    x = np.concatenate([P_REF, embed(np.eye(3))])
    x[3 + entry] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        assert not np.all(np.isfinite(bundle.averaged.fbar(x)))
        assert not np.all(np.isfinite(bundle.phi2.values_on_grid(x)))
