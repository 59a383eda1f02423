"""Tests for the fixed-step numerical kernel.

Expected values are either closed-form (matrix exponentials of
diagonal/Jordan blocks, integrals of trig polynomials, linear ODE
solutions) or cross-checked against scipy, which is a test-only
dependency.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from twoscale.errors import ConfigurationError, DimensionError, DivergenceError, ManifoldError
from twoscale.numkit import (
    TimeGrid,
    cumulative_simpson,
    integrate_rk4,
    jacobian_fd,
    mat_exp,
    quad_periodic,
    rk4_step,
    simpson_rule,
)


# ---------------------------------------------------------------- mat_exp


def test_mat_exp_zero_time_is_identity():
    A = np.array([[3.0, -2.0], [7.0, 0.5]])
    assert np.array_equal(mat_exp(A, 0.0), np.eye(2))


def test_mat_exp_zero_matrix_is_identity():
    assert np.array_equal(mat_exp(np.zeros((3, 3)), 2.5), np.eye(3))


def test_mat_exp_jordan_block_closed_form():
    # exp(t*J) for J = [[-1,1],[0,-1]] is e^{-t} [[1,t],[0,1]]
    J = np.array([[-1.0, 1.0], [0.0, -1.0]])
    expected = np.exp(-1.0) * np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.max(np.abs(mat_exp(J, 1.0) - expected)) < 1e-14


def test_mat_exp_diagonal_closed_form():
    A = np.diag([-1.0, -2.0])
    t = np.log(2.0)
    expected = np.diag([0.5, 0.25])
    assert np.max(np.abs(mat_exp(A, t) - expected)) < 1e-14


def test_mat_exp_semigroup_property():
    rng = np.random.default_rng(42)
    for _ in range(10):
        A = rng.standard_normal((4, 4))
        A = A / max(1.0, np.linalg.norm(A, 2) / 5.0)  # keep ||A|| <= 5
        s, t = 0.7, 1.3
        lhs = mat_exp(A, s + t)
        rhs = mat_exp(A, s) @ mat_exp(A, t)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_mat_exp_matches_scipy():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(1, 6)
        A = rng.standard_normal((n, n))
        t = float(rng.uniform(-2.0, 2.0))
        ours = mat_exp(A, t)
        ref = scipy.linalg.expm(t * A)
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(ours - ref)) / scale < 1e-12


def test_mat_exp_rejects_non_square():
    with pytest.raises(DimensionError):
        mat_exp(np.ones((2, 3)))


def test_mat_exp_rejects_non_finite():
    A = np.array([[0.0, np.inf], [0.0, 0.0]])
    with pytest.raises(ConfigurationError):
        mat_exp(A)


# ---------------------------------------------------------- quad_periodic


def test_simpson_rule_weights_sum_to_period():
    nodes, weights = simpson_rule(2.0 * np.pi, 64)
    assert nodes.shape == (65,)
    assert weights.shape == (65,)
    assert abs(float(np.sum(weights)) - 2.0 * np.pi) < 1e-12
    assert nodes[0] == 0.0
    assert abs(nodes[-1] - 2.0 * np.pi) < 1e-12


def test_simpson_rule_rejects_odd_panels():
    with pytest.raises(ConfigurationError):
        simpson_rule(1.0, 5)
    with pytest.raises(ConfigurationError):
        simpson_rule(1.0, 0)
    with pytest.raises(ConfigurationError):
        simpson_rule(-1.0, 4)


def test_quad_periodic_sine_vanishes():
    val = quad_periodic(lambda s: np.array([np.sin(s)]), 2.0 * np.pi, 64)
    assert abs(val[0]) < 1e-12


def test_quad_periodic_sin_squared():
    val = quad_periodic(lambda s: np.array([np.sin(s) ** 2]), 2.0 * np.pi, 256)
    assert abs(val[0] - np.pi) < 1e-10


def test_quad_periodic_constant():
    val = quad_periodic(lambda s: np.array([3.0, -1.0]), 2.0 * np.pi, 16)
    assert np.max(np.abs(val - np.array([6.0 * np.pi, -2.0 * np.pi]))) < 1e-12


def test_quad_periodic_trig_polynomial_exactness():
    # The rule is a Richardson pair of trapezoid rules, so full-period
    # integrals of trig polynomials up to degree n_panels/2 - 1 are exact.
    n_panels = 32
    for k in range(1, n_panels // 2):
        val = quad_periodic(
            lambda s, k=k: np.array([np.cos(k * s), np.sin(k * s)]),
            2.0 * np.pi,
            n_panels,
        )
        assert np.max(np.abs(val)) < 1e-12, f"degree {k}"


def test_quad_periodic_scalar_function_promoted():
    val = quad_periodic(lambda s: 1.0, 2.0, 8)
    assert val.shape == (1,)
    assert abs(val[0] - 2.0) < 1e-14


# ------------------------------------------------------ cumulative_simpson


def test_cumulative_simpson_exact_on_quadratics():
    dt = 0.1
    t = dt * np.arange(11)
    samples = 3.0 * t**2 - 2.0 * t + 1.0
    exact = t**3 - t**2 + t
    out = cumulative_simpson(samples, dt)
    assert np.max(np.abs(out - exact)) < 1e-12


def test_cumulative_simpson_sine_vs_antiderivative():
    dt = np.pi / 200.0
    t = dt * np.arange(201)
    out = cumulative_simpson(np.sin(t), dt)
    exact = 1.0 - np.cos(t)
    assert np.max(np.abs(out - exact)) < 1e-8


def test_cumulative_simpson_matches_scipy_loosely():
    dt = 0.01
    t = dt * np.arange(301)
    samples = np.exp(-t) * np.cos(3.0 * t)
    ours = cumulative_simpson(samples, dt)
    ref = scipy.integrate.cumulative_simpson(samples, dx=dt, initial=0.0)
    assert np.max(np.abs(ours - ref)) < 1e-6


def test_cumulative_simpson_vector_samples():
    dt = 0.05
    t = dt * np.arange(21)
    samples = np.stack([t, t**2], axis=1)
    out = cumulative_simpson(samples, dt)
    assert out.shape == (21, 2)
    assert np.max(np.abs(out[:, 0] - t**2 / 2.0)) < 1e-12
    assert np.max(np.abs(out[:, 1] - t**3 / 3.0)) < 1e-12


def _cumulative_simpson_loop(samples, dt):
    # the node-by-node form cumulative_simpson replaced, kept as reference
    K = samples.shape[0]
    out = np.zeros_like(samples)
    for k in range(1, K):
        if k % 2 == 0:
            out[k] = out[k - 2] + (dt / 3.0) * (
                samples[k - 2] + 4.0 * samples[k - 1] + samples[k]
            )
        elif k + 1 < K:
            out[k] = out[k - 1] + (dt / 12.0) * (
                5.0 * samples[k - 1] + 8.0 * samples[k] - samples[k + 1]
            )
        else:
            out[k] = out[k - 1] + (dt / 12.0) * (
                -samples[k - 2] + 8.0 * samples[k - 1] + 5.0 * samples[k]
            )
    return out


@pytest.mark.parametrize("shape", [(3,), (4,), (257,), (256,), (257, 12), (64, 3, 2)])
def test_cumulative_simpson_bit_identical_to_node_loop(shape):
    rng = np.random.default_rng(sum(shape))
    samples = rng.normal(size=shape)
    dt = 2.0 * np.pi / 256
    assert np.array_equal(cumulative_simpson(samples, dt), _cumulative_simpson_loop(samples, dt))


def test_cumulative_simpson_needs_three_samples():
    with pytest.raises(ConfigurationError):
        cumulative_simpson(np.array([1.0, 2.0]), 0.1)
    with pytest.raises(ConfigurationError):
        cumulative_simpson(np.array([1.0, 2.0, 3.0]), -0.1)


# ------------------------------------------------------------- jacobian_fd


def test_jacobian_fd_linear_map():
    M = np.array([[1.0, 2.0, -1.0], [0.5, -3.0, 4.0]])
    # f takes the block of perturbed states, one per row
    J = jacobian_fd(lambda x: x @ M.T, np.array([0.3, -1.2, 2.0]))
    assert J.shape == (2, 3)
    assert np.max(np.abs(J - M)) < 1e-8


def test_jacobian_fd_scalar_square():
    J = jacobian_fd(lambda x: x[..., 0] ** 2, np.array([3.0]))
    assert J.shape == (1, 1)
    assert abs(J[0, 0] - 6.0) < 1e-8


def test_jacobian_fd_gradient_at_critical_point():
    J = jacobian_fd(lambda x: np.vecdot(x, x), np.zeros(3))
    assert np.max(np.abs(J)) < 1e-9


def test_jacobian_fd_array_valued_map():
    # a field over K phases: f(x)[k] = (x0 cos t_k + x1^2, x0 x1 sin t_k),
    # (K, 2) at a state and (B, K, 2) on a block
    taus = np.linspace(0.0, 6.0, 7)

    def f(x):
        x0, x1 = x[..., 0, None], x[..., 1, None]
        return np.stack([x0 * np.cos(taus) + x1**2, x0 * x1 * np.sin(taus)], axis=-1)

    x = np.array([0.4, -1.3])
    J = jacobian_fd(f, x)
    assert J.shape == (7, 2, 2)
    exact = np.empty((7, 2, 2))
    exact[:, 0, 0] = np.cos(taus)
    exact[:, 0, 1] = 2.0 * x[1]
    exact[:, 1, 0] = x[1] * np.sin(taus)
    exact[:, 1, 1] = x[0] * np.sin(taus)
    assert np.max(np.abs(J - exact)) < 1e-9
    # C-ordered, and each column is exactly its own central difference
    assert J.flags.c_contiguous
    for i in range(2):
        step = float(np.finfo(float).eps) ** (1.0 / 3.0) * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        assert np.array_equal(J[..., i], (f(xp) - f(xm)) / (2.0 * step))


def test_jacobian_fd_rejects_matrix_input():
    with pytest.raises(DimensionError):
        jacobian_fd(lambda x: x, np.zeros((2, 2)))


# ------------------------------------------------------------ integrate_rk4


def test_time_grid_validation_and_end():
    grid = TimeGrid(t0=1.0, dt=0.25, n_steps=8)
    assert np.array_equal(grid.times(), 1.0 + 0.25 * np.arange(9))
    with pytest.raises(ConfigurationError):
        TimeGrid(t0=0.0, dt=0.0, n_steps=4)
    with pytest.raises(ConfigurationError):
        TimeGrid(t0=0.0, dt=0.1, n_steps=0)
    with pytest.raises(ConfigurationError):
        TimeGrid(t0=np.inf, dt=0.1, n_steps=4)


def test_time_grid_refuses_times_too_large_for_its_step():
    # the float spacing at the grid's largest |time| must be at most dt / 4
    dt = 2.0**-10
    grid = TimeGrid(t0=2.0**40, dt=dt, n_steps=8)  # spacing 2^-12 = dt / 4
    assert np.all(np.diff(grid.times()) == dt)
    for t0 in (2.0**41, -(2.0**41), 2.0**41 - 4.0 * dt):  # the last ends past 2^41
        with pytest.raises(ConfigurationError, match="too large for dt"):
            TimeGrid(t0=t0, dt=dt, n_steps=8)
    with pytest.raises(ConfigurationError, match="time 1e\\+17 is too large for dt=0.00125"):
        TimeGrid.spanning(1e17, 0.01, 0.00125)
    # the refusal names the grid's time of largest magnitude, here its end
    # or a negative start, not t0 alone
    with pytest.raises(ConfigurationError, match="TimeGrid time 1 is too large for dt=1e-300"):
        TimeGrid.spanning(0.0, 1.0, 1e-300)
    with pytest.raises(ConfigurationError, match="TimeGrid time -2.19902e\\+12 is too large"):
        TimeGrid(t0=-(2.0**41), dt=dt, n_steps=8)


def test_time_grid_spanning_rounds_to_the_nearest_step():
    grid = TimeGrid.spanning(0.5, 1.0, 0.3)
    assert (grid.t0, grid.dt, grid.n_steps) == (0.5, 0.3, 3)
    assert TimeGrid.spanning(0.0, 0.51, 1.0).n_steps == 1
    assert TimeGrid.spanning(0.0, 1.49, 1.0).n_steps == 1
    assert TimeGrid.spanning(0.0, 1.51, 1.0).n_steps == 2


@pytest.mark.parametrize("span,dt", [
    (0.5, 1.0), (0.4, 1.0), (1.0, 1000.0), (0.0, 0.1), (-1.0, 0.1),
    (np.inf, 0.1), (np.nan, 0.1), (1.0, 0.0), (1.0, -0.1), (1.0, np.nan),
])
def test_time_grid_spanning_rejects_spans_without_a_step(span, dt):
    with pytest.raises(ConfigurationError):
        TimeGrid.spanning(0.0, span, dt)


def test_rk4_zero_field_is_constant():
    grid = TimeGrid(t0=0.0, dt=0.1, n_steps=50)
    x0 = np.array([1.0, -2.0, 0.5])
    times, states = integrate_rk4(lambda t, x: np.zeros(3), x0, grid)
    assert times.shape == (51,)
    assert states.shape == (51, 3)
    assert np.array_equal(states[-1], x0)


def test_rk4_linear_decay():
    grid = TimeGrid(t0=0.0, dt=1e-3, n_steps=1000)
    _, states = integrate_rk4(lambda t, x: -x, np.array([1.0]), grid)
    assert abs(states[-1, 0] - np.exp(-1.0)) < 1e-8


def test_rk4_harmonic_oscillator_energy_drift():
    # 100 periods at 200 steps per period; the amplitude error of RK4 on
    # a rotation is O(dt^6) per step, so the drift stays tiny.
    steps_per_period = 200
    n_periods = 100
    dt = 2.0 * np.pi / steps_per_period
    grid = TimeGrid(t0=0.0, dt=dt, n_steps=steps_per_period * n_periods)

    def field(t, s):
        return np.array([s[1], -s[0]])

    _, states = integrate_rk4(field, np.array([1.0, 0.0]), grid)
    energy = 0.5 * (states[:, 0] ** 2 + states[:, 1] ** 2)
    assert np.max(np.abs(energy - 0.5)) < 1e-6


def test_rk4_fourth_order_convergence():
    # error ratio under step halving should be close to 2^4 = 16
    def field(t, x):
        return np.array([-x[0] ** 2])

    exact = 1.0 / 2.0  # x' = -x^2, x(0)=1 -> x(t) = 1/(1+t), at t=1

    def err(n_steps):
        grid = TimeGrid(t0=0.0, dt=1.0 / n_steps, n_steps=n_steps)
        _, states = integrate_rk4(field, np.array([1.0]), grid)
        return abs(states[-1, 0] - exact)

    ratio = err(20) / err(40)
    assert 12.0 < ratio < 20.0


def test_rk4_step_matches_integrator_single_step():
    def field(t, x):
        return np.array([np.cos(t) - x[0]])

    x0 = np.array([0.3])
    grid = TimeGrid(t0=0.2, dt=0.05, n_steps=1)
    _, states = integrate_rk4(field, x0, grid)
    manual = rk4_step(field, 0.2, x0, 0.05)
    assert np.array_equal(states[-1], manual)


def test_rk4_divergence_reports_step_and_time():
    # x' = x^2 from x(0)=1 blows up at t=1; overflow to non-finite raises
    grid = TimeGrid(t0=0.0, dt=0.1, n_steps=50)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as exc_info:
            integrate_rk4(lambda t, x: x**2, np.array([1.0]), grid)
    err = exc_info.value
    assert isinstance(err.step, int) and 1 <= err.step <= 50
    assert abs(err.time - 0.1 * err.step) < 1e-12


def test_rk4_post_step_hook_applied():
    # renormalizing hook keeps the state on the unit circle
    grid = TimeGrid(t0=0.0, dt=0.05, n_steps=200)

    def field(t, s):
        return np.array([s[1], -s[0]])

    def renorm(s):
        return s / np.linalg.norm(s)

    _, states = integrate_rk4(field, np.array([1.0, 0.0]), grid, post_step=renorm)
    radii = np.linalg.norm(states[1:], axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-15


def test_rk4_post_step_manifold_error_is_divergence():
    # a hook that cannot project a finite state reports a divergence
    grid = TimeGrid(t0=0.0, dt=0.1, n_steps=10)

    def reject_large(s):
        if s[0] > 1.5:
            raise ManifoldError("cannot project")
        return s

    with pytest.raises(DivergenceError) as exc_info:
        integrate_rk4(lambda t, x: x, np.array([1.0]), grid, post_step=reject_large)
    err = exc_info.value
    # x = e^t, and e^{0.4} < 1.5 < e^{0.5}: step 5 is the first one rejected
    assert err.step == 5
    assert abs(err.time - 0.5) < 1e-12
    assert isinstance(err.__cause__, ManifoldError)
    assert "projection failed" in str(err)


def _rowwise_field(t, x):
    # arithmetic only, so each row of a block rounds as it does alone
    return t * x[..., ::-1] - x * x * x


def test_rk4_block_rows_match_rows_integrated_alone():
    grid = TimeGrid(t0=0.1, dt=0.01, n_steps=300)
    x0 = np.random.default_rng(5).uniform(-2.0, 2.0, size=(6, 3))
    times, states = integrate_rk4(_rowwise_field, x0, grid)
    assert states.shape == (301, 6, 3)
    assert np.array_equal(states[0], x0)
    for b in range(x0.shape[0]):
        alone_times, alone = integrate_rk4(_rowwise_field, x0[b], grid)
        assert np.array_equal(alone_times, times)
        assert np.array_equal(states[:, b, :], alone)


def test_rk4_post_step_receives_the_block():
    grid = TimeGrid(t0=0.0, dt=0.05, n_steps=40)
    x0 = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]])
    seen = []

    def renorm(s):
        seen.append(s.shape)
        return s / np.linalg.norm(s, axis=-1, keepdims=True)

    def field(t, s):
        return np.stack([s[..., 1], -s[..., 0]], axis=-1)

    _, states = integrate_rk4(field, x0, grid, post_step=renorm)
    assert seen == [(3, 2)] * 40
    for b in range(3):
        _, alone = integrate_rk4(field, x0[b], grid, post_step=renorm)
        assert np.array_equal(states[:, b, :], alone)


def test_rk4_nan_in_one_row_raises_for_the_block():
    # row 1 turns NaN in the step that ends at t = 0.3; the other rows stay finite
    grid = TimeGrid(t0=0.0, dt=0.1, n_steps=10)

    def field(t, x):
        out = -x
        if t > 0.25:
            out = out.copy()
            out[1] = np.nan
        return out

    with pytest.raises(DivergenceError) as exc_info:
        integrate_rk4(field, np.ones((3, 2)), grid)
    assert exc_info.value.step == 3
    assert abs(exc_info.value.time - 0.3) < 1e-12


def _float_or_array_field(t, x):
    # a forced Lorenz field: a list state gets a list, an array an array,
    # through the same float arithmetic
    a, b, c = x
    out = [10.0 * (b - a) + math.cos(t), a * (28.0 - c) - b, a * b - (8.0 / 3.0) * c]
    return out if isinstance(x, list) else np.array(out)


def test_rk4_list_state_matches_array_bit_for_bit():
    # the chaotic field amplifies any rounding difference over 2,000 steps
    grid = TimeGrid(t0=0.3, dt=0.002, n_steps=2000)
    x0 = [1.0, -2.0, 20.0]
    times, states = integrate_rk4(_float_or_array_field, x0, grid)
    a_times, a_states = integrate_rk4(_float_or_array_field, np.array(x0), grid)
    assert states.shape == (2001, 3) and states.dtype == np.float64
    assert times.tobytes() == a_times.tobytes()
    assert states.tobytes() == a_states.tobytes()
    step = rk4_step(_float_or_array_field, 0.3, x0, 0.002)
    assert isinstance(step, list)
    array_step = rk4_step(_float_or_array_field, 0.3, np.array(x0), 0.002)
    assert np.array(step).tobytes() == array_step.tobytes()


def test_rk4_list_post_step_takes_and_returns_lists():
    grid = TimeGrid(t0=0.0, dt=0.05, n_steps=40)
    seen = []

    def renorm(s):
        seen.append(type(s))
        r = math.sqrt(s[0] * s[0] + s[1] * s[1])
        out = [s[0] / r, s[1] / r]
        return out if isinstance(s, list) else np.array(out)

    def field(t, s):
        out = [s[1], -s[0]]
        return out if isinstance(s, list) else np.array(out)

    _, states = integrate_rk4(field, [3.0, 4.0], grid, post_step=renorm)
    assert seen == [list] * 40
    _, a_states = integrate_rk4(field, np.array([3.0, 4.0]), grid, post_step=renorm)
    assert states.tobytes() == a_states.tobytes()


def test_rk4_list_divergence_matches_array():
    # x' = x^2 overflows to inf as floats and as arrays at the same step
    grid = TimeGrid(t0=0.0, dt=0.1, n_steps=50)

    def square(t, x):
        out = [v * v for v in x]
        return out if isinstance(x, list) else np.array(out)

    errors = []
    for x0 in ([1.0], np.array([1.0])):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as exc_info:
                integrate_rk4(square, x0, grid)
        errors.append(exc_info.value)
    assert errors[0].step == errors[1].step and 1 <= errors[0].step <= 50
    assert errors[0].time == errors[1].time
    assert str(errors[0]) == str(errors[1])


def test_rk4_list_nan_entry_raises_divergence():
    grid = TimeGrid(t0=0.0, dt=0.1, n_steps=10)

    def field(t, x):
        return [-x[0], math.nan if t > 0.25 else -x[1]]

    with pytest.raises(DivergenceError) as exc_info:
        integrate_rk4(field, [1.0, 1.0], grid)
    assert exc_info.value.step == 3
    assert abs(exc_info.value.time - 0.3) < 1e-12


def test_rk4_math_domain_error_in_a_stage_is_divergence():
    # k2 overflows to inf, so the third stage value is inf and math.cos
    # refuses it before the step ends: the first step reports a divergence
    grid = TimeGrid(t0=0.0, dt=0.1, n_steps=5)

    def field(t, x):
        return [1e200 * x[0] + math.cos(x[0])]

    with pytest.raises(DivergenceError) as exc_info:
        integrate_rk4(field, [1.0], grid)
    err = exc_info.value
    assert (err.step, err.time) == (1, 0.1)
    assert str(err) == "non-finite state at step 1 (t=0.1)"
    assert isinstance(err.__cause__, ValueError)


def test_rk4_other_value_errors_pass_through():
    def field(t, x):
        raise ValueError("a bug in the field")

    grid = TimeGrid(t0=0.0, dt=0.1, n_steps=5)
    with pytest.raises(ValueError, match="a bug in the field"):
        integrate_rk4(field, [1.0], grid)


def test_rk4_list_post_step_manifold_error_matches_array():
    grid = TimeGrid(t0=0.0, dt=0.1, n_steps=10)

    def reject_large(s):
        if s[0] > 1.5:
            raise ManifoldError("cannot project")
        return s

    errors = []
    for x0 in ([1.0], np.array([1.0])):
        with pytest.raises(DivergenceError) as exc_info:
            integrate_rk4(lambda t, x: x, x0, grid, post_step=reject_large)
        errors.append(exc_info.value)
    assert errors[0].step == errors[1].step == 5
    assert errors[0].time == errors[1].time
    assert str(errors[0]) == str(errors[1])
    assert "projection failed" in str(errors[0])
    assert isinstance(errors[0].__cause__, ManifoldError)
