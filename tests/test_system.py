"""Tests for the two-time-scale system container and coordinate shifts.

The synthetic system used throughout has closed-form pieces, so the
assembled right-hand side and the shifted coordinates can be checked by
hand arithmetic.
"""

import numpy as np
import pytest

from twoscale.averaging import build_b
from twoscale.benchmarks import linear_benchmark
from twoscale.errors import ConfigurationError, DimensionError
from twoscale.harness import run_compare
from twoscale.numkit import TimeGrid, integrate_rk4
from twoscale.system import (
    OscillatorySystemSpec,
    ShiftedState,
    assemble_full_field,
    check_assumption_A,
    from_shifted,
    frozen_layer_field,
    grid_terms,
    to_shifted,
)

from oracles import assembled, assembled_field


def scalar_spec(**overrides):
    """1+1 dimensional system with zero-mean sqrt-scale terms."""
    kwargs = dict(
        n=1,
        m=1,
        T=2.0 * np.pi,
        A=np.array([[-1.0]]),
        phi0=lambda x: 0.5 * x[..., 0:1],  # a state (1,) or a block (B, 1)
        f1=lambda x, y, tau: np.array([np.sin(tau) * (1.0 + x[0] ** 2)]).T,
        f2=lambda x, y, tau: np.full(np.shape(tau) + (1,), -x[0] + y[0]),
        g1=lambda x, y, tau: np.array([np.cos(tau)]).T,
        g2=lambda x, y, tau: np.full(np.shape(tau) + (1,), x[0] ** 2),
    )
    kwargs.update(overrides)
    return OscillatorySystemSpec(**kwargs)


# ------------------------------------------------------------- construction


def test_spec_validates_dimensions_and_period():
    with pytest.raises(ConfigurationError):
        scalar_spec(n=0)
    with pytest.raises(ConfigurationError):
        scalar_spec(m=0)
    with pytest.raises(ConfigurationError):
        scalar_spec(T=-1.0)
    with pytest.raises(DimensionError):
        scalar_spec(A=np.eye(2))
    with pytest.raises(ConfigurationError):
        scalar_spec(A=np.array([[np.nan]]))


def test_pack_unpack_round_trip():
    spec = scalar_spec()
    v = spec.pack(np.array([1.5]), np.array([-0.25]))
    assert np.array_equal(v, np.array([1.5, -0.25]))
    x, y = spec.unpack(v)
    assert np.array_equal(x, np.array([1.5]))
    assert np.array_equal(y, np.array([-0.25]))
    with pytest.raises(DimensionError):
        spec.pack(np.zeros(2), np.zeros(1))
    with pytest.raises(DimensionError):
        spec.unpack(np.zeros(3))


def test_phi0_jacobian_analytic_and_fd_agree():
    fd_spec = scalar_spec()
    an_spec = scalar_spec(dphi0=lambda x: np.array([[0.5]]))
    x = np.array([2.0])
    assert np.array_equal(an_spec.phi0_jacobian(x), np.array([[0.5]]))
    assert abs(fd_spec.phi0_jacobian(x)[0, 0] - 0.5) < 1e-9


# ------------------------------------------------------- assemble_full_field


def test_assembled_field_matches_hand_arithmetic():
    # the fields' generic assembly (oracles), which pins every spec's full
    spec = assembled(scalar_spec())
    omega = 4.0
    field = assemble_full_field(spec, omega)
    t, x, y = 0.3, 0.7, -0.2
    tau = omega * t
    dv = field(t, [x, y])
    dx_expected = 2.0 * np.sin(tau) * (1.0 + x * x) + (-x + y)
    dy_expected = 4.0 * (-1.0) * (y - 0.5 * x) + 2.0 * np.cos(tau) + x * x
    assert abs(dv[0] - dx_expected) < 1e-14
    assert abs(dv[1] - dy_expected) < 1e-14


def test_assembled_field_sqrt_scale_doubles_with_4x_frequency():
    # at t = 0 the phase is 0 for every omega, so the sqrt(omega)-scale
    # contribution is isolated by subtracting the order-one part
    spec = assembled(scalar_spec(
        f1=lambda x, y, tau: np.ones(np.shape(tau) + (1,)),  # frozen phase dependence
        g1=lambda x, y, tau: np.zeros(np.shape(tau) + (1,)),
    ))
    x, y = 0.4, 0.2
    v = [x, y]
    f2_part = -x + y
    lo = assemble_full_field(spec, 1.0)(0.0, v)[0] - f2_part
    hi = assemble_full_field(spec, 4.0)(0.0, v)[0] - f2_part
    assert abs(hi - 2.0 * lo) < 1e-14


def test_assembled_field_rejects_bad_omega():
    spec = scalar_spec()
    with pytest.raises(ConfigurationError):
        assemble_full_field(spec, 0.0)
    with pytest.raises(ConfigurationError):
        assemble_full_field(spec, -2.0)


def test_a_spec_without_full_cannot_be_flown():
    # a fields-only spec averages, but assemble_full_field and run_compare
    # refuse to fly it, before any step
    spec = scalar_spec()
    assert spec.full is None
    with pytest.raises(ConfigurationError, match="no full right-hand side"):
        assemble_full_field(spec, 9.0)
    reference = (np.array([0.0, 1.0]), np.zeros((2, 1)))
    with pytest.raises(ConfigurationError, match="no full right-hand side"):
        run_compare(spec, reference, np.zeros(1), np.zeros(1), 9.0, t_f=1.0,
                    steps_per_period=16)


# ---------------------------------------------------------------- phase terms


def test_grid_terms_fall_back_to_the_fields_read_at_call_time():
    # a spec without terms stacks its four fields, and a field reassigned
    # after the fields' assembly was built is the one its next call uses
    spec = assembled(linear_benchmark().spec)
    assert spec.terms is None
    x, y = np.array([0.8, -0.3]), np.array([0.1, 0.4])
    taus = np.linspace(0.0, 2.0 * np.pi, 9)
    for phase in (np.array([0.7]), taus):
        F1, F2 = grid_terms(spec, x, y, phase)
        assert np.array_equal(F1, np.concatenate([spec.f1(x, y, phase), spec.g1(x, y, phase)], -1))
        assert np.array_equal(F2, np.concatenate([spec.f2(x, y, phase), spec.g2(x, y, phase)], -1))
    omega, t = 16.0, 0.3
    v = np.concatenate([x, y]).tolist()
    field = assemble_full_field(spec, omega)

    def four_calls():
        tau = omega * t
        dx = 4.0 * spec.f1(x, y, tau) + spec.f2(x, y, tau)
        dy = omega * (spec.A @ (y - spec.phi0(x))) + 4.0 * spec.g1(x, y, tau) + spec.g2(x, y, tau)
        return np.concatenate([dx, dy])

    assert np.array_equal(field(t, v), four_calls())
    spec.f2 = lambda x, y, tau: np.full(np.shape(tau) + (2,), 3.0)
    assert np.array_equal(field(t, v), four_calls())
    assert np.array_equal(grid_terms(spec, x, y, taus)[1][:, :2], np.full((9, 2), 3.0))
    # a caller of F1 alone gets no F2, and f2 and g2 are not called
    spec.f2 = spec.g2 = None
    F1, F2 = grid_terms(spec, x, y, taus, order_one=False)
    assert F2 is None and F1.shape == (9, 4)


def test_grid_terms_makes_one_terms_call_per_read():
    # with terms, each read is one terms call with order_one passed on, and
    # gives the bits of the same read of the fields
    base = scalar_spec()
    calls = []

    def terms(x, y, tau, order_one=True):
        calls.append(order_one)
        return grid_terms(base, x, y, tau, order_one)

    def unused(x, y, tau):
        raise AssertionError("a phase field was called beside terms")

    spec = scalar_spec(terms=terms, f1=unused, f2=unused, g1=unused, g2=unused)
    x, y, taus = np.array([0.7]), np.array([-0.2]), np.linspace(0.0, 1.0, 5)
    for order_one in (True, False):
        got = grid_terms(spec, x, y, taus, order_one)
        want = grid_terms(base, x, y, taus, order_one)
        assert calls == [order_one]
        calls.clear()
        assert np.array_equal(got[0], want[0])
        if order_one:
            assert np.array_equal(got[1], want[1])
        else:
            assert got[1] is None


def test_full_field_returns_the_specs_own_right_hand_side():
    # a spec's full(omega) is returned as it is, and a bad omega is
    # refused before full is called
    made = []

    def rhs(t, v):
        return [t, -t]

    def full(omega):
        made.append(omega)
        return rhs

    spec = scalar_spec(full=full)
    assert assemble_full_field(spec, 9.0) is rhs
    assert made == [9.0]
    for bad in (0.0, -2.0, float("nan")):
        with pytest.raises(ConfigurationError, match="omega must be positive"):
            assemble_full_field(spec, bad)
    assert made == [9.0]


def test_phase_terms_with_wrong_shape_raise_dimension_error():
    def short(x, y, tau, order_one=True):  # F1 one column short of n + m
        return np.zeros(np.shape(tau) + (1,)), np.zeros(np.shape(tau) + (2,))

    def unstacked(x, y, tau, order_one=True):  # one value for the whole phase vector
        return np.zeros(2), np.zeros(2)

    def f2_short(x, y, tau, order_one=True):
        return np.zeros(np.shape(tau) + (2,)), np.zeros(np.shape(tau) + (1,))

    x, y, taus = np.zeros(1), np.zeros(1), np.linspace(0.0, 1.0, 5)
    with pytest.raises(DimensionError):
        grid_terms(scalar_spec(terms=f2_short), x, y, taus)
    for terms in (short, unstacked):
        spec = scalar_spec(terms=terms)
        with pytest.raises(DimensionError):
            grid_terms(spec, x, y, taus)
        with pytest.raises(DimensionError):
            check_assumption_A(spec)
        with pytest.raises(DimensionError):
            build_b(spec, 1).values_at(x, taus)
    # order-one fields that drop the phase axis: grid_terms refuses them on
    # the one-phase grid too, where stacking would broadcast f2's scalar
    # over g2 and give the fields' assembly [-0.5, 0.85]
    def zero(x, y, tau):
        return np.zeros(np.shape(tau) + (1,))

    flat = scalar_spec(f1=zero, g1=zero, f2=lambda x, y, tau: -x + y, g2=lambda x, y, tau: x**2)
    x, y, tau = np.array([0.7]), np.array([0.2]), np.array([0.9])
    with pytest.raises(DimensionError):
        grid_terms(flat, x, y, tau)
    with pytest.raises(DimensionError):
        assembled_field(flat, 9.0)(0.1, [0.7, 0.2])
    conforming = scalar_spec(f1=zero, g1=zero)
    assert grid_terms(conforming, x, y, tau)[1].tolist() == [pytest.approx([-0.5, 0.49])]
    assert assembled_field(conforming, 9.0)(0.1, [0.7, 0.2]) == pytest.approx([-0.5, 1.84])


# --------------------------------------------------------- frozen_layer_field


def test_frozen_layer_decays_at_closed_form_rate():
    spec = scalar_spec(
        m=2,
        A=np.diag([-1.0, -2.0]),
        phi0=lambda x: np.array([x[0], -x[0]]),
        g1=lambda x, y, tau: np.zeros(np.shape(tau) + (2,)),
        g2=lambda x, y, tau: np.zeros(np.shape(tau) + (2,)),
    )
    omega = 10.0
    x = np.array([0.3])
    target = np.array([0.3, -0.3])
    offset = np.array([0.5, -0.2])
    field = frozen_layer_field(spec, omega, x)
    grid = TimeGrid(t0=0.0, dt=1e-3, n_steps=300)
    _, states = integrate_rk4(field, target + offset, grid)
    expected = target + offset * np.exp(np.array([-10.0, -20.0]) * grid.times()[-1])
    assert np.max(np.abs(states[-1] - expected)) < 1e-8


def test_frozen_layer_fixed_point_is_quasi_steady_value():
    spec = scalar_spec()
    field = frozen_layer_field(spec, 5.0, np.array([1.2]))
    assert abs(field(0.0, np.array([0.6]))[0]) < 1e-15
    with pytest.raises(ConfigurationError):
        frozen_layer_field(spec, -1.0, np.array([1.2]))


# --------------------------------------------------------- check_assumption_A


def test_assumptions_hold_for_reference_system():
    report = check_assumption_A(scalar_spec())
    assert report.ok
    assert report.hurwitz
    assert report.spectral_abscissa == -1.0
    assert report.zero_mean
    assert report.max_mean_defect < 1e-10
    assert report.periodic
    assert report.max_period_defect < 1e-12


def test_assumptions_flag_non_hurwitz_matrix():
    spec = scalar_spec(
        m=2,
        A=np.array([[0.0, 1.0], [-1.0, 0.0]]),  # purely imaginary spectrum
        phi0=lambda x: np.zeros(2),
        g1=lambda x, y, tau: np.zeros(np.shape(tau) + (2,)),
        g2=lambda x, y, tau: np.zeros(np.shape(tau) + (2,)),
    )
    report = check_assumption_A(spec)
    assert not report.hurwitz
    assert abs(report.spectral_abscissa) < 1e-12
    assert not report.ok


def test_assumptions_flag_biased_oscillation():
    spec = scalar_spec(f1=lambda x, y, tau: np.array([1.0 + np.sin(tau)]).T)
    report = check_assumption_A(spec)
    assert not report.zero_mean
    assert abs(report.max_mean_defect - 1.0) < 1e-10
    assert not report.ok


def test_assumptions_flag_aperiodic_field():
    spec = scalar_spec(f2=lambda x, y, tau: np.array([tau]).T)
    report = check_assumption_A(spec)
    assert not report.periodic
    assert abs(report.max_period_defect - 2.0 * np.pi) < 1e-12
    assert not report.ok


def test_assumptions_flag_a_period_defect_of_5e_10():
    # a drift of 5e-10 per period sits between the 1e-10 bound and 1e-9
    drift = 5e-10 / (2.0 * np.pi)
    spec = scalar_spec(f2=lambda x, y, tau: np.array([np.cos(tau) + drift * tau]).T)
    report = check_assumption_A(spec)
    assert not report.periodic
    assert abs(report.max_period_defect - 5e-10) < 1e-12
    assert report.zero_mean and not report.ok


def test_assumptions_flag_a_defect_in_a_narrow_phase_window():
    # f2 is 1 higher on [3, 3.05) of the first period only: the 256-phase
    # grid has two phases there, while eight phases drawn from seed 12345
    # (as the check once did, one per state) all miss it
    def f2(x, y, taus):
        bump = np.where((taus >= 3.0) & (taus < 3.05), 1.0, 0.0)
        return (bump + (-x[0] + y[0]))[:, None]

    report = check_assumption_A(scalar_spec(f2=f2))
    assert not report.periodic
    assert abs(report.max_period_defect - 1.0) < 1e-12
    assert report.zero_mean and not report.ok


def _nan_field(x, y, taus):
    return np.full(np.shape(taus) + (1,), np.nan)


@pytest.mark.parametrize("fields", [
    dict(f1=_nan_field, f2=_nan_field, g1=_nan_field, g2=_nan_field),
    dict(f2=_nan_field),
], ids=["all-fields", "f2-only"])
def test_assumptions_flag_nan_fields(fields):
    # Python's max keeps a finite first operand against a NaN, so running
    # maxima once reported such a spec as zero-mean and periodic, defect 0.0
    report = check_assumption_A(scalar_spec(**fields))
    assert np.isnan(report.max_period_defect) and not report.periodic
    assert np.isnan(report.max_mean_defect) == ("f1" in fields)
    assert report.zero_mean != ("f1" in fields)
    assert not report.ok


# ------------------------------------------------------- shifted coordinates


def test_to_shifted_vanishes_on_quasi_steady_manifold():
    spec = scalar_spec()
    x = np.array([0.8])
    y = np.array([0.4])  # equals phi0(x)
    state = to_shifted(spec, x, y, t=0.7, omega=16.0)
    assert np.max(np.abs(state.z)) == 0.0
    assert state.eps == 0.25
    assert abs(state.tau - 16.0 * 0.7) < 1e-12


def test_to_shifted_subtracts_correctors():
    spec = scalar_spec()

    def phi1(x, tau):
        return np.array([0.3 * np.sin(tau) + x[0]])

    def phi2(x, tau):
        return np.array([np.cos(tau)])

    x = np.array([1.2])
    y = np.array([-0.7])
    omega = 16.0
    t, t0 = 0.37, 0.1
    tau = omega * (t - t0)
    eps = 0.25
    state = to_shifted(spec, x, y, t, omega, phi1=phi1, phi2=phi2, t0=t0)
    expected = y[0] - (0.6 + eps * phi1(x, tau)[0] + eps * eps * phi2(x, tau)[0])
    assert abs(state.z[0] - expected) < 1e-14
    assert abs(state.tau - tau) < 1e-12


def test_shift_round_trip_recovers_state():
    spec = scalar_spec()

    def phi1(x, tau):
        return np.array([0.3 * np.sin(tau) + x[0]])

    def phi2(x, tau):
        return np.array([np.cos(tau)])

    rng = np.random.default_rng(17)
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, 1)
        y = rng.uniform(-2.0, 2.0, 1)
        t = float(rng.uniform(0.0, 3.0))
        omega = float(rng.uniform(1.0, 100.0))
        state = to_shifted(spec, x, y, t, omega, phi1=phi1, phi2=phi2, t0=0.05)
        x2, y2, t2 = from_shifted(spec, state, phi1=phi1, phi2=phi2, t0=0.05)
        assert np.max(np.abs(x2 - x)) < 1e-12
        assert np.max(np.abs(y2 - y)) < 1e-12
        assert abs(t2 - t) < 1e-12


def test_shifted_state_requires_high_frequency_scale():
    with pytest.raises(ConfigurationError):
        ShiftedState(x=np.zeros(1), z=np.zeros(1), tau=0.0, eps=2.0)
    with pytest.raises(ConfigurationError):
        ShiftedState(x=np.zeros(1), z=np.zeros(1), tau=0.0, eps=0.0)
    spec = scalar_spec()
    with pytest.raises(ConfigurationError):
        to_shifted(spec, np.zeros(1), np.zeros(1), 0.0, omega=0.25)
    with pytest.raises(ConfigurationError):
        to_shifted(spec, np.zeros(1), np.zeros(1), 0.0, omega=-4.0)
