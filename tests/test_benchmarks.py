"""Tests for the built-in benchmark problems.

Each benchmark claims a closed form; these tests verify the claim
directly (exact solutions satisfy their differential equations, averages
solve in closed form) rather than trusting the stored expressions.
"""

import numpy as np
import pytest

from twoscale.benchmarks import (
    bvp_cosine_case,
    bvp_jordan_case,
    field_by_name,
    linear_benchmark,
)
from twoscale.cli import DEFAULTS
from twoscale.errors import ConfigurationError
from twoscale.numkit import mat_exp, quad_periodic
from twoscale.seeker import as_system_spec, builtin_fields
from twoscale.so3 import embed, exp_so3
from twoscale.system import check_assumption_A

from oracles import bracket_benchmark, bvp_exact


def phase_derivative(fun, tau, h=1e-6):
    return (np.asarray(fun(tau + h)) - np.asarray(fun(tau - h))) / (2.0 * h)


# ----------------------------------------------------------------- BVP cases


def test_bvp_exact_solutions_satisfy_their_equations():
    for case in (bvp_cosine_case(), bvp_jordan_case()):
        exact = bvp_exact(case.name)
        for tau in np.linspace(0.0, case.T, 11):
            lhs = phase_derivative(exact, tau)
            rhs = case.A @ exact(tau) + np.asarray(case.b(None, tau))
            assert np.max(np.abs(lhs - rhs)) < 1e-8, case.name


def test_bvp_exact_solutions_are_periodic():
    for case in (bvp_cosine_case(), bvp_jordan_case()):
        exact = bvp_exact(case.name)
        gap = np.asarray(exact(0.0)) - np.asarray(exact(case.T))
        assert np.max(np.abs(gap)) < 1e-12, case.name


def test_bvp_case_metadata():
    cos_case = bvp_cosine_case()
    assert cos_case.name == "cosine-1d"
    assert cos_case.A.shape == (1, 1)
    jordan = bvp_jordan_case()
    assert jordan.name == "jordan-2d"
    assert np.array_equal(jordan.A, np.array([[-1.0, 1.0], [0.0, -1.0]]))
    assert jordan.T == 2.0 * np.pi


# ----------------------------------------------------------- linear benchmark


def test_linear_benchmark_average_matrix():
    bench = linear_benchmark()
    expected = np.array([[-0.4, 1.0], [-1.0, -0.4]])
    assert np.max(np.abs(bench.Mbar - expected)) < 1e-15
    x = np.array([0.3, -1.2])
    assert np.array_equal(bench.averaged_field(5.0, x), bench.Mbar @ x)


def test_linear_benchmark_exact_average_solves_the_ode():
    bench = linear_benchmark()

    def exact_average(t):
        return mat_exp(bench.Mbar, t) @ bench.x0

    assert np.array_equal(exact_average(0.0), bench.x0)
    for t in (0.5, 2.0):
        h = 1e-6
        lhs = (exact_average(t + h) - exact_average(t - h)) / (2.0 * h)
        rhs = bench.Mbar @ exact_average(t)
        assert np.max(np.abs(lhs - rhs)) < 1e-7


def test_linear_benchmark_starts_on_manifold():
    bench = linear_benchmark()
    assert np.array_equal(bench.y0, bench.spec.phi0(bench.x0))
    assert check_assumption_A(bench.spec).ok


# ---------------------------------------------------------- bracket benchmark


def test_bracket_benchmark_oscillation_has_zero_mean():
    bench = bracket_benchmark()
    x = np.array([0.7, -1.4])
    y = np.zeros(1)
    mean = quad_periodic(lambda s: bench.spec.f1(x, y, s), bench.spec.T, 128)
    assert np.max(np.abs(mean)) < 1e-12
    assert check_assumption_A(bench.spec).ok


def test_bracket_benchmark_exact_average_form():
    bench = bracket_benchmark()
    for x in (np.array([0.0, 1.0]), np.array([2.0, -3.0])):
        assert np.array_equal(bench.fbar_exact(x), np.array([2.0 * x[1], 0.0]))


def _seeker_sweep_start(fld, p0):
    # the start cmd_sweep builds: x0 = (p0, I), quasi-steady y0 = phi0(x0)
    spec = as_system_spec(fld)
    x0 = np.concatenate([np.asarray(p0, dtype=float), embed(np.eye(3))])
    return spec, x0, spec.phi0(x0)


def test_seeker_builder_default_start():
    p0 = np.asarray(DEFAULTS["sweep"]["p0"], dtype=float)
    assert np.array_equal(p0, np.array([6.0, 2.0, -2.0]))
    fld = field_by_name("log")
    spec, x0, y0 = _seeker_sweep_start(fld, p0)
    assert np.array_equal(x0[0:3], p0)
    assert np.array_equal(x0[3:12], np.eye(3).T.reshape(9))
    c0 = fld.c(p0)
    assert np.array_equal(y0, np.array([c0, c0]))
    assert spec.n == 12 and spec.m == 2


def test_seeker_builder_custom_start():
    p0 = np.array([1.0, 1.0, 1.0])
    _, x0, y0 = _seeker_sweep_start(field_by_name("quadratic"), p0)
    assert np.array_equal(x0[0:3], p0)
    assert np.array_equal(y0, np.array([-1.5, -1.5]))


def test_field_by_name_lookup():
    assert field_by_name("log").name == "log"
    assert field_by_name("quadratic").name == "quadratic"
    with pytest.raises(ConfigurationError, match="choices"):
        field_by_name("gaussian")


# ------------------------------------------------------ phase-field contract

_PHASES = np.concatenate([np.linspace(0.0, 2.0 * np.pi, 17), [-3.1, 9.7, 40.2]])
_FIELDS = ("f1", "f2", "g1", "g2", "df1_dy", "dg1_dy")


def _builtin_specs():
    specs = [linear_benchmark().spec, bracket_benchmark().spec]
    specs += [as_system_spec(fld) for fld in builtin_fields().values()]
    return specs


_SPEC_IDS = ["linear-benchmark", "bracket-benchmark"]
_SPEC_IDS += [f"seeker-{name}" for name in builtin_fields()]


@pytest.mark.parametrize("spec", _builtin_specs(), ids=_SPEC_IDS)
def test_spec_fields_on_phase_arrays_match_scalar_calls(spec):
    rng = np.random.default_rng(3)
    if spec.n == 12:
        x = np.concatenate([rng.normal(size=3), embed(exp_so3(rng.normal(size=3)))])
    else:
        x = rng.normal(size=spec.n)
    y = rng.normal(size=spec.m)
    shapes = {"f1": (spec.n,), "f2": (spec.n,), "g1": (spec.m,), "g2": (spec.m,),
              "df1_dy": (spec.n, spec.m), "dg1_dy": (spec.m, spec.m)}
    for name in _FIELDS:
        field = getattr(spec, name)
        if field is None:
            continue
        scalar = [np.asarray(field(x, y, float(t))) for t in _PHASES]
        assert all(v.shape == shapes[name] for v in scalar), name
        block = np.asarray(field(x, y, _PHASES))
        assert block.shape == (_PHASES.shape[0],) + shapes[name], name
        np.testing.assert_array_max_ulp(block, np.stack(scalar), maxulp=4)


@pytest.mark.parametrize("case", [bvp_cosine_case(), bvp_jordan_case()], ids=lambda c: c.name)
def test_bvp_sources_on_phase_arrays_match_scalar_calls(case):
    m = case.A.shape[0]
    scalar = [np.asarray(case.b(None, float(t))) for t in _PHASES]
    assert all(v.shape == (m,) for v in scalar)
    block = np.asarray(case.b(None, _PHASES))
    assert block.shape == (_PHASES.shape[0], m)
    np.testing.assert_array_max_ulp(block, np.stack(scalar), maxulp=4)
