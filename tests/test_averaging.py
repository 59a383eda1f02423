"""Tests for corrector construction, periodic BVP solve, and averaging.

Oracles: closed-form periodic solutions (cosine and Jordan-block
correctors, derived by matching trig coefficients), a forward-integration
check that is independent of the solver's mode solves, the Simpson
variation-of-constants formula the spectral solve replaced (fourth-order
convergent to it), the closed-form first corrector of the seeker loop,
benchmark systems whose averages are exact, and a full run that stays
within O(omega^-3/2) of the corrected manifold.
"""

import dataclasses

import numpy as np
import pytest

from twoscale.averaging import (
    AveragedSystem,
    CorrectorSolution,
    _contract,
    _dy_jacobian,
    average,
    build_b,
    build_bundle,
    build_reduced,
    residual_bvp,
    solve_periodic_bvp,
    values_at,
)
from twoscale.benchmarks import bvp_cosine_case, bvp_jordan_case, linear_benchmark
from twoscale.errors import ConfigurationError, DimensionError
from twoscale.numkit import TimeGrid, integrate_rk4, jacobian_fd, mat_exp, quad_periodic, simpson_rule
from twoscale.seeker import as_system_spec, builtin_fields
from twoscale.so3 import embed, exp_so3
from twoscale.system import OscillatorySystemSpec, assemble_full_field, grid_terms

from oracles import assembled, bracket_benchmark, bvp_exact, stencil_residual

TWO_PI = 2.0 * np.pi


def per_state(x, values):
    """Phase values that do not depend on the state: the values at a state,
    and the same values for each state of a block."""
    return np.broadcast_to(values, np.shape(x)[:-1] + np.shape(values))


def scalar_spec(**overrides):
    # phi0, f1 and g1 take a state or a block of states (the block contract)
    kwargs = dict(
        n=1,
        m=1,
        T=TWO_PI,
        A=np.array([[-1.0]]),
        phi0=lambda x: x[..., 0:1],
        f1=lambda x, y, tau: per_state(x, np.sin(tau)[..., None]),
        f2=lambda x, y, tau: np.zeros(np.shape(tau) + (1,)),
        g1=lambda x, y, tau: per_state(x, np.cos(tau)[..., None]),
        g2=lambda x, y, tau: np.zeros(np.shape(tau) + (1,)),
    )
    kwargs.update(overrides)
    return OscillatorySystemSpec(**kwargs)


# --------------------------------------------------------------- source terms


def test_first_source_subtracts_transported_drive():
    # b1 = g1 - Dphi0 f1; with phi0(x) = x the transport is f1 itself
    spec = scalar_spec()
    b1 = build_b(spec, 1)
    x = np.array([0.4])
    for tau in (0.0, 0.7, 2.9, 5.5):
        expected = np.cos(tau) - np.sin(tau)
        assert abs(b1(x, tau)[0] - expected) < 1e-9


def test_first_source_grid_sampling_matches_point_calls():
    spec = scalar_spec()
    b1 = build_b(spec, 1)
    x = np.array([-1.1])
    taus = np.linspace(0.0, TWO_PI, 17)
    grid_vals = values_at(b1, x, taus)
    point_vals = np.stack([b1(x, t) for t in taus])
    assert np.max(np.abs(grid_vals - point_vals)) < 1e-12


def test_build_b_validates_order():
    spec = scalar_spec()
    with pytest.raises(ConfigurationError):
        build_b(spec, 3)
    with pytest.raises(ConfigurationError):
        build_b(spec, 0)
    with pytest.raises(ConfigurationError):
        build_b(spec, 2)  # order 2 needs phi1


# ----------------------------------------------------------- periodic solve


def test_cosine_corrector_matches_closed_form():
    case = bvp_cosine_case()
    exact = bvp_exact(case.name)
    phi = solve_periodic_bvp(case.A, case.b, case.T, n_panels=256)
    taus = np.linspace(0.0, TWO_PI, 37)
    worst = max(
        abs(phi(None, t)[0] - exact(t)[0]) for t in taus
    )
    assert worst < 1e-8


def test_jordan_corrector_matches_closed_form():
    case = bvp_jordan_case()
    exact = bvp_exact(case.name)
    phi = solve_periodic_bvp(case.A, case.b, case.T, n_panels=256)
    taus = np.linspace(0.0, TWO_PI, 29)
    worst = max(
        float(np.max(np.abs(phi(None, t) - exact(t)))) for t in taus
    )
    assert worst < 1e-8


def test_jordan_corrector_against_forward_integration():
    # independent oracle: integrate dphi/dtau = A phi + b forward from the
    # claimed phi(0); the flow must track the claimed solution and return
    # to its start after one period
    case = bvp_jordan_case()
    phi = solve_periodic_bvp(case.A, case.b, case.T, n_panels=256)
    start = phi(None, 0.0)

    def field(tau, v):
        return case.A @ v + case.b(None, np.array([tau]))[0]

    grid = TimeGrid(t0=0.0, dt=case.T / 4096, n_steps=4096)
    times, states = integrate_rk4(field, start, grid)
    # the return gap is the integrator's own error (the flow contracts, it
    # cannot amplify an error in the start)
    assert np.max(np.abs(states[-1] - start)) < 1e-7
    for k in range(0, 4097, 512):
        claimed = phi(None, float(times[k]))
        assert np.max(np.abs(states[k] - claimed)) < 1e-8


def test_zero_source_gives_zero_corrector():
    def zero(x, taus):
        return np.zeros(np.shape(taus) + (1,))

    phi = solve_periodic_bvp(np.array([[-1.0]]), zero, TWO_PI, n_panels=64)
    assert np.max(np.abs(phi(None, 1.3))) == 0.0
    assert residual_bvp(phi, np.array([[-1.0]]), zero, TWO_PI) == 0.0


def test_solver_rejects_resonant_layer_matrix():
    # exp(T A) = I for a full-turn rotation generator, so I - exp(T A)
    # is singular and no unique periodic solution exists
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ConfigurationError, match="Hurwitz"):
        solve_periodic_bvp(A, lambda x, tau: np.array([np.cos(tau), 0.0]), TWO_PI, 256)


def test_corrector_values_at_grid_fast_path_matches_point_calls():
    case = bvp_jordan_case()
    phi = solve_periodic_bvp(case.A, case.b, case.T, n_panels=64)
    h = case.T / 64
    offset = 0.3
    taus = offset + h * np.arange(20)
    fast = phi.values_at(None, taus)
    slow = np.stack([phi(None, float(t)) for t in taus])
    assert np.max(np.abs(fast - slow)) < 1e-12
    # non-uniform phases fall back to the point loop
    ragged = np.array([0.0, 0.5, 1.7, 4.0])
    vals = phi.values_at(None, ragged)
    ref = np.stack([phi(None, float(t)) for t in ragged])
    assert np.array_equal(vals, ref)


@pytest.mark.parametrize("N", [8, 512])
@pytest.mark.parametrize("m", [1, 2])
def test_grid_sweep_matches_explicit_circular_sum(N, m):
    # per-mode oracle: the DFT of the samples as explicit sums, one
    # np.linalg.solve of (i k w0 I - A) phi_k = beta_k per mode, and the
    # inverse DFT as explicit sums; the Nyquist mode keeps its real part
    rng = np.random.default_rng(N + m)
    A = -np.eye(m) + 0.4 * rng.uniform(-1.0, 1.0, (m, m))
    coef = rng.normal(size=(4, m))

    def b(x, tau):
        tau = np.asarray(tau)[..., None]
        return coef[0] + coef[1] * np.cos(tau) + coef[2] * np.sin(2.0 * tau) + coef[3] * np.cos(3.0 * tau)

    phi = CorrectorSolution(A, b, TWO_PI, n_panels=N)
    offset = 0.37
    beta = b(None, offset + phi.h * np.arange(N))
    w0 = TWO_PI / phi.T
    j = np.arange(N)
    phi_hat = np.empty((N, m), dtype=complex)
    for k in range(N):
        beta_k = np.exp(-2j * np.pi * j * k / N) @ beta
        freq = k if k <= N // 2 else k - N
        phi_hat[k] = np.linalg.solve(1j * freq * w0 * np.eye(m) - A, beta_k)
    ref = np.empty((N, m))
    for l in range(N):
        ref[l] = (np.exp(2j * np.pi * l * j / N) @ phi_hat).real / N
    vals = phi.values_on_grid(None, offset)
    assert vals.shape == (N + 1, m)
    assert np.max(np.abs(vals[:N] - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(vals[N], vals[0])


def _simpson_propagator_corrector(A, b, T, N):
    """The Simpson variation-of-constants corrector the mode solves replaced,
    on the grid phases k T / N: phi(tau) = (I - e^{T A})^{-1} times the
    composite-Simpson integral of e^{(T - s) A} b(s + tau) over [0, T]."""
    m = A.shape[0]
    nodes, weights = simpson_rule(T, N)
    step = mat_exp(A, T / N)
    E = np.empty((N + 1, m, m))
    E[N] = np.eye(m)
    for j in range(N - 1, -1, -1):
        E[j] = E[j + 1] @ step
    C = weights[:, None, None] * E
    C[0] += C[N]  # nodes 0 and T hit the same phase
    PC = np.linalg.solve(np.eye(m) - E[0], np.eye(m)) @ C[:N]
    beta = b(None, nodes[:N])
    shifted = beta[(np.arange(N)[:, None] + np.arange(N)) % N]
    return np.einsum("lij,klj->ki", PC, shifted)


def _random_hurwitz_case():
    rng = np.random.default_rng(7)
    M = rng.uniform(-1.0, 1.0, (3, 3))
    A = M - (float(np.max(np.linalg.eigvals(M).real)) + 0.5) * np.eye(3)
    coef = rng.uniform(-1.0, 1.0, (7, 3))
    k = np.arange(1, 4)

    def b(x, tau):
        phase = np.multiply.outer(tau, k)
        return coef[0] + np.cos(phase) @ coef[1:4] + np.sin(phase) @ coef[4:]

    return A, b, TWO_PI


@pytest.mark.parametrize("name", ["cosine-1d", "jordan-2d", "random-hurwitz"])
def test_simpson_formula_converges_to_mode_solve_at_fourth_order(name):
    cases = {c.name: (np.asarray(c.A, dtype=float), c.b, c.T) for c in (bvp_cosine_case(), bvp_jordan_case())}
    A, b, T = cases[name] if name in cases else _random_hurwitz_case()
    errors = []
    for N in (16, 32, 64, 128):
        spectral = CorrectorSolution(A, b, T, n_panels=N).values_on_grid(None)[:N]
        errors.append(np.max(np.abs(_simpson_propagator_corrector(A, b, T, N) - spectral)))
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 12.0, errors


@pytest.mark.parametrize("N", [8, 16])
@pytest.mark.parametrize("case", [bvp_cosine_case(), bvp_jordan_case()], ids=lambda c: c.name)
def test_mode_solve_matches_closed_forms_to_rounding(case, N):
    # the Simpson formula was off by 3.7e-4 (cosine) and 5.8e-4 (Jordan) at 16
    phi = CorrectorSolution(case.A, case.b, case.T, n_panels=N)
    for tau in np.linspace(0.0, TWO_PI, 29):
        assert np.max(np.abs(phi(None, tau) - bvp_exact(case.name)(tau))) < 1e-14


def test_nearly_singular_hurwitz_layer_is_accepted():
    # the zero mode's singular value 1e-11 clears the 1e-12 floor
    phi = CorrectorSolution(np.array([[-1e-11]]), lambda x, tau: np.cos(tau)[..., None], TWO_PI, 16)
    assert np.all(np.isfinite(phi.values_on_grid(None)))


def test_a_layer_below_the_singular_value_floor_is_refused():
    # the zero mode's singular value 5e-13 is under the 1e-12 floor, though
    # its condition (one singular value) is perfect
    with pytest.raises(ConfigurationError, match="numerically singular at mode k = 0"):
        CorrectorSolution(np.array([[-5e-13]]), lambda x, tau: np.cos(tau)[..., None], TWO_PI, 16)


def test_corrector_periodicity_and_large_phase():
    case = bvp_cosine_case()
    phi = solve_periodic_bvp(case.A, case.b, case.T, n_panels=128)
    for tau in (0.0, 1.1, 3.7):
        a = phi(None, tau)
        b = phi(None, tau + case.T)
        c = phi(None, tau + 50.0 * case.T)
        assert np.max(np.abs(a - b)) < 1e-12
        assert np.max(np.abs(a - c)) < 1e-9


# -------------------------------------------------------------- residual_bvp


def test_residual_small_for_solved_correctors():
    for case in (bvp_cosine_case(), bvp_jordan_case()):
        phi = solve_periodic_bvp(case.A, case.b, case.T, n_panels=256)
        res = residual_bvp(phi, case.A, case.b, case.T)
        assert res < 1e-6, case.name


def test_residual_flags_corrupted_candidate():
    case = bvp_cosine_case()
    phi = solve_periodic_bvp(case.A, case.b, case.T, n_panels=256)

    def doubled(x, taus):
        return 2.0 * phi.values_at(x, taus)

    res = residual_bvp(doubled, case.A, case.b, case.T)
    assert res > 0.1

    # mis-shaped values would broadcast (N, 1, 1) - (N, 1) to (N, N, 1)
    # and return a plausible number; each must raise instead
    def extra_axis(x, taus):
        return phi.values_at(x, taus)[..., None]

    def flat(x, taus):
        return np.cos(taus)

    with pytest.raises(DimensionError):
        residual_bvp(extra_axis, case.A, case.b, case.T, n_panels=64)
    with pytest.raises(DimensionError):
        residual_bvp(phi, case.A, flat, case.T, n_panels=64)


def test_residual_flags_wrong_matrix():
    case = bvp_cosine_case()
    phi = solve_periodic_bvp(case.A, case.b, case.T, n_panels=256)
    res = residual_bvp(phi, np.array([[-2.0]]), case.b, case.T)
    assert res > 0.1


def test_residual_reads_the_exact_solution_to_rounding():
    # the spectral derivative is exact on a trig polynomial the grid
    # resolves, so the exact corrector reads rounding at 8 panels as at
    # 256, where the stencil oracle reads its own truncation error
    case = bvp_cosine_case()

    def exact_phi(x, taus):
        return bvp_exact(case.name)(taus).T

    for n_panels in (8, 256):
        assert residual_bvp(exact_phi, case.A, case.b, case.T, n_panels=n_panels) < 1e-13
    assert stencil_residual(exact_phi, case.A, case.b, case.T, n_panels=256) < 1e-8
    assert 1e-4 < stencil_residual(exact_phi, case.A, case.b, case.T, n_panels=8) < 1.0


@pytest.mark.parametrize("case", [bvp_cosine_case(), bvp_jordan_case()], ids=lambda c: c.name)
def test_stencil_oracle_converges_to_the_spectral_residual(case):
    # the fourth-order stencil differs from the spectral residual by its
    # truncation error alone: about 16 times less per doubling of the grid
    gaps = []
    for n_panels in (64, 128, 256, 512):
        phi = solve_periodic_bvp(case.A, case.b, case.T, n_panels=n_panels)
        spectral = residual_bvp(phi, case.A, case.b, case.T)
        assert spectral < 1e-12
        gaps.append(stencil_residual(phi, case.A, case.b, case.T) - spectral)
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    assert all(15.0 < r < 17.0 for r in ratios), ratios


def test_residual_panel_validation():
    case = bvp_cosine_case()
    phi = solve_periodic_bvp(case.A, case.b, case.T, n_panels=64)
    with pytest.raises(ConfigurationError):
        residual_bvp(phi, case.A, case.b, case.T, n_panels=7)
    with pytest.raises(ConfigurationError):
        residual_bvp(phi, case.A, case.b, case.T, n_panels=4)


def _two_point_residual(phi, A, b, T, x=None, n_panels=None):
    """residual_bvp as it was before its one-sweep form: the gap from two
    one-phase samples at 0 and T."""
    A = np.asarray(A, dtype=float)
    if n_panels is None:
        n_panels = phi.n_panels if isinstance(phi, CorrectorSolution) else 256
    h = float(T) / n_panels
    taus = h * np.arange(n_panels)
    V = values_at(phi, x, taus)
    B = values_at(b, x, taus)
    ik = (1j * (2.0 * np.pi / T)) * np.arange(n_panels // 2 + 1)
    ik[-1] = 0.0
    dV = np.fft.irfft(ik[:, None] * np.fft.rfft(V, axis=0), n=n_panels, axis=0)
    defect = float(np.max(np.abs(dV - V @ A.T - B)))
    gap = float(
        np.max(np.abs(values_at(phi, x, np.array([0.0])) - values_at(phi, x, np.array([T]))))
    )
    return defect + gap


@pytest.mark.parametrize(
    "candidate", ["doubled", "exact-8", "exact-100", "exact-256", "corrector-100"]
)
def test_residual_one_sweep_matches_two_point_formula_bit_for_bit(candidate):
    # (T / 100) * 100 != T at T = 2 pi, so the sweep's last phase must be T
    # itself for a grid callable to see the same gap
    case = bvp_cosine_case()
    n_panels = None
    if candidate == "doubled":
        phi256 = solve_periodic_bvp(case.A, case.b, case.T, n_panels=256)

        def phi(x, taus):
            return 2.0 * phi256.values_at(x, taus)
    elif candidate.startswith("exact"):
        n_panels = int(candidate.split("-")[1])

        def phi(x, taus):
            return bvp_exact(case.name)(taus).T
    else:
        phi = solve_periodic_bvp(case.A, case.b, case.T, n_panels=100)
    new = residual_bvp(phi, case.A, case.b, case.T, n_panels=n_panels)
    old = _two_point_residual(phi, case.A, case.b, case.T, n_panels=n_panels)
    assert np.float64(new).tobytes() == np.float64(old).tobytes()


def test_residual_default_panels_follow_the_corrector():
    case = bvp_cosine_case()
    phi = solve_periodic_bvp(case.A, case.b, case.T, n_panels=128)
    assert residual_bvp(phi, case.A, case.b, case.T) == residual_bvp(
        phi, case.A, case.b, case.T, n_panels=128
    )


# -------------------------------------------------- seeker first corrector


def test_seeker_first_corrector_matches_closed_form():
    # closed form from matching trig coefficients in the filter BVP:
    # with u_i = q_i . grad c, psi = 2 tau - c(p),
    #   phi1_1 = (u2 sin - u3 cos)/2 - (2 u1/25)(2 cos psi + 14 sin psi)
    #   phi1_2 = ((u2-u3) cos + (u2+u3) sin)/2 - (2 u1/5)(cos psi + 2 sin psi)
    fld = builtin_fields()["log"]
    spec = as_system_spec(fld)
    b1 = build_b(spec, 1)
    phi1 = solve_periodic_bvp(spec.A, b1, spec.T, n_panels=256)

    p = np.array([1.0, -2.0, 0.5])
    Q = exp_so3(np.array([0.4, -0.3, 0.9]))
    x = np.concatenate([p, embed(Q)])
    g = fld.grad(p)
    u1, u2, u3 = (float(Q[:, i] @ g) for i in range(3))
    cval = float(fld.c(p))

    worst = 0.0
    for tau in np.linspace(0.0, TWO_PI, 23):
        psi = 2.0 * tau - cval
        expected = np.array([
            0.5 * (u2 * np.sin(tau) - u3 * np.cos(tau))
            - (2.0 * u1 / 25.0) * (2.0 * np.cos(psi) + 14.0 * np.sin(psi)),
            0.5 * ((u2 - u3) * np.cos(tau) + (u2 + u3) * np.sin(tau))
            - (2.0 * u1 / 5.0) * (np.cos(psi) + 2.0 * np.sin(psi)),
        ])
        worst = max(worst, float(np.max(np.abs(phi1(x, tau) - expected))))
    assert worst < 1e-7


def test_seeker_second_corrector_satisfies_its_bvp():
    fld = builtin_fields()["log"]
    spec = as_system_spec(fld)
    bundle = build_bundle(spec, n_panels=256)
    p = np.array([2.0, 1.0, -1.5])
    x = np.concatenate([p, embed(np.eye(3))])
    res = residual_bvp(bundle.phi2, spec.A, bundle.phi2.b, spec.T, x=x)
    assert res < 1e-6


# ------------------------------------------------------------ reduced system


def test_reduced_sqrt_field_has_zero_phase_mean():
    fld = builtin_fields()["quadratic"]
    spec = as_system_spec(fld)
    bundle = build_bundle(spec, n_panels=128)
    x = np.concatenate([np.array([1.0, 2.0, -1.0]), embed(exp_so3(np.array([0.2, 0.1, -0.4])))])
    mean = quad_periodic(lambda s: bundle.reduced.f1_tilde(x, s), spec.T, 256) / spec.T
    assert np.max(np.abs(mean)) < 1e-10


def test_reduced_order_one_field_unchanged_when_f1_ignores_fast_state():
    # df1/dy = 0 makes the corrector coupling vanish, so f2_tilde is just
    # f2 on the manifold
    spec = scalar_spec(f2=lambda x, y, tau: np.array([x[0] + np.cos(tau)]).T)
    phi1 = solve_periodic_bvp(spec.A, build_b(spec, 1), spec.T, 128)
    reduced = build_reduced(spec, phi1)
    x = np.array([0.7])
    for tau in (0.0, 1.0, 4.0):
        assert abs(reduced.f2_tilde(x, tau)[0] - (0.7 + np.cos(tau))) < 1e-9


def test_reduced_grid_values_match_point_evaluations():
    fld = builtin_fields()["log"]
    spec = as_system_spec(fld)
    bundle = build_bundle(spec, n_panels=64)
    x = np.concatenate([np.array([0.5, -1.0, 2.0]), embed(np.eye(3))])
    taus = (spec.T / 64) * np.arange(64)
    F1 = bundle.reduced.f1_values(x, taus)
    F2 = bundle.reduced.f2_values(x, taus)
    for k in (0, 10, 33):
        assert np.max(np.abs(F1[k] - bundle.reduced.f1_tilde(x, float(taus[k])))) < 1e-12
        assert np.max(np.abs(F2[k] - bundle.reduced.f2_tilde(x, float(taus[k])))) < 1e-9


def test_fd_jacobian_fallbacks_match_analytic_jacobians():
    # the seeker spec without df1_dy/dg1_dy takes central differences of
    # f1 and g1 over the whole phase grid; f1 and g1 are linear in y, so
    # the differences agree with the analytic Jacobians to rounding
    spec = as_system_spec(builtin_fields()["log"])
    bare = dataclasses.replace(spec, df1_dy=None, dg1_dy=None)
    x = np.concatenate([np.array([1.5, -0.5, 2.0]), embed(exp_so3(np.array([0.3, 0.8, -0.2])))])
    taus = (spec.T / 64) * np.arange(64)
    results = []
    for s in (spec, bare):
        bundle = build_bundle(s, n_panels=64)
        results.append((
            bundle.reduced.f2_values(x, taus),
            bundle.phi2.b.values_at(x, taus),
            bundle.averaged.fbar(x),
        ))
    for analytic, fd in zip(*results):
        assert np.max(np.abs(fd - analytic)) < 1e-8 * (1.0 + np.max(np.abs(analytic)))


def test_dy_jacobian_falls_back_field_by_field():
    # without dg1_dy only the g1 rows of D_y F1 are differences: f2_tilde
    # and the second corrector's source still call the spec's df1_dy
    spec = as_system_spec(builtin_fields()["log"])
    calls = []

    def counted_df1_dy(x, y, tau):
        calls.append(tau)
        return spec.df1_dy(x, y, tau)

    half = dataclasses.replace(spec, df1_dy=counted_df1_dy, dg1_dy=None)
    x = np.concatenate([np.array([1.5, -0.5, 2.0]), embed(exp_so3(np.array([0.3, 0.8, -0.2])))])
    taus = (spec.T / 64) * np.arange(64)
    analytic, mixed = build_bundle(spec, n_panels=64), build_bundle(half, n_panels=64)
    for read in (
        lambda bundle: bundle.reduced.f2_values(x, taus),
        lambda bundle: bundle.phi2.b.values_at(x, taus),
    ):
        expected = read(analytic)
        before = len(calls)
        got = read(mixed)
        assert len(calls) > before
        assert np.max(np.abs(got - expected)) < 1e-8 * (1.0 + np.max(np.abs(expected)))


def test_results_do_not_depend_on_the_memory_order_of_the_terms():
    # the seeker's terms stack transposed, column-major grids; C-ordered
    # copies of the same values must give the same bits
    spec = as_system_spec(builtin_fields()["log"])

    def c_ordered_terms(x, y, tau, order_one=True):
        F1, F2 = spec.terms(x, y, tau, order_one)
        return np.ascontiguousarray(F1), None if F2 is None else np.ascontiguousarray(F2)

    bundles = [
        build_bundle(s, n_panels=256)
        for s in (spec, dataclasses.replace(spec, terms=c_ordered_terms))
    ]
    grid = (spec.T / 256) * np.arange(256)
    for x in _seeker_states(5, 23):
        reads = [
            (b.phi2.b.values_at(x, grid), b.reduced.f2_values(x, grid), b.averaged.fbar(x))
            for b in bundles
        ]
        for native, copied in zip(*reads):
            assert np.array_equal(native, copied)


def test_second_corrector_makes_the_corrected_manifold_invariant_to_third_order():
    # f1 = sin(tau) y couples the slow drift to phi1, so phi2's source
    # needs the tilt term -Dphi0 D_y f1 phi1: a run started on
    # y = phi0 + eps phi1 + eps^2 phi2 (eps = omega^-1/2) then stays within
    # O(eps^3) of it, and the distance shrinks 8x per 4x in omega
    spec = assembled(scalar_spec(f1=lambda x, y, tau: (np.sin(tau) * y[..., 0:1])[..., None]))
    bundle = build_bundle(spec, n_panels=64)

    def manifold(x, tau, eps):
        return spec.phi0(x) + eps * bundle.phi1(x, tau) + eps**2 * bundle.phi2(x, tau)

    x0 = np.array([0.3])
    t_f = 0.1
    distances = []
    for omega in (100.0, 400.0, 1600.0):
        eps = omega**-0.5
        n_steps = int(round(100 * t_f * omega / spec.T))
        times, states = integrate_rk4(
            assemble_full_field(spec, omega),
            np.concatenate([x0, manifold(x0, 0.0, eps)]).tolist(),
            TimeGrid(t0=0.0, dt=t_f / n_steps, n_steps=n_steps),
        )
        rows = np.linspace(0, n_steps, 40).astype(int)
        distances.append(max(
            abs(states[r, 1] - manifold(states[r, :1], omega * times[r], eps)[0]) for r in rows
        ))
    assert distances[0] / distances[1] > 6.0 and distances[1] / distances[2] > 6.0, distances


# Oracles for the two slow-state central differences, written out as
# explicit loops over the slow coordinates: step cbrt(eps) * (1 + |x_j|),
# columns written into preallocated C-ordered arrays, and fbar's bracket
# as the Parseval sum over the modes of f1 and of its difference quotients.
# phi1 is linear in its source, so b2's D_x phi1 is the corrector solve of
# b1's difference quotients, each column solved alone.

_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


def _loop_fbar(averaged, x):
    red = averaged.reduced
    N, n = red.phi1.n_panels, red.spec.n
    taus = (red.spec.T / N) * np.arange(N)
    # a C-ordered copy of the column-major f1 grid: fbar's bits must not
    # depend on the grid's memory layout
    G = np.ascontiguousarray(red.f1_values(x, taus))
    dG = np.empty((N, n, n))
    for j in range(n):
        hj = _FD_STEP * (1.0 + abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += hj
        xm[j] -= hj
        dG[:, :, j] = (red.f1_values(xp, taus) - red.f1_values(xm, taus)) / (2.0 * hj)
    k = np.arange(1, N // 2 + 1)
    w = np.where(k < N // 2, 2.0, 1.0) * 2.0 / (k * (TWO_PI / red.spec.T) * N**2)
    modes = _contract(np.fft.rfft(dG, axis=0)[1:], np.conj(np.fft.rfft(G, axis=0)[1:]))
    return np.mean(red.f2_values(x, taus), axis=0) - 0.5 * (w @ modes.imag)


def _solve_alone(phi, beta):
    """One source's corrector on phi's grid, (N, m) -> (N + 1, m): one
    rfft, the mode inverses, one irfft, the first row repeated."""
    vals = np.fft.irfft(_contract(phi._inv, np.fft.rfft(beta, axis=0)), n=phi.n_panels, axis=0)
    return np.vstack([vals, vals[:1]])


def _rows_at(phi, on_grid, taus):
    """The corrector's phase dispatch: one grid for a grid-aligned phase
    set, else row 0 of a grid at each phase."""
    if np.allclose(np.diff(taus), phi.h, rtol=0.0, atol=1e-12):
        return on_grid(float(taus[0]))[: taus.shape[0]]
    return np.stack([on_grid(float(t))[0] for t in taus])


def _loop_dphi1(phi1, x, taus):
    """D_x phi1: b1 differenced per coordinate, each column solved alone."""
    N, m, n = phi1.n_panels, phi1.m, x.shape[0]

    def on_grid(offset):
        grid = offset % phi1.T + (phi1.T / N) * np.arange(N)
        out = np.empty((N + 1, m, n))
        for j in range(n):
            hj = _FD_STEP * (1.0 + abs(x[j]))
            xp = x.copy()
            xm = x.copy()
            xp[j] += hj
            xm[j] -= hj
            dB = (phi1.b.values_at(xp, grid) - phi1.b.values_at(xm, grid)) / (2.0 * hj)
            out[:, :, j] = _solve_alone(phi1, dB)
        return out

    return _rows_at(phi1, on_grid, taus)


def _old_order_dphi1(phi1, x, taus):
    """D_x phi1 the way round b2 used to take it: solve phi1 at each
    perturbed state, then difference."""
    dphi1 = np.empty((taus.shape[0], phi1.m, x.shape[0]))
    for j in range(x.shape[0]):
        hj = _FD_STEP * (1.0 + abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += hj
        xm[j] -= hj
        dphi1[:, :, j] = (phi1.values_at(xp, taus) - phi1.values_at(xm, taus)) / (2.0 * hj)
    return dphi1


def _loop_b2(source, x, taus, dphi1_of=_loop_dphi1):
    spec, phi1 = source.spec, source.phi1
    n = spec.n
    y0 = np.asarray(spec.phi0(x), dtype=float)
    D0 = spec.phi0_jacobian(x)
    phi1_vals = phi1.values_at(x, taus)
    dphi1 = dphi1_of(phi1, x, taus)
    F1, F2 = grid_terms(spec, x, y0, taus)
    H = F2 + _contract(_dy_jacobian(spec, x, y0, taus), phi1_vals)
    return H[:, n:] - H[:, :n] @ D0.T - _contract(dphi1, F1[:, :n])


def _seeker_states(count, seed):
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        p = float(rng.uniform(1.5, 5.0)) * direction
        states.append(np.concatenate([p, embed(exp_so3(rng.uniform(-np.pi, np.pi, size=3)))]))
    return states


def _fd_oracle_case(name):
    log = as_system_spec(builtin_fields()["log"])
    if name == "log":
        return log, _seeker_states(5, 21)
    if name == "bracket":
        return bracket_benchmark().spec, [np.array([0.3, 1.2]), np.array([-1.0, 0.5])]
    # no analytic df1_dy/dg1_dy: the fast-state Jacobians are differences too
    return dataclasses.replace(log, df1_dy=None, dg1_dy=None), _seeker_states(2, 22)


@pytest.mark.parametrize("name", ["log", "bracket", "log-without-dy-jacobians"])
def test_fd_jacobians_match_coordinate_loops_bit_for_bit(name):
    spec, states = _fd_oracle_case(name)
    bundle = build_bundle(spec, n_panels=256)
    source = bundle.phi2.b
    grid = (spec.T / 256) * np.arange(256)
    for x in states:
        assert np.array_equal(bundle.averaged.fbar(x), _loop_fbar(bundle.averaged, x)), name
        assert np.array_equal(source.values_at(x, grid), _loop_b2(source, x, grid)), name
        # an off-grid phase set takes the point-by-point corrector path
        odd = np.array([0.1, 1.7, 4.4])
        assert np.array_equal(source.values_at(x, odd), _loop_b2(source, x, odd)), name


@pytest.mark.parametrize("name", ["log", "bracket", "log-without-dy-jacobians"])
def test_second_source_matches_the_solve_then_difference_order(name):
    # differencing b1 and then solving rounds apart from solving phi1 at
    # each perturbed state and then differencing; the two agree to 1e-9
    spec, states = _fd_oracle_case(name)
    bundle = build_bundle(spec, n_panels=256)
    source = bundle.phi2.b
    grid = (spec.T / 256) * np.arange(256)
    for x in states:
        for taus in (grid, np.array([0.1, 1.7, 4.4])):
            old = _loop_b2(source, x, taus, dphi1_of=_old_order_dphi1)
            err = np.max(np.abs(source.values_at(x, taus) - old))
            assert err <= 1e-9 * np.max(np.abs(old)), (name, err)


def test_stacked_corrector_solve_equals_per_column_solves_bit_for_bit():
    bundle = build_bundle(as_system_spec(builtin_fields()["log"]), n_panels=256)
    phi1 = bundle.phi1
    rng = np.random.default_rng(23)
    for x in _seeker_states(2, 24):
        sources = [
            jacobian_fd(lambda w: phi1._sample_b(w, 0.3), x),
            rng.standard_normal((256, 2, 5)),
        ]
        for beta in sources:
            stacked = phi1._solve(beta)
            assert stacked.shape == (257, 2, beta.shape[-1])
            # the source's memory layout must not set the bits
            assert np.array_equal(phi1._solve(np.asfortranarray(beta)), stacked)
            for j in range(beta.shape[-1]):
                assert np.array_equal(stacked[..., j], phi1._solve(beta[..., j]))
                assert np.array_equal(stacked[..., j], _solve_alone(phi1, beta[..., j]))


# ---------------------------------------------------------------- averaging


def test_bracket_benchmark_average_is_exact_form():
    bench = bracket_benchmark()
    bundle = build_bundle(bench.spec, n_panels=256)
    for x in (np.array([0.3, 1.2]), np.array([-1.0, 0.5]), np.array([2.0, -2.0])):
        fbar = bundle.averaged.fbar(x)
        assert np.max(np.abs(fbar - bench.fbar_exact(x))) < 1e-6


def test_bracket_benchmark_average_is_exact_at_eight_panels():
    # the Simpson-weighted average with running integrals was off by 1.8e-2
    bench = bracket_benchmark()
    bundle = build_bundle(bench.spec, n_panels=8)
    for x in (np.array([0.3, 1.2]), np.array([-1.0, 0.5]), np.array([2.0, -2.0])):
        assert np.max(np.abs(bundle.averaged.fbar(x) - bench.fbar_exact(x))) < 1e-9


def test_linear_benchmark_average_is_matrix_action():
    bench = linear_benchmark()
    bundle = build_bundle(bench.spec, n_panels=256)
    for x in (np.array([1.0, 0.5]), np.array([-0.4, 1.3])):
        fbar = bundle.averaged.fbar(x)
        assert np.max(np.abs(fbar - bench.Mbar @ x)) < 1e-7


def test_average_without_sqrt_field_is_plain_phase_mean():
    # no f1 means no bracket: fbar is the phase mean of f2 on the manifold
    spec = scalar_spec(
        f1=lambda x, y, tau: np.zeros(np.shape(x)[:-1] + np.shape(tau) + (1,)),
        f2=lambda x, y, tau: np.array([x[0] + np.cos(tau) ** 2]).T,
    )
    bundle = build_bundle(spec, n_panels=128)
    x = np.array([0.25])
    assert abs(bundle.averaged.fbar(x)[0] - (0.25 + 0.5)) < 1e-9


def test_average_quadrature_panel_stability():
    # the average takes its phase grid from phi1, so each count builds its own
    bench = bracket_benchmark()
    coarse, fine = (
        average(build_reduced(bench.spec, solve_periodic_bvp(
            bench.spec.A, build_b(bench.spec, 1), bench.spec.T, N)))
        for N in (256, 512)
    )
    x = np.array([0.8, -1.1])
    assert np.max(np.abs(coarse.fbar(x) - fine.fbar(x))) < 5e-8


def test_bundle_wires_the_pipeline_together():
    bench = bracket_benchmark()
    bundle = build_bundle(bench.spec, n_panels=64)
    assert isinstance(bundle.phi1, CorrectorSolution)
    assert isinstance(bundle.phi2, CorrectorSolution)
    assert isinstance(bundle.averaged, AveragedSystem)
    assert bundle.reduced.phi1 is bundle.phi1
    assert bundle.reduced.spec is bench.spec
    assert bundle.phi1.n_panels == bundle.phi2.n_panels == 64
