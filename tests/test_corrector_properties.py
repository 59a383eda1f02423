"""Property-based tests of the periodic corrector solver.

The hand-built cases pin the solver to closed forms; these check the
general machinery on randomly generated layer matrices and sources.  A
Hurwitz A with a trigonometric-polynomial source has a unique periodic
corrector that residual_bvp must certify, and an A whose spectrum holds
the resonant pair +-i at period 2 pi must be refused.  Runs are
derandomized, so every run checks the same examples.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twoscale.averaging import residual_bvp, solve_periodic_bvp
from twoscale.errors import ConfigurationError

TWO_PI = 2.0 * np.pi

_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

_unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def hurwitz_problems(draw):
    """(A, b): A = M - (abscissa(M) + margin) I with M entries in [-1, 1],
    and b a trigonometric polynomial of degree 1 to 3 with coefficients
    in [-1, 1], following the phase-field contract."""
    m = draw(st.integers(min_value=1, max_value=3))
    M = np.array(draw(st.lists(_unit, min_size=m * m, max_size=m * m))).reshape(m, m)
    margin = draw(st.floats(min_value=0.1, max_value=1.0))
    A = M - (float(np.max(np.linalg.eigvals(M).real)) + margin) * np.eye(m)
    degree = draw(st.integers(min_value=1, max_value=3))
    size = (2 * degree + 1) * m
    coef = np.array(draw(st.lists(_unit, min_size=size, max_size=size))).reshape(2 * degree + 1, m)
    k = np.arange(1, degree + 1)

    def b(x, tau):
        phase = np.multiply.outer(tau, k)
        return coef[0] + np.cos(phase) @ coef[1 : degree + 1] + np.sin(phase) @ coef[degree + 1 :]

    return A, b


@_SETTINGS
@given(hurwitz_problems())
def test_random_hurwitz_corrector_has_small_residual(problem):
    A, b = problem
    phi = solve_periodic_bvp(A, b, TWO_PI, n_panels=512)
    assert residual_bvp(phi, A, b, TWO_PI) < 1e-6
    # degree 3 is below 16 / 2, so 16 panels already resolve every mode
    coarse = solve_periodic_bvp(A, b, TWO_PI, n_panels=16)
    assert np.max(np.abs(coarse.values_on_grid(None)[:16] - phi.values_on_grid(None)[:512:32])) < 1e-12


@st.composite
def resonant_matrices(draw):
    """S J S^-1 with J holding the rotation block of eigenvalues +-i (and,
    for m = 3, one stable eigenvalue); S = I + a perturbation in
    [-0.4, 0.4], kept to condition numbers up to 50."""
    m = draw(st.integers(min_value=2, max_value=3))
    J = np.zeros((m, m))
    J[0, 1] = 1.0
    J[1, 0] = -1.0
    if m == 3:
        J[2, 2] = -draw(st.floats(min_value=0.1, max_value=2.0))
    entries = draw(st.lists(st.floats(min_value=-0.4, max_value=0.4), min_size=m * m, max_size=m * m))
    S = np.eye(m) + np.array(entries).reshape(m, m)
    assume(np.linalg.cond(S) <= 50.0)
    return S @ J @ np.linalg.inv(S)


@_SETTINGS
@given(resonant_matrices())
def test_resonant_layer_matrix_is_refused(A):
    m = A.shape[0]

    def b(x, tau):
        return np.ones(np.shape(tau) + (m,))

    with pytest.raises(ConfigurationError, match="Hurwitz"):
        solve_periodic_bvp(A, b, TWO_PI, 256)
