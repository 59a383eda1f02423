"""Tests for the rotation-frame utilities.

Oracles are closed-form rotations (Rodrigues on coordinate axes) and
algebraic identities of the hat map and the embedding.
"""

import math

import numpy as np
import pytest

from twoscale.errors import DimensionError, ManifoldError
from twoscale.so3 import embed, exp_so3, extract, hat, manifold_residual, project_so3

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def random_rotation(rng):
    return exp_so3(rng.uniform(-np.pi, np.pi, size=3))


# ----------------------------------------------------------------- hat map


def test_hat_explicit_matrix():
    expected = np.array([
        [0.0, -3.0, 2.0],
        [3.0, 0.0, -1.0],
        [-2.0, 1.0, 0.0],
    ])
    assert np.array_equal(hat(np.array([1.0, 2.0, 3.0])), expected)


def test_hat_acts_as_cross_product():
    assert np.array_equal(hat(E1) @ E2, E3)
    assert np.array_equal(hat(E2) @ E3, E1)
    assert np.array_equal(hat(E3) @ E1, E2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        assert np.max(np.abs(hat(a) @ b - np.cross(a, b))) < 1e-15


def test_hat_zero_and_linearity():
    assert np.array_equal(hat(np.zeros(3)), np.zeros((3, 3)))
    a = np.array([0.5, -1.0, 2.0])
    b = np.array([1.5, 0.25, -0.75])
    assert np.array_equal(hat(2.0 * a + b), 2.0 * hat(a) + hat(b))


def test_hat_rejects_bad_shape():
    with pytest.raises(DimensionError):
        hat(np.zeros(2))


# ----------------------------------------------------------------- exp_so3


def test_exp_so3_zero_is_identity():
    assert np.array_equal(exp_so3(np.zeros(3)), np.eye(3))


def test_exp_so3_quarter_turn_about_e3():
    R = exp_so3((np.pi / 2.0) * E3)
    assert np.max(np.abs(R @ E1 - E2)) < 1e-12
    assert np.max(np.abs(R @ E2 + E1)) < 1e-12
    assert np.max(np.abs(R @ E3 - E3)) < 1e-12


def test_exp_so3_full_turn_is_identity():
    R = exp_so3(2.0 * np.pi * E1)
    assert np.max(np.abs(R - np.eye(3))) < 1e-10


def test_exp_so3_inverse_is_negative_argument():
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = rng.uniform(-3.0, 3.0, size=3)
        prod = exp_so3(w) @ exp_so3(-w)
        assert np.max(np.abs(prod - np.eye(3))) < 1e-12


def test_exp_so3_is_rotation_for_large_angles():
    rng = np.random.default_rng(19)
    for _ in range(25):
        w = rng.uniform(-10.0, 10.0, size=3)
        R = exp_so3(w)
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_exp_so3_small_angle_branch():
    # tiny angles exercise the series branch and must stay consistent
    # with the finite-angle formula used just above the switch point
    w = 1e-8 * np.array([1.0, -2.0, 0.5])
    R = exp_so3(w)
    expected = np.eye(3) + hat(w)  # quadratic term is ~1e-16, below roundoff
    assert np.max(np.abs(R - expected)) < 1e-15
    # continuity across the branch threshold
    for scale in (0.999e-6, 1.001e-6):
        v = scale * np.array([1.0, 0.0, 0.0])
        diff = exp_so3(v) - (np.eye(3) + hat(v) + 0.5 * (hat(v) @ hat(v)))
        assert np.max(np.abs(diff)) < 1e-18


# ---------------------------------------------------------- embed / extract


def test_embed_stacks_columns():
    Q = np.array([
        [1.0, 4.0, 7.0],
        [2.0, 5.0, 8.0],
        [3.0, 6.0, 9.0],
    ])
    assert np.array_equal(embed(Q), np.arange(1.0, 10.0))


def test_embed_extract_round_trip_is_exact():
    rng = np.random.default_rng(100)
    for _ in range(100):
        Q = random_rotation(rng)
        assert np.array_equal(extract(embed(Q)), Q)


def test_extract_validates_constraint():
    q = embed(np.eye(3))
    q[0:3] = np.array([1.0, 0.1, 0.0])  # first column no longer unit/orthogonal
    with pytest.raises(ManifoldError):
        extract(q)
    # explicit opt-out skips the check
    Q = extract(q, tol=None)
    assert Q[1, 0] == 0.1


def test_extract_rejects_bad_shape():
    with pytest.raises(DimensionError):
        extract(np.zeros(8))


# --------------------------------------------------------- manifold_residual


def test_manifold_residual_zero_on_rotations():
    rng = np.random.default_rng(5)
    for _ in range(20):
        assert manifold_residual(embed(random_rotation(rng))) < 1e-14


def test_manifold_residual_scaled_column():
    q = embed(np.eye(3))
    q[0:3] *= 1.01
    assert abs(manifold_residual(q) - 0.0201) < 1e-12


def test_manifold_residual_zero_vector():
    assert manifold_residual(np.zeros(9)) == 1.0


def test_manifold_residual_detects_reflection():
    # orthonormal but left-handed: the cross-product checks catch it
    Q = np.diag([1.0, 1.0, -1.0])
    assert manifold_residual(embed(Q)) > 1.0


def test_manifold_residual_block_matches_rows():
    # perturbed rotations, a reflection and a zero frame, as one (K, 9) block
    rng = np.random.default_rng(31)
    rows = [embed(random_rotation(rng)) + 10.0 ** rng.uniform(-16, -1) * rng.standard_normal(9)
            for _ in range(40)]
    rows += [embed(np.diag([1.0, 1.0, -1.0])), np.zeros(9)]
    block = np.array(rows)
    res = manifold_residual(block)
    assert res.shape == (block.shape[0],)
    assert np.array_equal(res, [manifold_residual(q) for q in rows])


def pairwise_residual(q):
    """Reference: every ordered column pair, through np.dot and np.cross."""
    cols = [q[0:3], q[3:6], q[6:9]]
    res = 0.0
    for i in range(3):
        for j in range(3):
            res = max(res, abs(float(np.dot(cols[i], cols[j])) - (1.0 if i == j else 0.0)))
            target = np.zeros(3)
            if i != j:
                target = (1.0 if (j - i) % 3 == 1 else -1.0) * cols[3 - i - j]
            res = max(res, float(np.max(np.abs(np.cross(cols[i], cols[j]) - target))))
    return res


def test_manifold_residual_matches_pairwise_reference():
    # the three cyclic pairs stand in for all nine; only the summation order
    # of the dot products differs, so the results agree to a few ulps of 1
    rng = np.random.default_rng(37)
    for _ in range(200):
        q = embed(random_rotation(rng)) + 10.0 ** rng.uniform(-16, -1) * rng.standard_normal(9)
        assert abs(manifold_residual(q) - pairwise_residual(q)) <= 4 * np.finfo(float).eps


def test_manifold_residual_nan_frame_is_nan():
    assert np.isnan(manifold_residual(np.full(9, np.nan)))
    q = embed(np.eye(3))
    q[0] = np.nan
    assert np.isnan(manifold_residual(q))
    assert np.isnan(manifold_residual(np.array([embed(np.eye(3)), q]))[1])


def test_manifold_residual_rejects_bad_shape():
    with pytest.raises(DimensionError):
        manifold_residual(np.zeros(8))
    with pytest.raises(DimensionError):
        manifold_residual(np.zeros((2, 2, 9)))


# -------------------------------------------------------------- project_so3


def test_project_so3_fixes_rotations():
    rng = np.random.default_rng(23)
    for _ in range(20):
        Q = random_rotation(rng)
        assert np.max(np.abs(project_so3(Q) - Q)) < 1e-14


def test_project_so3_rescales_inflated_identity():
    Q = project_so3(1.001 * np.eye(3))
    assert np.max(np.abs(Q - np.eye(3))) < 1e-12


def test_project_so3_small_skew_perturbation():
    # I + delta*hat(e3) projects to a rotation about e3 by ~delta
    delta = 1e-3
    M = np.eye(3) + delta * hat(E3)
    Q = project_so3(M)
    assert manifold_residual(embed(Q)) < 1e-12
    angle = np.arctan2(Q[1, 0], Q[0, 0])
    assert abs(angle - delta) < 1e-9
    assert abs(Q[2, 2] - 1.0) < 1e-12


def test_project_so3_rejects_far_inputs():
    with pytest.raises(ManifoldError):
        project_so3(2.0 * np.eye(3))  # gram defect 9 >> 0.5
    with pytest.raises(ManifoldError):
        project_so3(np.zeros((3, 3)))


def test_project_so3_rejects_reflections():
    M = np.diag([1.0, 1.0, -1.0]) + 1e-3 * np.ones((3, 3))
    with pytest.raises(ManifoldError):
        project_so3(M)


def reference_project_so3(M, tol=1e-14, max_iter=25):
    """Newton-Schulz with LAPACK det and a fresh Gram matrix each iteration."""
    if not np.linalg.norm(M.T @ M - np.eye(3)) < 0.5 or np.linalg.det(M) <= 0.0:
        raise ManifoldError("no nearby rotation")
    Q = M
    for _ in range(max_iter):
        G = Q.T @ Q
        if np.linalg.norm(G - np.eye(3)) <= tol:
            return Q
        Q = Q @ (1.5 * np.eye(3) - 0.5 * G)
    raise ManifoldError("did not converge")


def test_project_so3_matches_reference_over_drifts():
    # the same arithmetic in the same order, so the results are equal
    rng = np.random.default_rng(43)
    for drift in 10.0 ** np.arange(-12.0, -1.0):
        for _ in range(10):
            M = random_rotation(rng) + drift * rng.standard_normal((3, 3))
            assert np.array_equal(project_so3(M), reference_project_so3(M))


def loop_project_so3(M, tol=1e-14, max_iter=25):
    """project_so3 as it was before the Gram defect was carried forward:
    the first pass recomputes G - I and its vdot, and each pass rebuilds
    1.5 I.  Returns the rotation and the number of iterations taken."""
    eye = np.eye(3)
    G = M.T @ M
    D = G - eye
    gram_defect = math.sqrt(np.vdot(D, D))
    if not gram_defect < 0.5:
        raise ManifoldError("input too far from a rotation")
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = M.T.tolist()
    if a1 * (b2 * c3 - b3 * c2) + a2 * (b3 * c1 - b1 * c3) + a3 * (b1 * c2 - b2 * c1) <= 0.0:
        raise ManifoldError("input has non-positive determinant")
    Q = M
    for k in range(max_iter):
        D = G - eye
        if math.sqrt(np.vdot(D, D)) <= tol:
            return Q, k
        Q = Q @ (1.5 * eye - 0.5 * G)
        G = Q.T @ Q
    raise ManifoldError("projection did not converge")


def test_project_so3_matches_the_loop_oracle_bit_for_bit():
    # near-rotations that take no iteration, one, and two or more; the
    # transposed input is the layout the seeker projects
    rng = np.random.default_rng(61)
    counts = set()
    for drift in (0.0, 1e-16, 1e-12, 1e-9, 1e-6, 1e-4, 1e-2, 5e-2):
        for _ in range(8):
            M = random_rotation(rng) + drift * rng.standard_normal((3, 3))
            for inp in (M, np.ascontiguousarray(M.T).T):
                expected, iters = loop_project_so3(inp)
                counts.add(min(iters, 2))
                assert project_so3(inp).tobytes() == expected.tobytes()
    assert counts == {0, 1, 2}
    for M in (1.5 * np.eye(3), np.diag([1.0, 1.0, -1.0]) + 1e-6):
        with pytest.raises(ManifoldError):
            loop_project_so3(M)
        with pytest.raises(ManifoldError):
            project_so3(M)
    with pytest.raises(ManifoldError, match="too far"):
        project_so3(1.5 * np.eye(3))
    with pytest.raises(ManifoldError, match="determinant"):
        project_so3(np.diag([1.0, 1.0, -1.0]) + 1e-6)


def test_project_so3_rejects_nan_entry():
    M = np.eye(3)
    M[1, 2] = np.nan
    with pytest.raises(ManifoldError, match="too far"):
        project_so3(M)


def test_project_so3_rejects_reflection_with_small_gram_defect():
    rng = np.random.default_rng(47)
    for _ in range(10):
        M = random_rotation(rng) @ np.diag([1.0, -1.0, 1.0]) + 1e-9 * rng.standard_normal((3, 3))
        assert np.linalg.norm(M.T @ M - np.eye(3)) < 1e-7
        with pytest.raises(ManifoldError, match="determinant"):
            project_so3(M)


def test_project_so3_iteration_cap():
    M = random_rotation(np.random.default_rng(53)) + 1e-3 * np.ones((3, 3))
    with pytest.raises(ManifoldError, match="did not converge"):
        project_so3(M, max_iter=1)
    assert manifold_residual(embed(project_so3(M))) < 1e-14


def test_project_so3_rejects_bad_shape():
    with pytest.raises(DimensionError):
        project_so3(np.eye(2))
