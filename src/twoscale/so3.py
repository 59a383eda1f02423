"""Rotation frames: hat map, exponential, flat embedding, projection.

A frame is either a 3x3 rotation matrix Q or its flat embedding
q = (q1, q2, q3) in R^9, stacking the columns of Q.  The embedded
constraint set is: columns orthonormal and right-handed
(qi x qj = qk cyclically).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, ManifoldError

__all__ = [
    "hat",
    "exp_so3",
    "embed",
    "extract",
    "manifold_residual",
    "project_so3",
]

_SMALL_ANGLE = 1e-6
_EYE3 = np.eye(3)
_EYE3_THREE_HALVES = 1.5 * _EYE3


def _vec3(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise DimensionError(f"{name} must have shape (3,), got {v.shape}")
    return v


def hat(v: np.ndarray) -> np.ndarray:
    """Skew matrix of v, so that hat(v) @ u = v x u."""
    v = _vec3(v, "v")
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product for plain 3-vectors (faster than np.cross here).

    Also takes (3, B) stacks of B vectors stored column-wise, and returns
    the (3, B) stack of their cross products.
    """
    return np.array([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of 3-vectors, or column-wise over (3, B) stacks."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def exp_so3(omega: np.ndarray) -> np.ndarray:
    """Rotation exp(hat(omega)) via the Rodrigues formula.

    Below angle 1e-6 the sin/versine coefficients switch to their
    series so the formula stays accurate through zero.
    """
    w = _vec3(omega, "omega")
    theta2 = float(w @ w)
    theta = np.sqrt(theta2)
    if theta < _SMALL_ANGLE:
        a = 1.0 - theta2 / 6.0
        b = 0.5 - theta2 / 24.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta2
    K = hat(w)
    return np.eye(3) + a * K + b * (K @ K)


def embed(Q: np.ndarray) -> np.ndarray:
    """Flatten a frame matrix to the column-stacked 9-vector."""
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (3, 3):
        raise DimensionError(f"Q must have shape (3, 3), got {Q.shape}")
    return Q.T.reshape(9).copy()


def extract(q: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Frame matrix from a column-stacked 9-vector, validated.

    Raises ManifoldError when the constraint residual exceeds tol; pass
    tol=None to skip the check (hot loops that project separately).
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (9,):
        raise DimensionError(f"q must have shape (9,), got {q.shape}")
    Q = q.reshape(3, 3).T
    if tol is not None:
        res = manifold_residual(q)
        if not res < tol:
            raise ManifoldError(f"frame residual {res:.3g} exceeds tolerance {tol:.3g}")
    return Q


def manifold_residual(q: np.ndarray) -> float | np.ndarray:
    """Worst violation of the orthonormal right-handed column constraints.

    Max over |qi.qj - delta_ij| and the sup-norm of qi x qj - eps_ijk qk
    for all ordered pairs (the three cyclic pairs cover the rest exactly).
    Zero exactly on embedded rotations, NaN if any entry is NaN.  Takes
    one (9,) frame or a (K, 9) block of frames, one per row, and returns
    a scalar or the (K,) residuals.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim not in (1, 2) or q.shape[-1] != 9:
        raise DimensionError(f"q must have shape (9,) or (K, 9), got {q.shape}")
    x = q.T
    q1, q2, q3 = x[0:3], x[3:6], x[6:9]
    terms = [
        dot3(q1, q1) - 1.0, dot3(q2, q2) - 1.0, dot3(q3, q3) - 1.0,
        dot3(q1, q2), dot3(q2, q3), dot3(q3, q1),
        *(cross3(q1, q2) - q3), *(cross3(q2, q3) - q1), *(cross3(q3, q1) - q2),
    ]
    return np.max(np.abs(terms), axis=0)


def project_so3(M: np.ndarray, tol: float = 1e-14, max_iter: int = 25) -> np.ndarray:
    """Nearest rotation to a near-rotation matrix M.

    Newton-Schulz iteration Q <- Q (3I - Q^T Q) / 2, which converges
    quadratically to the orthogonal polar factor (the Frobenius-nearest
    rotation) and never flips orientation.  Requires ||M^T M - I||_F
    below 0.5 and positive determinant.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (3, 3):
        raise DimensionError(f"M must have shape (3, 3), got {M.shape}")
    G = M.T @ M
    D = G - _EYE3
    gram_defect = math.sqrt(np.vdot(D, D))  # np.linalg.norm(D), bit for bit
    if not gram_defect < 0.5:
        raise ManifoldError(
            f"input too far from a rotation: ||M^T M - I|| = {gram_defect:.3g} >= 0.5"
        )
    # det M = m1 . (m2 x m3); the Gram bound keeps |det M| above 0.35
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = M.T.tolist()
    if a1 * (b2 * c3 - b3 * c2) + a2 * (b3 * c1 - b1 * c3) + a3 * (b1 * c2 - b2 * c1) <= 0.0:
        raise ManifoldError("input has non-positive determinant, no nearby rotation")
    Q = M
    for _ in range(max_iter):
        if gram_defect <= tol:
            return Q
        Q = Q @ (_EYE3_THREE_HALVES - 0.5 * G)
        G = Q.T @ Q
        D = G - _EYE3
        gram_defect = math.sqrt(np.vdot(D, D))
    raise ManifoldError("projection did not converge; input too distorted")
