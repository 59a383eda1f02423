"""Rotation frames: hat map, exponential, flat embedding, projection.

A frame is either a 3x3 rotation matrix Q or its flat embedding
q = (q1, q2, q3) in R^9, stacking the columns of Q, with columns
orthonormal and right-handed (qi x qj = qk cyclically).  project_so3
works on q alone, in float arithmetic with no BLAS call.
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
# project_so3 stops once ||Q^T Q - I||_F is at most _PROJECT_TOL, and gives
# up after _PROJECT_MAX_ITER Newton-Schulz steps
_PROJECT_TOL = 1e-14
_PROJECT_MAX_ITER = 25


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


def project_so3(q: list | np.ndarray) -> list:
    """Nearest rotation to a near-rotation frame q, as a list of 9 floats.

    Newton-Schulz iteration Q <- Q (3I - Q^T Q) / 2 (Bjorck and Bowie,
    1971), which converges quadratically to the orthogonal polar factor
    and never flips orientation.  Float arithmetic on the nine entries of
    the column-stacked q (the layout of embed), with no BLAS call: the six
    Gram entries qi . qj, and new columns sum_i qi K_ij, K = 3I/2 - G/2.
    Requires ||Q^T Q - I||_F below 0.5 and a positive determinant.
    """
    try:
        a1, a2, a3, b1, b2, b3, c1, c2, c3 = map(float, q)
    except (TypeError, ValueError):
        raise DimensionError(f"q must be 9 numbers, got {q!r}") from None
    # det Q = q1 . (q2 x q3); the Gram bound keeps |det Q| above 0.35
    det = a1 * (b2 * c3 - b3 * c2) + a2 * (b3 * c1 - b1 * c3) + a3 * (b1 * c2 - b2 * c1)
    for k in range(_PROJECT_MAX_ITER):
        g11 = a1 * a1 + a2 * a2 + a3 * a3
        g22 = b1 * b1 + b2 * b2 + b3 * b3
        g33 = c1 * c1 + c2 * c2 + c3 * c3
        g12 = a1 * b1 + a2 * b2 + a3 * b3
        g13 = a1 * c1 + a2 * c2 + a3 * c3
        g23 = b1 * c1 + b2 * c2 + b3 * c3
        d11, d22, d33 = g11 - 1.0, g22 - 1.0, g33 - 1.0
        gram_defect = math.sqrt(
            d11 * d11 + d22 * d22 + d33 * d33 + 2.0 * (g12 * g12 + g13 * g13 + g23 * g23)
        )
        if k == 0:
            if not gram_defect < 0.5:
                raise ManifoldError(f"input too far from a rotation: ||M^T M - I|| = "
                                    f"{gram_defect:.3g} >= 0.5")
            if det <= 0.0:
                raise ManifoldError("input has non-positive determinant, no nearby rotation")
        if gram_defect <= _PROJECT_TOL:
            return [a1, a2, a3, b1, b2, b3, c1, c2, c3]
        k11, k22, k33 = 1.5 - 0.5 * g11, 1.5 - 0.5 * g22, 1.5 - 0.5 * g33
        k12, k13, k23 = -0.5 * g12, -0.5 * g13, -0.5 * g23
        a1, b1, c1 = (a1 * k11 + b1 * k12 + c1 * k13, a1 * k12 + b1 * k22 + c1 * k23,
                      a1 * k13 + b1 * k23 + c1 * k33)
        a2, b2, c2 = (a2 * k11 + b2 * k12 + c2 * k13, a2 * k12 + b2 * k22 + c2 * k23,
                      a2 * k13 + b2 * k23 + c2 * k33)
        a3, b3, c3 = (a3 * k11 + b3 * k12 + c3 * k13, a3 * k12 + b3 * k22 + c3 * k23,
                      a3 * k13 + b3 * k23 + c3 * k33)
    raise ManifoldError("projection did not converge; input too distorted")
