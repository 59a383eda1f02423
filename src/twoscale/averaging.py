"""Reduced systems, periodic correctors, and the bracket average.

Pipeline: restrict the oscillatory fields to the quasi-steady manifold
(build_reduced), solve the periodic boundary-value problems for the fast
correctors (build_b / solve_periodic_bvp), then average the reduced
system including the Lie-bracket term (average).  The order-one slow
drift f2~ = f2 + D_y f1 phi1 on y = phi0(x) is formed once (_order_one)
and read by f2_tilde, the source b2 and fbar.

Everything lives on one uniform phase grid (system._phase_grid), and the
problems are diagonal in its Fourier modes: a corrector is one small
solve per mode, its residual's d/dtau one product, the bracket one Parseval sum.
The spec's phase fields are read by one grid_terms call per grid (the
contract in OscillatorySystemSpec; phase_values checks every read).  Of
the two slow-state finite-difference Jacobians, fbar's differences the
f1 columns of F1, and b2's D_x phi1 differences the source b1 and
solves all n columns in one corrector sweep, since phi1 is linear in b1.
Each reads its 2n perturbed states in one call, on a block (the spec's
block contract).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .numkit import _square_matrix, jacobian_fd
from .system import OscillatorySystemSpec, _phase_grid, grid_terms, phase_values

__all__ = [
    "CorrectorSolution",
    "ReducedSystem",
    "AveragedSystem",
    "ReducedAveragedBundle",
    "build_b",
    "solve_periodic_bvp",
    "build_reduced",
    "average",
    "residual_bvp",
    "build_bundle",
    "values_at",
]

# each mode matrix i k w0 I - A must be safely invertible; beyond this the
# layer matrix is effectively resonant and the corrector problem ill-posed
_MAX_CONDITION = 1e12


def _contract(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Phase-wise out[k] = M[k] @ v[k], on C-ordered copies: einsum's
    rounding depends on memory order, which a spec's layout must not set."""
    return np.einsum("kij,kj->ki", np.ascontiguousarray(M), np.ascontiguousarray(v))


def _dy_jacobian(spec, x, y0: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """D_y F1 over the grid, (K, n+m, m).  Per part (the f1 rows, the g1
    rows) the spec's analytic df1_dy or dg1_dy when supplied, else that
    part's rows of one central-difference jacobian_fd of F1, whose one F1
    call takes the perturbed y as a block and x repeated on its rows."""
    parts = ((spec.df1_dy, 0, spec.n), (spec.dg1_dy, spec.n, spec.n + spec.m))
    if any(jac is None for jac, _, _ in parts):
        fd = jacobian_fd(
            lambda w: grid_terms(spec, np.tile(x, (len(w), 1)), w, taus, False)[0], y0
        )
    return np.concatenate([
        fd[:, a:b] if jac is None else phase_values(jac(x, y0, taus), x, taus, (b - a, spec.m))
        for jac, a, b in parts
    ], axis=1)


def _order_one(spec, phi1, x, taus: np.ndarray):
    """(F1, H) on y = phi0(x), each (K, n+m): F1 = (f1, g1) and the
    order-one drift H = F2 + D_y F1 phi1 = (f2~, g2 + D_y g1 phi1) along
    the first corrector.  f2~, fbar and the source b2 all read it here."""
    y0 = np.asarray(spec.phi0(x), dtype=float)
    F1, F2 = grid_terms(spec, x, y0, taus)
    return F1, F2 + _contract(_dy_jacobian(spec, x, y0, taus), phi1.values_at(x, taus))


def values_at(fun, x, taus: np.ndarray) -> np.ndarray:
    """Sample a phase-periodic map at a vector of K phases, (K, m).

    fun is either a grid callable (x, taus) -> (K, m), under the spec's
    phase-field contract, or an object exposing values_at(x, taus), as
    correctors and corrector sources do.
    """
    taus = np.asarray(taus, dtype=float)
    if hasattr(fun, "values_at"):
        return fun.values_at(x, taus)
    return np.asarray(fun(x, taus), dtype=float)


class CorrectorSolution:
    """Periodic solution of d phi/d tau = A phi + b(x, tau).

    Solved mode by mode on n_panels uniform phases (Trefethen, Spectral
    Methods in MATLAB, ch. 3): with w0 = 2 pi / T, the k-th Fourier mode
    of phi is (i k w0 I - A)^{-1} times that of b.  This is exact to
    rounding for a trigonometric-polynomial source of degree below
    n_panels / 2.  The mode inverses are cached at construction; b is
    read through values_at, and x is passed through to it untouched.
    """

    def __init__(self, A: np.ndarray, b, T: float, n_panels: int):
        A = _square_matrix(A, "A")
        self._taus = _phase_grid(T, n_panels)
        self.A = A
        self.b = b
        self.T = float(T)
        self.n_panels = int(n_panels)
        self.m = A.shape[0]
        self.h = self.T / self.n_panels

        k = np.arange(self.n_panels // 2 + 1)
        modes = (1j * (2.0 * np.pi / self.T)) * k[:, None, None] * np.eye(self.m) - A
        # a resonant mode is pure roundoff, which can be well-conditioned, so
        # test its smallest singular value against the spread and a floor
        sv = np.linalg.svd(modes, compute_uv=False)
        bad = np.flatnonzero(sv[:, -1] <= np.maximum(sv[:, 0] / _MAX_CONDITION, 1e-12))
        if bad.size:
            raise ConfigurationError(
                f"i k w0 I - A is numerically singular at mode k = {bad[0]} (smallest "
                f"singular value {sv[bad[0], -1]:.3g}); the layer matrix must be Hurwitz"
            )
        self._inv = np.linalg.inv(modes)

    def _sample_b(self, x, offset: float) -> np.ndarray:
        # the representation is T-periodic by construction, so phase-reducing
        # the offset is exact and keeps large arguments out of the trig calls
        taus = float(offset) % self.T + self._taus
        return phase_values(values_at(self.b, x, taus), x, taus, (self.m,))

    def _solve(self, beta: np.ndarray) -> np.ndarray:
        """The grid solution, (n_panels + 1, m, ...) with the first row
        repeated, for a source sampled on the grid, (n_panels, m, ...);
        trailing axes are sources solved independently, bit for bit."""
        beta_hat = np.fft.rfft(beta, axis=0)
        vals = np.fft.irfft(
            np.einsum("kij,kj...->ki...", self._inv, beta_hat), n=self.n_panels, axis=0
        )
        return np.concatenate([vals, vals[:1]])

    def _at_phases(self, on_grid, taus: np.ndarray) -> np.ndarray:
        """Rows at the given phases of on_grid(offset), a quantity on the
        grid offset + k h: grid-aligned phases share one call, any other
        phase takes row 0 of its own."""
        taus = np.asarray(taus, dtype=float)
        if taus.ndim != 1:
            raise DimensionError(f"taus must be a vector, got shape {taus.shape}")
        K = taus.shape[0]
        if K >= 2 and K <= self.n_panels + 1:
            d = np.diff(taus)
            tol = 1e-9 * max(self.h, 1.0)
            if np.all(np.abs(d - self.h) < tol):
                return on_grid(float(taus[0]))[:K]
        return np.stack([on_grid(float(t))[0] for t in taus])

    def __call__(self, x, tau: float) -> np.ndarray:
        return self.values_on_grid(x, tau)[0]

    def values_on_grid(self, x, offset: float = 0.0) -> np.ndarray:
        """phi(x, offset + k h) for k = 0..n_panels; the last row repeats the first."""
        return self._solve(self._sample_b(x, float(offset)))

    def values_at(self, x, taus: np.ndarray) -> np.ndarray:
        """Sample at the given phases; grid-aligned phases share one sweep."""
        return self._at_phases(lambda t: self.values_on_grid(x, t), taus)


def solve_periodic_bvp(A: np.ndarray, b, T: float, n_panels: int) -> CorrectorSolution:
    """Unique T-periodic solution of d phi/d tau = A phi + b(x, tau)."""
    return CorrectorSolution(A, b, T, n_panels)


class _MemoSource:
    """One slot of memoization for a corrector source, computed by its
    _values_at: a corrector and its residual check read the same grid."""

    def __init__(self, spec: OscillatorySystemSpec):
        self.spec = spec
        self._cache_key = None
        self._cache_val = None

    def _lookup(self, x, taus) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        taus = np.asarray(taus, dtype=float)
        key = (x.shape, x.tobytes(), taus.tobytes())
        if key != self._cache_key:
            self._cache_val = self._values_at(x, taus)
            self._cache_key = key
        return self._cache_val


class _FirstCorrectorSource(_MemoSource):
    """b1 = g1 - Dphi0 f1 on y = phi0(x): the fast source at the sqrt scale,
    (K, m) at a state and (B, K, m) on a block of B states."""

    def values_at(self, x, taus: np.ndarray) -> np.ndarray:
        return self._lookup(x, taus)

    def _values_at(self, x: np.ndarray, taus: np.ndarray) -> np.ndarray:
        spec = self.spec
        n = spec.n
        F1, _ = grid_terms(spec, x, np.asarray(spec.phi0(x), dtype=float), taus, False)
        return F1[..., n:] - F1[..., :n] @ np.swapaxes(spec.phi0_jacobian(x), -1, -2)

    def __call__(self, x, tau: float) -> np.ndarray:
        return self.values_at(x, np.array([float(tau)]))[0]


class _SecondCorrectorSource(_MemoSource):
    """b2 = g2 + D_y g1 phi1 - Dphi0 f2~ - Dx phi1 f1~ on y = phi0(x).

    Its first two terms and f2~ are the rows of _order_one's H.  phi1 is
    linear in its source b1, so Dx phi1 is phi1's solve of Dx b1: central
    differences of b1 (jacobian_fd, one b1 call on the block of perturbed
    states), all n columns in one sweep.
    """

    def __init__(self, spec: OscillatorySystemSpec, phi1: CorrectorSolution):
        super().__init__(spec)
        self.phi1 = phi1

    def values_at(self, x, taus: np.ndarray) -> np.ndarray:
        return self._lookup(x, taus)

    def _values_at(self, x: np.ndarray, taus: np.ndarray) -> np.ndarray:
        n = self.spec.n
        F1, H = _order_one(self.spec, self.phi1, x, taus)
        phi1 = self.phi1
        dphi1 = phi1._at_phases(
            lambda t: phi1._solve(jacobian_fd(lambda w: phi1._sample_b(w, t), x)), taus
        )
        return H[:, n:] - H[:, :n] @ self.spec.phi0_jacobian(x).T - _contract(dphi1, F1[:, :n])

    def __call__(self, x, tau: float) -> np.ndarray:
        return self.values_at(x, np.array([float(tau)]))[0]


def build_b(
    spec: OscillatorySystemSpec,
    index: int,
    phi1: CorrectorSolution | None = None,
):
    """Source term of the corrector problem at the given order (1 or 2).

    Order 2 needs the first corrector.
    """
    if index == 1:
        return _FirstCorrectorSource(spec)
    if index == 2:
        if phi1 is None:
            raise ConfigurationError("the order-2 source needs the first corrector phi1")
        return _SecondCorrectorSource(spec, phi1)
    raise ConfigurationError(f"corrector order must be 1 or 2, got {index}")


@dataclass
class ReducedSystem:
    """Oscillatory fields restricted to the quasi-steady manifold.

    f1_tilde(x, tau) = f1(x, phi0(x), tau); f2_tilde = f2 + D_y f1 phi1
    there is the order-one slow drift along the first corrector.
    """

    spec: OscillatorySystemSpec
    phi1: CorrectorSolution

    def f1_tilde(self, x: np.ndarray, tau: float) -> np.ndarray:
        return self.f1_values(x, np.array([float(tau)]))[0]

    def f2_tilde(self, x: np.ndarray, tau: float) -> np.ndarray:
        return self.f2_values(x, np.array([float(tau)]))[0]

    def f1_values(self, x: np.ndarray, taus: np.ndarray) -> np.ndarray:
        spec = self.spec
        y0 = np.asarray(spec.phi0(x), dtype=float)
        return grid_terms(spec, x, y0, np.asarray(taus, dtype=float), False)[0][..., : spec.n]

    def f2_values(self, x: np.ndarray, taus: np.ndarray) -> np.ndarray:
        _, H = _order_one(self.spec, self.phi1, x, np.asarray(taus, dtype=float))
        return H[:, : self.spec.n]


def build_reduced(spec: OscillatorySystemSpec, phi1: CorrectorSolution) -> ReducedSystem:
    """Restrict the slow fields to the quasi-steady manifold."""
    return ReducedSystem(spec=spec, phi1=phi1)


class AveragedSystem:
    """Phase average of the reduced system, bracket term included.

    fbar(x) = mean over one period of f2_tilde + (1/2) [F, f1_tilde], with
    [u, v] = (Dv) u - (Du) v and F the zero-mean antiderivative of f1_tilde.
    On phi1's grid of N phases (read in one sweep: a bundle has one grid),
    f2_tilde gives its grid mean and the bracket a Parseval sum over the
    modes G^_k of f1_tilde and dG^_k of its slow-state Jacobian
    (jacobian_fd, one f1_values call on the block of perturbed states):
    with F^_k = G^_k / (i k w0), w0 = 2 pi / T, it is -(1/2) sum_k w_k
    Im(dG^_k conj G^_k), w_k = c_k 2 / (k w0 N^2), c_k = 2 for 0 < k < N/2,
    1 at N/2 and 0 at k = 0 (Trefethen, Spectral Methods in MATLAB,
    ch. 3).  This assumes f1 has zero phase mean at every state, as
    check_assumption_A checks: F then has no secular part, and its constant
    of integration drops out of the bracket's mean.
    """

    def __init__(self, reduced: ReducedSystem):
        self.reduced = reduced
        T, N = reduced.spec.T, reduced.phi1.n_panels
        self._taus = _phase_grid(T, N)
        k = np.arange(1, N // 2 + 1)
        c = np.where(k < N // 2, 2.0, 1.0)
        self._weights = c * 2.0 / (k * (2.0 * np.pi / T) * N**2)

    def fbar(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        red = self.reduced
        n = red.spec.n
        if x.shape != (n,):
            raise DimensionError(f"x must have shape ({n},), got {x.shape}")
        taus = self._taus
        F1, H = _order_one(red.spec, red.phi1, x, taus)
        G_hat = np.fft.rfft(F1[:, :n], axis=0)[1:]
        dG_hat = np.fft.rfft(jacobian_fd(lambda w: red.f1_values(w, taus), x), axis=0)[1:]
        bracket = -0.5 * (self._weights @ _contract(dG_hat, np.conj(G_hat)).imag)
        return np.mean(H[:, :n], axis=0) + bracket


def average(reduced: ReducedSystem) -> AveragedSystem:
    """Average the reduced system over one period, on phi1's phase grid."""
    return AveragedSystem(reduced)


@dataclass
class ReducedAveragedBundle:
    """Correctors plus reduced and averaged systems for one spec."""

    phi1: CorrectorSolution
    phi2: CorrectorSolution
    reduced: ReducedSystem
    averaged: AveragedSystem


def build_bundle(spec: OscillatorySystemSpec, n_panels: int) -> ReducedAveragedBundle:
    """Run the whole construction once on one grid of n_panels phases:
    b1, phi1, b2, phi2, reduce, average (the spec is bundle.reduced.spec)."""
    phi1 = solve_periodic_bvp(spec.A, build_b(spec, 1), spec.T, n_panels)
    phi2 = solve_periodic_bvp(spec.A, build_b(spec, 2, phi1), spec.T, n_panels)
    reduced = build_reduced(spec, phi1)
    return ReducedAveragedBundle(phi1=phi1, phi2=phi2, reduced=reduced, averaged=average(reduced))


def residual_bvp(phi, A: np.ndarray, b, T: float, x=None, n_panels: int | None = None) -> float:
    """Defect of a claimed periodic corrector: the max over N uniform phases
    of ||d phi/d tau - A phi - b||_inf, plus the periodicity gap
    ||phi(x, 0) - phi(x, T)||_inf.  phi and b are read through values_at
    and phase_values, b on the grid a corrector sampled it on (its memo
    serves the read).  d phi/d tau is the solver's rule on phi's N values:
    rFFT, times i k w0 with the Nyquist mode's zero, irFFT.  A source the
    grid leaves unresolved can fold under the Nyquist mode unseen; N >= 8
    keeps the seeker's under-resolved phi2 visible.
    """
    A = np.asarray(A, dtype=float)
    if n_panels is None:
        n_panels = phi.n_panels if isinstance(phi, CorrectorSolution) else 256
    if n_panels < 8 or n_panels % 2 != 0:
        raise ConfigurationError(f"n_panels must be even and >= 8, got {n_panels}")

    # one sweep over the grid and T itself: (T / N) * N need not equal T
    taus = np.append(_phase_grid(T, n_panels), float(T))
    V = phase_values(values_at(phi, x, taus), x, taus, (len(A),))
    gap = float(np.max(np.abs(V[n_panels] - V[0])))
    V, taus = V[:n_panels], taus[:n_panels]
    B = phase_values(values_at(b, x, taus), x, taus, (len(A),))
    ik = (1j * (2.0 * np.pi / T)) * np.append(np.arange(n_panels // 2), 0.0)
    dV = np.fft.irfft(ik[:, None] * np.fft.rfft(V, axis=0), n=n_panels, axis=0)
    defect = float(np.max(np.abs(dV - V @ A.T - B)))
    return defect + gap
